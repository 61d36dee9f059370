"""Run one workload: repetitions, peak search, traced run, report.

The entry point is ``run.py`` next to this file, which puts the
repository's ``src/`` on the import path first.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from reference import NOMINAL_S, Reference, scaled
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, host_us_per_req, percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".ddsbench"

MIN_REPS = 3
MAX_REPS = 8
#: A fixed-rate phase must finish every arrival at its due time.
LATE_TOLERANCE = 1e-9


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def sim_metrics(fixed) -> Dict[str, float]:
    """The deterministic end-to-end numbers of one fixed-rate phase."""
    lat = fixed.latencies
    return {
        "sim_read_p50_us": percentile(lat.get("read", []), 50) * 1e6,
        "sim_read_p99_us": percentile(lat.get("read", []), 99) * 1e6,
        "sim_write_p50_us": percentile(lat.get("write", []), 50) * 1e6,
        "sim_write_p99_us": percentile(lat.get("write", []), 99) * 1e6,
        "sim_p99_us": percentile(lat.get("read", []) + lat.get("write", []), 99)
        * 1e6,
        "sim_scan_p50_us": percentile(lat.get("scan", []), 50) * 1e6,
        "sim_host_cores": fixed.host_cores,
        "sim_dpu_cores": fixed.dpu_cores,
    }


def fingerprint(fixed) -> tuple:
    """What two runs of one seed must agree on exactly."""
    return (
        sim_metrics(fixed),
        fixed.events,
        fixed.attempted,
        fixed.failed,
        {kind: len(values) for kind, values in fixed.latencies.items()},
    )


def one_rep(workload, seed: int, reference: Optional[Reference] = None):
    """Build a fresh cluster and run the fixed-rate phase.

    Returns the deployment, the raw set-up seconds, the set-up seconds
    scaled to the nominal host (reference runs just before and after),
    and the phase.
    """
    gc.collect()
    before = reference.sample() if reference else NOMINAL_S
    begin = time.perf_counter()
    deployment = workload.build(seed)
    setup = time.perf_counter() - begin
    after = reference.sample() if reference else NOMINAL_S
    phase = workload.fixed_phase(deployment, seed, reference)
    return deployment, setup, scaled(setup, [before, after]), phase


def run_untraced(workload, seed: int, seconds: float):
    begin = time.perf_counter()
    reference = Reference()
    raw_setups: List[float] = []
    setups: List[float] = []
    fixed_runs = []
    deployment = None
    while len(fixed_runs) < MIN_REPS or (
        time.perf_counter() - begin < seconds and len(fixed_runs) < MAX_REPS
    ):
        deployment = None  # free the previous cluster before the next build
        deployment, raw, setup, fixed = one_rep(workload, seed, reference)
        raw_setups.append(raw)
        setups.append(setup)
        fixed_runs.append(fixed)
    # Before the peak search, whose overloaded probes hold seed-dependent
    # backlogs in memory.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peak, probes = workload.peak(deployment, seed, fixed_runs[-1])
    first = fixed_runs[0]
    metrics = {
        "setup_s": statistics.median(setups),
        "host_us_per_req": host_us_per_req(fixed_runs),
        "host_peak_rss_mb": rss_mb,
        "sim_peak_kops": peak / 1e3,
        **sim_metrics(first),
    }
    checks = {
        "outputs": all(f.wrong == 0 for f in fixed_runs + probes),
        "no_failed_ops": all(f.failed == 0 for f in fixed_runs),
        "repeatable": all(fingerprint(f) == fingerprint(first) for f in fixed_runs),
        "on_time": all(f.late_max < LATE_TOLERANCE for f in fixed_runs),
    }
    detail = {
        "reps": len(fixed_runs),
        "setup_s_raw": raw_setups,
        "host_us_per_req_raw": [f.host_s / f.completed * 1e6 for f in fixed_runs],
        "reference_ms": statistics.median(
            s for f in fixed_runs for s in f.references
        ) * 1e3,
        "samples": {kind: len(v) for kind, v in first.latencies.items()},
        "probes": [
            {"rate": p.rate, "meets": p.meets(workload.p99_limit),
             "failed": p.failed, "backlog": p.backlog}
            for p in probes
        ],
    }
    return metrics, checks, fixed_runs, detail


def run_traced(workload, seed: int, tracer: Optional[Tracer] = None):
    deployment, _raw, _setup, untraced = one_rep(workload, seed)
    deployment = None
    gc.collect()
    tracer = tracer or Tracer()
    with tracer:
        deployment = workload.build(seed)
        tracer.activate(deployment.env)
        try:
            traced = workload.fixed_phase(deployment, seed)
        finally:
            tracer.deactivate()
    metrics = layer_metrics(tracer, deployment, traced, untraced)
    metrics["trace.overhead_x"] = traced.host_s / untraced.host_s
    idle = tracer.idle_layers()
    metrics["trace.idle_layers"] = len(idle)
    checks = {
        "outputs": untraced.wrong == 0 and traced.wrong == 0,
        "no_failed_ops": untraced.failed == 0 and traced.failed == 0,
        "tracing_leaves_model_untouched": fingerprint(traced) == fingerprint(untraced),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write_tsv(OUT / f"spans-{workload.name}-seed{seed}.tsv")
    detail = {"idle_layers": idle, "spans": len(tracer.spans)}
    return metrics, checks, [untraced, traced], detail


def regressions(base: dict, new: dict, spec: dict) -> List[str]:
    """Gate two records of one workload and seed.

    A ``sim_*`` value is deterministic, so any change to it is flagged;
    a host metric is flagged when it is worse than ``base`` by more
    than its bound.
    """
    flagged = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        old, now = base["metrics"][name]["value"], new["metrics"][name]["value"]
        if name.startswith("sim_"):
            if old != now:
                flagged.append(name)
            continue
        worse = now - old if metric["better"] == "lower" else old - now
        if worse > metric["bound"] * old:
            flagged.append(name)
    return flagged


def run(workload, seed: int, seconds: float, trace: int) -> dict:
    """One run; prints a readable report and returns the full record."""
    spec = load_spec()
    if trace:
        values, checks, phases, detail = run_traced(workload, seed)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, checks, phases, detail = run_untraced(workload, seed, seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = all(checks.values())
    print(f"workload {workload.name}  seed {seed}  trace {trace}")
    for name, value in values.items():
        unit = units.get(name, "us" if name.endswith("_us") else "")
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(f"  {'failed_frac':40s} {failed / max(1, attempted):14.6f} ratio"
          f"  ({failed} of {attempted} ops)")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for key, value in detail.items():
        print(f"  {key}: {value}")
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "detail": detail,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one DDS benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    record = run(workload, args.seed, args.seconds, args.trace)
    print(json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    ))
    return 0 if record["correct"] else 1
