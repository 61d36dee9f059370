"""Each of the benchmark's checks can fail.

The model is patched at run time (no source file changes) and the
benchmark's own check has to catch it:

* a corrupted ``RamDisk.read`` fails the output check;
* a 1% longer SSD read latency changes a ``sim_*`` metric, which the
  exact gate on deterministic outputs flags;
* a dropped response counts as a failed op and does not hang the run;
* a span wrapper that adds one zero-delay timeout fails the traced
  run's equality check;
* 30% slower engine steps push ``host_us_per_req`` past its bound.

Run with ``python -m pytest ddsbench/tests``; the whole file takes
about a minute on two cores.
"""

import dataclasses
import time

import runner
from repro.core.server import StorageServerBase
from repro.hardware.ssd import NvmeDevice
from repro.sim.engine import Process
from repro.storage.disk import RamDisk
from spans import Tracer
from workloads import WORKLOADS

#: host-rw scaled down: the checks need correctness, not tail samples.
SMALL = dataclasses.replace(WORKLOADS["host-rw"], ops=3000, probe_ops=1500)
SEED = 5


def small_run(monkeypatch, seed=SEED):
    monkeypatch.setitem(runner.WORKLOADS, SMALL.name, SMALL)
    return runner.run(SMALL, seed, seconds=0, trace=0)


def test_clean_run_passes_every_check(monkeypatch):
    record = small_run(monkeypatch)
    assert record["correct"], record["checks"]
    assert record["failed"] == 0
    again = small_run(monkeypatch)
    flagged = runner.regressions(record, again, runner.load_spec())
    assert not [name for name in flagged if name.startswith("sim_")]


def test_corrupted_disk_read_fails_the_output_check(monkeypatch):
    original = RamDisk.read

    def corrupt(self, offset, size):
        data = original(self, offset, size)
        if size != 4096:  # leave metadata reads alone
            return data
        return data[:-1] + bytes([data[-1] ^ 0xFF])

    monkeypatch.setattr(RamDisk, "read", corrupt)
    phase = SMALL.fixed_phase(SMALL.build(SEED), SEED)
    assert phase.wrong > 0
    assert phase.failed >= phase.wrong
    monkeypatch.setitem(runner.WORKLOADS, SMALL.name, SMALL)
    assert runner.main(["--workload", SMALL.name, "--seed", str(SEED),
                        "--seconds", "0"]) == 1


def test_one_percent_ssd_latency_change_is_flagged(monkeypatch):
    base = small_run(monkeypatch)
    original = NvmeDevice.__init__

    def slower(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.spec = dataclasses.replace(
            self.spec, read_latency=self.spec.read_latency * 1.01
        )

    monkeypatch.setattr(NvmeDevice, "__init__", slower)
    changed = small_run(monkeypatch)
    flagged = runner.regressions(base, changed, runner.load_spec())
    assert any(name.startswith("sim_") for name in flagged), flagged


def test_dropped_response_fails_without_hanging(monkeypatch):
    original = StorageServerBase.submit
    dropped = []

    def lossy(self, flow, requests, on_response=None):
        if requests[0].request_id == 100:
            dropped.append(100)
            on_response = None
        return original(self, flow, requests, on_response)

    monkeypatch.setattr(StorageServerBase, "submit", lossy)
    began = time.perf_counter()
    phase = SMALL.fixed_phase(SMALL.build(SEED), SEED)
    assert dropped == [100]
    assert phase.unanswered == 1 and phase.failed == 1
    assert time.perf_counter() - began < 60


class SlippingTracer(Tracer):
    """A faulty tracer whose first generator span yields one extra
    zero-delay timeout before running the wrapped call."""

    slipped = False

    def _drive(self, gen, span, args, post):
        if not self.slipped:
            self.slipped = True
            yield self.env.timeout(0)
        return (yield from super()._drive(gen, span, args, post))


def test_trace_equality_catches_an_extra_event():
    _m, checks, _phases, _d = runner.run_traced(SMALL, SEED)
    assert checks["tracing_leaves_model_untouched"]
    _m, checks, _phases, _d = runner.run_traced(SMALL, SEED, SlippingTracer())
    assert not checks["tracing_leaves_model_untouched"]


def test_thirty_percent_slower_steps_exceed_the_host_bound(monkeypatch):
    base = small_run(monkeypatch)
    original = Process._step

    def slow_step(self, send=None, throw=None):
        began = time.perf_counter()
        original(self, send, throw)
        stop = time.perf_counter() + 0.3 * (time.perf_counter() - began)
        while time.perf_counter() < stop:
            pass

    monkeypatch.setattr(Process, "_step", slow_step)
    slowed = small_run(monkeypatch)
    flagged = runner.regressions(base, slowed, runner.load_spec())
    assert "host_us_per_req" in flagged
    sims = [m for m in base["metrics"] if m.startswith("sim_")]
    assert all(base["metrics"][m] == slowed["metrics"][m] for m in sims)
