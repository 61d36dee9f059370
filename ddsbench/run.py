"""Run one DDS benchmark workload and print its metrics.

    python3 ddsbench/run.py --workload kv-read --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics.  The run repeats set-up
plus the fixed-rate phase, each time on a fresh cluster with the same
seed, until ``--seconds`` of host time have passed (at least three
times); host numbers are medians over the repetitions, and every
repetition must reproduce the first one's ``sim_*`` values and event
count exactly.  The peak search then probes higher rates on the last
cluster.

``--trace 1`` runs the fixed-rate phase once untraced and once with
span wrappers on every layer, prints the per-layer metrics, and checks
that the traced phase reproduced the untraced ``sim_*`` values and
event count exactly.  Spans are written to
``.ddsbench/spans-<workload>-seed<seed>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits 1 if any op failed or returned a wrong payload, or if a
determinism check failed; it exits 2 when the repository's ``src/``
is missing.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    from runner import main

    sys.exit(main())
