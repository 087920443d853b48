#!/usr/bin/env python3
"""Run one benchmark workload: ``python3 bench/run.py --workload NAME --seed N``.

Prints every metric by name with its unit, then — as the last line — one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
with ``--trace 1`` the per-layer ones.  See ``bench/README.md``.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

from benchlib.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], started=_STARTED, handle_signals=True))
