"""Shared helpers of the two benchmark scripts (Fig. 18 and DSE).

Each script is a pytest-benchmark entry point plus a ``--quick`` smoke.
A benchmark stores its result rows in ``benchmark.extra_info`` so the
JSON output of pytest-benchmark doubles as the experiment record, and
also prints the rendered table.  The paper's claims are checked by the
ledger in ``tests/test_paper_claims.py``, not here.
"""

from __future__ import annotations

import pytest

from repro.hardware import dynaplasia


@pytest.fixture(scope="session")
def chip():
    """The DynaPlasia-like target chip used by all benchmarks."""
    return dynaplasia()


def record(benchmark, rows, report: str = "") -> None:
    """Attach experiment rows to the benchmark record and print the report."""
    benchmark.extra_info["rows"] = rows
    if report:
        print()
        print(report)


def write_bench_record(name: str, path: str, **fields) -> None:
    """Write a machine-readable ``BENCH_*.json`` result record.

    Shared by the ``--quick`` smoke modes so every benchmark emits the
    same envelope (benchmark name, timestamp, Python version) and a
    schema change lands in one place.  ``path`` may be empty to disable.
    """
    import json
    import platform
    import time

    if not path:
        return
    payload = {
        "benchmark": name,
        "timestamp": time.time(),
        "python": platform.python_version(),
        **fields,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"  record   : {path}")
