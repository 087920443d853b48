"""Figure 18: compilation overhead of CMSwitch vs. CIM-MLC.

CMSwitch explores the additional dual-mode dimension, so its compilation
time is a small multiple of CIM-MLC's — the paper reports 2.8x-6.3x, with CNNs costing more than
transformers because a transformer block is compiled once and reused.

Besides the pytest-benchmark entry point, the module doubles as a CI
smoke script::

    PYTHONPATH=src python benchmarks/bench_fig18_compile_time.py --quick

which compiles a small model set twice against a shared in-memory
allocation cache and prints the warm-pass hit rate and speedup, making
compile-time (and cache) regressions visible straight from CI logs.  The
cold pass always solves: nothing here touches a disk.
"""

import pytest

from conftest import record

from repro.experiments import measure_compile_time
from repro.experiments.compile_time import render_report


@pytest.mark.benchmark(group="fig18")
def test_fig18_compilation_overhead(benchmark, chip):
    """Wall-clock compilation time, CMSwitch vs CIM-MLC (Fig. 18)."""
    rows = benchmark.pedantic(
        lambda: measure_compile_time(hardware=chip, repeats=1), rounds=1, iterations=1
    )
    record(benchmark, rows, render_report(rows))

    # CMSwitch compiles slower than CIM-MLC but stays within a small multiple.
    for row in rows:
        assert row["overhead_ratio"] >= 1.0
        assert row["overhead_ratio"] <= 20.0
    # Transformers reuse per-block compilation, so they compile faster than
    # the CNNs with their dozens of distinct convolution shapes.
    by_model = {row["model"]: row["cmswitch_seconds"] for row in rows}
    assert by_model["llama2-7b"] <= by_model["resnet18"] * 2.0


def _quick_smoke(json_out="BENCH_fig18.json") -> int:
    """CI smoke: cold/warm compile with a shared cache; print hit rate.

    Besides the human-readable report, the measured numbers are written
    to ``json_out`` as a machine-readable ``BENCH_*.json`` record so CI
    can archive the performance trajectory across commits.
    """
    from conftest import write_bench_record

    from repro.experiments.compile_time import cached_compile_speedup

    stats = cached_compile_speedup()
    print(
        "compile-time smoke (shared allocation cache):\n"
        f"  cold pass : {stats['cold_seconds']:.3f} s "
        f"({stats['allocator_solves_cold']} allocator solves)\n"
        f"  warm pass : {stats['warm_seconds']:.3f} s "
        f"({stats['allocator_solves_warm']} allocator solves)\n"
        f"  cache hit rate (warm): {100.0 * stats['warm_hit_rate']:.1f}%\n"
        f"  speedup   : {stats['speedup']:.1f}x"
    )
    write_bench_record("fig18_compile_time_quick", json_out, **stats)
    # The warm pass must reuse the cold pass's solves; anything less than a
    # near-total hit rate signals a cache-key regression.
    if stats["warm_hit_rate"] < 0.95 or stats["allocator_solves_warm"] > stats[
        "allocator_solves_cold"
    ]:
        print("FAIL: warm pass did not reuse cached allocations")
        return 1
    # A "cold" pass that solves nothing was served from somewhere it
    # should not have been (a record saying so was once generated).
    if stats["allocator_solves_cold"] <= 0:
        print("FAIL: the cold pass performed no allocator solves")
        return 1
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run the CI smoke")
    parser.add_argument(
        "--json-out",
        default="BENCH_fig18.json",
        help="machine-readable result record ('' disables)",
    )
    cli_args, _ = parser.parse_known_args()
    if cli_args.quick:
        sys.exit(_quick_smoke(json_out=cli_args.json_out))
    print(render_report(measure_compile_time()))
