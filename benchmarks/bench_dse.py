"""Benchmark: design-space exploration over a program store (repro.dse).

The DSE engine's value proposition is that exploring a design space a
*second* time — after a restart, a widened sweep, or on another machine
sharing the cache directory — costs almost nothing: every point the
first run compiled is one file read in the second.

The module doubles as a CI smoke script::

    PYTHONPATH=src python benchmarks/bench_dse.py --quick

which runs a small (model x array count x mode split) space twice
against one cache directory — a cold pass and a fresh-runner warm pass —
asserts the warm pass performs **zero** allocator solves with every
canonical job served from the program store, and writes the measured numbers to
``BENCH_dse.json`` for the performance-trajectory archive.

A second smoke covers the multi-fidelity evaluator tiering::

    PYTHONPATH=src python benchmarks/bench_dse.py --quick --fidelity auto

which explores the same 12-point space with the successive-halving
schedule (analytical rung 0, survivors compiled), asserts rung 0
performs **zero** allocator solves and that the schedule compiles at
least 5x fewer candidates than the all-compile grid baseline, and
writes ``BENCH_dse_fidelity.json``.
"""

import pytest

from conftest import record

from repro.dse import DesignSpace, DSERunner, SuccessiveHalvingStrategy
from repro.hardware import small_test_chip
from repro.models import Workload


def _quick_space() -> DesignSpace:
    """A tiny but non-trivial space: 2 models x 3 array counts x 2 modes."""
    return DesignSpace(
        models=["tiny-cnn", "tiny-mlp"],
        base_hardware=small_test_chip(),
        workloads=[Workload(batch_size=1, seq_len=16)],
        hardware_axes={"num_arrays": [4, 6, 8]},
        option_axes={"allow_memory_mode": [True, False]},
    )


def _run_twice(cache_dir):
    """Cold run + fresh-runner warm run against one cache directory."""
    cold = DSERunner(_quick_space(), strategy="grid", cache_dir=cache_dir).run()
    warm = DSERunner(_quick_space(), strategy="grid", cache_dir=cache_dir).run()
    return cold, warm


@pytest.mark.benchmark(group="dse")
def test_dse_warm_planning_speedup(benchmark, tmp_path_factory):
    """Second exploration of an overlapping space performs ~0 solves."""
    cache_dir = tmp_path_factory.mktemp("dse-cache")

    def run():
        return _run_twice(cache_dir)

    cold, warm = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"pass": "cold", "solves": cold.allocator_solves, "wall": cold.wall_seconds},
        {"pass": "warm", "solves": warm.allocator_solves, "wall": warm.wall_seconds},
    ]
    record(benchmark, rows, "")
    assert cold.allocator_solves > 0
    assert warm.allocator_solves == 0
    assert warm.cold_planned == 0


def _quick_smoke(cache_dir=None, json_out="BENCH_dse.json") -> int:
    """CI smoke: program-store speedup of a second overlapping exploration."""
    import tempfile

    from conftest import write_bench_record

    with tempfile.TemporaryDirectory(prefix="bench-dse-") as tmp:
        cold, warm = _run_twice(cache_dir or f"{tmp}/cache")
        speedup = cold.wall_seconds / warm.wall_seconds if warm.wall_seconds else float("inf")
        print(
            "dse smoke (program store, second run of an overlapping space):\n"
            f"  cold run : {cold.wall_seconds:.3f} s ({cold.allocator_solves} solves, "
            f"{cold.evaluated} evaluated, {cold.replicated} replicated, "
            f"{cold.warm_planned} served from the store)\n"
            f"  warm run : {warm.wall_seconds:.3f} s ({warm.allocator_solves} solves, "
            f"{warm.disk_hits} disk hits, {warm.warm_planned} served from the store)\n"
            f"  speedup  : {speedup:.1f}x"
        )
        write_bench_record(
            "dse_warm_planning_quick",
            json_out,
            cold_seconds=cold.wall_seconds,
            warm_seconds=warm.wall_seconds,
            speedup=speedup,
            allocator_solves_cold=cold.allocator_solves,
            allocator_solves_warm=warm.allocator_solves,
            disk_hits_warm=warm.disk_hits,
            points_evaluated=cold.evaluated,
            points_replicated=cold.replicated,
            warm_planned_warm_run=warm.warm_planned,
            cold_planned_warm_run=warm.cold_planned,
        )
        if warm.allocator_solves != 0 or cold.allocator_solves == 0:
            print("FAIL: warm exploration did not reuse the cold run's solves")
            return 1
        if warm.cold_planned != 0:
            print("FAIL: the program store did not serve every warm candidate")
            return 1
    return 0


@pytest.mark.benchmark(group="dse")
def test_dse_multifidelity_prunes_compiles(benchmark):
    """Auto fidelity compiles a fraction of the space, rung 0 solves nothing."""

    def run():
        auto = DSERunner(
            _quick_space(),
            strategy=SuccessiveHalvingStrategy(seed=0, keep_fraction=1 / 6),
            fidelity="auto",
        ).run()
        baseline = DSERunner(_quick_space(), strategy="grid", fidelity="compile").run()
        return auto, baseline

    auto, baseline = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, _fidelity_rows(auto, baseline), "")
    rung0 = [r for r in auto.new_records if r.fidelity == "analytical"]
    assert len(rung0) == 12
    assert sum(r.allocator_solves for r in rung0) == 0
    compiles_auto = auto.evaluated_by_fidelity.get("compile", 0)
    compiles_baseline = baseline.evaluated_by_fidelity.get("compile", 0)
    assert compiles_auto * 5 <= compiles_baseline


def _fidelity_rows(auto, baseline):
    return [
        {
            "schedule": "auto",
            "compiles": auto.evaluated_by_fidelity.get("compile", 0),
            "analytical": auto.evaluated_by_fidelity.get("analytical", 0),
            "solves": auto.allocator_solves,
            "wall": auto.wall_seconds,
        },
        {
            "schedule": "all-compile",
            "compiles": baseline.evaluated_by_fidelity.get("compile", 0),
            "analytical": 0,
            "solves": baseline.allocator_solves,
            "wall": baseline.wall_seconds,
        },
    ]


def _fidelity_smoke(cache_dir=None, json_out="BENCH_dse_fidelity.json") -> int:
    """CI smoke: the auto schedule prunes >=5x of the compile work."""
    from conftest import write_bench_record

    space = _quick_space()
    auto = DSERunner(
        space,
        strategy=SuccessiveHalvingStrategy(seed=0, keep_fraction=1 / 6),
        fidelity="auto",
        cache_dir=cache_dir,
    ).run()
    baseline = DSERunner(
        _quick_space(), strategy="grid", fidelity="compile", cache_dir=cache_dir
    ).run()

    rung0 = [r for r in auto.new_records if r.fidelity == "analytical"]
    rung0_solves = sum(r.allocator_solves for r in rung0)
    compiles_auto = auto.evaluated_by_fidelity.get("compile", 0)
    compiles_baseline = baseline.evaluated_by_fidelity.get("compile", 0)
    speedup = (
        baseline.wall_seconds / auto.wall_seconds if auto.wall_seconds else float("inf")
    )
    print(
        "dse multi-fidelity smoke (successive halving: a bound, then a plan):\n"
        f"  auto        : {auto.wall_seconds:.3f} s — {len(rung0)} analytical "
        f"({rung0_solves} solves), {compiles_auto} compiled, "
        f"{auto.allocator_solves} solves total\n"
        f"  all-compile : {baseline.wall_seconds:.3f} s — "
        f"{compiles_baseline} compiled, {baseline.allocator_solves} solves\n"
        f"  compile reduction: {compiles_baseline}/{compiles_auto} "
        f"(wall {speedup:.1f}x)"
    )
    write_bench_record(
        "dse_multifidelity_quick",
        json_out,
        analytical_evaluations=len(rung0),
        rung0_allocator_solves=rung0_solves,
        compiles_auto=compiles_auto,
        compiles_baseline=compiles_baseline,
        allocator_solves_auto=auto.allocator_solves,
        allocator_solves_baseline=baseline.allocator_solves,
        wall_seconds_auto=auto.wall_seconds,
        wall_seconds_baseline=baseline.wall_seconds,
    )
    if rung0_solves != 0 or len(rung0) != space.size:
        print("FAIL: rung 0 did not score the whole space analytically for free")
        return 1
    if compiles_auto == 0 or compiles_auto * 5 > compiles_baseline:
        print("FAIL: the auto schedule did not prune >=5x of the compile work")
        return 1
    return 0


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="run the CI smoke")
    parser.add_argument(
        "--fidelity",
        choices=["compile", "auto"],
        default="compile",
        help="compile: warm-planning smoke; auto: multi-fidelity smoke",
    )
    parser.add_argument(
        "--cache-dir", default=None, help="program-store directory"
    )
    parser.add_argument(
        "--json-out",
        default=None,
        help="machine-readable result record ('' disables; default depends on mode)",
    )
    cli_args, _ = parser.parse_known_args()
    if not cli_args.quick:
        parser.error("bench_dse.py currently only supports --quick (or run via pytest)")
    if cli_args.fidelity == "auto":
        json_out = (
            cli_args.json_out
            if cli_args.json_out is not None
            else "BENCH_dse_fidelity.json"
        )
        sys.exit(_fidelity_smoke(cache_dir=cli_args.cache_dir, json_out=json_out))
    json_out = cli_args.json_out if cli_args.json_out is not None else "BENCH_dse.json"
    sys.exit(_quick_smoke(cache_dir=cli_args.cache_dir, json_out=json_out))
