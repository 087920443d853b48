"""Output checks that do not trust the compiler's own bookkeeping.

A compiled program is accepted when its plan fits the chip and covers
the graph (re-derived here from the segments and the source graph), when
it is bit-identical to the program another path produced for the same
input, and — for the models small enough to execute — when the
functional simulator reproduces the dense reference execution.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sim import FunctionalSimulator

from .harness import Run, geomean


def structure_problems(program, graph) -> List[str]:
    """Why ``program`` is not a valid plan of ``graph`` on its chip ([] if it is)."""
    problems: List[str] = []
    budget = program.hardware.num_arrays
    placed: Counter = Counter()
    for segment in program.segments:
        arrays = sum(
            alloc.compute_arrays + alloc.memory_arrays
            for alloc in segment.allocations.values()
        ) + segment.boundary_memory_arrays
        if arrays > budget:
            problems.append(f"segment {segment.index} uses {arrays} > {budget} arrays")
        if set(segment.allocations) != set(segment.operator_names):
            problems.append(f"segment {segment.index} allocations do not match its operators")
        placed.update(segment.operator_names)
    repeated = [name for name, times in placed.items() if times != 1]
    if repeated:
        problems.append(f"operators placed more than once: {repeated[:3]}")
    # A partitioned operator appears as shards named "<parent>::partN".
    parents = {name.split("::", 1)[0] for name in placed}
    mappable = {op.name for op in graph.operators if op.is_cim_mappable}
    if parents != mappable:
        problems.append(
            f"placed operators differ from the graph's CIM-mappable ones: "
            f"{sorted(parents ^ mappable)[:3]}"
        )
    return problems


def check_programs(run: Run, label: str, programs: Sequence, graphs: Sequence) -> None:
    """One structure check per program."""
    for program, graph in zip(programs, graphs):
        problems = structure_problems(program, graph)
        run.check(f"{label}: {graph.name} plan fits chip and covers graph {problems}", not problems)


def check_fingerprints(
    run: Run, label: str, expected: Sequence[str], programs: Iterable
) -> None:
    """Programs must be bit-identical to the ones another path produced."""
    got = [program.fingerprint() for program in programs]
    run.check(f"{label}: fingerprints equal the reference compile", got == list(expected))


def functional_check(run: Run, label: str, cases: Sequence[Tuple[object, object]]) -> Dict[str, float]:
    """Execute (program, graph) pairs on the functional simulator.

    Returns the time spent and the worst absolute error, for the
    ``functional.*`` layer metrics.
    """
    start = time.perf_counter()
    worst = 0.0
    for program, graph in cases:
        report = FunctionalSimulator(program.hardware).run(program, graph)
        worst = max(worst, report.max_abs_error)
        run.check(f"{label}: {graph.name} matches the dense reference", report.all_matched)
    return {
        "functional.check_ms": (time.perf_counter() - start) * 1000.0,
        "functional.max_abs_error": worst,
    }


def plan_quality(dual_cycles: Sequence[float], fixed_cycles: Sequence[float]) -> Dict[str, float]:
    """The two plan-quality numbers: absolute latency and gain over CIM-MLC.

    ``fixed_cycles`` are the same inputs compiled with every array pinned
    to compute mode — CIM-MLC as this repository models it.  Both are
    geometric means over the workload's programs and repeat exactly.
    """
    return {
        "plan_cycles_geomean": geomean(dual_cycles),
        "speedup_vs_cimmlc": geomean(
            [fixed / dual for fixed, dual in zip(fixed_cycles, dual_cycles)]
        ),
    }
