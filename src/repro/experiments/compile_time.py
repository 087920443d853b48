"""Compilation-overhead study — Fig. 18 of the paper.

CMSwitch explores a strictly larger optimisation space than CIM-MLC (the
dual-mode dimension: every window solved over compute *and* memory
candidates, every edge relaxed with and without its boundary reserve),
so its compilation takes a multiple of CIM-MLC's time — the paper reports 2.8x–6.3x,
with CNNs costing more than transformers because transformer blocks are
compiled once and reused across layers.  This experiment measures both
compilers' wall-clock compilation time on the Fig. 14 benchmark set.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import Session
from ..core.cache import AllocationCache
from ..core.program import CompiledProgram
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import dynaplasia
from ..ir.graph import Graph
from ..models.registry import build_model
from .common import FIG14_MODELS, FIGURE_OPTIONS, encode_workload, format_table


def measure_compile_time(
    hardware: Optional[DualModeHardwareAbstraction] = None,
    models: Sequence[str] = FIG14_MODELS,
    batch_size: int = 1,
    seq_len: int = 64,
    repeats: int = 1,
) -> List[Dict]:
    """Measure CMSwitch and CIM-MLC compilation time per benchmark.

    Every compile is a real one: the experiment runs on its own
    ``Session(hardware, use_cache=False)`` — no program table, no window
    cache — and so takes no ``session``.

    Args:
        repeats: Number of compilations averaged per measurement (the
            paper uses 20; benchmarks here default to 1 for speed).

    Returns one row per model with both times, their ratio and the time
    CMSwitch spent in its DP (the ``segment`` pass).
    """
    hardware = hardware or dynaplasia()
    session = Session(hardware, use_cache=False)
    rows: List[Dict] = []
    for model in models:
        graph = build_model(model, encode_workload(model, batch_size, seq_len))
        cms_time, cms_program = _time_compile(session, graph, "cmswitch", repeats)
        mlc_time, _ = _time_compile(session, graph, "cim-mlc", repeats)
        rows.append(
            {
                "model": model,
                "cmswitch_seconds": cms_time,
                "cim-mlc_seconds": mlc_time,
                "overhead_ratio": cms_time / mlc_time if mlc_time > 0 else float("inf"),
                # The DP (`segment`) is the solver-bound stage Fig. 18's
                # overhead discussion is about.
                "segment_seconds": cms_program.stats["pass_seconds"].get("segment", 0.0),
            }
        )
    return rows


def _time_compile(
    session: Session, graph: Graph, compiler: str, repeats: int
) -> Tuple[float, CompiledProgram]:
    """Average wall-clock time of ``repeats`` compiles; the last program."""
    total = 0.0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        program = session.compile(graph, options=FIGURE_OPTIONS, compiler=compiler)
        total += time.perf_counter() - start
    return total / max(1, repeats), program


def render_report(rows: Sequence[Dict]) -> str:
    """Text rendering of the Fig. 18 compilation-time comparison."""
    columns = [
        "model",
        "cmswitch_seconds",
        "cim-mlc_seconds",
        "overhead_ratio",
        "segment_seconds",
    ]
    return format_table(rows, columns)


def cached_compile_speedup(
    hardware: Optional[DualModeHardwareAbstraction] = None,
    models: Sequence[str] = ("mobilenet", "bert"),
    batch_size: int = 1,
    seq_len: int = 32,
) -> Dict[str, float]:
    """Cold-vs-warm demonstration of the shared allocation cache.

    Every model is compiled twice against one shared window cache, each
    pass in its own session (so the warm pass walks the DP over warm
    windows instead of finding the whole program in a table).  The cold
    pass populates the cache; the warm pass should hit everywhere.  Used
    by the CI smoke invocation of
    ``benchmarks/bench_fig18_compile_time.py`` so a compile-time
    regression (or a cache regression) is visible in logs.

    Returns:
        ``{"cold_seconds", "warm_seconds", "speedup", "warm_hit_rate",
        "allocator_solves_cold", "allocator_solves_warm"}``.
    """
    hardware = hardware or dynaplasia()
    graphs = [
        build_model(model, encode_workload(model, batch_size, seq_len)) for model in models
    ]

    def one_pass(session: Session) -> Tuple[float, int, float]:
        seconds = 0.0
        solves = 0
        hits = 0
        for graph in graphs:
            start = time.perf_counter()
            program = session.compile(graph, options=FIGURE_OPTIONS)
            seconds += time.perf_counter() - start
            solves += program.stats["allocator_solves"]
            hits += program.stats["allocation_cache_hits"]
        rate = hits / (hits + solves) if (hits + solves) else 0.0
        return seconds, solves, rate

    cache = AllocationCache()
    cold_seconds, cold_solves, _ = one_pass(Session(hardware, cache=cache))
    warm_seconds, warm_solves, warm_rate = one_pass(Session(hardware, cache=cache))
    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
        "warm_hit_rate": warm_rate,
        "allocator_solves_cold": cold_solves,
        "allocator_solves_warm": warm_solves,
    }


def main() -> None:  # pragma: no cover - convenience CLI
    """Print the Fig. 18 reproduction."""
    print(render_report(measure_compile_time()))


if __name__ == "__main__":  # pragma: no cover
    main()
