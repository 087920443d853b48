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

from ..baselines import CIMMLCCompiler
from ..core.cache import AllocationCache
from ..core.compiler import CMSwitchCompiler, CompilerOptions
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import dynaplasia
from ..models.registry import build_model
from .common import FIG14_MODELS, encode_workload, format_table


def measure_compile_time(
    hardware: Optional[DualModeHardwareAbstraction] = None,
    models: Sequence[str] = FIG14_MODELS,
    batch_size: int = 1,
    seq_len: int = 64,
    repeats: int = 1,
    cache: Optional[AllocationCache] = None,
) -> List[Dict]:
    """Measure CMSwitch and CIM-MLC compilation time per benchmark.

    Args:
        repeats: Number of compilations averaged per measurement (the
            paper uses 20; benchmarks here default to 1 for speed).
        cache: Optional shared :class:`AllocationCache` given to every
            CMSwitch compile.  With a cache, structurally repeated
            windows and repeated compiles reuse solves, which is exactly
            the compile-time lever the Fig. 18 discussion asks for; each
            row then reports the observed hit rate.

    Returns one row per model with both times, their ratio and the
    CMSwitch allocation-cache hit rate (0 when no cache is used).
    """
    hardware = hardware or dynaplasia()
    rows: List[Dict] = []
    for model in models:
        workload = encode_workload(model, batch_size, seq_len)
        graph = build_model(model, workload)
        cms_time, cms_program = _time_compiler(
            lambda: CMSwitchCompiler(
                hardware, CompilerOptions(generate_code=False), cache=cache
            ),
            graph,
            repeats,
        )
        mlc_time, _ = _time_compiler(lambda: CIMMLCCompiler(hardware), graph, repeats)
        # The pass pipeline attributes the compile time: the DP
        # (`segment`) is the solver-bound stage Fig. 18's overhead
        # discussion is about.
        pass_seconds = (
            cms_program.stats.get("pass_seconds", {}) if cms_program is not None else {}
        )
        rows.append(
            {
                "model": model,
                "cmswitch_seconds": cms_time,
                "cim-mlc_seconds": mlc_time,
                "overhead_ratio": cms_time / mlc_time if mlc_time > 0 else float("inf"),
                "segment_seconds": pass_seconds.get("segment", 0.0),
                "cmswitch_cache_hit_rate": (
                    cms_program.stats.get("allocation_cache_hit_rate", 0.0)
                    if cms_program is not None
                    else 0.0
                ),
            }
        )
    return rows


def _time_compiler(factory, graph, repeats: int) -> Tuple[float, Optional[object]]:
    """Average wall-clock compile time over ``repeats`` fresh compilers.

    Returns the average seconds and the last compiled program (for its
    statistics).
    """
    total = 0.0
    program = None
    for _ in range(max(1, repeats)):
        compiler = factory()
        start = time.perf_counter()
        program = compiler.compile(graph)
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
        "cmswitch_cache_hit_rate",
    ]
    return format_table(rows, columns)


def cached_compile_speedup(
    hardware: Optional[DualModeHardwareAbstraction] = None,
    models: Sequence[str] = ("mobilenet", "bert"),
    batch_size: int = 1,
    seq_len: int = 32,
) -> Dict[str, float]:
    """Cold-vs-warm demonstration of the shared allocation cache.

    Every model is compiled twice against one shared cache.  The cold
    pass populates it; the warm pass should hit everywhere.  Used by the CI
    smoke invocation of ``benchmarks/bench_fig18_compile_time.py`` so a
    compile-time regression (or a cache regression) is visible in logs.

    Returns:
        ``{"cold_seconds", "warm_seconds", "speedup", "warm_hit_rate",
        "allocator_solves_cold", "allocator_solves_warm"}``.
    """
    hardware = hardware or dynaplasia()
    cache = AllocationCache()
    options = CompilerOptions(generate_code=False)
    graphs = [
        build_model(model, encode_workload(model, batch_size, seq_len)) for model in models
    ]

    def one_pass() -> Tuple[float, int, int, float]:
        seconds = 0.0
        solves = 0
        hits = 0
        for graph in graphs:
            start = time.perf_counter()
            program = CMSwitchCompiler(hardware, options, cache=cache).compile(graph)
            seconds += time.perf_counter() - start
            solves += program.stats["allocator_solves"]
            hits += program.stats["allocation_cache_hits"]
        rate = hits / (hits + solves) if (hits + solves) else 0.0
        return seconds, solves, hits, rate

    cold_seconds, cold_solves, _, _ = one_pass()
    warm_seconds, warm_solves, _, warm_rate = one_pass()
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
