"""Pinned plan-quality floor for the benchmark's model set, and the
one-DP dominance invariant over the whole zoo.

The repository benchmark rejects a change whose plans get worse
(``plan_cycles_geomean``, ``speedup_vs_cimmlc``); this is the same
measurement as a unit test, so an allocator or refinement change trips
here — in about a second — before it trips the benchmark gate.  The
floor is a floor, not a golden: better plans pass.

The default compile runs one DP.  What used to justify a second,
fixed-mode DP ("never ship a plan worse than the all-compute one") is
checked here instead, over zoo x presets x option matrix: the compile is
never slower than its ``allow_memory_mode=False`` twin, and the
:class:`~repro.pipeline.FixedModeFallback` oracle pass finds nothing to
rescue.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.api import Session
from repro.core.cache import AllocationCache
from repro.core.compiler import CMSwitchCompiler, CompilerOptions
from repro.core.segmentation import NetworkSegmenter, plan_cost
from repro.hardware import get_preset
from repro.models import Workload, build_model
from repro.models.registry import list_models
from repro.pipeline import FixedModeFallback, PipelineContext, build_pipeline

#: The benchmark's compile set (``bench/benchlib/base.py``) on ``dynaplasia``.
PAPER_SET = (
    ("mobilenet", Workload()),
    ("vgg16", Workload()),
    ("bert", Workload()),
    ("gpt2", Workload()),
    ("llama2-7b", Workload(seq_len=32)),
)
#: CIM-MLC as this repository models it: every array pinned to compute mode.
FIXED_MODE = CompilerOptions(allow_memory_mode=False, generate_code=False)


@pytest.fixture(scope="module")
def plans():
    """model → (dual-mode program, fixed-mode program)."""
    with Session(hardware="dynaplasia") as session:
        compiled = {}
        for model, workload in PAPER_SET:
            graph = build_model(model, workload)
            compiled[model] = (
                session.compile(graph),
                session.compile(graph, options=FIXED_MODE),
            )
        return compiled


def test_dual_mode_never_loses_to_fixed_mode(plans):
    for model, (dual, fixed) in plans.items():
        assert dual.end_to_end_cycles <= fixed.end_to_end_cycles, model


def test_geomean_speedup_over_fixed_mode_holds_the_floor(plans):
    ratios = [fixed.end_to_end_cycles / dual.end_to_end_cycles for dual, fixed in plans.values()]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    assert geomean >= 1.345


def test_llama2_v_proj_boundary_retains_its_inbound_data(plans):
    """The segment a min-array pick plus latency-only refinement got wrong.

    Its predecessor leaves ~3 arrays of live data; spending every spare
    array on duplication saved 75 cycles and cost 4864 of write-back.
    """
    dual, _ = plans["llama2-7b"]
    segment = next(
        s for s in dual.segments if s.operator_names[0].endswith("v_proj::part1")
    )
    assert segment.resources.memory_arrays >= 3
    assert segment.inter_breakdown["writeback"] <= 64.0


# ---------------------------------------------------------------------- #
# one DP dominates the fixed-mode DP (what FixedModeFallback used to guard)
# ---------------------------------------------------------------------- #
OPTION_MATRIX = (
    {},
    {"refine": False},
    {"pipelined": False},
    {"include_switch_cost": False},
)
#: On the 8-array chip the 6.7b+ LLMs and the VGGs flatten into 4k-10k
#: one-unit segments (seconds per compile, no window ever holds two
#: units); ``tests/test_segmentation.py`` covers that regime.
SMALL_CHIP_SKIPS = ("llama2", "opt-", "vgg")


def _zoo(chip):
    for model in list_models():
        if chip == "small-test-chip" and model.startswith(SMALL_CHIP_SKIPS):
            continue
        yield model, build_model(model, Workload(seq_len=32))


@pytest.mark.parametrize("chip", ["dynaplasia", "prime", "small-test-chip"])
def test_one_dp_never_loses_to_fixed_mode_anywhere(chip):
    hardware = get_preset(chip)
    for model, graph in _zoo(chip):
        cache = AllocationCache()  # the three compiles below share their solves
        for overrides in OPTION_MATRIX:
            case = f"{model} @ {chip} {overrides}"
            options = CompilerOptions(generate_code=False, **overrides)
            dual = CMSwitchCompiler(hardware, options, cache=cache).compile(graph)
            fixed = CMSwitchCompiler(
                hardware, replace(options, allow_memory_mode=False), cache=cache
            ).compile(graph)
            assert dual.end_to_end_cycles <= fixed.end_to_end_cycles, case
            # The oracle pass re-runs the DP in fixed mode and keeps the
            # faster plan: it must never find one.
            ctx = PipelineContext(
                graph=graph, hardware=hardware, options=options, cache=cache
            )
            build_pipeline().insert_after("allocate", FixedModeFallback()).run(ctx)
            assert plan_cost(ctx.result) * dual.block_repeat == pytest.approx(
                dual.end_to_end_cycles, rel=1e-12
            ), case
            if options.refine:
                # (Unrefined, an exact tie may go to the plan with fewer arrays.)
                assert not ctx.fallback_used, case


def test_bert_matches_the_plan_the_fallback_used_to_rescue(plans):
    """All-or-nothing reserves lost bert to fixed mode by 0.8 % (221 584.2)."""
    dual, fixed = plans["bert"]
    assert dual.end_to_end_cycles == pytest.approx(219812.73, abs=0.01)
    assert dual.end_to_end_cycles == fixed.end_to_end_cycles


@pytest.mark.parametrize("model", ["mobilenet", "vgg16", "llama2-7b"])
def test_some_chosen_segment_hands_out_its_reserve(model):
    graph = build_model(model, dict(PAPER_SET)[model])
    segmenter = NetworkSegmenter(get_preset("dynaplasia"))
    result = segmenter.segment(graph)
    unreserved = [
        window
        for window, chosen in segmenter._chosen.items()
        if chosen is segmenter._allocate(result.units, *window).unreserved
    ]
    assert unreserved, "every edge of the best plan kept its boundary reserve"
    assert len(unreserved) < len(result.segments), "and some edge must keep it"
