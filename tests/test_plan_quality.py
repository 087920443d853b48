"""Pinned plan-quality floor for the benchmark's model set.

The repository benchmark rejects a change whose plans get worse
(``plan_cycles_geomean``, ``speedup_vs_cimmlc``); this is the same
measurement as a unit test, so an allocator or refinement change trips
here — in about a second — before it trips the benchmark gate.  The
floor is a floor, not a golden: better plans pass.
"""

from __future__ import annotations

import math

import pytest

from repro.api import Session
from repro.core.compiler import CompilerOptions
from repro.models import Workload, build_model

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
