"""Tests for the per-segment dual-mode allocation engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    AllocationResult,
    GreedyAllocator,
    MIPAllocator,
    allocate_segment,
    candidate_allocations,
    infeasible_result,
    minimum_compute_arrays,
    refine_with_spare_arrays,
    segment_fits,
)
from repro.cost import OperatorAllocation, operator_latency_cycles, profile_operator, segment_latency_cycles
from repro.hardware import small_test_chip
from repro.ir import Linear, MatMul, TensorSpec


def linear_profile(name, m=32, k=128, n=128):
    op = Linear(
        name,
        input=TensorSpec(f"{name}_x", (m, k)),
        output=TensorSpec(f"{name}_y", (m, n)),
        weight=TensorSpec(f"{name}_w", (k, n)),
    )
    return profile_operator(op)


def matmul_profile(name, b=4, m=16, k=64, n=64):
    op = MatMul(
        name,
        lhs=TensorSpec(f"{name}_a", (b, m, k)),
        rhs=TensorSpec(f"{name}_b", (b, k, n)),
        output=TensorSpec(f"{name}_c", (b, m, n)),
    )
    return profile_operator(op)


@pytest.fixture
def mixed_segment():
    return {
        "proj": linear_profile("proj", 32, 128, 128),
        "attn": matmul_profile("attn", 4, 32, 64, 64),
    }


class TestCandidates:
    def test_candidates_respect_budget(self, small_chip):
        profile = linear_profile("p", 32, 256, 256)
        for candidate in candidate_allocations(profile, small_chip, small_chip.num_arrays):
            assert candidate.total_arrays <= small_chip.num_arrays

    def test_candidates_start_at_minimum_footprint(self, small_chip):
        profile = linear_profile("p", 32, 128, 128)
        minimum = profile.min_compute_arrays(small_chip)
        candidates = candidate_allocations(profile, small_chip, small_chip.num_arrays)
        assert all(c.compute_arrays >= minimum for c in candidates)

    def test_candidates_form_pareto_frontier(self, small_chip):
        profile = matmul_profile("p", 8, 32, 64, 64)
        candidates = candidate_allocations(profile, small_chip, small_chip.num_arrays)
        for earlier, later in zip(candidates, candidates[1:]):
            assert later.total_arrays > earlier.total_arrays
            assert later.latency_cycles < earlier.latency_cycles

    def test_memory_mode_disallowed(self, small_chip):
        profile = matmul_profile("p")
        candidates = candidate_allocations(
            profile, small_chip, small_chip.num_arrays, allow_memory_mode=False
        )
        assert all(c.memory_arrays == 0 for c in candidates)

    def test_oversized_operator_has_no_candidates(self, small_chip):
        profile = linear_profile("p", 4, 64 * 20, 64 * 20)  # needs 400 arrays
        assert candidate_allocations(profile, small_chip, small_chip.num_arrays) == []

    def test_candidate_count_capped(self, small_chip):
        profile = matmul_profile("p", 16, 64, 64, 64)
        candidates = candidate_allocations(
            profile, small_chip, small_chip.num_arrays, max_candidates=5
        )
        assert len(candidates) <= 5


class TestFeasibilityHelpers:
    def test_minimum_compute_arrays_sum(self, small_chip, mixed_segment):
        total = minimum_compute_arrays(mixed_segment, small_chip)
        expected = sum(
            max(1, p.min_compute_arrays(small_chip)) for p in mixed_segment.values()
        )
        assert total == expected

    def test_segment_fits(self, small_chip, mixed_segment):
        assert segment_fits(mixed_segment, small_chip)

    def test_segment_does_not_fit(self, small_chip):
        oversized = {f"op{i}": linear_profile(f"op{i}", 4, 256, 256) for i in range(4)}
        assert not segment_fits(oversized, small_chip)

    def test_infeasible_result_shape(self):
        result = infeasible_result()
        assert not result.feasible
        assert result.latency_cycles == float("inf")
        assert result.total_arrays == 0


class TestGreedyAllocator:
    def test_budget_respected(self, small_chip, mixed_segment):
        result = GreedyAllocator().allocate(mixed_segment, small_chip)
        assert result.feasible
        assert result.total_arrays <= small_chip.num_arrays

    def test_every_operator_allocated(self, small_chip, mixed_segment):
        result = GreedyAllocator().allocate(mixed_segment, small_chip)
        assert set(result.allocations) == set(mixed_segment)
        assert all(a.compute_arrays >= 1 for a in result.allocations.values())

    def test_memory_mode_disabled(self, small_chip, mixed_segment):
        result = GreedyAllocator(allow_memory_mode=False).allocate(mixed_segment, small_chip)
        assert all(a.memory_arrays == 0 for a in result.allocations.values())

    def test_infeasible_segment_reported(self, small_chip):
        oversized = {f"op{i}": linear_profile(f"op{i}", 4, 256, 256) for i in range(4)}
        assert not GreedyAllocator().allocate(oversized, small_chip).feasible

    def test_empty_segment(self, small_chip):
        result = GreedyAllocator().allocate({}, small_chip)
        assert result.feasible and result.latency_cycles == 0.0

    def test_latency_matches_reported_allocation(self, small_chip, mixed_segment):
        result = GreedyAllocator().allocate(mixed_segment, small_chip)
        recomputed = segment_latency_cycles(mixed_segment, result.allocations, small_chip)
        assert result.latency_cycles == pytest.approx(recomputed)


class TestMIPAllocator:
    def test_budget_respected(self, small_chip, mixed_segment):
        result = MIPAllocator().allocate(mixed_segment, small_chip)
        assert result.feasible
        assert result.total_arrays <= small_chip.num_arrays

    def test_not_worse_than_greedy(self, small_chip, mixed_segment):
        milp = MIPAllocator().allocate(mixed_segment, small_chip)
        greedy = GreedyAllocator().allocate(mixed_segment, small_chip)
        assert milp.latency_cycles <= greedy.latency_cycles * 1.05

    def test_memory_mode_disabled(self, small_chip, mixed_segment):
        result = MIPAllocator(allow_memory_mode=False).allocate(mixed_segment, small_chip)
        assert all(a.memory_arrays == 0 for a in result.allocations.values())

    def test_single_operator_segment(self, small_chip):
        profiles = {"only": matmul_profile("only", 8, 32, 64, 64)}
        result = MIPAllocator().allocate(profiles, small_chip)
        assert result.feasible
        assert result.allocations["only"].compute_arrays >= 1

    def test_infeasible_segment_reported(self, small_chip):
        oversized = {f"op{i}": linear_profile(f"op{i}", 4, 256, 256) for i in range(4)}
        result = allocate_segment(oversized, small_chip, allocator=MIPAllocator())
        assert not result.feasible

    def test_dual_mode_not_worse_than_all_compute(self, small_chip):
        profiles = {
            "stream": matmul_profile("stream", 2, 64, 64, 64),
            "dense": linear_profile("dense", 256, 64, 64),
        }
        dual = allocate_segment(profiles, small_chip, allocator=MIPAllocator())
        fixed = allocate_segment(
            profiles, small_chip, allocator=MIPAllocator(allow_memory_mode=False)
        )
        assert dual.feasible and fixed.feasible
        assert dual.latency_cycles <= fixed.latency_cycles * 1.001


class TestRefinement:
    def test_refine_never_worsens(self, small_chip, mixed_segment):
        base = GreedyAllocator().allocate(mixed_segment, small_chip)
        refined = refine_with_spare_arrays(base, mixed_segment, small_chip)
        assert refined.latency_cycles <= base.latency_cycles + 1e-9

    def test_refine_respects_reserve(self, small_chip):
        profiles = {"proj": linear_profile("proj", 32, 128, 128)}
        minimal = {
            name: OperatorAllocation(max(1, p.min_compute_arrays(small_chip)), 0)
            for name, p in profiles.items()
        }
        base = AllocationResult(
            allocations=minimal,
            latency_cycles=segment_latency_cycles(profiles, minimal, small_chip),
            feasible=True,
            solver="test",
        )
        reserve = 3
        refined = refine_with_spare_arrays(base, profiles, small_chip, reserve_arrays=reserve)
        assert refined.total_arrays <= small_chip.num_arrays - reserve

    def test_refine_compute_only_mode(self, small_chip, mixed_segment):
        base = GreedyAllocator(allow_memory_mode=False).allocate(mixed_segment, small_chip)
        refined = refine_with_spare_arrays(
            base, mixed_segment, small_chip, allow_memory_mode=False
        )
        assert all(a.memory_arrays == 0 for a in refined.allocations.values())

    def test_refine_skips_infeasible(self, small_chip, mixed_segment):
        assert refine_with_spare_arrays(infeasible_result(), mixed_segment, small_chip).feasible is False

    @given(reserve=st.integers(min_value=0, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_allocate_segment_reserve_property(self, reserve):
        hw = small_test_chip()
        profiles = {
            "a": linear_profile("a", 32, 64, 64),
            "b": matmul_profile("b", 2, 16, 64, 64),
        }
        result = allocate_segment(profiles, hw, reserve_arrays=reserve)
        assert result.feasible
        assert result.total_arrays <= hw.num_arrays


def _run_in_fresh_interpreter(script):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_default_compile_never_imports_scipy_optimize():
    """No native solver — and no lazy ``scipy.optimize`` import — on the
    default compile path (the MILP oracle imports it inside ``_select``)."""
    _run_in_fresh_interpreter(
        "import sys\n"
        "from repro.api import Session\n"
        "with Session(hardware='small-test-chip') as session:\n"
        "    program = session.compile('tiny-cnn')\n"
        "assert program.stats['allocator_solves'] > 0\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )


def test_one_shot_compile_loads_only_the_compiler():
    """``import repro.cli`` plus a default compile pulls in numpy and the
    compile path of this package -- no graph library, no process pools, no
    HTTP, no serving / sweep / simulation layers."""
    _run_in_fresh_interpreter(
        "import sys\n"
        "import repro.cli\n"
        "from repro.api import Session\n"
        "with Session('small-test-chip') as session:\n"
        "    session.compile('tiny-mlp')\n"
        "unwanted = ['networkx', 'scipy', 'scipy.optimize', 'multiprocessing',\n"
        "    'concurrent.futures', 'queue', 'http.server', 'http.client', 'xml', 'email',\n"
        "    'repro.serve', 'repro.dse', 'repro.sim', 'repro.eval', 'repro.experiments',\n"
        "    'repro.analysis']\n"
        "loaded = [name for name in unwanted if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert len(sys.modules) < 320, len(sys.modules)\n"
    )
