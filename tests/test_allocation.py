"""Tests for the per-segment dual-mode allocation engines."""

import pytest
from conftest import window_of

from repro.core import allocation
from repro.core.allocation import (
    MAX_CANDIDATES,
    ExactAllocator,
    GreedyAllocator,
    UnitColumns,
    allocate_segment,
    candidate_allocations,
    infeasible_result,
    refine_with_spare_arrays,
)
from repro.core.cache import AllocationCache
from repro.cost import OperatorAllocation, profile_operator
from repro.cost.latency import combine_operator_latencies, operator_latency_cycles
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


def candidates(profile, hardware, **options):
    """``candidate_allocations`` over the profile's own factor tables."""
    factors = UnitColumns([profile], hardware).factors(0)
    return candidate_allocations(profile, hardware, factors=factors, **options)


def unrefined(engine, profiles, hardware):
    """``engine``'s pick for ``profiles`` as a result, priced as it stands."""
    return allocate_segment(
        window_of(profiles, hardware), allocator=engine, refine=False, cache=AllocationCache()
    )


@pytest.fixture
def mixed_segment():
    return {
        "proj": linear_profile("proj", 32, 128, 128),
        "attn": matmul_profile("attn", 4, 32, 64, 64),
    }


class TestCandidates:
    def test_candidates_respect_budget(self, small_chip):
        profile = linear_profile("p", 32, 256, 256)
        for candidate in candidates(profile, small_chip):
            assert candidate.total_arrays <= small_chip.num_arrays

    def test_candidates_start_at_minimum_footprint(self, small_chip):
        profile = linear_profile("p", 32, 128, 128)
        minimum = profile.min_compute_arrays(small_chip)
        assert all(c.compute_arrays >= minimum for c in candidates(profile, small_chip))

    def test_candidates_form_pareto_frontier(self, small_chip):
        found = candidates(matmul_profile("p", 8, 32, 64, 64), small_chip)
        for earlier, later in zip(found, found[1:]):
            assert later.total_arrays > earlier.total_arrays
            assert later.latency_cycles < earlier.latency_cycles

    def test_memory_mode_disallowed(self, small_chip):
        found = candidates(matmul_profile("p"), small_chip, allow_memory_mode=False)
        assert all(c.memory_arrays == 0 for c in found)

    def test_oversized_operator_has_no_candidates(self, small_chip):
        profile = linear_profile("p", 4, 64 * 20, 64 * 20)  # needs 400 arrays
        assert candidates(profile, small_chip) == []

    def test_candidate_count_capped(self, small_chip):
        profile = matmul_profile("p", 16, 64, 64, 64)
        assert 0 < len(candidates(profile, small_chip)) <= MAX_CANDIDATES


def fits(profiles, hardware):
    """The one chip-fit rule: the window's compute floors within the chip."""
    return window_of(profiles, hardware).minimum_compute_arrays <= hardware.num_arrays


class TestFeasibilityHelpers:
    def test_minimum_compute_arrays_sum(self, small_chip, mixed_segment):
        total = window_of(mixed_segment, small_chip).minimum_compute_arrays
        expected = sum(
            max(1, p.min_compute_arrays(small_chip)) for p in mixed_segment.values()
        )
        assert total == expected

    def test_segment_fits(self, small_chip, mixed_segment):
        assert fits(mixed_segment, small_chip)

    def test_segment_does_not_fit(self, small_chip):
        oversized = {f"op{i}": linear_profile(f"op{i}", 4, 256, 256) for i in range(4)}
        assert not fits(oversized, small_chip)

    def test_infeasible_result_shape(self):
        result = infeasible_result()
        assert not result.feasible
        assert result.latency_cycles == float("inf")
        assert result.total_arrays == 0


class TestGreedyAllocator:
    def test_budget_respected(self, small_chip, mixed_segment):
        result = unrefined(GreedyAllocator(), mixed_segment, small_chip)
        assert result.feasible
        assert result.total_arrays <= small_chip.num_arrays

    def test_every_operator_allocated(self, small_chip, mixed_segment):
        pairs = GreedyAllocator().allocate(window_of(mixed_segment, small_chip))
        assert len(pairs) == len(mixed_segment)
        assert all(compute >= 1 for compute, _ in pairs)

    def test_memory_mode_disabled(self, small_chip, mixed_segment):
        pairs = GreedyAllocator(allow_memory_mode=False).allocate(
            window_of(mixed_segment, small_chip)
        )
        assert all(memory == 0 for _, memory in pairs)

    def test_infeasible_segment_reported(self, small_chip):
        oversized = {f"op{i}": linear_profile(f"op{i}", 4, 256, 256) for i in range(4)}
        assert GreedyAllocator().allocate(window_of(oversized, small_chip)) is None

    def test_empty_segment(self, small_chip):
        assert GreedyAllocator().allocate(window_of({}, small_chip)) == ()
        result = unrefined(GreedyAllocator(), {}, small_chip)
        assert result.feasible and result.latency_cycles == 0.0

    def test_latency_matches_reported_allocation(self, small_chip, mixed_segment):
        result = unrefined(GreedyAllocator(), mixed_segment, small_chip)
        latencies = [
            operator_latency_cycles(profile, OperatorAllocation(*pair), small_chip)
            for profile, pair in zip(mixed_segment.values(), result.pairs)
        ]
        recomputed = combine_operator_latencies(latencies, small_chip)
        assert result.latency_cycles == pytest.approx(recomputed)


class TestMIPAllocator:
    """The paper's Eq. 8/9 model (``MIPAllocator``), solved by its one
    complete engine, :class:`ExactAllocator`."""

    def test_budget_respected(self, small_chip, mixed_segment):
        result = unrefined(ExactAllocator(), mixed_segment, small_chip)
        assert result.feasible
        assert result.total_arrays <= small_chip.num_arrays

    def test_not_worse_than_greedy(self, small_chip, mixed_segment):
        exact = unrefined(ExactAllocator(), mixed_segment, small_chip)
        greedy = unrefined(GreedyAllocator(), mixed_segment, small_chip)
        assert exact.latency_cycles <= greedy.latency_cycles * 1.05

    def test_memory_mode_disabled(self, small_chip, mixed_segment):
        pairs = ExactAllocator(allow_memory_mode=False).allocate(
            window_of(mixed_segment, small_chip)
        )
        assert all(memory == 0 for _, memory in pairs)

    def test_single_operator_segment(self, small_chip):
        profiles = {"only": matmul_profile("only", 8, 32, 64, 64)}
        result = unrefined(ExactAllocator(), profiles, small_chip)
        assert result.feasible
        assert result.pairs[0][0] >= 1

    def test_infeasible_segment_reported(self, small_chip):
        oversized = {f"op{i}": linear_profile(f"op{i}", 4, 256, 256) for i in range(4)}
        result = allocate_segment(
            window_of(oversized, small_chip), allocator=ExactAllocator(), cache=AllocationCache()
        )
        assert not result.feasible

    def test_dual_mode_not_worse_than_all_compute(self, small_chip):
        window = window_of(
            {
                "stream": matmul_profile("stream", 2, 64, 64, 64),
                "dense": linear_profile("dense", 256, 64, 64),
            },
            small_chip,
        )
        dual = allocate_segment(window, allocator=ExactAllocator(), cache=AllocationCache())
        fixed = allocate_segment(
            window, allocator=ExactAllocator(allow_memory_mode=False), cache=AllocationCache()
        )
        assert dual.feasible and fixed.feasible
        assert dual.latency_cycles <= fixed.latency_cycles * 1.001


class TestRefinement:
    def test_refine_never_worsens(self, small_chip, mixed_segment):
        base = unrefined(GreedyAllocator(), mixed_segment, small_chip)
        refined = refine_with_spare_arrays(
            base.pairs, window_of(mixed_segment, small_chip), base.solver
        )
        assert refined.latency_cycles <= base.latency_cycles + 1e-9

    def test_refine_compute_only_mode(self, small_chip, mixed_segment):
        base = unrefined(GreedyAllocator(allow_memory_mode=False), mixed_segment, small_chip)
        refined = refine_with_spare_arrays(
            base.pairs, window_of(mixed_segment, small_chip), base.solver,
            allow_memory_mode=False,
        )
        assert all(memory == 0 for _, memory in refined.pairs)

    def test_refine_skips_infeasible(self, small_chip, mixed_segment, monkeypatch):
        """A window the engine finds no pick for is infeasible unrefined."""
        refined = []
        monkeypatch.setattr(
            allocation, "refine_with_spare_arrays", lambda *args, **kw: refined.append(args)
        )

        class NoPick:
            name = "none"

            def allocate(self, window):
                return None

        result = allocate_segment(
            window_of(mixed_segment, small_chip), allocator=NoPick(), cache=AllocationCache()
        )
        assert result.feasible is False and refined == []

    def test_allocate_segment_fits_the_chip(self):
        hw = small_test_chip()
        profiles = {
            "a": linear_profile("a", 32, 64, 64),
            "b": matmul_profile("b", 2, 16, 64, 64),
        }
        result = allocate_segment(window_of(profiles, hw), cache=AllocationCache())
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
    """No solver library on any default path: ``import repro``, a default
    ``Session.compile`` and ``repro models`` load no ``scipy*`` module
    (numpy is the package's only third-party dependency)."""
    _run_in_fresh_interpreter(
        "import contextlib, io, sys\n"
        "import repro\n"
        "from repro.api import Session\n"
        "from repro.cli import main\n"
        "with Session(hardware='small-test-chip') as session:\n"
        "    program = session.compile('tiny-cnn')\n"
        "assert program.stats['allocator_solves'] > 0\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert main(['models']) == 0\n"
        "assert 'tiny-cnn' in out.getvalue()\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
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
        "    'repro.serve', 'repro.dse', 'repro.sim', 'repro.experiments',\n"
        "    'repro.analysis']\n"
        "loaded = [name for name in unwanted if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert len(sys.modules) < 320, len(sys.modules)\n"
    )
