"""Calibration of the analytical bound, parity of compile-fidelity records.

The two contracts a multi-fidelity sweep hangs on:

* **calibration** — :func:`repro.dse.bound.analytical_bound` (the
  rung-0 tier of a sweep) is a true lower bound on the registered model
  zoo: it never reports a compilable point infeasible (or vice versa),
  and its latency/energy never exceed the compiled plan's;
* **parity** — a compile-fidelity record carries exactly the metrics of
  the program :meth:`repro.api.Session.compile` builds, across the
  option matrix.
"""

import math
from collections import OrderedDict

import pytest

from repro.api import Session
from repro.core import CompilerOptions, FeasibilityModel, flatten_graph
from repro.core.allocation import GreedyAllocator, MIPAllocator
from repro.cost import (
    analytical_graph_estimate,
    analytical_latency_bound,
    compute_roofline_cycles,
    estimate_energy,
)
from repro.dse import FIDELITIES, DesignSpace, DSERunner, fidelity_rank, run_dse
from repro.dse.bound import FLATTEN_MEMO_ENTRIES, _units, analytical_bound
from repro.hardware import small_test_chip
from repro.models import Workload, build_model
from repro.service import CompileJob

#: The calibration zoo: every registered family that compiles quickly on
#: the 8-array test chip, at a workload small enough for CI.
ZOO = ("tiny-cnn", "tiny-mlp", "tiny-transformer", "mobilenet")
ZOO_WORKLOAD = Workload(batch_size=1, seq_len=16)

#: The parity option matrix (mirrors the fingerprint suite).
OPTION_MATRIX = (
    CompilerOptions(generate_code=False),
    CompilerOptions(generate_code=False, allow_memory_mode=False),
    CompilerOptions(generate_code=False, use_milp=False),
    CompilerOptions(generate_code=False, pipelined=False, refine=False),
)


def space_for(models, options=None):
    return DesignSpace(
        models=list(models),
        base_hardware=small_test_chip(),
        workloads=[ZOO_WORKLOAD],
        base_options=options or CompilerOptions(generate_code=False),
    )


def records(models, fidelity, options=None):
    """``point_key -> record`` of one sweep over ``models`` at ``fidelity``."""
    result = DSERunner(space_for(models, options), fidelity=fidelity).run()
    return {record.point_key: record for record in result.records}


def bound_of(model, memo=None):
    return analytical_bound(
        build_model(model, ZOO_WORKLOAD), small_test_chip(), memo=memo
    )


@pytest.fixture()
def no_allocator_solves(monkeypatch):
    """Make any allocator engine call a hard failure."""

    def _boom(self, *args, **kwargs):
        raise AssertionError("allocator invoked during analytical evaluation")

    monkeypatch.setattr(MIPAllocator, "allocate", _boom)
    monkeypatch.setattr(GreedyAllocator, "allocate", _boom)


# ---------------------------------------------------------------------- #
# analytical tier
# ---------------------------------------------------------------------- #
class TestAnalyticalEvaluator:
    """The bound, alone and as the runner's ``analytical`` fidelity."""

    def test_zero_allocator_solves_across_the_zoo(self, no_allocator_solves):
        for options in OPTION_MATRIX:
            for record in records(ZOO, "analytical", options).values():
                assert record.fidelity == "analytical"
                assert record.lower_bound
                assert record.allocator_solves == 0
                assert not record.failed, record.error
                assert record.feasible
                assert math.isfinite(record.latency_ms)

    def test_lower_bound_calibration_against_full_compiles(self):
        """Latency/energy bounds never exceed the compiled plan's cost."""
        checked = 0
        for options in OPTION_MATRIX:
            bounds = records(ZOO, "analytical", options)
            exact = records(ZOO, "compile", options)
            assert bounds.keys() == exact.keys()
            for key, plan in exact.items():
                low = bounds[key]
                # Feasibility verdicts must agree in both directions.
                assert low.feasible == plan.feasible, (plan.model, options)
                if not plan.feasible:
                    continue
                checked += 1
                assert low.cycles <= plan.cycles * (1 + 1e-9), (plan.model, options)
                assert low.latency_ms <= plan.latency_ms * (1 + 1e-9)
                assert low.energy_mj <= plan.energy_mj * (1 + 1e-9)
                assert low.peak_arrays <= plan.peak_arrays
        assert checked >= len(ZOO)

    def test_infeasible_unit_is_detected_without_solving(
        self, no_allocator_solves, monkeypatch
    ):
        """A unit that cannot fit the chip alone is reported infeasible."""
        from repro.cost.arithmetic import OperatorProfile

        # Make every unit look unfit without touching the real models.
        monkeypatch.setattr(
            OperatorProfile, "min_compute_arrays", lambda self, hardware: 10**6
        )
        _, unfit = bound_of("tiny-mlp")
        assert unfit is not None
        (record,) = records(["tiny-mlp"], "analytical").values()
        assert not record.feasible
        assert not record.failed
        assert unfit in record.error and "arrays" in record.error

    def test_feasibility_matches_compiler_on_unfit_unit(self):
        """The shared FeasibilityModel predicate mirrors the compiler."""
        hardware = small_test_chip()
        graph = build_model("tiny-mlp", ZOO_WORKLOAD)
        units = flatten_graph(graph, hardware)
        model = FeasibilityModel(hardware)
        profiles = {unit.name: unit.profile for unit in units}
        assert model.first_unfit(profiles) is None
        assert model.minimum_compute_arrays(profiles) == sum(
            model.operator_floor(p) for p in profiles.values()
        )
        # The module-level helpers delegate to the same predicates.
        from repro.core import minimum_compute_arrays, segment_fits

        assert minimum_compute_arrays(profiles, hardware) == (
            model.minimum_compute_arrays(profiles)
        )
        assert segment_fits(profiles, hardware) == model.segment_fits(profiles)

    def test_unknown_model_is_a_captured_failure(self):
        (record,) = records(["no-such-model"], "analytical").values()
        assert record.failed
        assert not record.feasible
        assert "no-such-model" in (record.error or "")

    def test_cost_bounds_are_consistent(self):
        """The aggregate estimate equals its constituent bounds."""
        hardware = small_test_chip()
        graph = build_model("tiny-cnn", ZOO_WORKLOAD)
        units = flatten_graph(graph, hardware)
        profiles = [unit.profile for unit in units]
        cycles, bottleneck = analytical_latency_bound(profiles, hardware)
        assert bottleneck in ("compute-roofline", "operator")
        assert cycles >= compute_roofline_cycles(profiles, hardware)
        estimate = analytical_graph_estimate(profiles, hardware)
        assert estimate.graph_cycles == cycles
        assert estimate.end_to_end_cycles == cycles * estimate.block_repeat
        assert estimate.min_peak_arrays >= 1


# ---------------------------------------------------------------------- #
# compile tier (parity)
# ---------------------------------------------------------------------- #
class TestCompileEvaluator:
    """The runner's ``compile`` fidelity: one compile-service call per point."""

    def test_fingerprint_parity_with_session_compile(self):
        """A compile record's metrics are those of Session.compile's program."""
        for options in OPTION_MATRIX:
            swept = records(("tiny-cnn", "tiny-mlp"), "compile", options)
            for record in swept.values():
                assert record.feasible
                direct = Session(hardware=small_test_chip(), options=options).compile(
                    record.model, workload=ZOO_WORKLOAD
                )
                assert record.cycles == direct.end_to_end_cycles
                assert record.latency_ms == direct.end_to_end_ms
                assert record.energy_mj == estimate_energy(direct).end_to_end_mj
                assert record.num_segments == direct.num_segments

    def test_infeasible_plan_is_not_a_failure(self, monkeypatch):
        from repro.core.segmentation import NoFeasiblePlanError

        def _raise(self):
            raise NoFeasiblePlanError("nope")

        monkeypatch.setattr(CompileJob, "resolve_graph", _raise)
        (record,) = run_dse(space_for(["tiny-mlp"])).records
        assert not record.feasible
        assert not record.failed
        assert (record.error or "").startswith("NoFeasiblePlanError")


# ---------------------------------------------------------------------- #
# fidelity tags
# ---------------------------------------------------------------------- #
class TestEvaluationProtocol:
    def test_fidelity_ranks(self):
        assert FIDELITIES == ("analytical", "compile")
        assert fidelity_rank("analytical") < fidelity_rank("compile")
        # Legacy records (no tag) were full compiles.
        assert fidelity_rank(None) == fidelity_rank("compile")
        assert fidelity_rank("") == fidelity_rank("compile")


class TestAnalyticalMemoSafety:
    def test_units_memo_validates_graph_identity(self):
        """A recycled id() must not serve another graph's units."""
        hardware = small_test_chip()
        memo = OrderedDict()
        cnn = build_model("tiny-cnn", ZOO_WORKLOAD)
        mlp = build_model("tiny-mlp", ZOO_WORKLOAD)
        cnn_units = _units(cnn, hardware, memo)
        # Simulate an address collision: plant the CNN's entry under the
        # MLP's memo key (what id-reuse after garbage collection does).
        memo[(id(mlp), hardware.fingerprint())] = (cnn, cnn_units)
        mlp_units = _units(mlp, hardware, memo)
        assert mlp_units is not cnn_units
        assert {u.name for u in mlp_units} == {
            u.name for u in flatten_graph(mlp, hardware)
        }

    def test_shared_evaluator_matches_fresh_evaluators(self):
        """Interleaved models on one memo never cross-contaminate metrics."""
        shared_memo = OrderedDict()
        for model in ZOO + tuple(reversed(ZOO)):
            shared, _ = bound_of(model, shared_memo)
            fresh, _ = bound_of(model)
            assert shared.end_to_end_cycles == fresh.end_to_end_cycles, model
            assert shared.end_to_end_mj == fresh.end_to_end_mj, model

    def test_units_memo_is_bounded(self):
        memo = OrderedDict()
        for _ in range(FLATTEN_MEMO_ENTRIES + 8):
            bound_of("tiny-mlp", memo)
        assert len(memo) == FLATTEN_MEMO_ENTRIES

    def test_a_runner_flattens_each_graph_once_per_chip(self, monkeypatch):
        """An analytical sweep flattens each (graph, chip) pair once."""
        from repro.dse import bound

        flattened = []

        def counted(graph, hardware):
            flattened.append((graph.name, hardware.num_arrays))
            return flatten_graph(graph, hardware)

        monkeypatch.setattr(bound, "flatten_graph", counted)
        space = DesignSpace(
            models=["tiny-cnn", "tiny-mlp"],
            base_hardware=small_test_chip(),
            workloads=[ZOO_WORKLOAD],
            hardware_axes={"num_arrays": [4, 8]},
            option_axes={"allow_memory_mode": [True, False]},
        )
        result = DSERunner(space, fidelity="analytical").run()
        assert result.evaluated == 8
        assert sorted(flattened) == sorted(set(flattened)) and len(flattened) == 4
