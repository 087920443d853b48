"""Tests for the tiered evaluation layer (repro.eval).

The two contracts the refactor hangs on:

* **calibration** — the analytical rung-0 tier is a true lower bound on
  the registered model zoo: it never reports a compilable point
  infeasible (or vice versa), and its latency/energy never exceed the
  compiled plan's;
* **parity** — compile-fidelity evaluation produces programs
  bit-identical (by semantic fingerprint) to direct
  :meth:`repro.api.Session.compile` output across the option matrix.
"""

import math

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
from repro.eval import (
    AnalyticalEvaluator,
    CompileEvaluator,
    Evaluation,
    fidelity_rank,
)
from repro.hardware import small_test_chip
from repro.models import Workload, build_model
from repro.service import CompileJob

#: The calibration zoo: every registered family that compiles quickly on
#: the 8-array test chip, at a workload small enough for CI.
ZOO = ("tiny-cnn", "tiny-mlp", "tiny-transformer", "mobilenet")
ZOO_WORKLOAD = Workload(batch_size=1, seq_len=16)

#: The parity option matrix (mirrors the PR 4 fingerprint suite).
OPTION_MATRIX = (
    CompilerOptions(generate_code=False),
    CompilerOptions(generate_code=False, allow_memory_mode=False),
    CompilerOptions(generate_code=False, use_milp=False),
    CompilerOptions(generate_code=False, pipelined=False, refine=False),
)


def job_for(model, options=None, hardware=None):
    return CompileJob(
        model,
        workload=ZOO_WORKLOAD,
        hardware=hardware if hardware is not None else small_test_chip(),
        options=options or CompilerOptions(generate_code=False),
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
    def test_zero_allocator_solves_across_the_zoo(self, no_allocator_solves):
        evaluator = AnalyticalEvaluator()
        for model in ZOO:
            for options in OPTION_MATRIX:
                evaluation = evaluator.evaluate(job_for(model, options))
                assert evaluation.fidelity == "analytical"
                assert evaluation.lower_bound
                assert evaluation.allocator_solves == 0
                assert not evaluation.failed, evaluation.error
                assert evaluation.feasible
                assert math.isfinite(evaluation.latency_ms)

    def test_lower_bound_calibration_against_full_compiles(self):
        """Latency/energy bounds never exceed the compiled plan's cost."""
        analytical = AnalyticalEvaluator()
        compiler = CompileEvaluator()
        checked = 0
        for model in ZOO:
            for options in OPTION_MATRIX:
                job = job_for(model, options)
                bound = analytical.evaluate(job)
                exact = compiler.evaluate(job)
                # Feasibility verdicts must agree in both directions.
                assert bound.feasible == exact.feasible, (model, options)
                if not exact.feasible:
                    continue
                checked += 1
                assert bound.cycles <= exact.cycles * (1 + 1e-9), (model, options)
                assert bound.latency_ms <= exact.latency_ms * (1 + 1e-9)
                assert bound.energy_mj <= exact.energy_mj * (1 + 1e-9)
                assert bound.peak_arrays <= exact.peak_arrays
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
        evaluation = AnalyticalEvaluator().evaluate(job_for("tiny-mlp"))
        assert not evaluation.feasible
        assert not evaluation.failed
        assert "arrays" in (evaluation.error or "")

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
        evaluation = AnalyticalEvaluator().evaluate(job_for("no-such-model"))
        assert evaluation.failed
        assert not evaluation.feasible
        assert "no-such-model" in (evaluation.error or "")

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
    def test_fingerprint_parity_with_session_compile(self):
        """Evaluator-produced programs are bit-identical to Session.compile."""
        for model in ("tiny-cnn", "tiny-mlp"):
            for options in OPTION_MATRIX:
                evaluation = CompileEvaluator().evaluate(job_for(model, options))
                assert evaluation.feasible
                direct = Session(hardware=small_test_chip(), options=options).compile(
                    model, workload=ZOO_WORKLOAD
                )
                assert evaluation.program.fingerprint() == direct.fingerprint()
                assert evaluation.latency_ms == direct.end_to_end_ms
                assert evaluation.energy_mj == estimate_energy(direct).end_to_end_mj

    def test_infeasible_plan_is_not_a_failure(self, monkeypatch):
        from repro.core.segmentation import NoFeasiblePlanError

        def _raise(self):
            raise NoFeasiblePlanError("nope")

        monkeypatch.setattr(CompileJob, "resolve_graph", _raise)
        evaluation = CompileEvaluator().evaluate(job_for("tiny-mlp"))
        assert not evaluation.feasible
        assert not evaluation.failed
        assert (evaluation.error or "").startswith("NoFeasiblePlanError")


# ---------------------------------------------------------------------- #
# protocol plumbing
# ---------------------------------------------------------------------- #
class TestEvaluationProtocol:
    def test_fidelity_ranks(self):
        from repro.eval import FIDELITIES, FIDELITY_RANK

        assert FIDELITIES == ("analytical", "compile")
        assert set(FIDELITY_RANK) == set(FIDELITIES)
        assert fidelity_rank("analytical") < fidelity_rank("compile")
        # Legacy records (no tag) were full compiles.
        assert fidelity_rank(None) == fidelity_rank("compile")
        assert fidelity_rank("") == fidelity_rank("compile")

    def test_describe_renders_every_shape(self):
        with pytest.raises(TypeError):
            Evaluation(fidelity="compile", skipped=True)  # the declined shape is gone
        assert "FAILED" in Evaluation(fidelity="compile", failed=True).describe()
        assert "infeasible" in Evaluation(fidelity="analytical").describe()
        ok = Evaluation(
            fidelity="analytical",
            feasible=True,
            latency_ms=1.0,
            energy_mj=2.0,
            lower_bound=True,
        )
        assert "lower bound" in ok.describe()

    def test_batch_default_maps_evaluate(self):
        evaluator = AnalyticalEvaluator()
        jobs = [job_for("tiny-cnn"), job_for("tiny-mlp")]
        evaluations = evaluator.evaluate_batch(jobs)
        assert len(evaluations) == 2
        assert all(e.feasible for e in evaluations)


class TestAnalyticalMemoSafety:
    def test_units_memo_validates_graph_identity(self):
        """A recycled id() must not serve another graph's units."""
        hardware = small_test_chip()
        evaluator = AnalyticalEvaluator()
        cnn = build_model("tiny-cnn", ZOO_WORKLOAD)
        mlp = build_model("tiny-mlp", ZOO_WORKLOAD)
        cnn_units = evaluator._units(cnn, hardware)
        # Simulate an address collision: plant the CNN's entry under the
        # MLP's memo key (what id-reuse after garbage collection does).
        evaluator._units_memo[(id(mlp), hardware.fingerprint())] = (cnn, cnn_units)
        mlp_units = evaluator._units(mlp, hardware)
        assert mlp_units is not cnn_units
        assert {u.name for u in mlp_units} == {
            u.name for u in flatten_graph(mlp, hardware)
        }

    def test_shared_evaluator_matches_fresh_evaluators(self):
        """Interleaved model-name jobs never cross-contaminate metrics."""
        shared = AnalyticalEvaluator()
        for model in ZOO + tuple(reversed(ZOO)):
            from_shared = shared.evaluate(job_for(model))
            from_fresh = AnalyticalEvaluator().evaluate(job_for(model))
            assert from_shared.cycles == from_fresh.cycles, model
            assert from_shared.energy_mj == from_fresh.energy_mj, model

    def test_units_memo_is_bounded(self):
        hardware = small_test_chip()
        evaluator = AnalyticalEvaluator()
        for _ in range(evaluator.MEMO_ENTRIES + 8):
            evaluator._units(build_model("tiny-mlp", ZOO_WORKLOAD), hardware)
        assert len(evaluator._units_memo) <= evaluator.MEMO_ENTRIES
