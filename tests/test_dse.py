"""Tests for the cache-aware design-space-exploration engine (repro.dse)."""

import json
import math

import pytest

from repro.api import Session
from repro.core import AllocationCache, DiskCacheStore
from repro.dse import (
    DesignSpace,
    DSERunner,
    EvaluationRecord,
    GreedyStrategy,
    GridStrategy,
    Planner,
    RandomStrategy,
    RunState,
    RunStateError,
    make_strategy,
    pareto_frontier,
    run_dse,
    write_csv,
)
from repro.hardware import small_test_chip
from repro.models import Workload, build_model
from repro.service import CompileService


def tiny_space(arrays=(4, 8), modes=None, models=("tiny-cnn",)):
    """A fast space over the 8-array test chip."""
    option_axes = {}
    if modes is not None:
        option_axes["allow_memory_mode"] = list(modes)
    return DesignSpace(
        models=list(models),
        base_hardware=small_test_chip(),
        workloads=[Workload(batch_size=1, seq_len=16)],
        hardware_axes={"num_arrays": list(arrays)},
        option_axes=option_axes,
    )


def benchmark_space():
    """The repository benchmark's 30-point ``dse_*`` grid."""
    return tiny_space(
        arrays=(4, 6, 8, 12, 16), modes=(True, False),
        models=("tiny-mlp", "tiny-cnn", "tiny-transformer"),
    )


# ---------------------------------------------------------------------- #
# DesignSpace
# ---------------------------------------------------------------------- #
class TestDesignSpace:
    def test_size_and_grid_order(self):
        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        assert space.size == 6
        points = list(space.points())
        assert len(points) == 6
        # Lexicographic: mode varies fastest (last axis).
        assert [p.hardware.num_arrays for p in points] == [4, 4, 6, 6, 8, 8]
        assert [p.options.allow_memory_mode for p in points] == [True, False] * 3

    def test_point_keys_stable_and_distinct(self):
        space = tiny_space(arrays=(4, 8))
        keys = [p.key for p in space.points()]
        assert len(set(keys)) == 2
        # Same declaration -> same keys (cross-process stability proxy).
        again = [p.key for p in tiny_space(arrays=(4, 8)).points()]
        assert keys == again

    def test_empty_models_rejected(self):
        with pytest.raises(ValueError, match="at least one model"):
            DesignSpace(models=[])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            tiny_space(arrays=())

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown hardware axis"):
            DesignSpace(models=["tiny-cnn"], hardware_axes={"warp_cores": [1]})
        with pytest.raises(ValueError, match="unknown option axis"):
            DesignSpace(models=["tiny-cnn"], option_axes={"turbo": [True]})

    def test_neighbors_step_one_axis(self):
        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        coords = (0, 0, 1, 0)
        neighbors = space.neighbors(coords)
        assert (0, 0, 0, 0) in neighbors and (0, 0, 2, 0) in neighbors
        assert (0, 0, 1, 1) in neighbors
        for nb in neighbors:
            assert sum(a != b for a, b in zip(nb, coords)) == 1

    def test_spec_round_trip(self):
        space = tiny_space(arrays=(4, 8), modes=(True, False))
        rebuilt = DesignSpace.from_spec(space.to_spec())
        assert rebuilt.fingerprint() == space.fingerprint()
        assert [p.key for p in rebuilt.points()] == [p.key for p in space.points()]

    def test_numpy_axis_values_are_coerced(self):
        import numpy as np

        space = DesignSpace(
            models=["tiny-mlp"],
            base_hardware=small_test_chip(),
            hardware_axes={"num_arrays": np.array([4, 8])},
            option_axes={"allow_memory_mode": np.array([True])},
        )
        # int64/bool_ values must not crash JSON digests three calls later.
        assert space.fingerprint()
        points = list(space.points())
        assert [p.key for p in points]
        assert all(isinstance(p.hardware.num_arrays, int) for p in points)
        json.dumps(space.to_spec())

    def test_graph_models_get_structural_digests(self):
        graph = build_model("tiny-mlp", Workload(batch_size=1))
        space = DesignSpace(models=[graph], base_hardware=small_test_chip())
        point = next(space.points())
        assert point.model_digest is not None
        assert point.model_name == "tiny-mlp"


# ---------------------------------------------------------------------- #
# Planner
# ---------------------------------------------------------------------- #
class TestPlanner:
    def test_structural_duplicates_collapse(self):
        # The same model twice -> identical structure -> one canonical job.
        space = tiny_space(models=("tiny-cnn", "tiny-cnn"))
        planner = Planner()
        plan = planner.plan(list(space.points()))
        assert plan.n_points == 4
        assert len(plan.jobs) == 2  # one per array count
        assert plan.n_collapsed == 2
        for job in plan.jobs:
            assert len(job.duplicates) == 1

    def test_distinct_structures_not_collapsed(self):
        space = tiny_space(models=("tiny-cnn", "tiny-mlp"), arrays=(8,))
        plan = Planner().plan(list(space.points()))
        assert len(plan.jobs) == 2
        assert plan.n_collapsed == 0

    def test_planner_never_touches_the_store(self, tmp_path):
        """Jobs keep the order their points were asked in, stored or not."""
        cache_dir = tmp_path / "cache"
        # Store exactly one design point (8 arrays) through a real compile.
        run_dse(tiny_space(arrays=(8,)), cache_dir=cache_dir)
        with pytest.raises(TypeError, match="store"):
            Planner(store=DiskCacheStore(cache_dir))
        points = list(tiny_space(arrays=(4, 8)).points())
        plan = Planner().plan(points)
        assert [job.point.hardware.num_arrays for job in plan.jobs] == [4, 8]
        assert not hasattr(plan, "n_warm") and not hasattr(plan.jobs[0], "warm")
        # The runner reads warmth off the evaluations instead.
        result = run_dse(tiny_space(arrays=(4, 8)), cache_dir=cache_dir)
        assert result.warm_planned == 1 and result.cold_planned == 1

    def test_no_store_means_everything_cold(self):
        result = run_dse(tiny_space())
        assert result.warm_planned == 0 and result.disk_hits == 0
        assert result.cold_planned == result.evaluated == 2


# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
class TestStrategies:
    def _drain(self, strategy, space, chunk=3):
        strategy.bind(space)
        seen = []
        while not strategy.exhausted:
            batch = strategy.ask(chunk)
            if not batch:
                break
            seen.extend(batch)
        return seen

    def test_grid_proposes_lexicographic_order(self):
        space = tiny_space(arrays=(4, 6, 8))
        points = self._drain(GridStrategy(), space)
        assert [p.coords for p in points] == list(space.coordinates())

    def test_random_is_seeded_and_complete(self):
        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        first = [p.coords for p in self._drain(RandomStrategy(seed=7), space)]
        second = [p.coords for p in self._drain(RandomStrategy(seed=7), space)]
        other = [p.coords for p in self._drain(RandomStrategy(seed=8), space)]
        assert first == second
        assert sorted(first) == sorted(space.coordinates())
        assert first != other  # 12 points: astronomically unlikely to coincide

    def test_greedy_explores_neighbors_of_best(self):
        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        strategy = GreedyStrategy(seed=0)
        strategy.bind(space)
        batch = strategy.ask(2)
        assert len(batch) == 2
        # Feed back: first point is great, second terrible.
        records = [
            EvaluationRecord(
                point_key=p.key, model=p.model_name, workload="w", hardware="h",
                num_arrays=p.hardware.num_arrays, hardware_fingerprint="f",
                coords=p.coords, allow_memory_mode=True, objective="latency",
                feasible=True, objective_value=value,
            )
            for p, value in zip(batch, (1.0, 100.0))
        ]
        strategy.tell(records)
        best_coords = batch[0].coords
        next_batch = strategy.ask(2)
        neighbor_set = set(space.neighbors(best_coords))
        assert next_batch, "greedy must keep proposing"
        assert next_batch[0].coords in neighbor_set

    def test_greedy_exhausts_whole_space(self):
        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        points = self._drain(GreedyStrategy(seed=1), space)
        assert sorted(p.coords for p in points) == sorted(space.coordinates())

    def test_make_strategy_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("simulated-annealing")


# ---------------------------------------------------------------------- #
# Runner + resume
# ---------------------------------------------------------------------- #
class TestRunnerResume:
    def test_budget_limits_coverage(self, tmp_path):
        space = tiny_space(arrays=(4, 6, 8))
        result = run_dse(space, budget=2, cache_dir=tmp_path / "cache")
        assert result.evaluated + result.replicated == 2

    def test_resume_after_interrupt_skips_completed(self, tmp_path):
        space = tiny_space(arrays=(4, 6, 8))
        cache_dir = tmp_path / "cache"
        run_dir = tmp_path / "run"

        # "Interrupted" first run: budget covers 2 of 3 points.
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            partial = DSERunner(space, cache_dir=cache_dir, state=state).run(budget=2)
        assert partial.evaluated == 2

        # Restart with the full budget: the 2 completed points are skipped,
        # only the third is compiled.
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            resumed = DSERunner(space, cache_dir=cache_dir, state=state).run()
        assert resumed.skipped == 2
        assert resumed.evaluated == 1
        assert len(resumed.records) == 3

        # A third run does nothing at all: zero solves, everything skipped.
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            final = DSERunner(space, cache_dir=cache_dir, state=state).run()
        assert final.skipped == 3
        assert final.evaluated == 0
        assert final.allocator_solves == 0

    def test_run_dir_from_before_the_fallback_option_was_retired(self, tmp_path):
        """Records keyed with ``fixed_mode_fallback`` are stale, not fatal.

        A run directory written when ``CompilerOptions`` still had the
        flag names it in ``base_options`` and hashed it into every point
        key: resuming re-evaluates every point and crashes nowhere.
        """
        from repro.dse.space import OPTION_AXIS_FIELDS, _digest, workload_payload

        space = tiny_space(arrays=(4, 8), modes=(True, False))
        run_dir = tmp_path / "run"
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            first = DSERunner(space, state=state).run()
        assert first.evaluated == 4

        old_fields = sorted(OPTION_AXIS_FIELDS + ("fixed_mode_fallback",))
        old_keys = {}
        for point in space.points():
            values = {name: getattr(point.options, name) for name in OPTION_AXIS_FIELDS}
            values["fixed_mode_fallback"] = point.options.allow_memory_mode
            old_keys[point.key] = _digest({
                "model": point.model,
                "workload": workload_payload(point.workload),
                "hardware": point.hardware.to_dict(),
                "options": [values[name] for name in old_fields],
            })
        results = run_dir / "results.jsonl"
        records = [json.loads(line) for line in results.read_text().splitlines()]
        for record in records:
            record["point_key"] = old_keys[record["point_key"]]
        results.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        meta = json.loads((run_dir / "space.json").read_text())
        meta["space"]["base_options"]["fixed_mode_fallback"] = True
        meta["space_fingerprint"] = _digest(meta["space"])  # as that version hashed it
        (run_dir / "space.json").write_text(json.dumps(meta))

        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            assert state.space_changed
            resumed = DSERunner(space, state=state).run()
        assert resumed.skipped == 0 and resumed.evaluated == 4
        assert not any(record.failed for record in resumed.records)

    def test_run_dir_with_records_of_the_retired_tiers(self, tmp_path):
        """``cached`` reads as ``compile``; ``greedy`` is stale, not fatal.

        A run directory written by ``--fidelity cached`` / ``greedy``
        holds those tags.  A cached record's metrics came from a real
        compile, so it answers a compile request; a greedy record is a
        heuristic plan this version has no tier for, so it is never
        reported and its point is re-evaluated.  An absent tag (a
        pre-fidelity record) still reads as ``compile``.
        """
        space = tiny_space(arrays=(4, 6, 8))
        run_dir = tmp_path / "run"
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            first = DSERunner(space, state=state).run()
        truth = {r.point_key: r.cycles for r in first.records}

        results = run_dir / "results.jsonl"
        records = [json.loads(line) for line in results.read_text().splitlines()]
        records[0]["fidelity"] = "cached"
        records[1]["fidelity"] = "greedy"
        records[1]["cycles"] = records[1]["latency_ms"] = 1e-3  # would top any report
        del records[2]["fidelity"]
        results.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        greedy_key = records[1]["point_key"]

        def resume(fidelity):
            with RunState.open(
                run_dir, space.to_spec(), space.fingerprint(), "latency", "grid",
                resume=True,
            ) as state:
                return DSERunner(space, fidelity=fidelity, state=state).run()

        # Asked only for bounds, the stale point is re-scored as a bound.
        bounds = resume("analytical")
        assert bounds.skipped == 2 and bounds.evaluated == 1
        assert [r.fidelity for r in bounds.new_records] == ["analytical"]
        assert greedy_key not in {r.point_key for r in bounds.frontier()}
        # Asked for plans, it is compiled; the other two are answered.
        resumed = resume("compile")
        assert resumed.skipped == 2 and resumed.evaluated == 1
        assert [r.point_key for r in resumed.new_records] == [greedy_key]
        assert {r.fidelity for r in resumed.records} == {"compile"}
        assert {r.point_key: r.cycles for r in resumed.records} == truth
        assert {r.point_key: r.cycles for r in resumed.frontier()}.items() <= truth.items()
        assert resume("compile").evaluated == 0

    def test_fresh_run_refuses_existing_results(self, tmp_path):
        space = tiny_space()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, state=state).run()
        with pytest.raises(RunStateError, match="already contains results"):
            RunState.open(
                tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
            )

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        space = tiny_space()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, state=state).run()
        results = tmp_path / "results.jsonl"
        lines = results.read_text().splitlines()
        assert len(lines) == 2
        # Simulate a crash mid-append: truncate the last record.
        results.write_text("\n".join(lines[:1]) + "\n" + lines[1][: len(lines[1]) // 2])
        state = RunState.load(tmp_path)
        assert state.dropped_lines == 1
        assert len(state.completed) == 1
        # The torn point is re-evaluated on resume.
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as resumed_state:
            resumed = DSERunner(space, state=resumed_state).run()
        assert resumed.skipped == 1 and resumed.evaluated == 1

    def test_resume_with_widened_space_evaluates_only_new_points(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_dir = tmp_path / "run"
        narrow = tiny_space(arrays=(4, 8))
        with RunState.open(
            run_dir, narrow.to_spec(), narrow.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(narrow, cache_dir=cache_dir, state=state).run()
        wide = tiny_space(arrays=(4, 6, 8))
        with RunState.open(
            run_dir, wide.to_spec(), wide.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            assert state.space_changed
            result = DSERunner(wide, cache_dir=cache_dir, state=state).run()
        assert result.skipped == 2 and result.evaluated == 1
        assert {r.num_arrays for r in result.records} == {4, 6, 8}
        # Coordinates recorded under the old (narrower) space index a
        # different grid; resumed records must not carry them into the
        # new space's strategies.
        for record in result.records:
            if record.status == "resumed":
                assert record.coords == ()

        # A further resume of the *same* widened space is no longer a
        # space change, and the point evaluated under it keeps its
        # coordinates (records carry their own space fingerprints).
        with RunState.open(
            run_dir, wide.to_spec(), wide.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            assert not state.space_changed
            final = DSERunner(wide, cache_dir=cache_dir, state=state).run()
        assert final.skipped == 3 and final.evaluated == 0
        by_arrays = {r.num_arrays: r for r in final.records}
        assert by_arrays[6].coords != ()   # evaluated under the wide space
        assert by_arrays[4].coords == ()   # evaluated under the narrow one

    def test_resume_with_different_objective_rescores_records(self, tmp_path):
        space = tiny_space()
        run_dir = tmp_path / "run"
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "energy", "grid"
        ) as state:
            DSERunner(space, objective="energy", state=state).run()
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            result = DSERunner(space, objective="latency", state=state).run()
        assert result.skipped == 2
        for record in result.records:
            assert record.objective == "latency"
            assert record.objective_value == pytest.approx(record.latency_ms)

    def test_resume_retries_failed_points(self, tmp_path):
        # A genuine failure (unknown model) must be retried on resume,
        # not permanently skipped as "already evaluated".
        space = DesignSpace(
            models=["no-such-model", "tiny-mlp"], base_hardware=small_test_chip()
        )
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            first = DSERunner(space, state=state).run()
        assert sum(1 for r in first.new_records if r.failed) == 1
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            resumed = DSERunner(space, state=state).run()
        # tiny-mlp is final and skipped; the failed point is re-attempted.
        assert resumed.skipped == 1
        assert resumed.evaluated == 1
        assert sum(1 for r in resumed.new_records if r.failed) == 1

    def test_resume_with_new_objective_updates_run_metadata(self, tmp_path):
        space = tiny_space()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, objective="latency", state=state).run()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "energy", "greedy",
            resume=True,
        ) as state:
            assert state.meta["objective"] == "energy"
            assert state.meta["strategy"] == "greedy"
        # The rewrite is durable, not just in-memory.
        assert json.loads((tmp_path / "space.json").read_text())["objective"] == "energy"

    def test_unreadable_results_raise_run_state_error(self, tmp_path):
        space = tiny_space()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, state=state).run()
        results = tmp_path / "results.jsonl"
        results.unlink()
        results.mkdir()  # open() for reading now fails with an OSError
        with pytest.raises(RunStateError, match="cannot read"):
            RunState.load(tmp_path)

    def test_resume_recovers_from_missing_space_json(self, tmp_path):
        space = tiny_space()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, state=state).run()
        (tmp_path / "space.json").unlink()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            assert state.space_changed  # original declaration unknown
            assert state.meta.get("recovered") is True
            result = DSERunner(space, state=state).run()
        assert result.skipped == 2 and result.evaluated == 0

    def test_resume_recovers_from_torn_space_json(self, tmp_path):
        # A power loss can tear space.json while the fsynced results
        # survive; --resume must recover, not dead-end.
        space = tiny_space()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, state=state).run()
        (tmp_path / "space.json").write_text('{"format_version": 1, "spa')
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            assert state.meta.get("recovered") is True
            result = DSERunner(space, state=state).run()
        assert result.skipped == 2 and result.evaluated == 0

    def test_resume_refuses_newer_state_format(self, tmp_path):
        # A parseable space.json from a newer writer must be refused,
        # never clobbered by the torn-file recovery path.
        space = tiny_space()
        with RunState.open(
            tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, state=state).run()
        meta = json.loads((tmp_path / "space.json").read_text())
        meta["format_version"] = 999
        (tmp_path / "space.json").write_text(json.dumps(meta))
        with pytest.raises(RunStateError, match="format"):
            RunState.open(
                tmp_path, space.to_spec(), space.fingerprint(), "latency", "grid",
                resume=True,
            )

    def test_fixed_pass_infeasibility_keeps_dual_plan_and_solves(
        self, small_chip, monkeypatch
    ):
        # If the fixed-mode oracle pass proves itself infeasible, the
        # dual-mode plan must survive and the oracle's solver work must
        # still be counted.
        import repro.pipeline.passes as passes_module
        from repro.core.compiler import CMSwitchCompiler, CompilerOptions
        from repro.core.segmentation import NetworkSegmenter, NoFeasiblePlanError
        from repro.models import build_model
        from repro.pipeline import FixedModeFallback, build_pipeline

        real_segmenter = NetworkSegmenter

        class FixedPassFails(real_segmenter):
            def segment(self, graph, units=None):
                if not self.options.allow_memory_mode:
                    raise NoFeasiblePlanError(
                        "fixed impossible",
                        stats={
                            "allocator_solves": 7,
                            "allocation_cache_hits": 3,
                        },
                    )
                return super().segment(graph, units=units)

        monkeypatch.setattr(passes_module, "NetworkSegmenter", FixedPassFails)
        graph = build_model("tiny-mlp", Workload(batch_size=1))
        program = CMSwitchCompiler(
            small_chip,
            CompilerOptions(generate_code=False),
            pipeline=build_pipeline().insert_after("allocate", FixedModeFallback()),
        ).compile(graph)
        assert program.num_segments >= 1
        assert program.stats["allocator_solves"] >= 7
        assert program.stats["allocation_cache_hits"] >= 3
        assert program.stats["allocation_disk_hits"] == 0  # nothing came off a disk

    def test_infeasible_compile_still_reports_its_solves(self, small_chip, monkeypatch):
        # Force the plan infeasible while preserving the solve counters:
        # the work done before NoFeasiblePlanError must not vanish from
        # batch/DSE accounting.
        import repro.pipeline.passes as passes_module
        from repro.core.segmentation import SegmentationResult

        def _infeasible_result():
            from repro.cost.latency import INFEASIBLE_LATENCY
            from repro.core.program import SegmentPlan

            plan = SegmentPlan(
                index=0, operator_names=["op"], allocations={}, profiles={},
                intra_cycles=INFEASIBLE_LATENCY, inter_cycles=0.0,
            )
            return SegmentationResult([plan], [], 0.0, 5, 3)

        class InfeasibleSegmenter:
            def __init__(self, *args, **kwargs):
                self.allocation_calls = 5
                self.cache_hits = 3

            def choose_boundaries(self, graph, units):
                return [(0, 0)]

            def build_plans(self, units, boundaries):
                return _infeasible_result().segments

            def segment(self, graph, units=None):
                return _infeasible_result()

        monkeypatch.setattr(passes_module, "NetworkSegmenter", InfeasibleSegmenter)
        result = run_dse(tiny_space(arrays=(8,)))
        record = result.records[0]
        assert not record.feasible and not record.failed
        assert record.allocator_solves == 5
        assert record.cache_hits == 3 and record.disk_hits == 0
        assert result.allocator_solves == 5

    def test_shared_cache_object_instead_of_dir(self):
        cache = AllocationCache()
        result = run_dse(tiny_space(), service=CompileService(cache=cache))
        assert result.evaluated == 2
        assert cache.stats.stores > 0

    def test_cache_keyword_became_service(self, tmp_path):
        with pytest.raises(TypeError):
            DSERunner(tiny_space(), cache=AllocationCache())
        with pytest.raises(ValueError, match="not both"):
            DSERunner(tiny_space(), service=CompileService(), cache_dir=tmp_path)

    def test_failing_point_is_recorded_not_fatal(self):
        # An unknown model cannot even be planned; its failure must land
        # in its own record while the valid point still compiles.
        space = DesignSpace(
            models=["no-such-model", "tiny-cnn"],
            base_hardware=small_test_chip(),
            workloads=[Workload(batch_size=1, seq_len=16)],
        )
        result = run_dse(space)
        assert result.evaluated == 2
        by_model = {r.model: r for r in result.records}
        failed = by_model["no-such-model"]
        assert not failed.feasible
        assert failed.failed
        assert failed.error and "no-such-model" in failed.error
        assert math.isinf(failed.objective_value)
        assert by_model["tiny-cnn"].feasible

    def test_failed_record_serialises_as_strict_json(self):
        # Non-finite metrics must become null, never a bare Infinity
        # token (results.jsonl is consumed by jq/pandas too).
        space = DesignSpace(models=["no-such-model"], base_hardware=small_test_chip())
        result = run_dse(space)
        payload = result.records[0].to_dict()
        text = json.dumps(payload, allow_nan=False)  # raises on inf/nan
        clone = EvaluationRecord.from_dict(json.loads(text))
        assert math.isinf(clone.objective_value) and clone.failed

    def test_records_json_round_trip(self):
        result = run_dse(tiny_space())
        for record in result.records:
            clone = EvaluationRecord.from_dict(json.loads(json.dumps(record.to_dict())))
            assert clone.point_key == record.point_key
            assert clone.coords == record.coords
            assert clone.latency_ms == pytest.approx(record.latency_ms)


# ---------------------------------------------------------------------- #
# Warm planning across runs
# ---------------------------------------------------------------------- #
def _solver_counters(result):
    return [
        (r.point_key, r.allocator_solves, r.cache_hits, r.disk_hits)
        for r in result.new_records
    ]


class TestCompilesRunInOrder:
    """A sweep's compiles run one after another, so its counters repeat."""

    def test_default_runner_solve_counts_repeat(self):
        runners = [DSERunner(benchmark_space()) for _ in range(2)]
        first, second = [runner.run() for runner in runners]
        assert first.allocator_solves == second.allocator_solves == 318
        assert _solver_counters(first) == _solver_counters(second)
        # One window table: every solve is one miss and one store in the
        # runner's service cache, every reuse one hit there.
        for runner in runners:
            cache = runner.service.cache
            assert cache.stats.to_dict() == {
                "hits": 328,
                "cross_mode_hits": 22,
                "misses": 318,
                "stores": 318,
                "evictions": 0,
                "hit_rate": 328 / 646,
            }
            assert len(cache) == 318

    def test_max_workers_is_accepted_and_inert(self):
        """The benchmark still passes it; it must change nothing."""
        default = DSERunner(tiny_space(arrays=(4, 6, 8), modes=(True, False))).run()
        seven = DSERunner(
            tiny_space(arrays=(4, 6, 8), modes=(True, False)), max_workers=7
        ).run()
        assert _solver_counters(seven) == _solver_counters(default)
        assert [r.cycles for r in seven.records] == [r.cycles for r in default.records]

    def test_backend_keyword_is_gone(self):
        with pytest.raises(TypeError):
            DSERunner(tiny_space(), backend="process")


class TestWarmPlanning:
    def test_second_run_of_overlapping_space_does_zero_solves(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_dse(tiny_space(), cache_dir=cache_dir)
        assert cold.allocator_solves > 0
        warm = run_dse(tiny_space(), cache_dir=cache_dir)
        assert warm.allocator_solves == 0
        assert warm.cold_planned == 0 and warm.warm_planned == warm.evaluated
        assert warm.disk_hits > 0
        assert [r.point_key for r in warm.frontier()] == [
            r.point_key for r in cold.frontier()
        ]
        # Same designs, bit-identical metrics.
        cold_by_key = {r.point_key: r for r in cold.records}
        for record in warm.records:
            assert record.latency_ms == cold_by_key[record.point_key].latency_ms

    def test_second_explore_on_one_session_is_served_from_memory(self):
        """No ``cache_dir``: the session's program table serves the repeat."""
        with Session(hardware="small-test-chip") as session:
            cold = session.explore(benchmark_space())
            warm = session.explore(benchmark_space())
        assert cold.allocator_solves > 0 and cold.warm_planned == 0
        assert warm.allocator_solves == 0 and warm.disk_hits == 0
        assert warm.cold_planned == 0 and warm.warm_planned == warm.evaluated > 0
        assert "programs: %d served (table or store), 0 computed" % warm.evaluated in (
            warm.summary()
        )
        assert [(r.point_key, r.cycles) for r in warm.frontier()] == [
            (r.point_key, r.cycles) for r in cold.frontier()
        ]

    def test_disk_hits_surface_in_program_stats(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_dse(tiny_space(arrays=(8,)), cache_dir=cache_dir)
        warm = run_dse(tiny_space(arrays=(8,)), cache_dir=cache_dir)
        record = warm.records[0]
        assert record.disk_hits > 0
        assert record.allocator_solves == 0


# ---------------------------------------------------------------------- #
# Pareto
# ---------------------------------------------------------------------- #
def _record(key, latency, energy, arrays, feasible=True):
    return EvaluationRecord(
        point_key=key, model="m", workload="w", hardware="h", num_arrays=arrays,
        hardware_fingerprint="f", coords=(0,), allow_memory_mode=True,
        objective="latency", feasible=feasible, latency_ms=latency,
        energy_mj=energy, objective_value=latency,
    )


class TestPareto:
    def test_known_frontier(self):
        records = [
            _record("a", 10.0, 5.0, 8),    # frontier (fastest)
            _record("b", 20.0, 3.0, 8),    # frontier (least energy at 8)
            _record("c", 30.0, 6.0, 8),    # dominated by a and b
            _record("d", 40.0, 8.0, 4),    # frontier (fewest arrays)
            _record("e", 12.0, 5.0, 8),    # dominated by a
        ]
        frontier = {r.point_key for r in pareto_frontier(records)}
        assert frontier == {"a", "b", "d"}

    def test_infeasible_and_nonfinite_excluded(self):
        records = [
            _record("a", 10.0, 5.0, 8),
            _record("x", math.inf, math.inf, 8, feasible=False),
            _record("y", math.inf, 5.0, 4),
        ]
        frontier = {r.point_key for r in pareto_frontier(records)}
        assert frontier == {"a"}

    def test_identical_points_both_kept(self):
        records = [_record("a", 10.0, 5.0, 8), _record("b", 10.0, 5.0, 8)]
        assert len(pareto_frontier(records)) == 2

    def test_csv_written_with_pareto_flags(self, tmp_path):
        records = [_record("a", 10.0, 5.0, 8), _record("c", 30.0, 6.0, 8)]
        path = write_csv(tmp_path / "out.csv", records)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("point_key,") and lines[0].endswith(",pareto")
        flags = {line.split(",")[0]: line.split(",")[-1] for line in lines[1:]}
        assert flags == {"a": "1", "c": "0"}


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestDseCli:
    def test_dse_run_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        argv = ["dse", "--strategy", "grid", "--budget", "4", "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "pareto frontier" in out
        assert "total allocator solves: 0" not in out
        assert (tmp_path / "cache" / "_dse" / "pareto.csv").exists()
        assert (tmp_path / "cache" / "_dse" / "report.txt").exists()

        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "total allocator solves: 0" in out
        assert "2 skipped (already evaluated)" in out

    def test_dse_refuses_dirty_run_dir_without_resume(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        argv = ["dse", "--budget", "2", "--cache-dir", cache_dir]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "already contains results" in capsys.readouterr().err

    def test_dse_strategy_and_objective_choices(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["dse", "tiny-mlp", "--strategy", "greedy", "--objective", "energy",
             "--arrays", "4", "8", "--modes", "dual", "fixed"]
        )
        assert args.strategy == "greedy" and args.objective == "energy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--strategy", "annealing"])


class TestCacheCli:
    def _warm_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_dse(tiny_space(), cache_dir=cache_dir)
        return cache_dir

    def test_stats(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = self._warm_cache(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "oldest entry" in out

    def test_stats_on_missing_directory_reports_empty_and_exits_zero(
        self, tmp_path, capsys
    ):
        # A cache dir that was never created holds nothing: `stats` is a
        # read-only query and must answer "empty" (exit 0) without
        # creating the directory — scripts can poll a cache dir before
        # its first run without special-casing an error.
        from repro.cli import main

        missing = tmp_path / "typo-path"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "0 entries" in out and "0.00 MB" in out
        assert not missing.exists()

    def test_prune_and_clear_still_reject_missing_directory(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "typo-path"
        assert (
            main(
                ["cache", "prune", "--cache-dir", str(missing), "--max-bytes", "1MB"]
            )
            == 2
        )
        assert "does not exist" in capsys.readouterr().err
        assert main(["cache", "clear", "--cache-dir", str(missing)]) == 2
        assert not missing.exists()

    def test_cache_cli_rejects_regular_file_path(self, tmp_path, capsys):
        from repro.cli import main

        not_a_dir = tmp_path / "somefile"
        not_a_dir.write_text("hi")
        assert main(["cache", "stats", "--cache-dir", str(not_a_dir)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_prune_by_age(self, tmp_path, capsys):
        import os
        import time

        from repro.cli import main

        cache_dir = self._warm_cache(tmp_path)
        store = DiskCacheStore(cache_dir)
        entries = store._entry_files()
        assert entries
        # Age half the entries far into the past.
        old = time.time() - 10 * 86400
        aged = entries[: len(entries) // 2]
        for path in aged:
            os.utime(path, (old, old))
        assert main(["cache", "prune", "--cache-dir", str(cache_dir), "--max-age", "7d"]) == 0
        assert f"pruned: {len(aged)} entries" in capsys.readouterr().out
        assert len(store._entry_files()) == len(entries) - len(aged)

    def test_prune_by_size_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = self._warm_cache(tmp_path)
        store = DiskCacheStore(cache_dir)
        before = len(store)
        assert main(["cache", "prune", "--cache-dir", str(cache_dir), "--max-bytes", "2KB"]) == 0
        remaining = len(store)
        assert remaining < before
        assert store.usage()["bytes"] <= 2048
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert len(store) == 0

    def test_prune_requires_a_policy(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = self._warm_cache(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(cache_dir)]) == 2
        assert "requires" in capsys.readouterr().err

    def test_prune_spares_foreign_files(self, tmp_path):
        from repro.cli import main

        cache_dir = self._warm_cache(tmp_path)
        # The DSE run dir nested inside the cache dir must survive both
        # prune and clear (only content-addressed entry files are touched).
        foreign = cache_dir / "_dse"
        foreign.mkdir()
        (foreign / "space.json").write_text("{}")
        assert main(["cache", "prune", "--cache-dir", str(cache_dir), "--max-bytes", "0"]) == 0
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert (foreign / "space.json").exists()


# ---------------------------------------------------------------------- #
# Multi-fidelity evaluation (repro.eval threading)
# ---------------------------------------------------------------------- #
class TestFidelity:
    def test_analytical_run_performs_zero_solves(self):
        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        result = DSERunner(space, fidelity="analytical").run()
        assert result.allocator_solves == 0
        assert result.evaluated_by_fidelity == {"analytical": space.size}
        assert all(r.fidelity == "analytical" for r in result.new_records)
        assert all(r.lower_bound for r in result.new_records)
        assert all(r.feasible for r in result.new_records)

    def test_analytical_metrics_lower_bound_compiled_metrics(self):
        space = tiny_space(arrays=(4, 8), modes=(True, False))
        bounds = {
            r.point_key: r for r in DSERunner(space, fidelity="analytical").run().records
        }
        exact = {
            r.point_key: r for r in DSERunner(space, fidelity="compile").run().records
        }
        assert set(bounds) == set(exact)
        for key, bound in bounds.items():
            record = exact[key]
            assert bound.feasible == record.feasible
            if record.feasible:
                assert bound.latency_ms <= record.latency_ms * (1 + 1e-9)
                assert bound.energy_mj <= record.energy_mj * (1 + 1e-9)

    def test_auto_promotes_survivors_up_the_ladder(self):
        from repro.dse import SuccessiveHalvingStrategy

        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        strategy = SuccessiveHalvingStrategy(seed=0, keep_fraction=0.5)
        result = DSERunner(space, strategy=strategy, fidelity="auto").run()
        promoted = math.ceil(space.size * 0.5)
        assert result.evaluated_by_fidelity == {
            "analytical": space.size, "compile": promoted,
        }
        # Rung 0 is free: analytical evaluations perform no solves.
        rung0 = [r for r in result.new_records if r.fidelity == "analytical"]
        assert sum(r.allocator_solves for r in rung0) == 0
        # Final records carry one entry per point, at the highest
        # fidelity each point was paid for.
        by_key = {r.point_key: r for r in result.records}
        assert len(by_key) == space.size
        assert sum(1 for r in by_key.values() if r.fidelity == "compile") == promoted
        assert (
            sum(1 for r in by_key.values() if r.fidelity == "analytical")
            == space.size - promoted
        )

    @pytest.mark.parametrize("space_name", ["benchmark", "paper"])
    def test_auto_is_bound_then_plan_and_agrees_with_the_grid(self, space_name):
        """``auto`` runs two tiers, and what it compiles *is* the grid's answer.

        There is no heuristic middle rung: every record ``auto`` reports
        as a plan carries the cycles a full ``compile`` sweep finds for
        the same point, and its best point is the grid's best.
        """
        if space_name == "benchmark":
            make = benchmark_space
        else:
            def make():
                return DesignSpace(
                    models=["mobilenet", "bert"],
                    base_hardware="dynaplasia",
                    hardware_axes={"num_arrays": [64, 96, 128]},
                    option_axes={"allow_memory_mode": [True, False]},
                )
        auto = DSERunner(make(), fidelity="auto").run()
        grid = DSERunner(make(), strategy="grid", fidelity="compile").run()

        size = make().size
        assert auto.evaluated_by_fidelity.keys() == {"analytical", "compile"}
        assert {r.fidelity for r in auto.new_records} == {"analytical", "compile"}
        assert {r.fidelity for r in auto.records} == {"analytical", "compile"}
        by_key = {r.point_key: r for r in grid.records}
        assert len(by_key) == size
        compiled = [r for r in auto.records if r.fidelity == "compile"]
        assert compiled
        for record in compiled:
            assert record.cycles == by_key[record.point_key].cycles

        def best(result):
            plans = [r for r in result.records if r.feasible and not r.lower_bound]
            return min(plans, key=lambda r: (r.cycles, r.point_key))

        assert best(auto).point_key == best(grid).point_key
        assert best(auto).cycles == best(grid).cycles

    def test_auto_installs_successive_halving_for_plain_strategies(self):
        from repro.dse import SuccessiveHalvingStrategy

        runner = DSERunner(tiny_space(), strategy="grid", fidelity="auto")
        assert isinstance(runner.strategy, SuccessiveHalvingStrategy)

    def test_auto_resume_skips_every_rung(self, tmp_path):
        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        run_dir = tmp_path / "run"
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "successive-halving"
        ) as state:
            first = DSERunner(space, fidelity="auto", state=state).run()
        assert first.evaluated > 0
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency",
            "successive-halving", resume=True,
        ) as state:
            second = DSERunner(space, fidelity="auto", state=state).run()
        # Every rung is answered by the stored records (each point's
        # stored fidelity is at least the rung it reached last time, and
        # the seeded ladder re-promotes the same survivors) — so nothing
        # is evaluated and nothing is solved.
        assert second.evaluated == 0
        assert second.allocator_solves == 0

    def test_compile_record_satisfies_analytical_request_on_resume(self, tmp_path):
        space = tiny_space(arrays=(4, 8))
        run_dir = tmp_path / "run"
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, fidelity="compile", state=state).run()
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            result = DSERunner(space, fidelity="analytical", state=state).run()
        assert result.evaluated == 0
        assert result.skipped == space.size

    def test_analytical_record_does_not_satisfy_compile_request(self, tmp_path):
        space = tiny_space(arrays=(4, 8))
        run_dir = tmp_path / "run"
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid"
        ) as state:
            DSERunner(space, fidelity="analytical", state=state).run()
        with RunState.open(
            run_dir, space.to_spec(), space.fingerprint(), "latency", "grid",
            resume=True,
        ) as state:
            result = DSERunner(space, fidelity="compile", state=state).run()
        assert result.evaluated == space.size
        assert result.skipped == 0
        assert all(r.fidelity == "compile" for r in result.new_records)

    def test_record_fidelity_round_trips_and_defaults_to_compile(self):
        record = EvaluationRecord(
            point_key="k", model="m", workload="w", hardware="h", num_arrays=4,
            hardware_fingerprint="f", coords=(0,), allow_memory_mode=True,
            objective="latency", fidelity="analytical", lower_bound=True,
        )
        payload = record.to_dict()
        assert payload["fidelity"] == "analytical"
        assert payload["lower_bound"] is True
        assert EvaluationRecord.from_dict(payload).fidelity == "analytical"
        # Legacy payloads (pre-fidelity) deserialise as full compiles.
        del payload["fidelity"], payload["lower_bound"]
        legacy = EvaluationRecord.from_dict(payload)
        assert legacy.fidelity == "compile"
        assert legacy.lower_bound is False

    def test_unknown_fidelity_rejected(self):
        from repro.dse import FIDELITY_MODES

        assert FIDELITY_MODES == ("analytical", "compile", "auto")
        for name in ("psychic", "greedy", "cached"):
            with pytest.raises(ValueError, match="known: analytical, compile, auto"):
                DSERunner(tiny_space(), fidelity=name)

    def test_mixed_fidelity_frontier_excludes_lower_bounds(self):
        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        result = DSERunner(space, fidelity="auto").run()
        frontier = result.frontier()
        assert frontier, "auto run must produce a frontier"
        # Only compiled plans participate; analytical lower bounds never do.
        assert all(r.fidelity == "compile" for r in frontier)
        assert not any(r.lower_bound for r in frontier)


class TestSuccessiveHalvingStrategy:
    def test_rung0_covers_the_space_then_promotes_best(self):
        from repro.dse import SuccessiveHalvingStrategy

        space = tiny_space(arrays=(4, 6, 8), modes=(True, False))
        strategy = SuccessiveHalvingStrategy(seed=3, keep_fraction=0.25)
        strategy.bind(space)
        rung0 = []
        while True:
            batch = strategy.ask(5)
            if strategy.fidelity != "analytical" or not batch:
                promotions = batch
                break
            rung0.extend(batch)
            records = [
                EvaluationRecord(
                    point_key=p.key, model=p.model_name, workload="w", hardware="h",
                    num_arrays=p.hardware.num_arrays, hardware_fingerprint="f",
                    coords=p.coords, allow_memory_mode=True, objective="latency",
                    fidelity="analytical", feasible=True,
                    objective_value=float(sum(p.coords)),
                )
                for p in batch
            ]
            strategy.tell(records)
        assert sorted(p.coords for p in rung0) == sorted(space.coordinates())
        assert strategy.fidelity == "compile"
        keep = math.ceil(space.size * 0.25)
        collected = list(promotions)
        while not strategy.exhausted:
            more = strategy.ask(5)
            if not more:
                break
            collected.extend(more)
        assert len(collected) == keep
        # The best rung-0 scores (lowest coord sums) were promoted.
        scores = sorted(sum(c) for c in space.coordinates())[:keep]
        assert sorted(sum(p.coords) for p in collected) == scores
        assert strategy.exhausted

    def test_infeasible_rung0_points_are_never_promoted(self):
        from repro.dse import SuccessiveHalvingStrategy

        space = tiny_space(arrays=(4, 8))
        strategy = SuccessiveHalvingStrategy(seed=0, keep_fraction=1.0)
        strategy.bind(space)
        batch = strategy.ask(space.size)
        records = [
            EvaluationRecord(
                point_key=p.key, model=p.model_name, workload="w", hardware="h",
                num_arrays=p.hardware.num_arrays, hardware_fingerprint="f",
                coords=p.coords, allow_memory_mode=True, objective="latency",
                fidelity="analytical", feasible=(index == 0),
                objective_value=1.0 if index == 0 else math.inf,
            )
            for index, p in enumerate(batch)
        ]
        strategy.tell(records)
        promotions = strategy.ask(space.size)
        assert len(promotions) == 1
        assert promotions[0].key == batch[0].key

    def test_registered_with_make_strategy(self):
        from repro.dse import SuccessiveHalvingStrategy

        strategy = make_strategy("successive-halving", seed=5)
        assert isinstance(strategy, SuccessiveHalvingStrategy)
        assert strategy.seed == 5

    def test_default_ladder_walks_analytical_greedy_compile(self):
        from repro.dse import SuccessiveHalvingStrategy

        space = benchmark_space()
        strategy = SuccessiveHalvingStrategy(seed=1)
        strategy.bind(space)
        rung_order = []
        counts = {}
        while not strategy.exhausted:
            batch = strategy.ask(space.size)
            if not batch:
                break
            fidelity = strategy.fidelity
            if not rung_order or rung_order[-1] != fidelity:
                rung_order.append(fidelity)
            counts[fidelity] = counts.get(fidelity, 0) + len(batch)
            strategy.tell(
                [
                    EvaluationRecord(
                        point_key=p.key, model=p.model_name, workload="w",
                        hardware="h", num_arrays=p.hardware.num_arrays,
                        hardware_fingerprint="f", coords=p.coords,
                        allow_memory_mode=True, objective="latency",
                        fidelity=fidelity, feasible=True,
                        objective_value=float(sum(p.coords)),
                    )
                    for p in batch
                ]
            )
        assert rung_order == ["analytical", "compile"]
        assert counts["analytical"] == space.size == 30
        assert counts["compile"] == math.ceil(30 * 0.5)
        assert strategy.exhausted

    def test_ladder_shape_is_validated(self):
        from repro.dse import SuccessiveHalvingStrategy

        # One promotion, one fraction: the ladder is not configurable.
        with pytest.raises(TypeError):
            SuccessiveHalvingStrategy(rungs=("analytical", "compile"))
        with pytest.raises(TypeError):
            SuccessiveHalvingStrategy(keep_fractions=(0.5,))
        for fraction in (0.0, 1.5, -0.25):
            with pytest.raises(ValueError, match=r"in \(0, 1\]"):
                SuccessiveHalvingStrategy(keep_fraction=fraction)
        assert SuccessiveHalvingStrategy(keep_fraction=1.0).keep_fraction == 1.0


class TestGreedyKeyDedup:
    def test_duplicate_axis_values_are_proposed_once(self):
        # arrays=(4, 4) aliases two coordinates onto one point key; the
        # strategy must never propose the same key twice, even when a
        # survivor's neighbourhood collapses onto the alias at the edge.
        space = tiny_space(arrays=(4, 4), modes=(True, False))
        strategy = GreedyStrategy(seed=0)
        strategy.bind(space)
        seen = []
        while not strategy.exhausted:
            batch = strategy.ask(2)
            if not batch:
                break
            seen.extend(batch)
            records = [
                EvaluationRecord(
                    point_key=p.key, model=p.model_name, workload="w", hardware="h",
                    num_arrays=p.hardware.num_arrays, hardware_fingerprint="f",
                    coords=p.coords, allow_memory_mode=True, objective="latency",
                    feasible=True, objective_value=1.0,
                )
                for p in batch
            ]
            strategy.tell(records)
        keys = [p.key for p in seen]
        assert len(keys) == len(set(keys)), "greedy proposed a point key twice"
        # Every distinct key of the space was still covered.
        assert set(keys) == {p.key for p in space.points()}

    def test_told_keys_are_never_reproposed(self):
        # Records told from a resumed run (never asked this session) must
        # also suppress proposals of their keys.
        space = tiny_space(arrays=(4, 8), modes=(True, False))
        strategy = GreedyStrategy(seed=0)
        strategy.bind(space)
        pre_told = list(space.points())[:2]
        strategy.tell(
            [
                EvaluationRecord(
                    point_key=p.key, model=p.model_name, workload="w", hardware="h",
                    num_arrays=p.hardware.num_arrays, hardware_fingerprint="f",
                    coords=p.coords, allow_memory_mode=True, objective="latency",
                    feasible=True, objective_value=1.0,
                )
                for p in pre_told
            ]
        )
        told_keys = {p.key for p in pre_told}
        proposed = []
        while not strategy.exhausted:
            batch = strategy.ask(3)
            if not batch:
                break
            proposed.extend(batch)
        assert told_keys.isdisjoint({p.key for p in proposed})

    def test_no_budget_burned_on_aliased_points_in_runner(self):
        space = tiny_space(arrays=(4, 4))
        result = DSERunner(space, strategy=GreedyStrategy(seed=0)).run()
        # Two aliased coordinates, one structural reality: exactly one
        # evaluation, zero replications.
        assert result.evaluated == 1
        assert result.replicated == 0


class TestParetoTies:
    def _record(self, key, latency, energy, arrays, feasible=True):
        return EvaluationRecord(
            point_key=key, model="m", workload="w", hardware="h",
            num_arrays=arrays, hardware_fingerprint="f", coords=(0,),
            allow_memory_mode=True, objective="latency", feasible=feasible,
            latency_ms=latency, energy_mj=energy, objective_value=latency,
        )

    def test_equal_latency_points_both_survive(self):
        a = self._record("a", latency=1.0, energy=2.0, arrays=4)
        b = self._record("b", latency=1.0, energy=3.0, arrays=2)
        frontier = pareto_frontier([a, b], axes=("latency_ms", "energy_mj", "num_arrays"))
        assert {r.point_key for r in frontier} == {"a", "b"}

    def test_fully_tied_points_all_survive(self):
        records = [
            self._record(key, latency=5.0, energy=5.0, arrays=8)
            for key in ("x", "y", "z")
        ]
        frontier = pareto_frontier(records)
        assert {r.point_key for r in frontier} == {"x", "y", "z"}

    def test_tied_frontier_order_is_deterministic(self):
        records = [
            self._record(key, latency=5.0, energy=5.0, arrays=8)
            for key in ("zz", "aa", "mm")
        ]
        forward = pareto_frontier(records)
        backward = pareto_frontier(list(reversed(records)))
        assert [r.point_key for r in forward] == [r.point_key for r in backward]
        assert [r.point_key for r in forward] == ["aa", "mm", "zz"]

    def test_csv_order_is_deterministic_for_ties(self, tmp_path):
        records = [
            self._record("b", latency=1.0, energy=1.0, arrays=4),
            self._record("a", latency=1.0, energy=1.0, arrays=4),
        ]
        first = write_csv(tmp_path / "one.csv", records).read_text()
        second = write_csv(tmp_path / "two.csv", records).read_text()
        assert first == second
        rows = [line.split(",")[0] for line in first.splitlines()[1:]]
        assert rows == ["b", "a"]  # input order, both flagged pareto
        assert all(line.rstrip().endswith(",1") for line in first.splitlines()[1:])

    def test_csv_carries_fidelity_and_lower_bound_columns(self, tmp_path):
        record = self._record("a", latency=1.0, energy=1.0, arrays=4)
        record.fidelity = "analytical"
        record.lower_bound = True
        text = write_csv(tmp_path / "f.csv", [record]).read_text()
        header = text.splitlines()[0].split(",")
        assert "fidelity" in header and "lower_bound" in header
        row = dict(zip(header, text.splitlines()[1].split(",")))
        assert row["fidelity"] == "analytical"
        assert row["lower_bound"] == "True"


class TestDseCliFidelity:
    def test_cli_fidelity_analytical_runs_zero_solves(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "dse", "tiny-cnn", "--strategy", "grid", "--fidelity", "analytical",
                "--run-dir", str(tmp_path / "run"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "total allocator solves: 0" in out
        assert "fidelity: analytical=" in out
        assert "[analytical/evaluated/ok]" in out

    def test_cli_fidelity_auto_notes_the_schedule(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "dse", "tiny-cnn", "--strategy", "grid", "--fidelity", "auto",
                "--run-dir", str(tmp_path / "run"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "successive-halving" in out
        assert "analytical rung 0, survivors compiled" in out
        assert "analytical=" in out and "compile=" in out
        assert "greedy" not in out and "/cold]" not in out

    @pytest.mark.parametrize("retired", ["greedy", "cached"])
    def test_cli_rejects_the_retired_tiers(self, retired, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "tiny-cnn", "--fidelity", retired,
                  "--run-dir", str(tmp_path / "run")])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mixed_report_never_crowns_a_lower_bound(self):
        # In an auto run a non-promoted point keeps its optimistic
        # analytical record; the "best" line and the dominance counts
        # must rank only full-fidelity records.
        from repro.dse import render_report

        bound = EvaluationRecord(
            point_key="bound", model="m", workload="w", hardware="h", num_arrays=4,
            hardware_fingerprint="f", coords=(0,), allow_memory_mode=True,
            objective="latency", fidelity="analytical", lower_bound=True,
            feasible=True, latency_ms=1.0, energy_mj=1.0, objective_value=1.0,
        )
        real = EvaluationRecord(
            point_key="real", model="m", workload="w", hardware="h", num_arrays=4,
            hardware_fingerprint="f", coords=(1,), allow_memory_mode=True,
            objective="latency", fidelity="compile",
            feasible=True, latency_ms=5.0, energy_mj=5.0, objective_value=5.0,
        )
        report = render_report([bound, real])
        assert "best (latency): m @ 4 arrays -> 5.000" in report
        assert "lower-bound screened: 1" in report

# ---------------------------------------------------------------------- #
# trace_p99 objective
# ---------------------------------------------------------------------- #
class TestTraceObjective:
    def _trace(self):
        from repro.sim.traces import poisson_trace

        return poisson_trace(
            ["tiny-mlp", "tiny-cnn"], num_requests=8, seed=5, seq_len_buckets=(16,)
        )

    def test_requires_a_trace(self):
        with pytest.raises(ValueError, match="requires a trace"):
            DSERunner(tiny_space(), objective="trace_p99")

    def test_rejects_planless_fidelities(self):
        trace = self._trace()
        for fidelity in ("analytical", "auto"):
            with pytest.raises(ValueError, match="real compiled plans") as excinfo:
                DSERunner(
                    tiny_space(), objective="trace_p99", fidelity=fidelity, trace=trace
                )
            # One tier produces plans, and the message names only it.
            assert "(use 'compile')" in str(excinfo.value)
        for retired in ("greedy", "cached"):
            with pytest.raises(ValueError, match="unknown fidelity"):
                DSERunner(
                    tiny_space(), objective="trace_p99", fidelity=retired, trace=trace
                )

    def test_scores_points_by_trace_p99(self):
        trace = self._trace()
        result = DSERunner(tiny_space(), objective="trace_p99", trace=trace).run()
        feasible = [r for r in result.records if r.feasible]
        assert feasible
        for record in feasible:
            assert math.isfinite(record.trace_p99_ms)
            assert record.objective_value == record.trace_p99_ms
            # Tail latency under traffic is bounded below by the
            # single-inference latency of the slowest trace program —
            # in particular it cannot be *faster* than one inference of
            # the point's own model family would suggest.
            assert record.trace_p99_ms > 0.0

    def test_replay_memoised_per_hardware_options(self):
        # Two models per point set share (hardware, options) pairs; the
        # trace must be replayed once per pair, not once per point.
        trace = self._trace()
        runner = DSERunner(
            tiny_space(models=("tiny-cnn", "tiny-mlp")),
            objective="trace_p99",
            trace=trace,
        )
        runner.run()
        # 2 array counts x 1 option set = 2 distinct replays.
        assert len(runner._trace_scores) == 2

    def test_record_round_trips_trace_metric(self):
        trace = self._trace()
        result = DSERunner(
            tiny_space(arrays=(8,)), objective="trace_p99", trace=trace
        ).run()
        record = next(r for r in result.records if r.feasible)
        clone = EvaluationRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone.trace_p99_ms == pytest.approx(record.trace_p99_ms)
        # Non-finite trace metrics serialise as null and come back inf.
        record.trace_p99_ms = math.inf
        clone = EvaluationRecord.from_dict(record.to_dict())
        assert clone.trace_p99_ms == math.inf
