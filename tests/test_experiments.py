"""Tests for the experiment harness: the runners' mechanics.

Each experiment runs on a heavily reduced grid and is checked for the
shape of its rows, how it compiles (one session, lookups, fields) and,
on that small grid, the qualitative properties the paper reports (who
wins, in which direction the trends point). The same claims on the
figures' full grids, with their measured status, are the ledger in
``tests/test_paper_claims.py``.
"""

import math

import pytest

from repro.api import Session
from repro.core import AllocationCache, CMSwitchCompiler
from repro.experiments import (
    COMPILER_NAMES,
    allocation_report,
    generative_cycles,
    geometric_mean,
    measure_compile_time,
    prime_scalability,
    run_end_to_end,
    run_generative,
    run_model,
    run_workload_scale,
    speedup,
    summarize,
    switch_overhead,
)
from repro.experiments.common import FIGURE_OPTIONS, format_table
from repro.hardware import dynaplasia, small_test_chip
from repro.models import Phase, Workload, build_model, default_workload
from repro.service import CompileService


@pytest.fixture(scope="module")
def chip():
    return dynaplasia()


class TestCommonHelpers:
    def test_speedup_and_geomean(self):
        assert speedup(200.0, 100.0) == 2.0
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_encode_workload_phases(self):
        assert default_workload("bert", batch_size=1, seq_len=64).phase is Phase.ENCODE
        assert default_workload("resnet18").phase is Phase.PREFILL
        # An explicit phase wins; the other fields pass through.
        decode = default_workload("bert", phase=Phase.DECODE, seq_len=16)
        assert decode == Workload(phase=Phase.DECODE, seq_len=16)

    def test_compiler_names_resolve_through_the_session(self, chip):
        session = Session(chip)
        workload = Workload(batch_size=1, seq_len=16)
        for name in COMPILER_NAMES:
            program = run_model("tiny-transformer", workload, chip, name, session)
            assert program.compiler_name == name
        with pytest.raises(KeyError, match="xla"):
            run_model("tiny-transformer", workload, chip, "xla", session)

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}], ["a", "b"])
        assert "a" in text and "2.500" in text

    def test_run_model_fields(self, chip):
        program = run_model("tiny-transformer", Workload(batch_size=1, seq_len=16), chip, "cmswitch")
        assert program.end_to_end_cycles > 0
        assert 0.0 <= program.mean_memory_array_ratio <= 1.0
        assert program.num_segments >= 1
        assert program.meta_program is None  # figures compile without code

    def test_generative_cycles_composition(self, chip):
        workload = Workload(batch_size=1, seq_len=32, output_len=8)
        result = generative_cycles("tiny-transformer", workload, chip, "cmswitch")
        assert result["cycles"] == pytest.approx(
            result["prefill_cycles"] + 8 * result["decode_cycles_per_token"]
        )


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def rows(self, chip):
        return run_end_to_end(
            hardware=chip,
            models=("resnet18", "llama2-7b"),
            batch_sizes=(1,),
            seq_len=64,
        )

    def test_row_per_model(self, rows):
        assert len(rows) == 2
        assert {row["model"] for row in rows} == {"resnet18", "llama2-7b"}

    def test_cmswitch_not_slower_than_cim_mlc(self, rows):
        for row in rows:
            assert row["speedup_vs_cim-mlc"] >= 0.99

    def test_cmswitch_beats_weaker_baselines(self, rows):
        for row in rows:
            assert row["speedup_vs_occ"] >= 1.0

    def test_llm_gains_exceed_cnn_gains(self, rows):
        by_model = {row["model"]: row for row in rows}
        assert by_model["llama2-7b"]["speedup_vs_cim-mlc"] >= by_model["resnet18"]["speedup_vs_cim-mlc"] - 0.05

    def test_summary_contains_geomeans(self, rows):
        summary = summarize(rows)
        assert "speedup_vs_cim-mlc" in summary
        assert summary["speedup_vs_cim-mlc"] >= 1.0


class TestWorkloadScale:
    @pytest.fixture(scope="class")
    def rows(self, chip):
        return run_workload_scale(
            hardware=chip,
            models=("bert",),
            batch_sizes=(4,),
            sequence_lengths=(256, 2048),
        )

    def test_grid_size(self, rows):
        assert len(rows) == 2

    def test_speedup_converges_at_long_sequence_length(self, rows):
        # The paper reports BERT reaching parity with CIM-MLC beyond ~512;
        # the advantage at the longest length must not exceed the mid-range.
        mid = next(row for row in rows if row["seq_len"] == 256)
        long = next(row for row in rows if row["seq_len"] == 2048)
        assert long["speedup_vs_cim-mlc"] <= mid["speedup_vs_cim-mlc"] + 0.02
        assert long["speedup_vs_cim-mlc"] <= 1.1


class TestGenerative:
    def test_rows_and_speedups(self, chip):
        rows = run_generative(
            hardware=chip, models=("llama2-7b",), lengths=(32,), fixed_length=32, batch_size=1
        )
        assert len(rows) == 2  # vary_output and vary_input
        for row in rows:
            assert row["speedup_vs_cim-mlc"] > 0.9
            assert row["speedup_vs_cim-mlc"] == row["cim-mlc_cycles"] / row["cmswitch_cycles"]


class TestAllocationReport:
    def test_vgg_report_structure(self, chip):
        rows = allocation_report("vgg16", hardware=chip)
        assert rows
        for row in rows:
            assert row["compute_arrays"] + row["memory_arrays"] <= chip.num_arrays
            assert 0.0 <= row["memory_share"] <= 1.0

    def test_transformer_report_uses_memory_mode(self, chip):
        rows = allocation_report("opt-6.7b", hardware=chip)
        assert any(row["memory_arrays"] > 0 for row in rows)

    def test_report_compiles_the_fig14_encode_workload(self, chip):
        # Every transformer -- tiny-transformer included -- is reported at
        # Fig. 14's ENCODE workload, so the report shows the very program
        # Fig. 14 scores: asked for afterwards, that program is a lookup.
        model = "tiny-transformer"
        workload = default_workload(model, batch_size=1, seq_len=64)
        assert workload.phase is Phase.ENCODE
        session = Session(chip)
        rows = allocation_report(model, hardware=chip, session=session)
        program = session.compile(build_model(model, workload), options=FIGURE_OPTIONS)
        assert program.stats["pass_seconds"] == {}  # served by the program table
        assert rows == allocation_report(model, hardware=chip, workload=workload)


class TestCompileTimeAndOverheads:
    def test_compile_time_rows(self, chip):
        rows = measure_compile_time(hardware=chip, models=("tiny-transformer",), repeats=1)
        row = rows[0]
        assert row["cmswitch_seconds"] > 0
        assert row["cim-mlc_seconds"] > 0
        # The ratio compares two single ~3 ms wall-clock timings: its
        # value does not repeat run to run; the claim about it is the
        # ledger row ``fig18.overhead`` (tests/test_paper_claims.py).
        assert math.isfinite(row["overhead_ratio"]) and row["overhead_ratio"] > 0
        # The pass pipeline attributes where CMSwitch's extra time goes.
        assert "fallback_seconds" not in row  # one DP: no second pass to time
        assert "cmswitch_cache_hit_rate" not in row  # every timed compile is cold
        assert 0 < row["segment_seconds"] <= row["cmswitch_seconds"]
        # What does repeat is the work behind the ratio: the dual-mode
        # search space contains the fixed-mode one.
        graph = build_model("tiny-transformer", default_workload("tiny-transformer", batch_size=1, seq_len=64))
        # One fresh session per compiler: cim-mlc's windows are a subset
        # of cmswitch's, so a shared one would serve them all.
        solves = {
            name: Session(chip).compile(graph, options=FIGURE_OPTIONS, compiler=name).stats[
                "allocator_solves"
            ]
            for name in ("cmswitch", "cim-mlc")
        }
        assert solves["cmswitch"] >= solves["cim-mlc"] > 0

    def test_every_timed_fig18_compile_is_cold(self, chip, monkeypatch):
        """Each repeat of each compiler gets a fresh session: it solves
        what a compile on a session of its own solves — no table hit, no
        window another compiler left behind."""
        graph = build_model("tiny-transformer", default_workload("tiny-transformer", batch_size=1, seq_len=64))
        cold = {
            name: Session(chip).compile(graph, options=FIGURE_OPTIONS, compiler=name).stats[
                "allocator_solves"
            ]
            for name in ("cmswitch", "cim-mlc")
        }
        timed = []
        compile_graph = CompileService.compile_graph

        def spy(service, source, hardware, options, compiler):
            program = compile_graph(service, source, hardware, options, compiler)
            timed.append((compiler, program.stats["allocator_solves"]))
            return program

        monkeypatch.setattr(CompileService, "compile_graph", spy)
        measure_compile_time(hardware=chip, models=("tiny-transformer",), repeats=2)
        assert timed == [("cmswitch", cold["cmswitch"])] * 2 + [("cim-mlc", cold["cim-mlc"])] * 2
        assert cold["cmswitch"] > 0 and cold["cim-mlc"] > 0

    def test_switch_overhead_small_share(self, chip):
        rows = switch_overhead(hardware=chip, models=("tiny-transformer",))
        row = rows[0]
        assert 0.0 <= row["switch_share"] <= 0.10
        assert 0.0 <= row["switch_process_share"] <= 1.0

    def test_prime_scalability_not_slower(self):
        rows = prime_scalability(models=("tiny-transformer",))
        assert rows[0]["speedup_vs_cim-mlc"] >= 0.99

    def test_the_fig18_quick_set_solves_at_most_375_cold_and_nothing_warm(self, chip):
        """mobilenet and bert at sequence 32, cold then warm: two compilers
        over one window table.  Solve counts repeat exactly, so this gates
        compile work on any machine; the wall time is the benchmark's."""
        graphs = [
            build_model(model, default_workload(model, batch_size=1, seq_len=32))
            for model in ("mobilenet", "bert")
        ]
        cache = AllocationCache()

        def one_pass():
            compiler = CMSwitchCompiler(chip, FIGURE_OPTIONS, cache=cache)
            stats = [compiler.compile(graph).stats for graph in graphs]
            return (
                sum(s["allocator_solves"] for s in stats),
                sum(s["allocation_cache_hits"] for s in stats),
            )

        cold_solves, _ = one_pass()
        warm_solves, warm_hits = one_pass()
        assert 0 < cold_solves <= 375, cold_solves
        assert warm_solves == 0
        assert warm_hits / (warm_hits + warm_solves) >= 0.95


class TestOneSessionFigures:
    """The figure runners on one session: a (model, workload, chip,
    compiler) the first runner compiled is a lookup for every later one,
    and sharing the session changes no row."""

    MODELS = ("tiny-transformer", "tiny-cnn")
    DECODER = ("gpt2",)  # CIM-MLC's windows cross-hit CMSwitch's here

    def _runners(self, chip):
        return [
            ("fig14", lambda s: run_end_to_end(
                hardware=chip, models=self.MODELS, batch_sizes=(1,), seq_len=64, session=s)),
            ("sec5.5", lambda s: switch_overhead(hardware=chip, models=self.MODELS, session=s)),
            ("fig15", lambda s: [
                allocation_report(model, hardware=chip, session=s) for model in self.MODELS]),
            ("fig16", lambda s: run_workload_scale(
                hardware=chip, models=self.DECODER, batch_sizes=(1,),
                sequence_lengths=(32,), session=s)),
            ("fig17", lambda s: run_generative(
                hardware=chip, models=self.DECODER, lengths=(32,), fixed_length=32,
                session=s)),
        ]

    @pytest.fixture(scope="class")
    def shared(self, chip):
        session = Session(chip, trace=True)
        counter = lambda name: session.metrics.counter(name).value  # noqa: E731
        names = ("allocator.solves", "programs.misses", "programs.hits")
        rows, work = {}, {}
        for name, run in self._runners(chip):
            before = [counter(key) for key in names]
            rows[name] = run(session)
            work[name] = tuple(counter(key) - was for key, was in zip(names, before))
        return rows, work, counter("cache.cross_mode_hits")

    def test_rows_equal_fresh_session_rows(self, chip, shared):
        rows, _, cross_mode_hits = shared
        for name, run in self._runners(chip):
            assert rows[name] == run(None), name
        # The equality covers CIM-MLC windows served by CMSwitch entries.
        assert cross_mode_hits > 0

    def test_a_repeated_compile_solves_nothing(self, shared):
        _, work, _ = shared
        # (solves, compiles, lookups) per runner.  sec5.5 and fig15 ask
        # for fig14's CMSwitch programs again; fig17 (input and output
        # length 32) asks for fig16's: 2 sweeps x 2 compilers x 2 phases.
        models = len(self.MODELS)
        assert work["sec5.5"] == (0, 0, models)
        assert work["fig15"] == (0, 0, models)
        assert work["fig17"] == (0, 0, 8)
        assert work["fig14"][1:] == (4 * models, 0) and work["fig14"][0] > 0
        assert work["fig16"][1:] == (4, 0) and work["fig16"][0] > 0


class TestServingSLOCurve:
    def test_slo_curve_shape_and_monotone_load(self):
        from repro.experiments.serving import render_report, run_slo_curve

        rows = run_slo_curve(
            presets=("small-test-chip",),
            models=("tiny-mlp", "tiny-cnn"),
            num_requests=10,
            seed=3,
            load_factors=(0.5, 1.0),
        )
        assert len(rows) == 2
        light, heavy = rows
        assert light["preset"] == heavy["preset"] == "small-test-chip"
        # More offered load cannot reduce tail latency (same request
        # sequence, gaps only tightened) and keeps the chip busier.
        assert heavy["p99_ms"] >= light["p99_ms"] - 1e-9
        assert heavy["utilisation"] >= light["utilisation"] - 1e-9
        for row in rows:
            assert 0.0 <= row["utilisation"] <= 1.0
            assert row["p50_ms"] <= row["p99_ms"]
            assert row["served"] == row["requests"] == 10
        report = render_report(rows)
        assert "p99_ms" in report and "small-test-chip" in report
