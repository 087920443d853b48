"""Tests for the batch compilation service and its CLI subcommand."""

import sys
import threading
from dataclasses import fields, replace

import pytest

import repro.service as service_module
from repro.cli import build_parser, main
from repro.core import AllocationCache, CMSwitchCompiler, CompilerOptions
from repro.core.metaop import MetaProgram
from repro.core.store import ProgramKey
from repro.hardware.deha import DualModeHardwareAbstraction
from repro.models import Workload, build_model
from repro.obs import Observability
from repro.service import CompileJob, CompileJobResult, CompileService, ProgramTable


class TestCompileJob:
    def test_name_from_model_string(self):
        assert CompileJob("tiny-cnn").name == "tiny-cnn"

    def test_name_from_graph_and_label(self, tiny_cnn_graph):
        assert CompileJob(tiny_cnn_graph).name == tiny_cnn_graph.name
        assert CompileJob("tiny-cnn", label="warm").name == "warm"

    def test_resolves_preset_and_graph(self, small_chip):
        job = CompileJob("tiny-mlp", hardware="small-test-chip")
        assert job.resolve_hardware() == small_chip
        assert job.resolve_graph().name

    def test_graph_passthrough(self, tiny_cnn_graph, small_chip):
        job = CompileJob(tiny_cnn_graph, hardware=small_chip)
        assert job.resolve_graph() is tiny_cnn_graph
        assert job.resolve_hardware() is small_chip


class TestCompileService:
    def _jobs(self, small_chip):
        workload = Workload(batch_size=1)
        return [
            CompileJob("tiny-cnn", workload=workload, hardware=small_chip),
            CompileJob("tiny-mlp", workload=workload, hardware=small_chip),
        ]

    def test_batch_matches_sequential_compiles(self, small_chip):
        results = CompileService().compile_batch(self._jobs(small_chip))
        assert all(result.ok for result in results)
        for result in results:
            graph = result.job.resolve_graph()
            reference = CMSwitchCompiler(
                small_chip, CompilerOptions(generate_code=False)
            ).compile(graph)
            assert result.program.end_to_end_cycles == reference.end_to_end_cycles
            assert [s.allocations for s in result.program.segments] == [
                s.allocations for s in reference.segments
            ]

    def test_results_keep_input_order(self, small_chip):
        jobs = self._jobs(small_chip)
        results = CompileService().compile_batch(jobs)
        assert [result.job.name for result in results] == [job.name for job in jobs]

    def test_error_does_not_kill_batch(self, small_chip):
        jobs = [
            CompileJob("tiny-cnn", hardware=small_chip),
            CompileJob("no-such-model", hardware=small_chip),
            CompileJob("tiny-mlp", hardware=small_chip),
        ]
        results = CompileService().compile_batch(jobs)
        assert [result.ok for result in results] == [True, False, True]
        failed = results[1]
        assert failed.program is None
        assert "no-such-model" in failed.error or "KeyError" in failed.error
        assert failed.error_traceback
        assert "FAILED" in failed.describe()

    def test_repeated_jobs_reuse_cached_solves(self, small_chip):
        """Acceptance: same model twice -> strictly fewer solves than 2x cold."""
        cold = CMSwitchCompiler(
            small_chip, CompilerOptions(generate_code=False)
        ).compile(build_model("tiny-cnn", Workload(batch_size=1)))
        cold_solves = cold.stats["allocator_solves"]
        assert cold_solves > 0

        service = CompileService()
        jobs = [CompileJob("tiny-cnn", hardware=small_chip) for _ in range(2)]
        results = service.compile_batch(jobs)
        total_solves = sum(result.stats["allocator_solves"] for result in results)
        assert total_solves < 2 * cold_solves
        assert results[1].stats["allocator_solves"] == 0
        assert results[1].stats["allocation_cache_hit_rate"] == 1.0
        # The repeat is a program-table hit: no pass ran, so the window
        # cache saw the first job's misses and nothing else.
        assert results[1].stats["pass_seconds"] == {}
        assert results[1].stats["allocation_cache_hits"] == results[1].program.num_segments
        assert service.cache_stats.misses == cold_solves
        assert service.cache_stats.hits == results[0].stats["allocation_cache_hits"]
        assert len(service.programs) == 1

    def test_per_job_stats_surfaced(self, small_chip):
        result = CompileService().compile(CompileJob("tiny-mlp", hardware=small_chip))
        assert result.ok
        for key in ("allocator_solves", "allocation_cache_hits",
                    "allocation_cache_hit_rate", "wall_seconds"):
            assert key in result.stats
        assert result.stats == result.program.stats
        assert result.wall_seconds > 0
        assert "cache hit rate" in result.describe()

    def test_use_cache_false_disables_sharing(self, small_chip):
        service = CompileService(use_cache=False)
        assert service.cache is None
        results = service.compile_batch(
            [CompileJob("tiny-mlp", hardware=small_chip)] * 2
        )
        assert all(result.ok for result in results)
        assert all(result.stats["allocation_cache_hits"] == 0 for result in results)
        assert service.cache_stats.lookups == 0

    def test_external_cache_is_shared(self, small_chip):
        cache = AllocationCache()
        CompileService(cache=cache).compile_batch(
            [CompileJob("tiny-mlp", hardware=small_chip)]
        )
        assert cache.stats.stores > 0

    def test_empty_batch(self):
        assert CompileService().compile_batch([]) == []

    def test_duplicate_jobs_solve_once(self, small_chip):
        """A batch is a loop: only the first of four identical jobs solves."""
        results = CompileService().compile_batch(
            [CompileJob("tiny-cnn", hardware=small_chip)] * 4
        )
        solves = [result.stats["allocator_solves"] for result in results]
        assert solves[0] > 0 and solves[1:] == [0, 0, 0]

    def test_pool_keywords_are_gone(self, small_chip):
        """No spelling selects a pool any more: plain ``TypeError``."""
        for kwargs in ({"backend": "process"}, {"backend": "thread"}, {"max_workers": 2}):
            with pytest.raises(TypeError):
                CompileService(**kwargs)
            with pytest.raises(TypeError):
                CompileService().compile_batch([], **kwargs)
        with pytest.raises(TypeError, match="solve_memo"):
            CompileService(solve_memo=None)
        job = CompileJob("tiny-mlp", hardware=small_chip)
        assert not hasattr(job, "to_spec") and not hasattr(CompileJob, "from_spec")
        assert not hasattr(CompileService().compile(job), "spans")


@pytest.fixture
def pipeline_runs(monkeypatch):
    """Spy on ``CMSwitchCompiler.compile``: the graphs the pipeline ran on."""
    runs = []
    real = CMSwitchCompiler.compile

    def spy(self, graph):
        runs.append(graph)
        return real(self, graph)

    monkeypatch.setattr(CMSwitchCompiler, "compile", spy)
    return runs


def _tiny_cnn():
    return build_model("tiny-cnn", Workload(batch_size=1))


def _changed(value):
    """A different valid value of the same type (one chip/option field)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2
    if isinstance(value, float):
        return value / 2 or 0.25
    return value + "'"


class TestProgramTable:
    """The in-memory ``ProgramKey -> CompiledProgram`` tier of ``compile_graph``."""

    OPTIONS = CompilerOptions()

    def test_equal_graph_from_another_object_is_a_hit(self, small_chip, pipeline_runs):
        service = CompileService()
        cold = service.compile_graph(_tiny_cnn(), small_chip, self.OPTIONS)
        warm = service.compile_graph(_tiny_cnn(), small_chip, replace(self.OPTIONS))
        assert len(pipeline_runs) == 1
        assert warm.fingerprint() == cold.fingerprint()
        segments = len(warm.segments)
        assert warm.stats["allocator_solves"] == 0
        assert warm.stats["allocation_cache_hits"] == segments
        assert warm.stats["allocation_disk_hits"] == 0
        assert warm.stats["allocation_cache_hit_rate"] == 1.0
        assert warm.stats["pass_seconds"] == {} and warm.metadata["passes"] == []
        assert warm.stats["wall_seconds"] == warm.compile_seconds > 0.0
        # Plan-derived entries are the original compile's.
        assert warm.metadata["num_flattened_units"] == cold.metadata["num_flattened_units"]
        # Compiled here, so the flow stays executable on every later hit.
        assert isinstance(warm.meta_program, MetaProgram)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda graph: graph.metadata.update(block_repeat=3.0),
            lambda graph: graph.operators[0].attrs.update(note="edited"),
        ],
        ids=["graph.metadata", "operator.attrs"],
    )
    def test_in_place_graph_edit_is_a_miss(self, small_chip, pipeline_runs, edit):
        service = CompileService()
        graph = _tiny_cnn()
        service.compile_graph(graph, small_chip, self.OPTIONS)
        edit(graph)
        edited = service.compile_graph(graph, small_chip, self.OPTIONS)
        assert len(pipeline_runs) == 2 and edited.stats["pass_seconds"]
        assert edited.block_repeat == float(graph.metadata.get("block_repeat", 1.0))
        # The untouched graph is still there under its own key.
        service.compile_graph(_tiny_cnn(), small_chip, self.OPTIONS)
        assert len(pipeline_runs) == 2

    @pytest.mark.parametrize("name", [f.name for f in fields(CompilerOptions)])
    def test_in_place_option_edit_is_a_miss(self, small_chip, pipeline_runs, name):
        service = CompileService()
        graph = _tiny_cnn()
        options = CompilerOptions()
        service.compile_graph(graph, small_chip, options)
        setattr(options, name, _changed(getattr(options, name)))
        service.compile_graph(graph, small_chip, options)
        assert len(pipeline_runs) == 2

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(DualModeHardwareAbstraction)]
    )
    def test_any_chip_field_is_part_of_the_key(self, small_chip, pipeline_runs, name):
        service = CompileService()
        graph = _tiny_cnn()
        service.compile_graph(graph, small_chip, self.OPTIONS)
        other = small_chip.with_overrides(**{name: _changed(getattr(small_chip, name))})
        program = service.compile_graph(graph, other, self.OPTIONS)
        assert len(pipeline_runs) == 2 and program.hardware == other

    def test_returned_programs_are_private_copies(self, small_chip):
        service = CompileService()
        graph = _tiny_cnn()
        first = service.compile_graph(graph, small_chip, self.OPTIONS)
        reference = first.fingerprint()
        segments = len(first.segments)
        # Neither the program of the miss that filled the table ...
        first.stats.clear()
        first.metadata.clear()
        first.segments.clear()
        # ... nor the one a hit returned is the table's own object.
        second = service.compile_graph(graph, small_chip, self.OPTIONS)
        assert second is not first and second.fingerprint() == reference
        second.stats["allocator_solves"] = 99
        second.metadata["num_flattened_units"] = -1
        second.segments.pop()
        third = service.compile_graph(graph, small_chip, self.OPTIONS)
        assert third.fingerprint() == reference and len(third.segments) == segments
        assert third.stats["allocator_solves"] == 0
        assert third.metadata["num_flattened_units"] > 0
        assert third.metadata["passes"] == [] and third.stats["pass_seconds"] == {}

    def test_full_key_is_compared_not_just_its_digest(self, small_chip):
        graph = _tiny_cnn()
        program = CompileService().compile_graph(graph, small_chip, self.OPTIONS)
        key = ProgramKey.build(graph, small_chip, self.OPTIONS, "cmswitch")
        collision = ProgramKey.build(
            graph, small_chip, replace(self.OPTIONS, refine=False), "cmswitch"
        )
        collision.digest = key.digest
        table = ProgramTable()
        table.put(key, program)
        assert hash(collision) == hash(key) and table.get(collision) is None
        assert table.get(key).fingerprint() == program.fingerprint()

    def test_entry_bound_evicts_least_recently_used_first(
        self, small_chip, pipeline_runs, monkeypatch
    ):
        monkeypatch.setattr(service_module, "PROGRAM_TABLE_ENTRIES", 2)
        obs = Observability.create()
        service = CompileService(obs=obs)
        cnn, mlp, transformer = (
            build_model(name, Workload(batch_size=1, seq_len=16))
            for name in ("tiny-cnn", "tiny-mlp", "tiny-transformer")
        )
        service.compile_graph(cnn, small_chip, self.OPTIONS)
        service.compile_graph(mlp, small_chip, self.OPTIONS)
        service.compile_graph(cnn, small_chip, self.OPTIONS)  # cnn is now the newer
        service.compile_graph(transformer, small_chip, self.OPTIONS)  # evicts mlp
        assert len(service.programs) == 2 and len(pipeline_runs) == 3
        service.compile_graph(cnn, small_chip, self.OPTIONS)
        assert len(pipeline_runs) == 3
        service.compile_graph(mlp, small_chip, self.OPTIONS)
        assert len(pipeline_runs) == 4
        counters = obs.metrics.to_dict()["counters"]
        assert counters["programs.hits"] == 2 and counters["programs.misses"] == 4
        assert counters["programs.evictions"] == 2

    def test_segment_budget_evicts_and_refuses_what_cannot_fit(
        self, small_chip, pipeline_runs, monkeypatch
    ):
        options = CompilerOptions(generate_code=False)
        cnn, mlp = _tiny_cnn(), build_model("tiny-mlp", Workload(batch_size=1))
        sizes = {
            graph.name: len(CompileService().compile_graph(graph, small_chip, options).segments)
            for graph in (cnn, mlp)
        }
        assert sizes[cnn.name] < sizes[mlp.name]
        del pipeline_runs[:]

        # Room for either program, not for both: the older one goes.
        monkeypatch.setattr(service_module, "PROGRAM_TABLE_SEGMENTS", sizes[mlp.name])
        service = CompileService()
        service.compile_graph(cnn, small_chip, options)
        service.compile_graph(mlp, small_chip, options)
        assert len(service.programs) == 1
        service.compile_graph(mlp, small_chip, options)
        assert len(pipeline_runs) == 2
        service.compile_graph(cnn, small_chip, options)
        assert len(pipeline_runs) == 3

        # A program over the budget on its own is compiled, never stored,
        # and pushes nothing out.
        monkeypatch.setattr(service_module, "PROGRAM_TABLE_SEGMENTS", sizes[mlp.name] - 1)
        service = CompileService()
        service.compile_graph(cnn, small_chip, options)
        for _ in range(2):
            assert service.compile_graph(mlp, small_chip, options).stats["pass_seconds"]
        assert len(service.programs) == 1
        assert service.compile_graph(cnn, small_chip, options).stats["pass_seconds"] == {}

    def test_use_cache_false_builds_no_key_and_no_table(
        self, small_chip, pipeline_runs, monkeypatch
    ):
        def tripwire(*args, **kwargs):
            raise AssertionError("use_cache=False built a program key")

        monkeypatch.setattr(ProgramKey, "build", tripwire)
        service = CompileService(use_cache=False)
        assert service.programs is None
        graph = _tiny_cnn()
        programs = [service.compile_graph(graph, small_chip, self.OPTIONS) for _ in range(3)]
        assert len(pipeline_runs) == 3
        assert all(program.stats["allocator_solves"] > 0 for program in programs)

    def test_threads_sharing_one_service_agree(self, small_chip):
        service = CompileService()
        job = CompileJob("tiny-transformer", workload=Workload(seq_len=16), hardware=small_chip)
        reference = CompileService().compile(job).program.fingerprint()
        start = threading.Barrier(8)
        outcomes, errors = [], []

        def worker():
            try:
                start.wait(timeout=30)
                for _ in range(5):
                    result = service.compile(job)
                    outcomes.append((result.error, result.ok and result.program.fingerprint()))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert outcomes == [(None, reference)] * 40
        assert len(service.programs) == 1


class TestCompileBatchCLI:
    def test_parser_accepts_batch_arguments(self):
        args = build_parser().parse_args(
            ["compile-batch", "tiny-cnn", "tiny-mlp", "--hardware", "small-test-chip",
             "--repeat", "2"]
        )
        assert args.models == ["tiny-cnn", "tiny-mlp"]
        assert args.repeat == 2 and not args.no_cache

    def test_cli_compile_batch_runs(self, capsys):
        code = main(
            ["compile-batch", "tiny-cnn", "tiny-mlp",
             "--hardware", "small-test-chip", "--repeat", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "tiny-cnn#2" in out
        assert "cache:" in out
        # The repeat rows find every solve of the first round in the cache.
        repeats = [line.split() for line in out.splitlines() if "#2" in line]
        assert [row[3] for row in repeats] == ["0", "0"]

    def test_cli_rejects_unknown_models_before_compiling(self, capsys):
        # Unified unknown-name handling across compile/compile-batch/
        # compare/dse: exit code 2 plus the registered model list.
        code = main(["compile-batch", "definitely-not-a-model",
                     "--hardware", "small-test-chip"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown model name(s): definitely-not-a-model" in err
        assert "available models:" in err

    def test_cli_prints_per_pass_wall_time(self, capsys):
        # Acceptance gate of the pipeline refactor: per-pass timings show
        # up in the compile-batch table, aggregated over the jobs.
        code = main(["compile-batch", "tiny-mlp", "--hardware", "small-test-chip"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass wall time:" in out
        for pass_name in ("flatten", "partition", "segment", "allocate"):
            assert pass_name in out

    def test_cli_no_cache_flag(self, capsys):
        code = main(["compile-batch", "tiny-mlp", "--hardware", "small-test-chip",
                     "--no-cache"])
        assert code == 0
        assert "0 hits / 0 lookups" in capsys.readouterr().out

    def test_cli_zero_models_is_a_usage_error(self, capsys):
        """Regression: no models must fail loudly, not silently succeed."""
        code = main(["compile-batch"])
        assert code == 2
        captured = capsys.readouterr()
        assert "at least one model" in captured.err
        assert "usage:" in captured.err

    def test_parser_accepts_cache_dir(self):
        args = build_parser().parse_args(
            ["compile-batch", "tiny-cnn", "--cache-dir", "/tmp/x"]
        )
        assert args.cache_dir == "/tmp/x"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile-batch", "tiny-cnn", "--backend", "process"],
            ["compile-batch", "tiny-cnn", "--jobs", "2"],
            ["dse", "tiny-cnn", "--backend", "thread"],
            ["dse", "tiny-cnn", "--jobs", "2"],
            ["replay", "--preset", "small-test-chip", "--jobs", "2"],
        ],
        ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]),
    )
    def test_pool_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_cache_dir_warm_start(self, tmp_path, capsys):
        """Two invocations on one --cache-dir: the second solves nothing."""
        argv = ["compile-batch", "tiny-mlp", "--hardware", "small-test-chip",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "disk store:" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "total allocator solves: 0" in second
