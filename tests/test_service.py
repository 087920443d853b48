"""Tests for the batch compilation service and its CLI subcommand."""

import pytest

from repro.cli import build_parser, main
from repro.core import AllocationCache, CMSwitchCompiler, CompilerOptions
from repro.models import Workload, build_model
from repro.service import CompileJob, CompileJobResult, CompileService


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
        assert service.cache_stats.hits > 0

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
