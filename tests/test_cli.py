"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_models_command_parses(self):
        args = build_parser().parse_args(["models"])
        assert args.command == "models"

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "tiny-cnn"])
        assert args.model == "tiny-cnn"
        assert args.hardware == "dynaplasia"
        assert args.batch == 1

    def test_compare_workload_arguments(self):
        args = build_parser().parse_args(
            ["compare", "bert", "--batch", "4", "--seq-len", "128", "--phase", "encode"]
        )
        assert args.batch == 4 and args.seq_len == 128 and args.phase == "encode"

    def test_experiment_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_experiment_has_no_cache_dir(self):
        # The experiment runners share solves in memory only; no flag
        # hand-builds a disk-backed cache around the service any more.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["experiment", "fig18", "--cache-dir", "/tmp/x"])
        assert exit_info.value.code == 2

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "--requests", "0"],
            ["replay", "--rate", "0"],
            ["replay", "--rate", "nan"],
            ["replay", "--seq-lens", "0"],
            ["compile", "tiny-mlp", "--batch", "0"],
            ["compile-batch", "tiny-mlp", "--seq-len", "0"],
            ["compile-batch", "tiny-mlp", "--repeat", "0"],
            ["dse", "tiny-cnn", "--arrays", "0"],
            ["serve", "--workers", "0"],
        ],
        ids=" ".join,
    )
    def test_a_size_rate_or_count_not_above_zero_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "must be positive" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_a_negative_or_nan_serve_timeout_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--timeout", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be at least 0" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compile", "tiny-mlp", "--output-len", "-1"],
            ["compare", "tiny-mlp", "--output-len", "-1"],
            ["compile-batch", "tiny-mlp", "--output-len", "-1"],
            ["dse", "tiny-cnn", "--output-len", "-1"],
        ],
        ids=" ".join,
    )
    def test_a_negative_output_len_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be at least 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_a_port_outside_0_to_65535_is_a_usage_error(self, port, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", f"--port={port}"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "0-65535" in err and "Traceback" not in err

    def test_a_negative_dse_budget_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["dse", "tiny-mlp", "--budget", "-3", "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())  # no space.json, report or pareto.csv

    @pytest.mark.parametrize(
        "size, expected",
        [
            ("0", 0),
            ("1048576", 1048576),
            ("512KB", 512 * 1024),
            ("64MB", 64 * 1024**2),
            ("2GB", 2 * 1024**3),
            ("1.5k", 1536),
            (" 64 mb ", 64 * 1024**2),
        ],
        ids=["zero", "bytes", "KB", "MB", "GB", "fractional-k", "spaced-lowercase"],
    )
    def test_a_size_parses_to_bytes(self, size, expected):
        argv = ["cache", "prune", "--cache-dir", "unused", "--max-bytes", size]
        assert build_parser().parse_args(argv).max_bytes == expected

    @pytest.mark.parametrize(
        "age, expected",
        [("3600", 3600.0), ("90m", 5400.0), ("12H", 43200.0), ("7d", 604800.0)],
    )
    def test_an_age_parses_to_seconds(self, age, expected):
        argv = ["cache", "prune", "--cache-dir", "unused", "--max-age", age]
        assert build_parser().parse_args(argv).max_age == expected

    @pytest.mark.parametrize(
        "size", ["9" * 400, "9" * 400 + "GB", "64XB"], ids=["400-digits", "400-digits-GB", "unit"]
    )
    def test_a_size_no_float_holds_is_a_usage_error(self, size, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "prune", "--cache-dir", str(tmp_path), "--max-bytes", size])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"invalid size {size!r}" in err and "Traceback" not in err

    def test_port_zero_and_a_non_number_keep_their_meaning(self, capsys):
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0
        assert build_parser().parse_args(["serve", "--timeout", "0"]).timeout == 0.0
        zero_tokens = ["compile", "tiny-mlp", "--output-len", "0"]
        assert build_parser().parse_args(zero_tokens).output_len == 0
        with pytest.raises(SystemExit):
            main(["replay", "--requests", "many"])
        assert "invalid int value: 'many'" in capsys.readouterr().err


class TestCommands:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet18" in out and "llama2-7b" in out

    def test_hardware_summary(self, capsys):
        assert main(["hardware", "dynaplasia"]) == 0
        out = capsys.readouterr().out
        assert "arrays" in out and "320x320" in out

    def test_compile_small_model(self, capsys):
        code = main(
            [
                "compile",
                "tiny-cnn",
                "--hardware",
                "small-test-chip",
                "--show-segments",
                "--show-metaops",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cmswitch program" in out
        assert "segment 0" in out
        assert "parallel {" in out

    def test_compare_small_model(self, capsys):
        assert main(["compare", "tiny-transformer", "--hardware", "small-test-chip",
                     "--seq-len", "16"]) == 0
        out = capsys.readouterr().out
        assert "cmswitch" in out and "cim-mlc" in out and "x" in out

    def test_unknown_model_exits_2_with_available_names(self, capsys):
        # Unified unknown-name handling: exit code 2 and the registered
        # model list on stderr, never a raw KeyError traceback.
        code = main(["compile", "not-a-model", "--hardware", "small-test-chip"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown model name(s): not-a-model" in err
        assert "available models:" in err and "tiny-mlp" in err

    def test_no_cache_is_an_unknown_argument(self, capsys, tmp_path):
        # There is no uncached batch: a cold compile is a fresh process.
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["compile-batch", "tiny-mlp", "--hardware", "small-test-chip",
                 "--no-cache", "--cache-dir", str(store)]
            )
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --no-cache" in captured.err
        assert not store.exists()


def _experiment_figures():
    """The ``figure`` choices the parser itself offers (never a copied list)."""
    subcommands = next(
        action for action in build_parser()._actions if isinstance(action.choices, dict)
    )
    figure = next(
        action
        for action in subcommands.choices["experiment"]._actions
        if action.dest == "figure"
    )
    return sorted(figure.choices)


class TestExperimentCommand:
    def test_the_parser_offers_figures(self):
        assert {"fig14", "fig15"} <= set(_experiment_figures())

    @pytest.mark.parametrize("figure", _experiment_figures())
    def test_every_figure_runs(self, figure, capsys):
        assert main(["experiment", figure]) == 0
        assert capsys.readouterr().out.strip()
