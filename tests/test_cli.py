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
