"""Dependencies point one way: the compiler layers never import the serving
ones, and below the CLI nothing reaches up into ``repro.serve``."""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LOWER = ("core", "cost", "ir", "hardware", "pipeline", "obs")
UPPER = ("repro.serve", "repro.service", "repro.api", "repro.cli")


def _imported_modules(path: Path):
    """Absolute dotted names of everything ``path`` imports (at any depth)."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            # ``from .. import api`` names the module in the alias.
            for alias in node.names:
                yield f"{module}.{alias.name}"


@pytest.mark.parametrize("layer", LOWER)
def test_lower_layer_never_imports_the_serving_layers(layer):
    offenders = [
        f"{path.relative_to(SRC)} -> {module}"
        for path in sorted((SRC / "repro" / layer).rglob("*.py"))
        for module in _imported_modules(path)
        if any(module == upper or module.startswith(upper + ".") for upper in UPPER)
    ]
    assert not offenders, offenders


def test_only_the_cli_imports_the_serve_package():
    serve = SRC / "repro" / "serve"
    importers = sorted(
        {
            str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            if serve not in path.parents
            for module in _imported_modules(path)
            if module == "repro.serve" or module.startswith("repro.serve.")
        }
    )
    assert importers == ["repro/cli.py"]


def test_numpy_and_scipy_are_the_only_third_party_imports():
    third_party = sorted(
        {
            f"{path.relative_to(SRC)} -> {module}"
            for path in (SRC / "repro").rglob("*.py")
            for module in _imported_modules(path)
            if (top := module.split(".")[0]) not in sys.stdlib_module_names
            and top not in ("repro", "numpy", "scipy")
        }
    )
    assert not third_party, third_party


def test_nothing_imports_a_worker_pool():
    """A batch is a loop: several cores are used by running several
    ``repro`` processes over one ``cache_dir``, never by a pool in here."""
    pools = ("concurrent.futures", "multiprocessing")
    offenders = sorted(
        {
            f"{path.relative_to(SRC)} -> {module}"
            for path in (SRC / "repro").rglob("*.py")
            for module in _imported_modules(path)
            if any(module == pool or module.startswith(pool + ".") for pool in pools)
        }
    )
    assert not offenders, offenders


def test_there_is_one_window_table():
    """``core/memo.py`` is a name for the benchmark's hooks, not a table:
    nothing in the package imports it and it defines nothing."""
    memo = SRC / "repro" / "core" / "memo.py"
    importers = sorted(
        {
            str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            for module in _imported_modules(path)
            if module == "repro.core.memo"
        }
    )
    assert not importers, importers
    definitions = [
        node
        for node in ast.walk(ast.parse(memo.read_text(encoding="utf-8")))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert not definitions

    from repro.core.allocation import allocate_segment

    assert "memo" not in inspect.signature(allocate_segment).parameters


def test_figures_and_the_cli_compile_through_the_session():
    """One compile path: the experiment runners, the analyses, the DSE
    and the CLI name a compiler (``Session.compile(compiler=)``, a
    ``CompileJob`` for the service), never construct one."""
    from repro.baselines import COMPILERS, BaselineCompiler

    classes = {cls.__name__ for cls in COMPILERS.values()} | {BaselineCompiler.__name__}
    paths = [
        *sorted((SRC / "repro" / "experiments").rglob("*.py")),
        *sorted((SRC / "repro" / "analysis").rglob("*.py")),
        *sorted((SRC / "repro" / "dse").rglob("*.py")),
        SRC / "repro" / "cli.py",
    ]
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in classes
    ]
    assert not offenders, offenders


def test_a_design_point_is_a_compile_service_call():
    """No evaluator layer between the DSE and ``CompileService``: the
    ``repro.eval`` package is gone and nothing imports it."""
    assert not list((SRC / "repro" / "eval").rglob("*.py"))
    importers = sorted(
        {
            str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            for module in _imported_modules(path)
            if module == "repro.eval" or module.startswith("repro.eval.")
        }
    )
    assert not importers, importers


def test_plans_have_one_builder():
    """Every compiler's plans come from ``NetworkSegmenter.build_plans``:
    ``SegmentPlan`` is built there, in the program decoder and in the
    independent oracle, and nowhere else."""
    builders = sorted(
        {
            str(path.relative_to(SRC))
            for path in (SRC / "repro").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            == "SegmentPlan"
        }
    )
    assert builders == [
        "repro/core/_reference.py",
        "repro/core/program.py",
        "repro/core/segmentation.py",
    ]


def test_options_are_declarative():
    """Runtime objects (a cache, an obs bundle) travel as constructor
    arguments; every option field takes part in equality and repr."""
    from repro.core import CompilerOptions, SegmentationOptions

    compiler = {f.name: f for f in dataclasses.fields(CompilerOptions)}
    segmentation = {f.name: f for f in dataclasses.fields(SegmentationOptions)}
    assert set(segmentation) == set(compiler) - {"generate_code"}
    for field in (*compiler.values(), *segmentation.values()):
        assert field.compare and field.repr, field.name
