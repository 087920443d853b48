"""CI runs only what needs CI; every check it makes is a tier-1 test.

A text scan of ``.github/workflows/ci.yml`` (PyYAML is not a dependency):
no inline Python, ``pytest`` only in the tier-1 step, and a file short
enough to read.  And ``bench/`` is the one benchmark harness, the
architecture guide stays short enough to read too, and tier-1 compiles
the zoo once: in the ``corpus`` of ``tests/conftest.py``.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CI = REPO / ".github" / "workflows" / "ci.yml"
TESTS = REPO / "tests"
#: The calls that compile a program.
COMPILES = {"compile", "compile_graph", "compile_batch"}

#: A line that starts a step (``- name:`` / ``- uses:``) or a job (``  job-id:``).
BOUNDARY = re.compile(r"^\s*- (?:name|uses):|^  [\w-]+:\s*$")


def _steps():
    """``(first line, text)`` of every step and job header in the file."""
    blocks = []
    for line in CI.read_text(encoding="utf-8").splitlines():
        if BOUNDARY.match(line) or not blocks:
            blocks.append([line])
        else:
            blocks[-1].append(line)
    return [(block[0].strip(), "\n".join(block)) for block in blocks]


def test_no_inline_python():
    text = CI.read_text(encoding="utf-8")
    assert not re.search(r"python3? -c\b", text)
    assert "<<" not in text  # no heredoc either


def test_pytest_runs_only_in_the_tier1_step():
    runners = [
        head for head, text in _steps()
        if any("pytest" in line and "pip install" not in line for line in text.splitlines())
    ]
    assert runners == ["- name: Tier-1 tests"]
    assert "run: PYTHONPATH=src python -m pytest -x -q\n" in CI.read_text(encoding="utf-8")


def test_pyproject_is_the_one_dependency_list():
    """Every job installs the package with its ``test`` extra: no
    ``pip install`` line names a third-party package itself."""
    installs = [
        line.split("pip install", 1)[1].split()
        for line in CI.read_text(encoding="utf-8").splitlines()
        if "pip install" in line
    ]
    assert installs
    for arguments in installs:
        assert arguments in (["--upgrade", "pip"], ["-e", ".[test]"]), arguments


def test_ci_fits_on_a_few_screens():
    assert len(CI.read_text(encoding="utf-8").splitlines()) <= 200


def test_the_architecture_guide_fits_in_600_lines():
    guide = REPO / "docs" / "architecture.md"
    assert len(guide.read_text(encoding="utf-8").splitlines()) <= 600


def test_the_repository_benchmark_is_the_one_benchmark_instrument():
    """``bench/`` measures; tier-1 gates the exact counters.  No second
    harness, no committed records, and CI runs no script but ``bench/run.py``
    and the ``scripts/check_*.py`` smokes."""
    assert not (REPO / "benchmarks").exists()
    assert not sorted(REPO.glob("BENCH_*.json"))
    scripts = re.findall(r"\bpython3? ([\w./-]+\.py)\b", CI.read_text(encoding="utf-8"))
    assert "bench/run.py" in scripts
    others = [s for s in scripts if s != "bench/run.py"]
    assert all(
        re.fullmatch(r"scripts/check_\w+\.py", s) and (REPO / s).is_file() for s in others
    ), others
    for path in (CI, REPO / "pyproject.toml"):
        assert not re.search(r"pytest[-_]benchmark", path.read_text(encoding="utf-8")), path.name


def _called(node, names) -> bool:
    return any(
        isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) in names
        for call in ast.walk(node)
    )


def _zoo_compiles(tree):
    """The functions of a module that compile a program and reach
    ``list_models()``: by calling it, or through a module-level name,
    a function or a fixture of the module that does."""
    functions = [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    uses = {
        function: {n.id for n in ast.walk(function) if isinstance(n, ast.Name)}
        | {arg.arg for arg in function.args.args}
        for function in functions
    }
    zoo = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and _called(node.value, {"list_models"})
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    zoo |= {function.name for function in functions if _called(function, {"list_models"})}
    grown = True
    while grown:
        reached = {function.name for function in functions if uses[function] & zoo}
        grown = not reached <= zoo
        zoo |= reached
    return sorted(
        function.name for function in functions
        if function.name in zoo and _called(function, COMPILES)
    )


def test_the_zoo_is_compiled_only_by_the_corpus():
    """One ``SMALL_CHIP_SKIPS``, in ``conftest.py``; and no other test
    module compiles the registry's models (``list_models()``) itself: a
    zoo-wide property is a test over the corpus (``tests/test_corpus.py``)."""
    skips, compilers = [], []
    for path in sorted(TESTS.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "SMALL_CHIP_SKIPS" not in text and "list_models" not in text:
            continue
        tree = ast.parse(text)
        skips += [
            path.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id == "SMALL_CHIP_SKIPS"
        ]
        if path.name != "conftest.py":
            compilers += [f"{path.name}::{name}" for name in _zoo_compiles(tree)]
    assert skips == ["conftest.py"]
    assert not compilers, compilers
