"""CI runs only what needs CI; every check it makes is a tier-1 test.

A text scan of ``.github/workflows/ci.yml`` (PyYAML is not a dependency):
no inline Python, ``pytest`` only in the tier-1 step, and a file short
enough to read.  And nothing under ``benchmarks/`` goes unrun, and the
architecture guide stays short enough to read too.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CI = REPO / ".github" / "workflows" / "ci.yml"

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


def test_ci_fits_on_a_few_screens():
    assert len(CI.read_text(encoding="utf-8").splitlines()) <= 200


def test_the_architecture_guide_fits_in_600_lines():
    guide = REPO / "docs" / "architecture.md"
    assert len(guide.read_text(encoding="utf-8").splitlines()) <= 600


def test_every_benchmark_script_is_run_by_a_test_or_by_ci():
    # A test loads a script through the ``bench_script`` fixture; CI names
    # it by path.  A script neither does is assertions nothing checks.
    loaded = {
        name
        for test in (REPO / "tests").glob("*.py")
        for name in re.findall(r'bench_script\("(\w+)"\)', test.read_text(encoding="utf-8"))
    }
    named = set(re.findall(r"benchmarks/(\w+)\.py", CI.read_text(encoding="utf-8")))
    scripts = {path.stem for path in (REPO / "benchmarks").glob("*.py")} - {"conftest"}
    assert scripts <= loaded | named, sorted(scripts - loaded - named)
