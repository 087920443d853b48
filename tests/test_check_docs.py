"""scripts/check_docs.py owns its scratch space (hermetic across runs), and
every ``repro`` import the documentation shows resolves."""

import importlib
import importlib.util
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_docs.py"


def test_fixed_tmp_paths_are_private_to_each_run(tmp_path):
    probe = f"/tmp/check-docs-probe-{tmp_path.name}"
    doc = tmp_path / "doc.md"
    # `mkdir` without -p: fails if an earlier run's directory survived.
    doc.write_text(f"```bash\nmkdir {probe}\ntest -d {probe}\n```\n", encoding="utf-8")
    before = set(Path(tempfile.gettempdir()).iterdir())
    for _ in range(2):
        run = subprocess.run(
            [sys.executable, str(SCRIPT), str(doc)], capture_output=True, text=True
        )
        assert run.returncode == 0, run.stdout + run.stderr
    assert not Path(probe).exists()
    leftovers = set(Path(tempfile.gettempdir()).iterdir()) - before
    assert not [path for path in leftovers if path.name.startswith("check-docs-")]


def _load_check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: ``from repro... import a, b`` (or a parenthesised list), in any fence.
FROM_IMPORT = re.compile(r"from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n#;\"']+)")


def test_every_documented_repro_import_resolves():
    """A removed name in a doc fence fails here, not in a reader's shell:
    check_docs.py only compiles python fences, so it cannot see one."""
    check_docs = _load_check_docs()
    root = SCRIPT.parents[1]
    stale = []
    checked = 0
    for doc in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        for line, _language, code, _skipped in check_docs.extract_blocks(doc):
            for match in FROM_IMPORT.finditer(code):
                module_name = match.group(1)
                names = match.group(2).strip("()").replace("\\", " ").split(",")
                module = importlib.import_module(module_name)
                for name in (entry.split()[0] for entry in names if entry.strip()):
                    checked += 1
                    if hasattr(module, name):
                        continue
                    try:
                        importlib.import_module(f"{module_name}.{name}")
                    except ImportError:
                        stale.append(f"{doc.name}:{line}: from {module_name} import {name}")
    assert checked > 20
    assert not stale, stale
