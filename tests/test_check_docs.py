"""scripts/check_docs.py owns its scratch space (hermetic across runs)."""

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
