#!/usr/bin/env python3
"""Run the shell snippets embedded in the documentation.

Keeps README.md and docs/*.md honest: every fenced ```bash block is
executed from the repository root and must exit 0, so a renamed flag, a
removed subcommand or a stale model name fails CI instead of shipping.

Conventions:

* Only ```bash fences are executed (```python blocks are compiled with
  ``compile()`` to catch syntax rot, not run).
* A fence immediately preceded (within two lines) by an HTML comment
  containing ``docs-check: skip`` is reported but not run — used for
  deliberately slow or environment-specific commands.
* ``repro`` resolves to the installed console script when present, and
  falls back to ``python -m repro.cli`` otherwise, so the checker works
  in a bare checkout with only ``PYTHONPATH=src``.
* The checker owns its scratch space: every ``/tmp/`` prefix inside an
  executed block is rewritten to one fresh temporary directory that is
  removed on exit, so a leftover ``/tmp/dse-slo`` from an earlier run
  (or a concurrent one) can never fail a block, and nothing is left
  behind.

Usage::

    python scripts/check_docs.py               # README.md + docs/*.md
    python scripts/check_docs.py README.md     # specific files
    python scripts/check_docs.py --list        # show blocks, run nothing
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SKIP_MARK = "docs-check: skip"
FENCE = re.compile(r"^```(\w*)\s*$")


def extract_blocks(path: Path) -> List[Tuple[int, str, str, bool]]:
    """Yield (line_number, language, code, skipped) per fenced block."""
    blocks = []
    lines = path.read_text(encoding="utf-8").splitlines()
    index = 0
    while index < len(lines):
        match = FENCE.match(lines[index])
        if not match or not match.group(1):
            index += 1
            continue
        language = match.group(1)
        start = index
        body: List[str] = []
        index += 1
        while index < len(lines) and lines[index].strip() != "```":
            body.append(lines[index])
            index += 1
        index += 1  # closing fence
        skipped = any(
            SKIP_MARK in lines[probe]
            for probe in range(max(0, start - 2), start)
        )
        blocks.append((start + 1, language, "\n".join(body), skipped))
    return blocks


def shim_path(scratch: Path) -> str:
    """PATH with a `repro` shim prepended when the script is absent."""
    path = os.environ.get("PATH", "")
    if shutil.which("repro"):
        return path
    shim_dir = scratch / "bin"
    shim_dir.mkdir()
    shim = shim_dir / "repro"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m repro.cli "$@"\n', encoding="utf-8"
    )
    shim.chmod(0o755)
    return f"{shim_dir}{os.pathsep}{path}"


def run_bash(code: str, env: dict) -> int:
    proc = subprocess.run(
        ["bash", "-euo", "pipefail", "-c", code], cwd=REPO_ROOT, env=env
    )
    return proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="markdown files (default: README.md docs/*.md)")
    parser.add_argument("--list", action="store_true", help="list blocks without running")
    args = parser.parse_args(argv)

    files = [Path(f).resolve() for f in args.files] or [
        REPO_ROOT / "README.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
    ]

    with tempfile.TemporaryDirectory(prefix="check-docs-") as scratch:
        failures = run_files(files, Path(scratch), list_only=args.list)
    if failures:
        print(f"{failures} documentation block(s) failed")
        return 1
    print("all documentation blocks passed")
    return 0


def run_files(files: List[Path], scratch: Path, list_only: bool) -> int:
    """Check every block of ``files``; returns the number of failures."""
    env = dict(os.environ)
    env["PATH"] = shim_path(scratch)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    failures = 0
    for path in files:
        if not path.exists():
            print(f"MISSING {path}")
            failures += 1
            continue
        display = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
        for line, language, code, skipped in extract_blocks(path):
            label = f"{display}:{line} [{language}]"
            if skipped:
                print(f"SKIP    {label}")
                continue
            if list_only:
                print(f"BLOCK   {label}")
                continue
            if language == "python":
                try:
                    compile(code, str(path), "exec")
                    print(f"OK      {label} (syntax only)")
                except SyntaxError as exc:
                    print(f"FAIL    {label}: {exc}")
                    failures += 1
                continue
            if language != "bash":
                continue
            started = time.perf_counter()
            code_result = run_bash(code.replace("/tmp/", f"{scratch}/"), env)
            elapsed = time.perf_counter() - started
            if code_result == 0:
                print(f"OK      {label} ({elapsed:.1f}s)")
            else:
                print(f"FAIL    {label} (exit {code_result})")
                failures += 1
    return failures


if __name__ == "__main__":
    sys.exit(main())
