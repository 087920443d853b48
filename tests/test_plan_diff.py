"""Smoke test of ``scripts/plan_diff.py``: one tiny model on one preset,
plus the paper-claims ledger it always prints."""

import json
import re
import subprocess
import sys
from pathlib import Path

from test_paper_claims import CLAIMS

from repro.api import Session
from repro.baselines import COMPILERS
from repro.dse.bound import analytical_bound
from repro.models import Workload, build_model

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "plan_diff.py"


def test_prints_every_compiler_plan_as_json():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--models", "tiny-mlp", "--chips", "small-test-chip"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    table = json.loads(done.stdout)
    ledger = table.pop("ledger")
    assert sorted(table) == sorted(f"tiny-mlp@small-test-chip/{name}" for name in COMPILERS)
    for row in table.values():
        assert row["end_to_end_cycles"] > 0
        assert re.fullmatch(r"[0-9a-f]{64}", row["fingerprint"])
        # The rung-0 bound never exceeds the plan it bounds.
        assert 0 < float.fromhex(row["analytical_bound"]) <= row["end_to_end_cycles"]
    with Session(hardware="small-test-chip") as session:
        program = session.compile("tiny-mlp", Workload(seq_len=32))
    graph = build_model("tiny-mlp", Workload(seq_len=32))
    row = table["tiny-mlp@small-test-chip/cmswitch"]
    assert row == {
        "end_to_end_cycles": program.end_to_end_cycles,
        "fingerprint": program.fingerprint(),
        "analytical_bound": analytical_bound(graph, program.hardware).end_to_end_cycles.hex(),
    }
    # The fixed-mode baselines share the bound without memory mode.
    fixed = analytical_bound(graph, program.hardware, allow_memory_mode=False)
    assert {
        row["analytical_bound"] for name, row in table.items() if not name.endswith("/cmswitch")
    } == {fixed.end_to_end_cycles.hex()}
    # Every ledger row, under its id, with its recorded status.
    assert {claim: row["status"] for claim, row in ledger.items()} == {
        claim.id: claim.status for claim in CLAIMS
    }
    assert all(isinstance(row["holds"], bool) for row in ledger.values())
