"""Print every plan of the zoo as JSON, so two checkouts can be diffed.

For each registered model × preset × compiler (CMSwitch and the three
baselines) it compiles the model at ``Workload(seq_len=32)`` with code
generation on and records the program's ``end_to_end_cycles``, its
``fingerprint()`` (plan, prices and meta-operator flow) and its rung-0
``analytical_bound``: the ``float.hex`` of
``repro.dse.bound.analytical_bound(...).end_to_end_cycles`` in the
compiler's memory mode, so a cost-model edit that moves the analytical
tier shows in the same diff.  A change that claims to move no plan is
checked by running this on both checkouts and diffing the two outputs,
which must be identical::

    python scripts/plan_diff.py > after.json
    (cd ../parent && python scripts/plan_diff.py) > before.json
    diff before.json after.json && echo "no plan moved"

``--models`` and ``--chips`` narrow the grid.  One
``Session`` per preset compiles all of that preset's programs; the full
grid (228 programs) takes about 40 s on a 2-core machine.

The same JSON carries the paper-claims ledger under ``"ledger"`` (a key
no ``model@chip/compiler`` row can take): for each ``CLAIMS`` row of
``tests/test_paper_claims.py``, its recorded ``status`` and whether its
predicate ``holds`` on this checkout, so one diff shows plan moves and
ledger flips together.  The ledger is printed whatever the grid; it adds
about 1 s.  Its ``fig18.*`` rows time real compiles, so their ``holds``
can move with the machine's load.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import Session  # noqa: E402
from repro.baselines import COMPILERS  # noqa: E402
from repro.core import CompilerOptions  # noqa: E402
from repro.dse.bound import analytical_bound  # noqa: E402
from repro.models import Workload, build_model, list_models  # noqa: E402

CHIPS = ("dynaplasia", "prime", "small-test-chip")
WORKLOAD = Workload(seq_len=32)


def plans(models, chips):
    """``{"model@chip/compiler": {"end_to_end_cycles", "fingerprint",
    "analytical_bound"}}``."""
    graphs = {model: build_model(model, WORKLOAD) for model in models}
    table = {}
    for chip in chips:
        with Session(hardware=chip) as session:
            for model in models:
                bounds = {}  # memory mode -> the bound's hex
                for compiler in COMPILERS:
                    program = session.compile(graphs[model], compiler=compiler)
                    dual = COMPILERS[compiler].pin_options(CompilerOptions()).allow_memory_mode
                    if dual not in bounds:
                        bound = analytical_bound(graphs[model], program.hardware, dual)
                        bounds[dual] = bound.end_to_end_cycles.hex()
                    table[f"{model}@{chip}/{compiler}"] = {
                        "end_to_end_cycles": program.end_to_end_cycles,
                        "fingerprint": program.fingerprint(),
                        "analytical_bound": bounds[dual],
                    }
    return table


def ledger():
    """``{claim id: {"status", "holds"}}`` over the paper-claims ledger."""
    path = REPO_ROOT / "tests" / "test_paper_claims.py"
    spec = importlib.util.spec_from_file_location("test_paper_claims", path)
    claims = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(claims)
    runs = claims.figure_runs()
    return {
        claim.id: {"status": claim.status, "holds": bool(claim.holds(runs))}
        for claim in claims.CLAIMS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="+", default=list_models())
    parser.add_argument("--chips", nargs="+", default=list(CHIPS))
    args = parser.parse_args(argv)
    table = plans(args.models, args.chips)
    table["ledger"] = ledger()
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
