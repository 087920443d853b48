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

``--compare BEFORE.json AFTER.json`` reads two such outputs instead of
compiling and summarises what moved: each moved row with its old and
new ``end_to_end_cycles`` and their ratio, the number of byte-identical
rows, per chip the geomean ratio and the worst (slowest-moving) row over
the moved rows, and every ledger row whose ``status`` or ``holds``
differs::

    python scripts/plan_diff.py --compare before.json after.json

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
import math
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


def compare(before, after):
    """The lines ``--compare`` prints for two ``plan_diff`` outputs."""
    before, after = dict(before), dict(after)
    ledgers = before.pop("ledger", {}), after.pop("ledger", {})
    lines = []
    moved = {}  # chip -> [(ratio, row)]
    identical = 0
    for row in sorted(before.keys() | after.keys()):
        old, new = before.get(row), after.get(row)
        if old is None or new is None:
            lines.append(f"only in {'AFTER' if old is None else 'BEFORE'}: {row}")
        elif json.dumps(old, sort_keys=True) == json.dumps(new, sort_keys=True):
            identical += 1
        else:
            ratio = new["end_to_end_cycles"] / old["end_to_end_cycles"]
            moved.setdefault(row.split("@", 1)[1].split("/", 1)[0], []).append((ratio, row))
            lines.append(
                f"moved {row}: {old['end_to_end_cycles']!r} -> "
                f"{new['end_to_end_cycles']!r} (ratio {ratio:.9f})"
            )
    common = len(before.keys() & after.keys())
    lines.append(f"{identical} of {common} rows byte-identical")
    for chip, rows in sorted(moved.items()):
        geomean = math.exp(sum(math.log(ratio) for ratio, _ in rows) / len(rows))
        worst_ratio, worst = max(rows)
        lines.append(
            f"{chip}: {len(rows)} moved, geomean ratio {geomean:.9f}, "
            f"worst {worst} ({worst_ratio:.9f})"
        )
    old_ledger, new_ledger = ledgers
    for claim in sorted(old_ledger.keys() | new_ledger.keys()):
        old, new = old_ledger.get(claim, {}), new_ledger.get(claim, {})
        changes = [
            f"{field} {old.get(field)} -> {new.get(field)}"
            for field in ("status", "holds")
            if old.get(field) != new.get(field)
        ]
        if changes:
            timing = " (timing-dependent)" if claim.startswith("fig18.") else ""
            lines.append(f"ledger {claim}: {', '.join(changes)}{timing}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="+", default=list_models())
    parser.add_argument("--chips", nargs="+", default=list(CHIPS))
    parser.add_argument(
        "--compare", nargs=2, metavar=("BEFORE", "AFTER"),
        help="summarise two outputs of this script instead of compiling",
    )
    args = parser.parse_args(argv)
    if args.compare:
        documents = [json.loads(Path(path).read_text()) for path in args.compare]
        sys.stdout.write("".join(f"{line}\n" for line in compare(*documents)))
        return 0
    table = plans(args.models, args.chips)
    table["ledger"] = ledger()
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
