"""Performance ratchet: fail CI when the cold compile path regresses.

The repository commits one measured baseline, ``BENCH_compile_cold.json``,
seeded from ``benchmarks/bench_fig18_compile_time.py --quick``.  It
records the cold-pass wall time and allocator-solve count of the
standard compile-time smoke.  CI re-measures and compares::

    PYTHONPATH=src python benchmarks/bench_fig18_compile_time.py \
        --quick --json-out BENCH_now_1.json
    PYTHONPATH=src python benchmarks/bench_fig18_compile_time.py \
        --quick --json-out BENCH_now_2.json
    python scripts/perf_ratchet.py BENCH_now_1.json BENCH_now_2.json

Two independent checks, because they fail for different reasons:

* **Solve count** (exact, every file) — ``allocator_solves_cold`` is
  deterministic: the same models on the same chip enumerate the same
  allocation windows.  Any increase, in *any* measurement, means the
  compiler started solving more sub-problems (a cache-key regression, a
  lost dedup) and fails the ratchet outright, with no tolerance.
* **Wall time** (tolerance-gated, best-of-N) — the *minimum*
  ``cold_seconds`` across the measurement files may exceed the baseline
  by at most the tolerance.  Taking the best of several runs filters
  the one-off scheduler hiccups that made a single-shot gate flaky; a
  genuine vectorisation or solver-path regression slows every run, so
  the minimum still catches it.  The tolerance lives *in the baseline
  file* (``wall_tolerance``, a fraction) so the baseline carries the
  noise budget of the machine class that produced it; ``--tolerance``
  overrides it, and 0.20 is the fallback when neither is present.

The warm pass is already asserted elsewhere (hit rate >= 95%, zero warm
solves); the ratchet only guards the cold path.  To *advance* the
ratchet after a deliberate improvement, re-seed the baseline file with
the bench command above and commit it (keep or adjust its
``wall_tolerance`` field).

The script also understands replay reports: a measurement whose
``schema`` is ``repro-replay-report/1`` (``repro replay --json-out``) is
compared against the committed ``BENCH_replay.json`` instead.  Replay
metrics are *deterministic* — same trace seed, same chip, same options
produce bit-identical scheduling — so the ``hardware``, ``trace`` and
``metrics`` blocks must match the baseline exactly, with no tolerance
(wall time and cache hits live under ``compile``, which is ignored).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_compile_cold.json"
DEFAULT_REPLAY_BASELINE = REPO_ROOT / "BENCH_replay.json"

#: Fields the compile ratchet needs from both records.
REQUIRED = ("cold_seconds", "allocator_solves_cold")

#: Fallback fractional wall-time budget when neither the baseline file
#: nor the command line provides one.
DEFAULT_TOLERANCE = 0.20

#: Schema tag of repro.sim.replay reports (kept in sync with REPORT_SCHEMA).
REPLAY_SCHEMA = "repro-replay-report/1"

#: Replay-report blocks that must match the baseline bit-for-bit.
REPLAY_EXACT_BLOCKS = ("hardware", "trace", "metrics")


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_record(path: Path) -> dict:
    record = load_json(path)
    missing = [field for field in REQUIRED if field not in record]
    if missing:
        raise SystemExit(f"error: {path} is missing fields: {', '.join(missing)}")
    return record


def resolve_tolerance(baseline: dict, override) -> float:
    """The wall-time budget: CLI override > baseline file > default."""
    if override is not None:
        return float(override)
    tolerance = baseline.get("wall_tolerance", DEFAULT_TOLERANCE)
    try:
        tolerance = float(tolerance)
    except (TypeError, ValueError):
        raise SystemExit(
            f"error: baseline wall_tolerance is not a number: {tolerance!r}"
        )
    if tolerance < 0:
        raise SystemExit(f"error: baseline wall_tolerance is negative: {tolerance}")
    return tolerance


def check_replay(baseline: dict, measured: dict, baseline_name: str) -> int:
    """Exact comparison of one replay report against the committed one."""
    failures = []
    if measured.get("schema") != baseline.get("schema"):
        failures.append(
            f"schema mismatch: {measured.get('schema')!r} vs "
            f"{baseline.get('schema')!r} baseline"
        )
    for block in REPLAY_EXACT_BLOCKS:
        if measured.get(block) != baseline.get(block):
            failures.append(
                f"{block} block diverged from the baseline (replay is "
                f"deterministic; this is a real behaviour change):\n"
                f"    measured: {json.dumps(measured.get(block), sort_keys=True)}\n"
                f"    baseline: {json.dumps(baseline.get(block), sort_keys=True)}"
            )
    print(
        f"replay ratchet (baseline {baseline_name}): "
        f"{len(REPLAY_EXACT_BLOCKS)} exact blocks compared"
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        metrics = measured.get("metrics", {})
        print(
            "OK: replay metrics bit-identical to the baseline "
            f"(served {metrics.get('served')}, "
            f"p99 {metrics.get('latency_p99_ms')} ms)"
        )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "measurements",
        type=Path,
        nargs="+",
        help=(
            "fresh BENCH_*.json record(s) to check; with several, wall "
            "time is gated on the best (minimum) run while solve counts "
            "must hold in every run"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "allowed fractional wall-time regression; overrides the "
            "baseline file's wall_tolerance field (fallback: "
            f"{DEFAULT_TOLERANCE:.2f})"
        ),
    )
    args = parser.parse_args(argv)
    if args.tolerance is not None and args.tolerance < 0:
        parser.error("--tolerance must be non-negative")

    first = load_json(args.measurements[0])
    if first.get("schema") == REPLAY_SCHEMA:
        if len(args.measurements) > 1:
            parser.error("replay reports are deterministic; pass exactly one")
        return check_replay(
            load_json(DEFAULT_REPLAY_BASELINE), first, DEFAULT_REPLAY_BASELINE.name
        )

    baseline = load_record(DEFAULT_BASELINE)
    measured = [load_record(path) for path in args.measurements]
    tolerance = resolve_tolerance(baseline, args.tolerance)

    base_solves = int(baseline["allocator_solves_cold"])
    base_seconds = float(baseline["cold_seconds"])
    budget = base_seconds * (1.0 + tolerance)
    walls = [float(record["cold_seconds"]) for record in measured]
    best_seconds = min(walls)

    runs = ", ".join(f"{seconds:.3f}" for seconds in walls)
    print(
        f"perf ratchet (baseline {DEFAULT_BASELINE.name}, "
        f"{len(measured)} measurement(s)):\n"
        f"  solves : exact gate vs {base_solves} baseline, every run\n"
        f"  wall   : best of [{runs}] s = {best_seconds:.3f} s vs "
        f"{base_seconds:.3f} s baseline "
        f"(budget {budget:.3f} s = +{100 * tolerance:.0f}%)"
    )

    failures = []
    for path, record in zip(args.measurements, measured):
        now_solves = int(record["allocator_solves_cold"])
        if now_solves > base_solves:
            failures.append(
                f"allocator_solves_cold regressed in {path.name}: "
                f"{now_solves} > {base_solves} (solve counts are "
                "deterministic; this is a real regression)"
            )
    if best_seconds > budget:
        failures.append(
            f"cold_seconds regressed: best run {best_seconds:.3f} s > "
            f"{budget:.3f} s ({base_seconds:.3f} s +{100 * tolerance:.0f}%)"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("OK: cold compile path within the ratchet")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
