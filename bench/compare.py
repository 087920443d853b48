#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show one set's run-to-run spread.

    python3 bench/run.py --all --seed N --save DIR     # once per seed, per set
    python3 bench/compare.py BASE_DIR NEW_DIR          # one row per workload x metric
    python3 bench/compare.py --spread DIR              # the A/A acceptance view

Each row gives both medians with quartiles and sample counts, the ratio
new/base with its base, and a verdict under the metric's bound from
``BENCHMARK.json``:

* ``REGRESSED``  — the new median is worse than the base by more than the bound;
* ``unresolved`` — not regressed, but one set's own spread (quartile distance
  over median) exceeds the bound, so "no change" cannot be told from noise —
  unless every new run beats every base run, which reads ``better``;
* ``better`` / ``unchanged`` — otherwise, by whether the medians differ by
  more than the base's own spread.

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Samples = Dict[Tuple[str, str], List[float]]


def load_runs(directory: str, trace: bool = False) -> Tuple[Samples, List[Dict]]:
    """(workload, metric) → values over the run documents saved in ``directory``."""
    samples: Samples = defaultdict(list)
    machines = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if bool(document.get("trace")) != trace:
            continue
        if document["machine"] not in machines:
            machines.append(document["machine"])
        for metric, entry in document["result"]["metrics"].items():
            samples[(document["workload"], metric)].append(entry["value"])
    return samples, machines


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Share of the base by which ``new`` is worse (negative: better)."""
    change = (new - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(base: List[float], new: List[float], better: str, bound: float) -> str:
    base_median, _, _, base_spread = summary(base)
    new_median, _, _, new_spread = summary(new)
    worse = worse_by(base_median, new_median, better)
    if worse > bound:
        return "REGRESSED"
    if better == "lower":
        dominates = max(new) < min(base)
    else:
        dominates = min(new) > max(base)
    if max(base_spread, new_spread) > bound:
        return "better" if dominates else "unresolved"
    if -worse > base_spread and worse < 0:
        return "better"
    return "unchanged"


def print_machines(label: str, machines: List[Dict]) -> None:
    for machine in machines:
        print(
            f"{label}: cores={machine['cores']} python={machine['python']} "
            f"numpy={machine['numpy']} scipy={machine['scipy']}"
        )


def compare(catalogue: Dict, base_dir: str, new_dir: str) -> int:
    base, base_machines = load_runs(base_dir)
    new, new_machines = load_runs(new_dir)
    print_machines("base", base_machines)
    print_machines("new ", new_machines)
    if base_machines != new_machines:
        print("WARNING: the two sets come from different machines; wall times do not compare")
    print(
        f"{'workload':<17}{'metric':<21}{'base median [q1, q3] n':<40}"
        f"{'new median [q1, q3] n':<40}{'new/base':<22}{'bound':<7}verdict"
    )
    regressed = 0
    for workload in [entry["name"] for entry in catalogue["workloads"]]:
        for metric in catalogue["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                print(f"{workload:<17}{metric['name']:<21}missing from one set")
                continue
            b_median, b_q1, b_q3, _ = summary(base[key])
            n_median, n_q1, n_q3, _ = summary(new[key])
            outcome = verdict(base[key], new[key], metric["better"], metric["bound"])
            regressed += outcome == "REGRESSED"
            ratio = n_median / b_median if b_median else float("nan")
            print(
                f"{workload:<17}{metric['name']:<21}"
                f"{f'{b_median:.5g} [{b_q1:.5g}, {b_q3:.5g}] n={len(base[key])}':<40}"
                f"{f'{n_median:.5g} [{n_q1:.5g}, {n_q3:.5g}] n={len(new[key])}':<40}"
                f"{f'{ratio:.4f} of {b_median:.5g} ' + metric['unit']:<22}"
                f"{metric['bound']:<7g}{outcome}"
            )
    return 1 if regressed else 0


def spread(catalogue: Dict, directory: str) -> int:
    """Run-to-run spread of one set against each bound (and a third of it)."""
    samples, machines = load_runs(directory)
    print_machines("runs", machines)
    print(f"{'workload':<17}{'metric':<21}{'median':<14}{'n':<4}{'spread':<10}{'bound':<8}status")
    over = 0
    for workload in [entry["name"] for entry in catalogue["workloads"]]:
        for metric in catalogue["end_to_end"]:
            values = samples.get((workload, metric["name"]))
            if not values:
                continue
            median, _, _, share = summary(values)
            if metric["name"] == "setup_s":
                status = "exempt"
            elif share > metric["bound"]:
                status = "OVER BOUND"
                over += 1
            elif share > metric["bound"] / 3.0:
                status = "over a third of the bound"
            else:
                status = "ok"
            print(
                f"{workload:<17}{metric['name']:<21}{median:<14.6g}{len(values):<4}"
                f"{share:<10.4f}{metric['bound']:<8g}{status}"
            )
    return 1 if over else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", help="BASE_DIR NEW_DIR, or one DIR with --spread")
    parser.add_argument("--spread", action="store_true", help="show one set's run-to-run spread")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        catalogue = json.load(handle)
    if args.spread:
        if len(args.dirs) != 1:
            parser.error("--spread takes one directory")
        return spread(catalogue, args.dirs[0])
    if len(args.dirs) != 2:
        parser.error("give BASE_DIR and NEW_DIR")
    return compare(catalogue, args.dirs[0], args.dirs[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
