"""Smoke test of the benchmark harness (collected by the tier-1 suite).

Runs every workload with ``--smoke`` (minimal budgets, tiny models) in
this process and checks what it emits against ``BENCHMARK.json``: every
listed metric has a finite value and the listed unit, nothing unlisted is
emitted, and no operation fails.
It measures nothing — it keeps the instrument from rotting.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for _path in (os.path.join(ROOT, "src"), BENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchlib import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    CATALOGUE = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [entry["name"] for entry in CATALOGUE["workloads"]]


def test_catalogue_meets_the_contract():
    assert set(CATALOGUE) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CATALOGUE["paths"] == ["bench"]
    assert 2 <= len(CATALOGUE["workloads"]) <= 8
    assert 1 <= len(CATALOGUE["end_to_end"]) <= 16
    assert 1 <= len(CATALOGUE["per_layer"]) <= 128
    assert isinstance(CATALOGUE["run_seconds"], int) and 1 <= CATALOGUE["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in CATALOGUE["workloads"])
    for metric in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in CATALOGUE["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in CATALOGUE["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CATALOGUE["end_to_end"])
    assert sorted(cli.workload_classes()) == sorted(WORKLOADS)


def run_smoke(capsys, *arguments):
    """Run the command line in this process; returns (exit code, result line)."""
    code = cli.main(["--smoke", "--seed", "3", *arguments])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def check_section(metrics, section):
    listed = {m["name"]: m for m in CATALOGUE[section]}
    assert set(metrics) == set(listed)
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]), name
        assert entry["unit"] == listed[name]["unit"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_listed_metric(workload, capsys, tmp_path):
    # One traced run gives both sections: the per-layer metrics on the
    # result line, the end-to-end ones (its untraced half) in the saved
    # run document.
    result = run_smoke(capsys, "--workload", workload, "--trace", "1", "--save", str(tmp_path))
    check_section(result["metrics"], "per_layer")
    with open(tmp_path / f"{workload}-seed3-trace1.json", "r", encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    assert set(end_to_end) == {m["name"] for m in CATALOGUE["end_to_end"]}
    assert all(math.isfinite(value) and value != 0 for value in end_to_end.values()), end_to_end

    # The traced run must leave the program as it found it.
    from repro.core import allocation

    assert not hasattr(allocation.MIPAllocator.allocate, "__wrapped__")
    assert not hasattr(allocation.operator_latency_cycles, "__wrapped__")


def test_untraced_run_prints_the_end_to_end_metrics(capsys):
    result = run_smoke(capsys, "--workload", "dse_warm", "--trace", "0")
    check_section(result["metrics"], "end_to_end")
    assert all(entry["value"] != 0 for entry in result["metrics"].values())
