"""Ablation benchmarks for the design choices called out in DESIGN.md.

Four ablations, each comparing full CMSwitch against a crippled variant on
a representative workload:

* **Segmentation** — DP segmentation vs. one-operator-per-segment.
* **Allocation** — MILP allocation vs. the greedy heuristic.
* **Switch-cost awareness** — charging vs. ignoring the Eq. 1 switch cost
  in the DP objective.
* **Duplication refinement** — weight duplication on vs. off.
"""

import pytest

from conftest import record

from repro.core import CMSwitchCompiler, CompilerOptions
from repro.hardware import dynaplasia
from repro.models import build_model, default_workload


def _compile(chip, graph, **option_overrides):
    options = CompilerOptions(generate_code=False, **option_overrides)
    return CMSwitchCompiler(chip, options).compile(graph)


@pytest.fixture(scope="module")
def llama_graph():
    return build_model("llama2-7b", default_workload("llama2-7b", batch_size=4, seq_len=64))


@pytest.fixture(scope="module")
def resnet_graph():
    return build_model("resnet18", default_workload("resnet18", batch_size=1, seq_len=64))


@pytest.mark.benchmark(group="ablation")
def test_ablation_dp_segmentation(benchmark, chip, resnet_graph):
    """DP segmentation vs. per-operator segmentation."""

    def run():
        full = _compile(chip, resnet_graph)
        per_op = _compile(chip, resnet_graph, max_segment_operators=1)
        return {
            "dp_cycles": full.end_to_end_cycles,
            "per_operator_cycles": per_op.end_to_end_cycles,
            "benefit": per_op.end_to_end_cycles / full.end_to_end_cycles,
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, rows, f"segmentation ablation: DP is {rows['benefit']:.2f}x better")
    assert rows["benefit"] >= 1.0


@pytest.mark.benchmark(group="ablation")
def test_ablation_milp_vs_greedy_allocation(benchmark, chip, llama_graph):
    """MILP allocation vs. the greedy marginal-gain heuristic."""

    def run():
        milp = _compile(chip, llama_graph, use_milp=True)
        greedy = _compile(chip, llama_graph, use_milp=False)
        return {
            "milp_cycles": milp.end_to_end_cycles,
            "greedy_cycles": greedy.end_to_end_cycles,
            "benefit": greedy.end_to_end_cycles / milp.end_to_end_cycles,
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, rows, f"allocation ablation: MILP is {rows['benefit']:.2f}x vs greedy")
    # The MILP should never be meaningfully worse than the heuristic.
    assert rows["benefit"] >= 0.97


@pytest.mark.benchmark(group="ablation")
def test_ablation_switch_cost_awareness(benchmark, chip, llama_graph):
    """Charging vs. ignoring the Eq. 1 mode-switch cost during the DP."""

    def run():
        aware = _compile(chip, llama_graph, include_switch_cost=True)
        blind = _compile(chip, llama_graph, include_switch_cost=False)
        return {
            "aware_cycles": aware.end_to_end_cycles,
            "blind_plan_cycles": blind.end_to_end_cycles,
            "aware_switch_share": aware.switch_overhead_fraction,
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        benchmark,
        rows,
        f"switch-cost ablation: aware plan spends {rows['aware_switch_share'] * 100:.2f}% on switches",
    )
    # With a 1-cycle switch the plans barely differ; the share stays tiny.
    assert rows["aware_switch_share"] <= 0.05


@pytest.mark.benchmark(group="ablation")
def test_ablation_weight_duplication(benchmark, chip, resnet_graph):
    """Weight-duplication refinement on vs. off."""

    def run():
        with_dup = _compile(chip, resnet_graph, refine=True)
        without = _compile(chip, resnet_graph, refine=False)
        return {
            "with_duplication_cycles": with_dup.end_to_end_cycles,
            "without_duplication_cycles": without.end_to_end_cycles,
            "benefit": without.end_to_end_cycles / with_dup.end_to_end_cycles,
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, rows, f"duplication ablation: refinement is {rows['benefit']:.2f}x better")
    assert rows["benefit"] >= 0.999
