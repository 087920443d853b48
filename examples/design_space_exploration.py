#!/usr/bin/env python3
"""Design-space exploration with the dual-mode hardware abstraction.

Because the compiler only sees the chip through the DEHA parameters, it
doubles as an architecture-exploration tool: sweep the array count, the
mode split or the workload and watch how the optimal compute/memory
split and the achievable latency move.  This example drives the
first-class DSE engine (:mod:`repro.dse`) instead of hand-rolled loops:

* reproduces the motivation sweep (how the best compute-mode ratio
  differs between ResNet-50 and LLaMA 2, Fig. 1(b)),
* compares the DynaPlasia-like target against a PRIME-like ReRAM chip
  (the §5.5 scalability study),
* explores a (array count x mode split) design space for ResNet-18 with
  the grid strategy and prints the latency/energy/arrays Pareto
  frontier — every design point shares the two-tier allocation cache,
  so the fixed-mode points reuse dual-mode solves and re-running the
  exploration is nearly free.

Run with ``python examples/design_space_exploration.py``.  Pass a
directory as the first argument to persist the allocation cache there:
re-running the script (or widening the sweep, or fanning it out across
processes) then reuses every solve the previous run already did, and the
DSE planner schedules the warm points first.
"""

import sys

from repro.analysis import mode_ratio_sweep
from repro.baselines import CIMMLCCompiler
from repro.dse import DesignSpace, DSERunner
from repro.experiments import prime_scalability
from repro.hardware import dynaplasia
from repro.models import Phase, Workload, build_model


def motivation_sweep() -> None:
    """Best compute-mode ratio per model (Fig. 1(b))."""
    hardware = dynaplasia(num_arrays=100)
    print("best compute-mode ratio on a 100-array chip:")
    for model, phase in (("resnet50", Phase.PREFILL), ("llama2-7b", Phase.DECODE)):
        graph = build_model(model, Workload(batch_size=1, seq_len=64, phase=phase))
        sweep = mode_ratio_sweep(graph, hardware)
        print(f"  {model:12s} -> {sweep.best_ratio * 100:4.0f}% compute mode")
    print()


def prime_comparison() -> None:
    """CMSwitch on a PRIME-like ReRAM target (§5.5)."""
    print("PRIME-like ReRAM target (speedup of CMSwitch over CIM-MLC):")
    for row in prime_scalability():
        print(f"  {row['model']:12s} {row['speedup_vs_cim-mlc']:.2f}x "
              f"(memory-array ratio {row['memory_array_ratio'] * 100:.1f}%)")
    print()


def array_count_exploration(cache_dir=None) -> None:
    """Explore (array count x mode split) for ResNet-18 with repro.dse.

    The whole space runs through one :class:`DSERunner`: the planner
    collapses structurally identical candidates, and the fixed-mode
    points reuse the dual-mode points' memory-free solves through the
    shared allocation cache.  With a ``cache_dir`` every compiled point
    is stored, so a second invocation reads the programs back instead
    of compiling them.
    """
    graph = build_model("resnet18", Workload(batch_size=1))
    space = DesignSpace(
        models=[graph],
        base_hardware=dynaplasia(),
        hardware_axes={"num_arrays": [32, 64, 96, 128, 192]},
        option_axes={"allow_memory_mode": [True, False]},
    )
    runner = DSERunner(space, strategy="grid", objective="latency", cache_dir=cache_dir)
    result = runner.run()

    print("ResNet-18 design space (DynaPlasia-like base, CMSwitch vs CIM-MLC):")
    for record in result.records:
        if not record.allow_memory_mode or not record.feasible:
            continue
        hardware = dynaplasia(num_arrays=record.num_arrays)
        mlc = CIMMLCCompiler(hardware).compile(graph)
        print(f"  {record.num_arrays:4d} arrays: CMSwitch {record.latency_ms:7.3f} ms, "
              f"CIM-MLC {mlc.end_to_end_ms:7.3f} ms "
              f"({mlc.end_to_end_cycles / record.cycles:.2f}x, "
              f"{record.allocator_solves} solves, {record.disk_hits} disk hits)")
    print()
    print(result.render_report())
    print(result.summary())
    print()


def main() -> None:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else None
    motivation_sweep()
    prime_comparison()
    array_count_exploration(cache_dir)


if __name__ == "__main__":
    main()
