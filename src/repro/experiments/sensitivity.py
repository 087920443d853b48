"""Hardware sensitivity study (extension of the paper's §5.5 / §6).

The paper argues that dual-mode awareness matters across hardware
configurations and sketches (in the discussion) its use for
general-purpose systems.  This experiment quantifies how the CMSwitch
advantage over CIM-MLC moves as individual DEHA parameters change:

* the number of dual-mode arrays (chip size),
* the external (off-chip) bandwidth,
* the mode-switch latency,
* the native buffer size.

Larger chips and slower off-chip links increase the value of memory-mode
arrays; a huge native buffer or an extremely slow mode switch erodes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api import Session
from ..hardware.deha import DualModeHardwareAbstraction
from ..hardware.presets import dynaplasia
from ..models.registry import build_model, default_workload
from .common import FIGURE_OPTIONS, format_table, speedup

#: Parameter sweeps explored by default (values replace the preset's).
DEFAULT_SWEEPS: Dict[str, Sequence] = {
    "num_arrays": (48, 96, 192),
    "extern_bw_bits": (512, 1024, 4096),
    "switch_latency": (1, 64, 1024),
    "buffer_bytes": (10 * 1024, 80 * 1024, 640 * 1024),
}


def _apply(hardware: DualModeHardwareAbstraction, parameter: str, value) -> DualModeHardwareAbstraction:
    """Return a copy of ``hardware`` with one sweep parameter replaced."""
    if parameter == "switch_latency":
        return hardware.with_overrides(switch_latency_m2c=value, switch_latency_c2m=value)
    return hardware.with_overrides(**{parameter: value})


def run_sensitivity(
    model: str = "llama2-7b",
    batch_size: int = 4,
    seq_len: int = 64,
    hardware: Optional[DualModeHardwareAbstraction] = None,
    sweeps: Optional[Dict[str, Sequence]] = None,
    session: Optional[Session] = None,
) -> List[Dict]:
    """Sweep DEHA parameters and record the CMSwitch-over-CIM-MLC speedup.

    Every compile goes through ``session`` (a fresh one when omitted).

    Returns one row per (parameter, value) with both compilers' cycles,
    the speedup and CMSwitch's memory-array ratio.
    """
    base = hardware or dynaplasia()
    session = Session(base) if session is None else session
    sweeps = sweeps or DEFAULT_SWEEPS
    workload = default_workload(model, batch_size=batch_size, seq_len=seq_len)
    graph = build_model(model, workload)
    rows: List[Dict] = []
    for parameter, values in sweeps.items():
        for value in values:
            target = _apply(base, parameter, value)
            cms = session.compile(graph, options=FIGURE_OPTIONS, hardware=target)
            mlc = session.compile(
                graph, options=FIGURE_OPTIONS, hardware=target, compiler="cim-mlc"
            )
            rows.append(
                {
                    "model": model,
                    "parameter": parameter,
                    "value": value,
                    "cmswitch_cycles": cms.end_to_end_cycles,
                    "cim-mlc_cycles": mlc.end_to_end_cycles,
                    "speedup_vs_cim-mlc": speedup(mlc.end_to_end_cycles, cms.end_to_end_cycles),
                    "memory_array_ratio": cms.mean_memory_array_ratio,
                }
            )
    return rows


def render_report(rows: Sequence[Dict]) -> str:
    """Text rendering of the sensitivity sweep."""
    columns = ["model", "parameter", "value", "speedup_vs_cim-mlc", "memory_array_ratio"]
    return format_table(rows, columns)


def main() -> None:  # pragma: no cover - convenience CLI
    """Print the default sensitivity sweep."""
    print(render_report(run_sensitivity()))


if __name__ == "__main__":  # pragma: no cover
    main()
