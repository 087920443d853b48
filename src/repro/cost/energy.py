"""Energy estimation for compiled dual-mode programs (extension).

The paper argues that dual-mode switching improves "performance and energy
efficiency" but reports latency only.  This module adds a first-order
energy model so compiled plans can also be compared on energy: every
activity the latency model accounts for (array MACs, array reads/writes,
native-buffer and off-chip transfers, mode switches) is assigned a
per-operation energy, and a compiled program's plan is integrated into an
:class:`EnergyReport`.

The coefficients (:class:`EnergyParameters`, the one home of them) are
representative of published CIM macros (pJ-scale MAC and access
energies, nJ-scale DRAM transfers), scaled per chip by
:meth:`EnergyParameters.scaled_for`.  As with latency, only *relative*
comparisons between compilers on the same coefficients are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..hardware.deha import DualModeHardwareAbstraction


@dataclass(frozen=True)
class EnergyParameters:
    """Per-operation energy coefficients (picojoules).

    Attributes:
        mac_pj: Energy of one multiply-accumulate inside a compute-mode
            array (input DAC/driver, cell access and accumulation share).
        array_read_pj_per_element: Reading one element from a memory-mode
            CIM array.
        array_write_pj_per_element: Writing one element into an array
            (weight programming or memory-mode store).
        buffer_pj_per_element: Accessing one element of the native buffer.
        offchip_pj_per_element: Moving one element across the off-chip
            link (DRAM access plus interface energy).
        mode_switch_pj_per_array: Reconfiguring one array's drivers.
        leakage_pj_per_cycle: Chip-wide static energy per cycle.
    """

    mac_pj: float = 0.05
    array_read_pj_per_element: float = 0.5
    array_write_pj_per_element: float = 1.0
    buffer_pj_per_element: float = 0.8
    offchip_pj_per_element: float = 20.0
    mode_switch_pj_per_array: float = 2.0
    leakage_pj_per_cycle: float = 50.0

    def scaled_for(self, hardware: DualModeHardwareAbstraction) -> "EnergyParameters":
        """Adjust technology-dependent coefficients for a hardware preset.

        ReRAM-based chips (identified through ``write_energy_factor``) pay
        proportionally more per array write.
        """
        if hardware.write_energy_factor == 1.0:
            return self
        return replace(
            self,
            array_write_pj_per_element=self.array_write_pj_per_element
            * hardware.write_energy_factor,
        )


@dataclass
class EnergyReport:
    """Energy totals (picojoules) of one compiled program."""

    graph_name: str
    compute_pj: float = 0.0
    array_access_pj: float = 0.0
    weight_write_pj: float = 0.0
    buffer_pj: float = 0.0
    offchip_pj: float = 0.0
    mode_switch_pj: float = 0.0
    leakage_pj: float = 0.0
    block_repeat: float = 1.0

    @property
    def dynamic_pj(self) -> float:
        """Dynamic energy of one graph pass."""
        return (
            self.compute_pj
            + self.array_access_pj
            + self.weight_write_pj
            + self.buffer_pj
            + self.offchip_pj
            + self.mode_switch_pj
        )

    @property
    def total_pj(self) -> float:
        """Total energy of one graph pass (dynamic + leakage)."""
        return self.dynamic_pj + self.leakage_pj

    @property
    def end_to_end_mj(self) -> float:
        """End-to-end energy in millijoules (graph pass times block repeat)."""
        return self.total_pj * self.block_repeat * 1e-9

    def breakdown(self) -> Dict[str, float]:
        """Per-category energy of one graph pass (picojoules)."""
        return {
            "compute": self.compute_pj,
            "array_access": self.array_access_pj,
            "weight_write": self.weight_write_pj,
            "buffer": self.buffer_pj,
            "offchip": self.offchip_pj,
            "mode_switch": self.mode_switch_pj,
            "leakage": self.leakage_pj,
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"energy for {self.graph_name}: {self.end_to_end_mj:.3f} mJ end-to-end "
            f"(off-chip share {100.0 * self.offchip_pj / self.total_pj if self.total_pj else 0.0:.1f} %)"
        )


def estimate_energy(program) -> EnergyReport:
    """Estimate the energy of a compiled program on its own hardware.

    The estimate walks the segment plans (it does not need the
    meta-operator flow): per operator, MAC energy plus streamed-data energy
    split between memory-mode arrays, the native buffer and the off-chip
    link using the same capacity rule as the latency model; per segment,
    weight-programming and mode-switch energy; chip leakage is charged for
    the predicted execution cycles.

    Args:
        program: A :class:`~repro.core.program.CompiledProgram`.
    """
    hardware = program.hardware
    parameters = EnergyParameters().scaled_for(hardware)
    mac_pj = parameters.mac_pj
    array_read_pj = parameters.array_read_pj_per_element
    buffer_pj = parameters.buffer_pj_per_element
    offchip_pj = parameters.offchip_pj_per_element
    array_write_pj = parameters.array_write_pj_per_element
    switch_pj = parameters.mode_switch_pj_per_array
    d_extern = hardware.d_extern
    array_capacity_elements = hardware.array_capacity_elements
    buffer_elements = hardware.buffer_elements
    per_switch = max(hardware.switch_latency_m2c, hardware.switch_latency_c2m, 1)
    # Each category is a local running sum, written to the report once:
    # the same additions in the same order as adding into the report.
    compute = array_access = weight_write = buffer = offchip = mode_switch = 0.0

    for segment in program.segments:
        for profile, (_, memory_arrays) in zip(segment.profiles, segment.pairs):
            compute += profile.macs * mac_pj

            streamed = profile.streamed_elements
            array_capacity = memory_arrays * array_capacity_elements
            in_arrays = min(streamed, array_capacity)
            remaining = streamed - in_arrays
            in_buffer = min(remaining, buffer_elements)
            array_access += in_arrays * array_read_pj
            buffer += in_buffer * buffer_pj
            offchip += (remaining - in_buffer) * offchip_pj

            if profile.has_static_weight:
                weight_write += profile.weight_elements * array_write_pj
                # Weights arrive from main memory once per segment execution.
                offchip += profile.weight_elements * offchip_pj

        # Inter-segment write-back traffic (store + reload across the link).
        writeback_cycles = segment.inter_breakdown.get("writeback", 0.0)
        writeback_elements = writeback_cycles * d_extern / 2.0
        offchip += 2.0 * writeback_elements * offchip_pj

        # Mode switches: count switched arrays from the aggregate plan.
        switch_cycles = segment.inter_breakdown.get("mode_switch", 0.0)
        mode_switch += (switch_cycles / per_switch) * switch_pj

    return EnergyReport(
        graph_name=program.graph_name,
        compute_pj=compute,
        array_access_pj=array_access,
        weight_write_pj=weight_write,
        buffer_pj=buffer,
        offchip_pj=offchip,
        mode_switch_pj=mode_switch,
        leakage_pj=program.graph_cycles * parameters.leakage_pj_per_cycle,
        block_repeat=program.block_repeat,
    )

