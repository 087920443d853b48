"""Hardware presets used in the paper's evaluation.

* :func:`dynaplasia` — the main target chip (Table 2): 96 dual-mode arrays
  of 320x320 cells, 10 KB x 8 native buffer, 32 b/cycle internal bandwidth
  and a single-cycle mode switch implemented by changing the global
  wordline drivers.
* :func:`prime` — the scalability target of §5.5: a ReRAM chip in the
  style of PRIME with more and larger arrays but a much higher write cost.
* :func:`small_test_chip` — a deliberately tiny configuration that keeps
  unit tests and the functional simulator fast while still exercising
  partitioning and segmentation.
"""

from __future__ import annotations

from typing import Dict

from .deha import DualModeHardwareAbstraction


def dynaplasia(**overrides) -> DualModeHardwareAbstraction:
    """DynaPlasia-style eDRAM dual-mode chip (the paper's Table 2).

    Parameters not listed in Table 2 (external bandwidth, compute latency,
    read/write port widths, clock) are set to values consistent with the
    DynaPlasia ISSCC'23 publication and can be overridden by keyword.
    """
    params = dict(
        name="dynaplasia",
        num_arrays=96,
        array_rows=320,
        array_cols=320,
        buffer_bytes=10 * 1024 * 8,
        internal_bw_bits=32,
        extern_bw_bits=1024,
        weight_bits=8,
        activation_bits=8,
        # Bit-serial 8-bit activations: one full-array MVM every 64 cycles.
        compute_latency_cycles=64,
        # Memory mode reads one 320-bit row per cycle; eDRAM writes refresh
        # a whole 320x8-bit row per cycle when programming weights.
        array_read_bits=320,
        array_write_bits=2560,
        switch_latency_m2c=1,
        switch_latency_c2m=1,
        switch_method_m2c="drive GIA/GIAb with IA//IA (compute)",
        switch_method_c2m="drive GIA/GIAb high (memory)",
        frequency_mhz=200.0,
        write_energy_factor=1.0,
        # eDRAM dual-mode macros update weights while computing (ping-pong
        # write), hiding most of the array-programming latency.
        weight_update_overlap=0.8,
    )
    params.update(overrides)
    return DualModeHardwareAbstraction(**params)


def prime(**overrides) -> DualModeHardwareAbstraction:
    """PRIME-style ReRAM chip used for the scalability study (§5.5).

    PRIME offers larger and more numerous arrays — big enough to hold whole
    network segments — but pays a much higher per-write cost because the
    memory device is ReRAM.
    """
    params = dict(
        name="prime",
        num_arrays=256,
        array_rows=256,
        array_cols=256,
        buffer_bytes=64 * 1024,
        internal_bw_bits=64,
        extern_bw_bits=512,
        weight_bits=8,
        activation_bits=8,
        compute_latency_cycles=32,
        array_read_bits=256,
        array_write_bits=2048,
        switch_latency_m2c=2,
        switch_latency_c2m=2,
        switch_method_m2c="reconfigure crossbar drivers (compute)",
        switch_method_c2m="reconfigure crossbar drivers (memory)",
        frequency_mhz=200.0,
        write_energy_factor=8.0,
        # ReRAM writes are slow and disturb concurrent reads: little overlap.
        weight_update_overlap=0.25,
    )
    params.update(overrides)
    return DualModeHardwareAbstraction(**params)


def small_test_chip(**overrides) -> DualModeHardwareAbstraction:
    """A tiny dual-mode chip for unit tests and the functional simulator."""
    params = dict(
        name="small-test-chip",
        num_arrays=8,
        array_rows=64,
        array_cols=64,
        buffer_bytes=2 * 1024,
        internal_bw_bits=32,
        extern_bw_bits=64,
        weight_bits=8,
        activation_bits=8,
        compute_latency_cycles=16,
        array_read_bits=64,
        array_write_bits=512,
        switch_latency_m2c=1,
        switch_latency_c2m=1,
        frequency_mhz=200.0,
        write_energy_factor=1.0,
        weight_update_overlap=0.5,
    )
    params.update(overrides)
    return DualModeHardwareAbstraction(**params)


PRESETS = {
    "dynaplasia": dynaplasia,
    "prime": prime,
    "small-test-chip": small_test_chip,
}


#: The chip every override-free :func:`get_preset` call returns, by name.
_SHARED: Dict[str, DualModeHardwareAbstraction] = {}


def get_preset(name: str, **overrides) -> DualModeHardwareAbstraction:
    """The preset hardware abstraction ``name``, with ``overrides`` applied.

    Without overrides every call returns one shared (frozen) chip, so its
    memoised fingerprint is rendered once per process, not once per
    request naming the preset.  Overrides build a new chip.

    Raises:
        KeyError: If the preset name is unknown.
    """
    if name not in PRESETS:
        raise KeyError(f"unknown hardware preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    if overrides:
        return PRESETS[name](**overrides)
    chip = _SHARED.get(name)
    return chip if chip is not None else _SHARED.setdefault(name, PRESETS[name]())
