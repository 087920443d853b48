"""Dual-mode Enhanced Hardware Abstraction (DEHA).

This is the hardware description of §4.2 / Fig. 8 of the paper: the
compiler sees the CIM chip through a small set of parameters — the number
and size of dual-mode arrays, the native buffer, internal and external
bandwidth, the method and latency of the compute<->memory mode switch and
the per-mode operation latencies.  Everything the cost model and the
simulators need is derived from these parameters.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Dict


class ArrayMode(Enum):
    """Operating mode of a dual-mode CIM array."""

    COMPUTE = "compute"
    MEMORY = "memory"
    IDLE = "idle"


@dataclass(frozen=True)
class DualModeHardwareAbstraction:
    """Parameters of a dual-mode CIM accelerator (the paper's DEHA).

    The attribute names follow Fig. 8; derived quantities (``op_cim``,
    ``d_cim``, ``d_main``) follow Table 1.

    Attributes:
        name: Preset name (e.g. ``"dynaplasia"``).
        num_arrays: ``#_switch_array`` — number of dual-mode arrays.
        array_rows: Rows of one array (wordlines).
        array_cols: Columns of one array (bitlines).
        buffer_bytes: Native on-chip buffer capacity in bytes
            (DynaPlasia: 10 KB x 8 banks).
        internal_bw_bits: ``internal_bw`` — on-chip bus width in bits/cycle.
        extern_bw_bits: ``extern_bw`` — main-memory bandwidth in bits/cycle.
        weight_bits: Weight precision (paper: 8-bit quantisation).
        activation_bits: Activation precision.
        compute_latency_cycles: Cycles one compute-mode array needs to
            finish one full-array MVM activation (bit-serial input, ADC and
            accumulation included).
        array_read_bits: Bits a memory-mode array can read per cycle.
        array_write_bits: Bits that can be written into an array per cycle
            (weight programming and memory-mode stores).
        switch_latency_m2c: ``L_{m->c}`` — cycles to switch one array from
            memory to compute mode.
        switch_latency_c2m: ``L_{c->m}`` — cycles to switch one array from
            compute to memory mode.
        switch_method_m2c: ``Methd_{m->c}`` — free-text description of the
            switching mechanism (e.g. global-wordline driver input change).
        switch_method_c2m: ``Methd_{c->m}``.
        frequency_mhz: Clock frequency used to convert cycles to time.
        write_energy_factor: Relative cost multiplier for array writes
            (ReRAM-based chips such as PRIME pay much more per write than
            the eDRAM-based DynaPlasia).
        weight_update_overlap: Fraction of array weight-programming time
            hidden behind concurrent computation.  Recent dual-mode macros
            (DynaPlasia and the ping-pong CIM designs it builds on) support
            simultaneous MAC and write operations, so most of the reload is
            overlapped; ReRAM chips hide far less.  The overlap is a
            property of the chip and applies to every compiler equally.
    """

    name: str
    num_arrays: int
    array_rows: int
    array_cols: int
    buffer_bytes: int
    internal_bw_bits: int
    extern_bw_bits: int
    weight_bits: int = 8
    activation_bits: int = 8
    compute_latency_cycles: int = 8
    array_read_bits: int = 0
    array_write_bits: int = 0
    switch_latency_m2c: int = 1
    switch_latency_c2m: int = 1
    switch_method_m2c: str = "set GIA/GIAb to input activation"
    switch_method_c2m: str = "set GIA/GIAb high"
    frequency_mhz: float = 200.0
    write_energy_factor: float = 1.0
    weight_update_overlap: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight_update_overlap < 1.0:
            raise ValueError("weight_update_overlap must be in [0, 1)")
        if self.num_arrays <= 0:
            raise ValueError("num_arrays must be positive")
        if self.array_rows <= 0 or self.array_cols <= 0:
            raise ValueError("array dimensions must be positive")
        if self.buffer_bytes < 0:
            raise ValueError("buffer_bytes must be non-negative")
        if self.internal_bw_bits <= 0 or self.extern_bw_bits <= 0:
            raise ValueError("bandwidths must be positive")
        if self.compute_latency_cycles <= 0:
            raise ValueError("compute_latency_cycles must be positive")
        if self.weight_bits <= 0 or self.activation_bits <= 0:
            raise ValueError("bit widths must be positive")
        if self.switch_latency_m2c < 0 or self.switch_latency_c2m < 0:
            raise ValueError("switch latencies must be non-negative")
        if self.frequency_mhz <= 0 or self.write_energy_factor <= 0:
            raise ValueError("frequency_mhz and write_energy_factor must be positive")
        # Default the per-array read/write port widths to one row/column of
        # bits per cycle when not specified.
        if self.array_read_bits <= 0:
            object.__setattr__(self, "array_read_bits", self.array_cols)
        if self.array_write_bits <= 0:
            object.__setattr__(self, "array_write_bits", self.array_cols)

    # ------------------------------------------------------------------ #
    # derived capacities
    # ------------------------------------------------------------------ #
    @property
    def array_capacity_elements(self) -> int:
        """Weight elements one array stores (one element per cell group)."""
        return self.array_rows * self.array_cols

    @property
    def array_capacity_bytes(self) -> int:
        """Bytes one array stores in memory mode."""
        return self.array_capacity_elements * self.weight_bits // 8

    @property
    def total_array_capacity_bytes(self) -> int:
        """Bytes stored if every array were in memory mode."""
        return self.num_arrays * self.array_capacity_bytes

    @property
    def buffer_elements(self) -> int:
        """Activation elements the native buffer holds."""
        return self.buffer_bytes * 8 // self.activation_bits

    # ------------------------------------------------------------------ #
    # derived rates (Table 1 constants)
    # ------------------------------------------------------------------ #
    @property
    def op_cim(self) -> float:
        """``OP_cim`` — MACs per cycle one compute-mode array provides.

        A compute-mode array evaluates a full ``rows x cols`` MVM every
        ``compute_latency_cycles`` cycles (bit-serial activation input).
        """
        return self.array_rows * self.array_cols / self.compute_latency_cycles

    @property
    def d_cim(self) -> float:
        """``D_cim`` — elements per cycle one memory-mode array provides."""
        return self.array_read_bits / self.activation_bits

    @property
    def d_main(self) -> float:
        """``D_main`` — elements per cycle from main memory + native buffer.

        Following Table 1, ``D_main`` is proportional to
        ``extern_bw + internal_bw``.
        """
        return (self.extern_bw_bits + self.internal_bw_bits) / self.activation_bits

    @property
    def d_extern(self) -> float:
        """Elements per cycle across the off-chip link only."""
        return self.extern_bw_bits / self.activation_bits

    @property
    def array_write_latency_cycles(self) -> float:
        """``Latency_write`` — exposed cycles to (re)program one full array.

        Writing ``rows x cols`` weights through an ``array_write_bits``-wide
        port, scaled by the technology's write-cost factor (ReRAM >> eDRAM)
        and reduced by the fraction of the update that overlaps with
        concurrent computation (ping-pong weight update).
        """
        bits = self.array_rows * self.array_cols * self.weight_bits
        raw = bits / self.array_write_bits * self.write_energy_factor
        return raw * (1.0 - self.weight_update_overlap)

    @property
    def cycle_time_ns(self) -> float:
        """Duration of one cycle in nanoseconds."""
        return 1000.0 / self.frequency_mhz

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert a cycle count to milliseconds."""
        return cycles * self.cycle_time_ns * 1e-6

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def with_overrides(self, **kwargs) -> "DualModeHardwareAbstraction":
        """Copy of this abstraction with some parameters replaced."""
        return replace(self, **kwargs)

    def fingerprint(self) -> str:
        """Stable hashable digest of every cost-relevant parameter.

        Two abstractions with identical parameters (the preset name
        included) produce the same fingerprint; any override — changing
        one of the :meth:`to_dict` fields via :meth:`with_overrides` or
        construction — invalidates it.  Used as the hardware component
        of allocation-cache keys, so cached window solves are never
        reused across different chips.

        Invariants:

        * **Cross-process stability** — the digest is SHA-256 over the
          canonical parameter rendering, never Python's randomised
          ``hash()``, so it is identical across processes, interpreter
          restarts and machines.  This is what makes it safe as the key
          component of the persistent
          :class:`~repro.core.store.DiskCacheStore`.
        * **Completeness** — every field of :meth:`to_dict` is covered.
          When adding a DEHA parameter that influences any cost model,
          add it to :meth:`to_dict` (which feeds this digest); an
          uncovered parameter would let two different chips share cache
          entries.
        * The digest is memoised on the (frozen, hence immutable)
          instance — allocation-cache lookups call this in the DP inner
          loop.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            canonical = repr(sorted(self.to_dict().items()))
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def to_dict(self) -> Dict:
        """Serialise to a plain dictionary."""
        return {
            "name": self.name,
            "num_arrays": self.num_arrays,
            "array_rows": self.array_rows,
            "array_cols": self.array_cols,
            "buffer_bytes": self.buffer_bytes,
            "internal_bw_bits": self.internal_bw_bits,
            "extern_bw_bits": self.extern_bw_bits,
            "weight_bits": self.weight_bits,
            "activation_bits": self.activation_bits,
            "compute_latency_cycles": self.compute_latency_cycles,
            "array_read_bits": self.array_read_bits,
            "array_write_bits": self.array_write_bits,
            "switch_latency_m2c": self.switch_latency_m2c,
            "switch_latency_c2m": self.switch_latency_c2m,
            "switch_method_m2c": self.switch_method_m2c,
            "switch_method_c2m": self.switch_method_c2m,
            "frequency_mhz": self.frequency_mhz,
            "write_energy_factor": self.write_energy_factor,
            "weight_update_overlap": self.weight_update_overlap,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DualModeHardwareAbstraction":
        """Rebuild an abstraction from :meth:`to_dict` output.

        Decoded JSON may carry anything, and every cost model reads the
        numeric fields as floats: each must be an ``int`` or ``float``
        (not a ``bool``) that a float holds, so no NaN or infinity.
        """
        values = [data[name] for name in _NUMERIC_FIELDS if name in data]
        if set(map(type, values)) - {int, float} or not all(
            map(sys.float_info.max.__ge__, map(abs, values))
        ):
            raise ValueError(f"numeric hardware fields must be finite numbers: {values!r}")
        return cls(**data)

    def summary(self) -> str:
        """Multi-line human-readable summary (used by examples/reports)."""
        lines = [
            f"DEHA {self.name!r}",
            f"  arrays            : {self.num_arrays} x {self.array_rows}x{self.array_cols}",
            f"  native buffer     : {self.buffer_bytes / 1024:.1f} KB",
            f"  internal bw       : {self.internal_bw_bits} b/cycle",
            f"  external bw       : {self.extern_bw_bits} b/cycle",
            f"  OP_cim            : {self.op_cim:.0f} MAC/cycle/array",
            f"  D_cim             : {self.d_cim:.1f} elem/cycle/array",
            f"  D_main            : {self.d_main:.1f} elem/cycle",
            f"  array write       : {self.array_write_latency_cycles:.0f} cycles",
            f"  mode switch m->c  : {self.switch_latency_m2c} cycles ({self.switch_method_m2c})",
            f"  mode switch c->m  : {self.switch_latency_c2m} cycles ({self.switch_method_c2m})",
        ]
        return "\n".join(lines)


#: Every field but the preset name and the two free-text notes.
_NUMERIC_FIELDS = tuple(
    f.name
    for f in fields(DualModeHardwareAbstraction)
    if f.name not in ("name", "switch_method_m2c", "switch_method_c2m")
)
