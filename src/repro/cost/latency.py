"""Operator and segment latency model (Eq. 9 / Eq. 10 of the paper).

The latency of a CIM-mappable operator with ``Com`` compute-mode arrays
and ``Mem`` memory-mode arrays is

    L = OP / min(Com * OP_cim, (Mem * D_cim + D_main) * AI)

— the computation amount divided by the smaller of the compute rate the
allocated arrays provide and the computation rate the data supply can
sustain.  Within a segment, operators run in a pipelined fashion, so the
segment latency is the maximum operator latency (Eq. 9) plus a pipeline
fill term.

Two refinements keep the model physical without changing its character:

* the supply term is a roofline split (:func:`data_supply_times_batch`): the
  part of the operator's input that fits on chip (native buffer plus the
  memory-mode arrays' capacity) is served at ``D_main + Mem * D_cim``,
  the rest crosses the off-chip link at ``d_extern``, and the two
  transfers overlap, so the slower one bounds the operator.  Adding a
  memory array moves elements from the off-chip transfer onto the
  on-chip one, so supply time is *not* monotone in ``Mem``: 13 of the
  zoo's 939 operators get slower when one memory array is added (no
  compiled plan sits on such a point).  Nothing caps the useful memory
  arrays; whether to (or to re-price the on-chip side) is ROADMAP
  item 20's decision;
* an operator given fewer compute arrays than its stationary operand
  requires must time-multiplex weight loads, modelled as a proportional
  slowdown of its compute rate.

Each equation has one definition, over columns: Eq. 10 is
:func:`operator_latency_factors_batch` (its two factors,
:func:`compute_rate_batch` and :func:`data_supply_times_batch`), Eq. 9
is :func:`combine_operator_latencies`.  Callers tabulate the factors once
over ``0..num_arrays`` and read cells; :func:`operator_latency_cycles`
is a one-cell view for one-off reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Sized, Tuple

import numpy as np

from ..hardware.deha import DualModeHardwareAbstraction
from .arithmetic import OperatorProfile, ProfileVectors

#: Latency assigned to degenerate cases (no compute possible at all).
INFEASIBLE_LATENCY = float("inf")


def guard_infeasible(cycles: float) -> float:
    """Collapse NaN cycle counts to :data:`INFEASIBLE_LATENCY`.

    Infeasibility must always propagate as ``inf`` so that comparisons in
    the DP and the plan-selection logic stay well-ordered; a NaN (born of
    ``inf * 0`` or ``inf - inf`` arithmetic anywhere in a cost pipeline)
    would silently poison every ``min``/``max`` it reaches.
    """
    return INFEASIBLE_LATENCY if math.isnan(cycles) else cycles


@dataclass(frozen=True)
class OperatorAllocation:
    """Number of arrays, per mode, assigned to one operator.

    Attributes:
        compute_arrays: ``Com_Oi`` — arrays in compute mode (weight tiles
            plus any duplicated copies).
        memory_arrays: ``Mem_Oi`` — arrays in memory mode acting as the
            operator's input/output buffer.
    """

    compute_arrays: int
    memory_arrays: int

    def __post_init__(self) -> None:
        if self.compute_arrays < 0 or self.memory_arrays < 0:
            raise ValueError("array counts must be non-negative")

    @property
    def total_arrays(self) -> int:
        """Total arrays assigned to the operator."""
        return self.compute_arrays + self.memory_arrays


def guard_infeasible_batch(cycles: np.ndarray) -> np.ndarray:
    """Vectorised :func:`guard_infeasible`: NaN entries become ``inf``."""
    return np.where(np.isnan(cycles), INFEASIBLE_LATENCY, cycles)


def compute_rate_batch(
    required: np.ndarray,
    compute_arrays: np.ndarray,
    hardware: DualModeHardwareAbstraction,
) -> np.ndarray:
    """MACs per cycle the assigned compute arrays sustain (``C`` in Eq. 10).

    ``required`` is the operators' ``min_compute_arrays`` as a column and
    broadcasts against ``compute_arrays``.  With fewer arrays than the
    stationary footprint the operator reloads weight tiles mid-execution;
    throughput degrades by the ratio of resident tiles to total tiles.
    No arrays sustain no rate.
    """
    com = np.asarray(compute_arrays, dtype=np.int64)
    com_f = com.astype(np.float64)
    rate = com_f * hardware.op_cim
    with np.errstate(divide="ignore", invalid="ignore"):
        # required == 0 never satisfies com < required for com >= 0.
        rate = np.where(
            (required > 0) & (com < required),
            rate * (com_f / required.astype(np.float64)),
            rate,
        )
    return np.where(com <= 0, 0.0, rate)


def data_supply_times_batch(
    streamed: np.ndarray,
    input_side: np.ndarray,
    memory_arrays: np.ndarray,
    hardware: DualModeHardwareAbstraction,
) -> Tuple[np.ndarray, np.ndarray]:
    """Off-chip and on-chip data-supply times (cycles) over memory counts.

    ``streamed`` / ``input_side`` are the operators'
    ``streamed_elements`` and ``streamed_input_elements +
    extra_streamed_elements`` as columns.  Up to the native buffer plus
    the memory-mode arrays' capacity of the input side lives on chip and
    is served at the on-chip rate ``D_main + Mem * D_cim``; the remainder
    crosses the off-chip link at ``d_extern``.  Outputs drain through the
    on-chip path — if they must ultimately spill, the inter-segment
    write-back term charges that transfer.  The two transfers overlap
    with each other (and with computation), so the slower one bounds the
    operator — the roofline realisation of Eq. 10's supply term: with no
    memory arrays and a working set far beyond the buffer it degenerates
    to ``OP / (D_main * AI)`` exactly as written in the paper.  Every rate
    is positive (the hardware abstraction rejects a zero bandwidth), so
    moving nothing costs exactly zero.  Returns ``(offchip_times,
    onchip_times)``.
    """
    mem = np.asarray(memory_arrays, dtype=np.int64)
    onchip_capacity = hardware.buffer_elements + mem * hardware.array_capacity_elements
    offchip_elements = np.maximum(0, input_side - onchip_capacity)
    onchip_elements = streamed - offchip_elements
    onchip_rate = hardware.d_main + mem.astype(np.float64) * hardware.d_cim
    return (
        offchip_elements.astype(np.float64) / hardware.d_extern,
        onchip_elements.astype(np.float64) / onchip_rate,
    )


def operator_latency_factors_batch(
    vectors: ProfileVectors,
    compute_arrays: np.ndarray,
    memory_arrays: np.ndarray,
    hardware: DualModeHardwareAbstraction,
) -> Tuple[np.ndarray, np.ndarray]:
    """The two factors of Eq. 10: ``(compute_time, supply_time)``.

    Eq. 10 is separable — the compute time depends only on the compute
    count and the supply time only on the memory count — and the
    operator latency is their element-wise maximum.  A caller that
    walks many ``(compute, memory)`` pairs tabulates the two factors
    once over ``0..num_arrays`` and combines them per step.

    ``vectors`` holds every operator of a compile (built with the
    hardware), so the whole compile is **one** evaluation: with 1-D
    counts of lengths ``C`` and ``M`` the results are ``(N, C)`` and
    ``(N, M)``, row ``k`` being operator ``k``, and ``max(compute_time[k,
    c], supply_time[k, m])`` is Eq. 10's ``L = max(OP / C, T_offchip,
    T_onchip)`` at ``(c, m)``.  ``compute_time`` is
    ``inf`` where no compute is possible and ``0`` for an operator
    without MACs (pure data movement).
    """
    if vectors.min_compute_arrays is None:
        raise ValueError("Eq. 10 needs ProfileVectors built with the hardware")
    macs = vectors.macs[:, None]
    offchip_time, onchip_time = data_supply_times_batch(
        vectors.streamed_elements[:, None],
        vectors.input_side_elements[:, None],
        memory_arrays,
        hardware,
    )
    c_rate = compute_rate_batch(vectors.min_compute_arrays[:, None], compute_arrays, hardware)
    with np.errstate(divide="ignore", invalid="ignore"):
        compute_time = np.where(
            c_rate > 0, macs.astype(np.float64) / c_rate, INFEASIBLE_LATENCY
        )
    return np.where(macs == 0, 0.0, compute_time), np.maximum(offchip_time, onchip_time)


def operator_latency_cycles(
    profile: OperatorProfile,
    allocation: OperatorAllocation,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """Eq. 10 of one operator under one allocation: the one cell of
    :func:`operator_latency_factors_batch` over the profile alone.

    A view for a one-off read (tens of microseconds a call); a caller
    that prices many cells tabulates the factors once and reads them.
    """
    compute_time, supply_time = operator_latency_factors_batch(
        ProfileVectors([profile], hardware),
        np.array([allocation.compute_arrays]),
        np.array([allocation.memory_arrays]),
        hardware,
    )
    return guard_infeasible(float(max(compute_time[0, 0], supply_time[0, 0])))


def pipeline_fill_cycles(
    stages: Sized,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """First-result latency before the intra-segment pipeline is full.

    Operators inside a segment form a dataflow pipeline; before the
    steady state each stage must produce its first tile.  We charge one
    array activation per stage (one item of ``stages`` — the segment's
    profiles, or its operator latencies), a small constant that keeps
    single-operator and multi-operator segments comparable.
    """
    return len(stages) * hardware.compute_latency_cycles


def combine_operator_latencies(
    latencies: Sequence[float],
    hardware: DualModeHardwareAbstraction,
    pipelined: bool = True,
) -> float:
    """``T_intra`` from the per-operator latencies of one segment (Eq. 9).

    Pipelined (the paper's scheduling strategy): the maximum operator
    latency plus the pipeline fill time.  Serial: the latencies add.
    """
    if not latencies:
        return 0.0
    if pipelined:
        return guard_infeasible(max(latencies) + pipeline_fill_cycles(latencies, hardware))
    return guard_infeasible(sum(latencies))
