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

* the supply term is a roofline split (:func:`data_supply_times`): the
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Sized, Tuple

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


def compute_rate(
    profile: OperatorProfile,
    compute_arrays: int,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """MACs per cycle the assigned compute arrays sustain (``C`` in Eq. 10).

    When fewer arrays than the stationary footprint are assigned the
    operator must reload weight tiles mid-execution; throughput degrades by
    the ratio of resident tiles to total tiles.
    """
    if compute_arrays <= 0:
        return 0.0
    rate = compute_arrays * hardware.op_cim
    required = profile.min_compute_arrays(hardware)
    if required > 0 and compute_arrays < required:
        rate *= compute_arrays / required
    return rate


def data_supply_times(
    profile: OperatorProfile,
    memory_arrays: int,
    hardware: DualModeHardwareAbstraction,
) -> Tuple[float, float]:
    """Off-chip and on-chip data-supply times (cycles) for one operator.

    The operator must move ``streamed_elements`` dynamic values.  Up to the
    native buffer plus the allocated memory-mode arrays' capacity of that
    working set lives on chip and is served at the on-chip rate
    ``D_main + Mem * D_cim``; the remainder crosses the off-chip link at
    ``d_extern``.  The two transfers overlap with each other (and with
    computation), so the slower one bounds the operator — this is the
    roofline realisation of Eq. 10's supply term: with no memory arrays and
    a working set far beyond the buffer it degenerates to
    ``OP / (D_main * AI)`` exactly as written in the paper.  Every rate is
    positive (the hardware abstraction rejects a zero bandwidth), so moving
    nothing costs exactly zero.
    """
    # Inputs that do not fit in on-chip storage (native buffer plus
    # allocated memory-mode arrays) must be fetched across the off-chip
    # link while the operator runs.  Outputs drain through the on-chip path
    # — if they must ultimately spill, the inter-segment write-back term
    # charges that transfer, so it is not double-counted here.
    input_side = profile.streamed_input_elements + profile.extra_streamed_elements
    onchip_capacity = hardware.buffer_elements + memory_arrays * hardware.array_capacity_elements
    offchip_elements = max(0, input_side - onchip_capacity)
    onchip_elements = profile.streamed_elements - offchip_elements
    onchip_rate = hardware.d_main + memory_arrays * hardware.d_cim
    return offchip_elements / hardware.d_extern, onchip_elements / onchip_rate


def operator_latency_cycles(
    profile: OperatorProfile,
    allocation: OperatorAllocation,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """Latency (cycles) of one operator under an allocation — Eq. 10.

    ``L = max(OP / C, T_offchip, T_onchip)``: the computation time under
    the allocated compute arrays and the (overlapped) data-supply times,
    whichever is largest.
    """
    supply_time = max(data_supply_times(profile, allocation.memory_arrays, hardware))
    if profile.macs == 0:
        return guard_infeasible(supply_time)
    c_rate = compute_rate(profile, allocation.compute_arrays, hardware)
    if c_rate <= 0:
        return INFEASIBLE_LATENCY
    compute_time = profile.macs / c_rate
    return guard_infeasible(max(compute_time, supply_time))


def guard_infeasible_batch(cycles: np.ndarray) -> np.ndarray:
    """Vectorised :func:`guard_infeasible`: NaN entries become ``inf``."""
    return np.where(np.isnan(cycles), INFEASIBLE_LATENCY, cycles)


def compute_rate_batch(
    required: np.ndarray,
    compute_arrays: np.ndarray,
    hardware: DualModeHardwareAbstraction,
) -> np.ndarray:
    """Vectorised :func:`compute_rate` over compute counts and operators.

    ``required`` is the operators' ``min_compute_arrays`` as a column and
    broadcasts against ``compute_arrays``.  Bit-identical to the scalar
    function for every element: the numpy float64 expressions mirror the
    scalar double expressions term by term, so IEEE-754 rounding is the
    same (ratcheted by the parity tests in ``tests/test_vectorized.py``).
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
    """Vectorised :func:`data_supply_times` over memory counts and operators.

    ``streamed`` / ``input_side`` are the operators'
    ``streamed_elements`` and ``streamed_input_elements +
    extra_streamed_elements`` as columns.  Returns ``(offchip_times,
    onchip_times)``, each element equal to the scalar function's.
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
    c], supply_time[k, m])`` equals the scalar
    :func:`operator_latency_cycles` bit for bit.  ``compute_time`` is
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


def segment_latency_cycles(
    profiles: Mapping[str, OperatorProfile],
    allocations: Mapping[str, OperatorAllocation],
    hardware: DualModeHardwareAbstraction,
    pipelined: bool = True,
) -> float:
    """Intra-segment latency ``T_intra`` under a resource allocation.

    Args:
        profiles: Profiles of the segment's operators.
        allocations: Allocation for every operator in ``profiles``.
        hardware: Target hardware abstraction.
        pipelined: See :func:`combine_operator_latencies`.

    Raises:
        KeyError: If an operator has no allocation entry.
    """
    latencies = [
        operator_latency_cycles(profile, allocations[name], hardware)
        for name, profile in profiles.items()
    ]
    return combine_operator_latencies(latencies, hardware, pipelined)


def minimum_latency_all_compute(
    profile: OperatorProfile,
    total_arrays: int,
    hardware: DualModeHardwareAbstraction,
) -> float:
    """Best achievable latency when every array is in compute mode.

    Used by the baselines and by the mode-ratio sweep (Fig. 1(b) / Fig. 5):
    the operator receives all arrays as compute resources (weight
    duplication) and data is supplied from main memory only.
    """
    allocation = OperatorAllocation(compute_arrays=total_arrays, memory_arrays=0)
    return operator_latency_cycles(profile, allocation, hardware)


def best_split_latency(
    profile: OperatorProfile,
    total_arrays: int,
    hardware: DualModeHardwareAbstraction,
) -> Tuple[float, OperatorAllocation]:
    """Best latency and allocation for a single operator given a budget.

    Sweeps the compute/memory split of ``total_arrays`` arrays.  Used by
    the motivation sweeps and as a reference point for the MIP allocator.
    """
    best = (INFEASIBLE_LATENCY, OperatorAllocation(0, 0))
    min_compute = min(profile.min_compute_arrays(hardware), total_arrays)
    for compute_arrays in range(max(min_compute, 1), total_arrays + 1):
        memory_arrays = total_arrays - compute_arrays
        allocation = OperatorAllocation(compute_arrays, memory_arrays)
        latency = operator_latency_cycles(profile, allocation, hardware)
        if latency < best[0]:
            best = (latency, allocation)
    return best
