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

* memory-mode arrays only add bandwidth for data they can actually hold —
  allocating more arrays than the operator's working set occupies adds no
  supply (``useful_mem`` cap);
* an operator given fewer compute arrays than its stationary operand
  requires must time-multiplex weight loads, modelled as a proportional
  slowdown of its compute rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.transforms import ceil_div
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
    d_main_share: float = 1.0,
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
    ``OP / (D_main * AI)`` exactly as written in the paper.
    """
    streamed = profile.streamed_elements
    if streamed <= 0:
        return 0.0, 0.0
    # Inputs that do not fit in on-chip storage (native buffer plus
    # allocated memory-mode arrays) must be fetched across the off-chip
    # link while the operator runs.  Outputs drain through the on-chip path
    # — if they must ultimately spill, the inter-segment write-back term
    # charges that transfer, so it is not double-counted here.
    input_side = profile.streamed_input_elements + profile.extra_streamed_elements
    onchip_capacity = hardware.buffer_elements + memory_arrays * hardware.array_capacity_elements
    offchip_elements = max(0, input_side - onchip_capacity)
    onchip_elements = streamed - offchip_elements
    offchip_rate = hardware.d_extern * d_main_share
    onchip_rate = hardware.d_main * d_main_share + memory_arrays * hardware.d_cim
    # A zero rate only matters when there is data to move: moving nothing
    # takes no time even over a zero-bandwidth link (the rate==0, empty
    # transfer combination must not manufacture an infinity that later
    # turns into inf * 0 = NaN downstream).
    if offchip_elements <= 0:
        offchip_time = 0.0
    else:
        offchip_time = offchip_elements / offchip_rate if offchip_rate > 0 else INFEASIBLE_LATENCY
    if onchip_elements <= 0:
        onchip_time = 0.0
    else:
        onchip_time = onchip_elements / onchip_rate if onchip_rate > 0 else INFEASIBLE_LATENCY
    return offchip_time, onchip_time


def supply_rate(
    profile: OperatorProfile,
    memory_arrays: int,
    hardware: DualModeHardwareAbstraction,
    d_main_share: float = 1.0,
) -> float:
    """MACs per cycle the data supply sustains (``M`` in Eq. 10)."""
    offchip_time, onchip_time = data_supply_times(profile, memory_arrays, hardware, d_main_share)
    supply_time = max(offchip_time, onchip_time)
    if supply_time <= 0:
        return float("inf")
    if math.isinf(supply_time):
        return 0.0  # data can never be supplied; avoid finite/inf -> 0.0 masking a NaN path
    return profile.macs / supply_time if profile.macs else profile.streamed_elements / supply_time


def operator_latency_cycles(
    profile: OperatorProfile,
    allocation: OperatorAllocation,
    hardware: DualModeHardwareAbstraction,
    d_main_share: float = 1.0,
) -> float:
    """Latency (cycles) of one operator under an allocation — Eq. 10.

    ``L = max(OP / C, T_offchip, T_onchip)``: the computation time under
    the allocated compute arrays and the (overlapped) data-supply times,
    whichever is largest.
    """
    offchip_time, onchip_time = data_supply_times(
        profile, allocation.memory_arrays, hardware, d_main_share
    )
    supply_time = max(offchip_time, onchip_time)
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


def _eq10_columns(profiles, hardware: DualModeHardwareAbstraction):
    """The four per-operator inputs of Eq. 10 as broadcastable int64 values.

    ``(macs, streamed, input_side, required)``: for a
    :class:`~repro.cost.arithmetic.ProfileVectors` of ``N`` operators
    each is an ``(N, 1)`` column, so a 1-D vector of array counts
    broadcasts to one row per operator; a single
    :class:`OperatorProfile` is the one-row case with the row axis
    dropped (0-d values), so the result keeps the shape of the counts.
    """
    if isinstance(profiles, ProfileVectors):
        vectors, row = profiles, (slice(None), None)
    else:
        vectors, row = ProfileVectors([profiles], hardware), 0
    if vectors.min_compute_arrays is None:
        raise ValueError("Eq. 10 needs ProfileVectors built with the hardware")
    return (
        vectors.macs[row],
        vectors.streamed_elements[row],
        vectors.input_side_elements[row],
        vectors.min_compute_arrays[row],
    )


def compute_rate_batch(
    required: np.ndarray,
    compute_arrays: np.ndarray,
    hardware: DualModeHardwareAbstraction,
) -> np.ndarray:
    """Vectorised :func:`compute_rate` over compute counts and operators.

    ``required`` is the operators' ``min_compute_arrays`` (a column, or a
    0-d value for one operator) and broadcasts against
    ``compute_arrays``.  Bit-identical to the scalar function for every
    element: the numpy float64 expressions mirror the scalar double
    expressions term by term, so IEEE-754 rounding is the same
    (ratcheted by the parity tests in ``tests/test_vectorized.py``).
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
    d_main_share: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`data_supply_times` over memory counts and operators.

    ``streamed`` / ``input_side`` are the operators'
    ``streamed_elements`` and ``streamed_input_elements +
    extra_streamed_elements`` (columns, or 0-d values for one operator).
    Returns ``(offchip_times, onchip_times)`` with the same zero-element
    and zero-rate guards as the scalar path (moving nothing is free even
    over a zero-bandwidth link; moving something over one is ``inf``).
    """
    mem = np.asarray(memory_arrays, dtype=np.int64)
    onchip_capacity = hardware.buffer_elements + mem * hardware.array_capacity_elements
    offchip_elements = np.maximum(0, input_side - onchip_capacity)
    onchip_elements = streamed - offchip_elements
    offchip_rate = hardware.d_extern * d_main_share
    onchip_rate = hardware.d_main * d_main_share + mem.astype(np.float64) * hardware.d_cim
    with np.errstate(divide="ignore", invalid="ignore"):
        if offchip_rate > 0:
            offchip_time = offchip_elements.astype(np.float64) / offchip_rate
        else:
            offchip_time = np.full(offchip_elements.shape, INFEASIBLE_LATENCY)
        offchip_time = np.where(offchip_elements <= 0, 0.0, offchip_time)
        onchip_time = np.where(
            onchip_elements <= 0,
            0.0,
            np.where(
                onchip_rate > 0,
                onchip_elements.astype(np.float64) / onchip_rate,
                INFEASIBLE_LATENCY,
            ),
        )
    # An operator that streams nothing takes no supply time at all.
    idle = streamed <= 0
    return np.where(idle, 0.0, offchip_time), np.where(idle, 0.0, onchip_time)


def operator_latency_factors_batch(
    profiles,
    compute_arrays: np.ndarray,
    memory_arrays: np.ndarray,
    hardware: DualModeHardwareAbstraction,
    d_main_share: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """The two factors of Eq. 10: ``(compute_time, supply_time)``.

    Eq. 10 is separable — the compute time depends only on the compute
    count and the supply time only on the memory count — and the
    operator latency is their element-wise maximum.  A caller that
    walks many ``(compute, memory)`` pairs tabulates the two factors
    once over ``0..num_arrays`` and combines them per step.

    ``profiles`` is either a :class:`~repro.cost.arithmetic
    .ProfileVectors` — every operator of a compile in **one**
    evaluation: with 1-D counts of lengths ``C`` and ``M`` the results
    are ``(N, C)`` and ``(N, M)``, row ``k`` being operator ``k`` — or a
    single :class:`OperatorProfile`, which is the one-row case of the
    same expressions (the results then have the shapes of the counts,
    which may be any broadcastable grid).  Row ``k`` of the batched
    tables equals the one-profile evaluation and the scalar
    :func:`operator_latency_cycles` bit for bit.  ``compute_time`` is
    ``inf`` where no compute is possible and ``0`` for an operator
    without MACs (pure data movement).
    """
    macs, streamed, input_side, required = _eq10_columns(profiles, hardware)
    offchip_time, onchip_time = data_supply_times_batch(
        streamed, input_side, memory_arrays, hardware, d_main_share
    )
    supply_time = np.maximum(offchip_time, onchip_time)
    c_rate = compute_rate_batch(required, compute_arrays, hardware)
    with np.errstate(divide="ignore", invalid="ignore"):
        compute_time = np.where(
            c_rate > 0, macs.astype(np.float64) / c_rate, INFEASIBLE_LATENCY
        )
    return np.where(macs == 0, 0.0, compute_time), supply_time


def operator_latency_cycles_batch(
    profile: OperatorProfile,
    compute_arrays: np.ndarray,
    memory_arrays: np.ndarray,
    hardware: DualModeHardwareAbstraction,
    d_main_share: float = 1.0,
) -> np.ndarray:
    """Vectorised Eq. 10 over a grid of (compute, memory) allocations.

    ``compute_arrays`` and ``memory_arrays`` broadcast against each other
    (pass a column and a row to evaluate a full grid in one call).
    Every element equals the scalar :func:`operator_latency_cycles` for
    the same pair exactly — the allocators read the same factors as
    tables (:func:`operator_latency_factors_batch`) and rely on that to
    keep compiled programs independent of which of the two evaluated
    them.
    """
    compute_time, supply_time = operator_latency_factors_batch(
        profile, compute_arrays, memory_arrays, hardware, d_main_share
    )
    return guard_infeasible_batch(np.maximum(compute_time, supply_time))


def operator_bound(
    profile: OperatorProfile,
    allocation: OperatorAllocation,
    hardware: DualModeHardwareAbstraction,
    d_main_share: float = 1.0,
) -> str:
    """Which resource bounds the operator: ``"compute"`` or ``"memory"``."""
    offchip_time, onchip_time = data_supply_times(
        profile, allocation.memory_arrays, hardware, d_main_share
    )
    supply_time = max(offchip_time, onchip_time)
    c_rate = compute_rate(profile, allocation.compute_arrays, hardware)
    compute_time = profile.macs / c_rate if c_rate > 0 else INFEASIBLE_LATENCY
    return "compute" if compute_time >= supply_time else "memory"


def pipeline_fill_cycles(
    stages: Iterable[object],
    hardware: DualModeHardwareAbstraction,
) -> float:
    """First-result latency before the intra-segment pipeline is full.

    Operators inside a segment form a dataflow pipeline; before the
    steady state each stage must produce its first tile.  We charge one
    array activation per stage (one item of ``stages`` — the segment's
    profiles, or its operator latencies), a small constant that keeps
    single-operator and multi-operator segments comparable.
    """
    return sum(1 for _ in stages) * hardware.compute_latency_cycles


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
    d_main_share: float = 1.0,
) -> float:
    """Intra-segment latency ``T_intra`` under a resource allocation.

    Args:
        profiles: Profiles of the segment's operators.
        allocations: Allocation for every operator in ``profiles``.
        hardware: Target hardware abstraction.
        pipelined: See :func:`combine_operator_latencies`.
        d_main_share: Fraction of the main-memory bandwidth available to
            each operator (1.0 reproduces the paper's model).

    Raises:
        KeyError: If an operator has no allocation entry.
    """
    latencies = [
        operator_latency_cycles(profile, allocations[name], hardware, d_main_share)
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
