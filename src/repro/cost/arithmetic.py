"""Per-operator cost profiles (MACs, data volumes, arithmetic intensity).

The dual-mode allocation problem (Table 1 of the paper) is driven by a
small number of per-operator constants: the computation amount ``OP_Oi``,
the arithmetic intensity ``AI_Oi``, the input/output data volumes and the
footprint of the stationary operand in compute-mode arrays.  This module
extracts those constants from IR operators into
:class:`OperatorProfile` objects consumed by the latency model, the MIP
allocator and the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from ..ir.operators import Operator
from ..ir.transforms import arrays_for_stationary, ceil_div, fuse_auxiliary_traffic


@dataclass(frozen=True)
class OperatorProfile:
    """Cost-model view of one CIM-mappable operator.

    Attributes:
        name: Operator name.
        op_type: Operator type string (``"linear"``, ``"conv2d"``, ...).
        macs: ``OP_Oi`` — multiply-accumulate count.
        flops: 2x the MAC count.
        input_elements: Activation input elements.
        output_elements: Output elements.
        weight_elements: Static weight elements (0 for dynamic products).
        stationary_elements: Elements of the operand mapped onto compute
            arrays (weights for Linear/Conv, the dynamic right-hand side
            for attention products).
        streamed_input_elements: Dynamic elements that must be supplied at
            run time (activations, plus the dynamic stationary operand).
        extra_streamed_elements: Traffic of neighbouring auxiliary
            operators (softmax, norms, elementwise) folded into this
            operator by :func:`profile_graph`.
        has_static_weight: Whether the stationary operand is pre-trained
            weights (affecting the weight-reload cost, Eq. 2).
        matmul_m: Streamed rows of the equivalent matrix product.
        matmul_k: Reduction dimension.
        matmul_n: Output columns.
    """

    name: str
    op_type: str
    macs: int
    flops: int
    input_elements: int
    output_elements: int
    weight_elements: int
    stationary_elements: int
    streamed_input_elements: int
    extra_streamed_elements: int
    has_static_weight: bool
    matmul_m: int
    matmul_k: int
    matmul_n: int

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def streamed_elements(self) -> int:
        """All dynamic data moved while the operator executes."""
        return self.streamed_input_elements + self.output_elements + self.extra_streamed_elements

    @property
    def working_set_elements(self) -> int:
        """Dynamic data that benefits from residing in memory-mode arrays."""
        return self.streamed_elements

    @property
    def effective_arithmetic_intensity(self) -> float:
        """``AI_Oi`` used by Eq. 10: MACs per dynamic element moved."""
        if self.streamed_elements == 0:
            return float(self.macs) if self.macs else 0.0
        return self.macs / self.streamed_elements

    @property
    def model_arithmetic_intensity(self) -> float:
        """FLOPs per element moved counting weights (Fig. 5(c) metric)."""
        moved = self.streamed_elements + self.weight_elements
        if moved == 0:
            return 0.0
        return self.flops / moved

    def min_compute_arrays(self, hardware: DualModeHardwareAbstraction) -> int:
        """Fewest compute-mode arrays that hold the stationary operand."""
        if self.stationary_elements == 0:
            return 0
        capacity = hardware.array_capacity_elements
        return ceil_div(self.stationary_elements, capacity)

    def memory_arrays_for_working_set(self, hardware: DualModeHardwareAbstraction) -> int:
        """Memory-mode arrays that fully buffer the dynamic working set."""
        if self.working_set_elements == 0:
            return 0
        return ceil_div(self.working_set_elements, hardware.array_capacity_elements)


def profile_operator(op: Operator, extra_streamed_elements: int = 0) -> OperatorProfile:
    """Build the cost profile of a single CIM-mappable operator.

    Args:
        op: A CIM-mappable operator.
        extra_streamed_elements: Auxiliary traffic attributed to this
            operator (see :func:`repro.ir.transforms.fuse_auxiliary_traffic`).

    Raises:
        ValueError: If the operator is not CIM-mappable.
    """
    if not op.is_cim_mappable:
        raise ValueError(f"operator {op.name!r} ({op.op_type}) is not CIM-mappable")
    dims = op.matmul_dims()
    stationary = getattr(op, "stationary_elements", dims.stationary_elements)
    return OperatorProfile(
        name=op.name,
        op_type=op.op_type,
        macs=op.macs,
        flops=op.flops,
        input_elements=op.input_elements,
        output_elements=op.output_elements,
        weight_elements=op.weight_elements,
        stationary_elements=stationary,
        streamed_input_elements=op.streamed_input_elements,
        extra_streamed_elements=int(extra_streamed_elements),
        has_static_weight=op.has_static_weight,
        matmul_m=dims.m,
        matmul_k=dims.k,
        matmul_n=dims.n,
    )


def profile_graph(graph: Graph) -> Dict[str, OperatorProfile]:
    """Profile every CIM-mappable operator of a graph.

    Auxiliary-operator traffic (softmax, normalisation, elementwise) is
    folded into the nearest mappable operator so that no data movement the
    chip must perform is lost even though only mappable operators are
    scheduled onto arrays.

    Returns:
        Mapping of operator name to profile, in topological order.
    """
    extra = fuse_auxiliary_traffic(graph)
    profiles: Dict[str, OperatorProfile] = {}
    for op in graph.cim_operators():
        profiles[op.name] = profile_operator(op, extra.get(op.name, 0))
    return profiles


def profile_signature(profile: OperatorProfile) -> Tuple:
    """Structural identity of one operator profile (the name excluded).

    Two operators with the same signature receive identical allocations
    from every engine, so the allocation cache may share their solutions
    (it keys a window on the ordered signatures of its operators).
    """
    return (
        profile.op_type,
        profile.macs,
        profile.input_elements,
        profile.output_elements,
        profile.weight_elements,
        profile.stationary_elements,
        profile.streamed_input_elements,
        profile.extra_streamed_elements,
        profile.has_static_weight,
        profile.matmul_m,
        profile.matmul_k,
        profile.matmul_n,
    )


class ProfileVectors:
    """Struct-of-arrays view of an ordered operator-profile sequence.

    Everything a window solve or a DP edge needs to know about *one*
    operator — the Eq. 10 inputs, the compute floor, the static-weight
    footprint, the structural signature the allocation cache keys on —
    is a fact about the operator, not about the window.  This view
    extracts those facts once, by position, so a window ``[start, end]``
    is an index range into columns instead of a walk over profile
    objects: int64 arrays feed the batched Eq. 10 evaluation
    (:func:`~repro.cost.latency.operator_latency_factors_batch`), plain
    ``int`` / ``bool`` lists and prefix sums feed the per-window reads of
    the DP (a Python-level read of a list is several times cheaper than
    one of a numpy scalar).

    All aggregates are integer arithmetic, so they equal the scalar
    object-walking results exactly.

    Args:
        profiles: Operator profiles in schedule order.
        hardware: Optional target; when given, per-operator stationary
            footprints (``min_compute_arrays``), compute floors
            (``max(1, min_compute_arrays)``) and their prefix sums are
            precomputed for O(1) window feasibility.
    """

    def __init__(
        self,
        profiles: Sequence[OperatorProfile],
        hardware: Optional[DualModeHardwareAbstraction] = None,
    ) -> None:
        profiles = list(profiles)
        self.profiles: Tuple[OperatorProfile, ...] = tuple(profiles)
        self.names: Tuple[str, ...] = tuple(p.name for p in profiles)
        self.signatures: Tuple[Tuple, ...] = tuple(profile_signature(p) for p in profiles)
        as_array = lambda values: np.array(list(values), dtype=np.int64)  # noqa: E731
        self.macs = as_array(p.macs for p in profiles)
        self.output_elements = as_array(p.output_elements for p in profiles)
        self.weight_elements = as_array(p.weight_elements for p in profiles)
        self.stationary_elements = as_array(p.stationary_elements for p in profiles)
        # The two data volumes Eq. 10's supply term reads.
        self.streamed_elements = as_array(p.streamed_elements for p in profiles)
        self.input_side_elements = as_array(
            p.streamed_input_elements + p.extra_streamed_elements for p in profiles
        )
        self.has_static_weight: List[bool] = [p.has_static_weight for p in profiles]
        static_weights = np.where(self.has_static_weight, self.weight_elements, 0)
        self._static_weight_prefix: List[int] = [0] + np.cumsum(static_weights).tolist()
        self.min_compute_arrays: Optional[np.ndarray] = None
        self.floors: Optional[np.ndarray] = None
        self.required_arrays: Optional[List[int]] = None
        self.floor_prefix: Optional[List[int]] = None
        if hardware is not None:
            capacity = hardware.array_capacity_elements
            # ceil_div in int64; stationary == 0 yields 0, floored to 1.
            self.min_compute_arrays = -(-self.stationary_elements // capacity)
            self.floors = np.maximum(1, self.min_compute_arrays)
            self.required_arrays = self.min_compute_arrays.tolist()
            self.floor_prefix = [0] + np.cumsum(self.floors).tolist()

    def __len__(self) -> int:
        return len(self.profiles)

    def window_static_weight_elements(self, start: int, end: int) -> int:
        """Static weight elements of operators ``start..end`` inclusive."""
        return self._static_weight_prefix[end + 1] - self._static_weight_prefix[start]

    def window_minimum_compute_arrays(self, start: int, end: int) -> int:
        """Fewest compute arrays the window ``start..end`` (inclusive) needs.

        Equals ``FeasibilityModel.minimum_compute_arrays`` over the same
        profiles (requires construction with ``hardware``).
        """
        if self.floor_prefix is None:
            raise ValueError("ProfileVectors built without hardware has no floors")
        return self.floor_prefix[end + 1] - self.floor_prefix[start]


def total_macs(profiles: Iterable[OperatorProfile]) -> int:
    """Sum of MAC counts over profiles."""
    return sum(profile.macs for profile in profiles)


def total_weight_elements(profiles: Iterable[OperatorProfile]) -> int:
    """Sum of static weight elements over profiles."""
    return sum(profile.weight_elements for profile in profiles)


def mean_arithmetic_intensity(profiles: Iterable[OperatorProfile]) -> float:
    """MAC-weighted mean of the model-level arithmetic intensity."""
    profiles = list(profiles)
    flops = sum(p.flops for p in profiles)
    moved = sum(p.streamed_elements + p.weight_elements for p in profiles)
    if moved == 0:
        return 0.0
    return flops / moved
