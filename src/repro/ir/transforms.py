"""Graph-level transforms used by the compilation front end.

Two transforms matter to the dual-mode compiler:

* :func:`partition_operator` — splits a CIM-mappable operator whose
  stationary matrix does not fit on the chip into shards, (K, N) ranges
  of it that do (the greedy partitioning step described in §4.3.1 of the
  paper); :func:`shard_operator` builds the operator of one range.
* :func:`tile_counts` — the basic tiling
  arithmetic shared by the compiler and the baselines: how many
  ``array_size_h x array_size_w`` arrays a ``K x N`` matrix occupies.

Both operate purely on metadata.  No simulator slices tensors per shard:
the functional simulator maps a ``::partK`` name back to its parent and
checks the parent whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .graph import Graph
from .operators import Linear, MatMul, MatmulDims, Operator
from .tensor import TensorSpec


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    return -(-a // b)


def tile_counts(dims: MatmulDims, array_rows: int, array_cols: int) -> Tuple[int, int]:
    """Number of array tiles along K (rows) and N (columns).

    The stationary ``K x N`` matrix is cut into ``ceil(K/rows) x
    ceil(N/cols)`` tiles, each mapped onto one CIM array.
    """
    return ceil_div(dims.k, array_rows), ceil_div(dims.n, array_cols)


@dataclass(frozen=True)
class Shard:
    """One shard of a partitioned operator: a (K, N) range of its parent.

    Attributes:
        name: ``parent::partK``, or the parent's own name when it fits whole.
        parent: Name of the original operator.
        index: Shard index within the parent (execution order).
        k_range: Half-open slice of the K (reduction) dimension.  A shard
            whose range is a proper part of K produces partial sums.
        n_range: Half-open slice of the N (output column) dimension.
    """

    name: str
    parent: str
    index: int
    k_range: Tuple[int, int]
    n_range: Tuple[int, int]


def partition_operator(
    op: Operator,
    max_stationary_elements: int,
    array_rows: int,
    array_cols: int,
) -> List[Shard]:
    """Greedily split an operator so every shard's stationary matrix fits.

    The paper partitions operators "with the partition granularity
    determined by the available on-chip resources" so that "each resulting
    sub-operator can be fully mapped onto the chip".  We split the
    stationary ``K x N`` matrix first along N (output columns, which
    produces independent shards) and then along K (reduction, which
    produces partial-sum shards), always in multiples of the array tile
    size so no array is fragmented.

    Args:
        op: A CIM-mappable operator.
        max_stationary_elements: Capacity budget (elements) for one shard's
            stationary matrix — typically ``available_arrays * rows * cols``.
        array_rows: CIM array row count.
        array_cols: CIM array column count.

    Returns:
        The shards' ranges in execution order; :func:`shard_operator`
        builds the operator of one.  If the operator already fits, a
        single range covering it, named after it, is returned.

    Raises:
        ValueError: If the operator is not CIM-mappable or the budget is
            smaller than a single array tile.
    """
    if not op.is_cim_mappable:
        raise ValueError(f"cannot partition non-mappable operator {op.name!r}")
    if max_stationary_elements < array_rows * array_cols:
        raise ValueError(
            "partition budget smaller than a single CIM array "
            f"({max_stationary_elements} < {array_rows * array_cols})"
        )
    dims = op.matmul_dims()
    if dims.stationary_elements <= max_stationary_elements:
        return [Shard(op.name, op.name, 0, (0, dims.k), (0, dims.n))]

    # How many whole array tiles fit in the budget.
    budget_tiles = max(1, max_stationary_elements // (array_rows * array_cols))
    tiles_k, tiles_n = tile_counts(dims, array_rows, array_cols)

    # Prefer splitting along N: shards own disjoint output columns.
    tiles_n_per_shard = min(tiles_n, budget_tiles)
    tiles_k_per_shard = max(1, min(tiles_k, budget_tiles // tiles_n_per_shard))

    n_per_shard = min(dims.n, tiles_n_per_shard * array_cols)
    k_per_shard = min(dims.k, tiles_k_per_shard * array_rows)

    shards: List[Shard] = []
    for n_lo in range(0, dims.n, n_per_shard):
        n_range = (n_lo, min(dims.n, n_lo + n_per_shard))
        for k_lo in range(0, dims.k, k_per_shard):
            k_range = (k_lo, min(dims.k, k_lo + k_per_shard))
            index = len(shards)
            shards.append(Shard(f"{op.name}::part{index}", op.name, index, k_range, n_range))
    return shards


def shard_operator(op: Operator, shard: Shard) -> Operator:
    """Build the operator covering ``shard``'s (K, N) range of ``op``.

    Shards are expressed as generic matmul-like operators so downstream
    stages treat them uniformly; the shard keeps the parent's M and its
    static/dynamic weight nature.
    """
    m = op.matmul_dims().m
    sub_k = shard.k_range[1] - shard.k_range[0]
    sub_n = shard.n_range[1] - shard.n_range[0]
    dtype = op.outputs[0].dtype
    name = shard.name
    lhs = TensorSpec(f"{name}_in", (m, sub_k), dtype=dtype)
    out = TensorSpec(f"{name}_out", (m, sub_n), dtype=dtype)
    if op.has_static_weight:
        weight = TensorSpec(f"{name}_w", (sub_k, sub_n), dtype=dtype)
        return Linear(name, input=lhs, output=out, weight=weight, bias=False)
    rhs = TensorSpec(f"{name}_rhs", (sub_k, sub_n), dtype=dtype)
    return MatMul(name, lhs=lhs, rhs=rhs, output=out)


#: Auxiliary operator types that are fused into the neighbouring MVM/MMM by
#: every compiler under comparison (computed on the peripheral function
#: units as data streams past) and therefore add no extra memory traffic.
FUSEABLE_OP_TYPES = {"activation", "elementwise", "normalization"}


def fuse_auxiliary_traffic(graph: Graph) -> dict:
    """Attribute auxiliary-operator traffic to neighbouring mappable ops.

    Softmax, pooling, concatenation and embedding operators run on the
    peripheral function units while their activations still occupy buffer
    space and bandwidth; their output traffic is folded into the next
    CIM-mappable operator downstream (or the previous one upstream if they
    have no mappable successor).  Purely element-wise operators
    (activations, normalisation, residual adds) are fused into the
    producing MVM/MMM and add no traffic — the standard operator-fusion
    assumption shared by CMSwitch and all baselines.

    Returns:
        Mapping of mappable-operator name to extra streamed elements.
    """
    extra: dict = {op.name: 0 for op in graph.cim_operators()}
    order = graph.topological_order()
    mappable_names = set(extra)
    for op in order:
        if op.is_cim_mappable or op.is_view or op.op_type in FUSEABLE_OP_TYPES:
            continue
        target = _nearest_mappable(graph, op, mappable_names, forward=True)
        if target is None:
            target = _nearest_mappable(graph, op, mappable_names, forward=False)
        if target is not None:
            extra[target] += op.output_elements
    return extra


def _nearest_mappable(graph: Graph, op: Operator, names: set, forward: bool) -> Optional[str]:
    """Breadth-first search for the nearest CIM-mappable neighbour."""
    frontier = graph.successors(op) if forward else graph.predecessors(op)
    visited = {op.name}
    while frontier:
        next_frontier = []
        for candidate in frontier:
            if candidate.name in visited:
                continue
            visited.add(candidate.name)
            if candidate.name in names:
                return candidate.name
            next_frontier.extend(
                graph.successors(candidate) if forward else graph.predecessors(candidate)
            )
        frontier = next_frontier
    return None
