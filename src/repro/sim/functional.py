"""Functional simulator: array-granular execution of compiled programs.

The paper verifies its compilation results by executing the generated
meta-operator flows on a functional simulator and comparing against the
PyTorch framework.  This module does the same with numpy as the reference:

* every CIM-mappable operator of the compiled graph is executed *at array
  granularity* — its stationary operand is tiled into ``rows x cols`` CIM
  arrays exactly as the mapping prescribes, every array performs its own
  partial MVM, and partial sums are accumulated along the K dimension;
* the result is compared against the dense numpy reference
  (:mod:`repro.sim.reference`) in one streaming pass: the reference walk
  executes the graph once, and each mapped operator is checked the moment
  the walk produces it, with the weight the walk drew for its kernel.  The
  weight and every activation no later operator reads are then dropped,
  so the pass holds one weight and the live activations at a time;
* the program's meta-operator flow, when it has one, is walked by the one
  flow interpreter (:class:`~repro.sim.timing.TimingSimulator`), which
  checks every array claim against the chip state and counts the mode
  switches; an illegal claim is a :class:`~repro.sim.timing.FlowError`,
  itself a :class:`FunctionalSimulationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.program import CompiledProgram
from ..hardware.deha import DualModeHardwareAbstraction
from ..ir.graph import Graph
from ..ir.operators import Operator
from .reference import ReferenceExecutor, _im2col
from .timing import FunctionalSimulationError, TimingSimulator

#: Maximum absolute error accepted per operator.
TOLERANCE = 1e-3


@dataclass
class OperatorCheck:
    """Comparison result for one CIM-mappable operator.

    Attributes:
        operator: Operator name.
        max_abs_error: Maximum absolute difference between the array-level
            result and the dense reference.
        arrays_used: Number of array tiles the stationary operand occupied.
        matched: Whether the result matches within tolerance.
    """

    operator: str
    max_abs_error: float
    arrays_used: int
    matched: bool


@dataclass
class FunctionalReport:
    """Aggregate result of a functional simulation run."""

    graph_name: str
    checks: List[OperatorCheck] = field(default_factory=list)
    switch_events: int = 0
    mode_switch_cycles: float = 0.0

    @property
    def all_matched(self) -> bool:
        """Whether every checked operator matched the reference."""
        return all(check.matched for check in self.checks)

    @property
    def max_abs_error(self) -> float:
        """Worst-case absolute error across all operators."""
        return max((check.max_abs_error for check in self.checks), default=0.0)

    def summary(self) -> str:
        """One-line summary for logs and examples."""
        status = "PASS" if self.all_matched else "FAIL"
        return (
            f"[{status}] {self.graph_name}: {len(self.checks)} operators checked, "
            f"max |err| = {self.max_abs_error:.3e}, "
            f"{self.switch_events} mode-switch events"
        )


def execute_tiled_matmul(
    streamed: np.ndarray,
    stationary: np.ndarray,
    array_rows: int,
    array_cols: int,
) -> Tuple[np.ndarray, int]:
    """Execute ``streamed @ stationary`` through per-array tile products.

    The stationary ``K x N`` matrix is cut into ``rows x cols`` tiles; each
    tile is a CIM array performing an MVM on its slice of the streamed
    operand; partial results accumulate over K tiles and concatenate over
    N tiles — the in-array MAC / bit-line accumulation of §2.1.2.

    Returns:
        The product and the number of array tiles used.
    """
    k, n = stationary.shape
    result = np.zeros((streamed.shape[0], n), dtype=np.float64)
    tiles = 0
    for k_lo in range(0, k, array_rows):
        k_hi = min(k, k_lo + array_rows)
        band = streamed[:, k_lo:k_hi].astype(np.float64)
        for n_lo in range(0, n, array_cols):
            n_hi = min(n, n_lo + array_cols)
            tiles += 1
            result[:, n_lo:n_hi] += band @ stationary[k_lo:k_hi, n_lo:n_hi].astype(np.float64)
    return result.astype(np.float32), tiles


class FunctionalSimulator:
    """Executes a compiled program functionally and checks it.

    Args:
        hardware: Hardware abstraction (array geometry, switch latencies).
    """

    def __init__(self, hardware: DualModeHardwareAbstraction) -> None:
        self.hardware = hardware
        self.reference = ReferenceExecutor()

    # ------------------------------------------------------------------ #
    # program-level simulation
    # ------------------------------------------------------------------ #
    def run(self, program: CompiledProgram, graph: Graph) -> FunctionalReport:
        """Execute the compiled program against its source graph.

        The dense reference execution provides every operator's input
        tensors; each CIM-mappable operator is then re-executed at array
        granularity and compared, once per parent however many shards it
        was partitioned into.  Checks are listed in the order the parents
        first appear in the program's segments.  The meta-operator flow
        (when present) is walked by :class:`TimingSimulator`, which checks
        every array claim; a program without a flow is checked
        numerically only.

        Raises:
            FunctionalSimulationError: If the program references operators
                missing from the graph.
            FlowError: If the program carries its flow as text only, or its
                flow makes an illegal array claim (naming the segment, the
                meta-operator and the array).
        """
        report = FunctionalReport(graph_name=graph.name)
        if program.meta_program is not None:
            timing = TimingSimulator(self.hardware).run(program)
            report.switch_events = timing.switch_events
            report.mode_switch_cycles = timing.breakdown.mode_switch

        operators = {op.name: op for op in graph.operators}
        slots: Dict[str, int] = {}
        for segment in program.segments:
            for name in segment.operator_names:
                source_name = self._source_operator_name(name)
                if source_name not in operators:
                    raise FunctionalSimulationError(
                        f"compiled operator {name!r} has no source operator in graph"
                    )
                if operators[source_name].is_cim_mappable:
                    slots.setdefault(source_name, len(slots))

        checks: List[Optional[OperatorCheck]] = [None] * len(slots)
        values: Dict[str, np.ndarray] = {}

        def visit(op: Operator, weight: Optional[np.ndarray]) -> None:
            slot = slots.get(op.name)
            if slot is not None:
                checks[slot] = self._check_operator(op, values, weight)

        self.reference.walk(graph, values, visit=visit, release=True)
        report.checks = checks
        return report

    @staticmethod
    def _source_operator_name(name: str) -> str:
        """Map a partitioned shard name back to its parent operator."""
        return name.split("::", 1)[0]

    # ------------------------------------------------------------------ #
    # operator-level check
    # ------------------------------------------------------------------ #
    def _check_operator(
        self, op: Operator, values: Dict[str, np.ndarray], weight: Optional[np.ndarray]
    ) -> OperatorCheck:
        """Run one CIM-mappable operator through the tiled path, one matmul
        per batch element; ``weight`` is its drawn weight (None for an
        activation product)."""
        reference = values[op.outputs[0].name]
        if op.op_type == "conv2d":
            streamed, stationary, reference = self._conv_as_matmul(op, values, weight)
        elif op.has_static_weight:
            dims = op.matmul_dims()
            streamed = values[op.inputs[0].name].reshape(1, -1, dims.k)
            stationary = weight.reshape(1, dims.k, dims.n)
        else:
            # An activation product (attention) is batched over its leading dims.
            lhs, rhs = (values[tensor.name] for tensor in op.inputs[:2])
            streamed = lhs.reshape(-1, *lhs.shape[-2:])
            stationary = rhs.reshape(-1, *rhs.shape[-2:])
        products = [
            execute_tiled_matmul(left, right, self.hardware.array_rows, self.hardware.array_cols)
            for left, right in zip(streamed, stationary)
        ]
        result = np.stack([product for product, _ in products])
        tiles = sum(count for _, count in products)
        difference = result - reference.reshape(result.shape)
        error = float(np.max(np.abs(difference))) if result.size else 0.0
        return OperatorCheck(op.name, error, tiles, error <= TOLERANCE)

    @staticmethod
    def _conv_as_matmul(op, values, weight):
        """A convolution's first group as its im2col matmul, plus its reference.

        All groups share one mapping structure, so a grouped or depthwise
        convolution checks its first group only; with ``groups == 1`` that
        group is the whole convolution.
        """
        x = values[op.inputs[0].name]
        out_per_group = weight.shape[0] // op.groups
        kh, kw = weight.shape[2:]
        cols, _, _ = _im2col(x[:, : x.shape[1] // op.groups], kh, kw, op.stride, op.padding)
        wmat = weight[:out_per_group].reshape(out_per_group, -1).T
        reference = values[op.outputs[0].name][:, :out_per_group].transpose(0, 2, 3, 1)
        return cols[None], wmat[None], reference
