"""Functional simulator: array-granular execution of compiled programs.

The paper verifies its compilation results by executing the generated
meta-operator flows on a functional simulator and comparing against the
PyTorch framework.  This module does the same with numpy as the reference:

* every CIM-mappable operator of the compiled graph is executed *at array
  granularity* — its stationary operand is tiled into ``rows x cols`` CIM
  arrays exactly as the mapping prescribes, every array performs its own
  partial MVM, and partial sums are accumulated along the K dimension;
* the result is compared against the dense numpy reference
  (:mod:`repro.sim.reference`);
* chip state (array modes, ownership) is driven by the program's
  meta-operator flow, so illegal mappings (two operators on one array,
  compute on a memory-mode array) surface as simulation errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.metaop import ComputeOp, MetaProgram, ParallelBlock, SwitchOp, SwitchType, WeightLoadOp
from ..core.program import CompiledProgram, RenderedMetaProgram
from ..hardware.chip import CIMChip
from ..hardware.deha import ArrayMode, DualModeHardwareAbstraction
from ..ir.graph import Graph
from ..ir.operators import Operator
from .reference import ReferenceExecutor, deterministic_tensor


class FunctionalSimulationError(RuntimeError):
    """Raised when the compiled program cannot be executed functionally."""


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
        for n_lo in range(0, n, array_cols):
            n_hi = min(n, n_lo + array_cols)
            tiles += 1
            result[:, n_lo:n_hi] += streamed[:, k_lo:k_hi].astype(np.float64) @ stationary[
                k_lo:k_hi, n_lo:n_hi
            ].astype(np.float64)
    return result.astype(np.float32), tiles


class FunctionalSimulator:
    """Executes a compiled program functionally and checks it.

    Args:
        hardware: Hardware abstraction (array geometry, switch latencies).
        tolerance: Maximum absolute error accepted per operator.
        seed: Seed for deterministic synthetic inputs/weights.
    """

    def __init__(
        self,
        hardware: DualModeHardwareAbstraction,
        tolerance: float = 1e-3,
        seed: int = 0,
    ) -> None:
        self.hardware = hardware
        self.tolerance = tolerance
        self.reference = ReferenceExecutor(seed=seed)

    # ------------------------------------------------------------------ #
    # program-level simulation
    # ------------------------------------------------------------------ #
    def run(self, program: CompiledProgram, graph: Graph) -> FunctionalReport:
        """Execute the compiled program against its source graph.

        The dense reference execution provides every operator's input
        tensors; each CIM-mappable operator is then re-executed at array
        granularity and compared.  The meta-operator flow (when present)
        drives the chip-state model so mode switches are validated.

        Raises:
            FunctionalSimulationError: If the program references operators
                missing from the graph, or carries its flow as text only.
        """
        if isinstance(program.meta_program, RenderedMetaProgram):
            raise FunctionalSimulationError(
                f"the meta-operator flow of {program.graph_name!r} is text-only "
                "(the program was decoded from the wire or served from a "
                "cache_dir program store) and cannot be executed; compile it "
                "in-process without cache_dir to get an executable flow"
            )
        values = self.reference.run(graph)
        report = FunctionalReport(graph_name=graph.name)

        if program.meta_program is not None:
            report.switch_events, report.mode_switch_cycles = self._replay_switches(
                program.meta_program
            )

        operators = {op.name: op for op in graph.operators}
        for segment in program.segments:
            for name in segment.operator_names:
                source_name = self._source_operator_name(name)
                if source_name not in operators:
                    raise FunctionalSimulationError(
                        f"compiled operator {name!r} has no source operator in graph"
                    )
                op = operators[source_name]
                check = self._check_operator(op, values)
                if check is not None:
                    # Partitioned shards re-check the same parent once.
                    if not any(c.operator == check.operator for c in report.checks):
                        report.checks.append(check)
        return report

    def _replay_switches(self, meta_program: MetaProgram) -> Tuple[int, float]:
        """Drive the chip-state model through the program's mode switches."""
        chip = CIMChip(self.hardware)
        events = 0
        for op in meta_program.operators():
            if isinstance(op, SwitchOp):
                mode = (
                    ArrayMode.MEMORY
                    if op.switch_type is SwitchType.TO_MEMORY
                    else ArrayMode.COMPUTE
                )
                chip.switch_mode(op.array_addresses, mode)
                events += len(op.array_addresses)
        return events, chip.switch_cycles

    @staticmethod
    def _source_operator_name(name: str) -> str:
        """Map a partitioned shard name back to its parent operator."""
        return name.split("::", 1)[0]

    # ------------------------------------------------------------------ #
    # operator-level check
    # ------------------------------------------------------------------ #
    def _check_operator(
        self, op: Operator, values: Dict[str, np.ndarray]
    ) -> Optional[OperatorCheck]:
        if not op.is_cim_mappable:
            return None
        dims = op.matmul_dims()
        reference = values[op.outputs[0].name]
        if op.has_static_weight:
            stationary = self.reference.weight_of(op)
            if op.op_type == "conv2d":
                # The convolution's array-level form is its im2col matmul;
                # reuse the reference output as ground truth and rebuild the
                # streamed matrix from the reference input.
                streamed, stationary, reference2d = self._conv_as_matmul(op, values)
                reference = reference2d
            else:
                streamed = values[op.inputs[0].name].reshape(-1, dims.k)
                stationary = stationary.reshape(dims.k, dims.n)
                reference = reference.reshape(-1, dims.n)
        else:
            lhs = values[op.inputs[0].name]
            rhs = values[op.inputs[1].name]
            if lhs.ndim > 2:
                # Batched attention product: check each batch element through
                # the tiled path and stack.
                flat_l = lhs.reshape(-1, lhs.shape[-2], lhs.shape[-1])
                flat_r = rhs.reshape(-1, rhs.shape[-2], rhs.shape[-1])
                outputs = []
                tiles = 0
                for left, right in zip(flat_l, flat_r):
                    out, t = execute_tiled_matmul(
                        left, right, self.hardware.array_rows, self.hardware.array_cols
                    )
                    outputs.append(out)
                    tiles += t
                result = np.stack(outputs).reshape(reference.shape)
                error = float(np.max(np.abs(result - reference))) if result.size else 0.0
                return OperatorCheck(op.name, error, tiles, error <= self.tolerance)
            streamed = lhs.reshape(-1, dims.k)
            stationary = rhs.reshape(dims.k, dims.n)
            reference = reference.reshape(-1, dims.n)

        result, tiles = execute_tiled_matmul(
            streamed, stationary, self.hardware.array_rows, self.hardware.array_cols
        )
        error = float(np.max(np.abs(result - reference))) if result.size else 0.0
        return OperatorCheck(op.name, error, tiles, error <= self.tolerance)

    def _conv_as_matmul(self, op, values):
        """Express a convolution as its im2col matmul for the tiled check."""
        from .reference import _im2col

        x = values[op.inputs[0].name]
        weight = self.reference.weight_of(op)
        out_c, in_c_per_group, kh, kw = weight.shape
        if op.groups == 1:
            cols, oh, ow = _im2col(x, kh, kw, op.stride, op.padding)
            wmat = weight.reshape(out_c, -1).T
            n = x.shape[0]
            reference = (
                values[op.outputs[0].name].transpose(0, 2, 3, 1).reshape(n * oh * ow, out_c)
            )
            return cols, wmat, reference
        # Grouped/depthwise convolution: check the first group only (all
        # groups share the same mapping structure).
        in_per_group = x.shape[1] // op.groups
        out_per_group = out_c // op.groups
        xg = x[:, :in_per_group]
        wg = weight[:out_per_group]
        cols, oh, ow = _im2col(xg, kh, kw, op.stride, op.padding)
        wmat = wg.reshape(out_per_group, -1).T
        n = x.shape[0]
        reference = (
            values[op.outputs[0].name][:, :out_per_group]
            .transpose(0, 2, 3, 1)
            .reshape(n * oh * ow, out_per_group)
        )
        return cols, wmat, reference
