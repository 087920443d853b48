"""Computation graph container and queries.

A :class:`Graph` is an ordered collection of :class:`~repro.ir.operators.Operator`
objects connected through tensor names: operator ``B`` depends on operator
``A`` when one of ``B``'s inputs has the same name as one of ``A``'s
outputs.  The graph offers the queries the compiler needs:

* topological order of operators (the paper's ``O_1 ... O_m`` sequence),
* the dependency relation ``W`` (``w_{i,j}``: output of ``O_i`` feeds ``O_j``),
* the subset of CIM-mappable operators,
* aggregate statistics (parameters, MACs, activation footprint).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .operators import Operator
from .tensor import TensorSpec


class GraphError(ValueError):
    """Raised when a graph is malformed (duplicate names, cycles, ...)."""


@dataclass
class GraphStats:
    """Aggregate statistics of a graph.

    Attributes:
        num_operators: Total number of operators.
        num_cim_operators: Number of CIM-mappable operators.
        total_macs: Sum of MAC counts over all operators.
        total_flops: Sum of FLOP counts over all operators.
        total_weight_elements: Total static parameter elements.
        total_weight_bytes: Total static parameter bytes.
        total_activation_elements: Sum of all operator output elements.
        total_activation_bytes: Sum of all operator output bytes.
        mean_arithmetic_intensity: FLOPs divided by total moved data
            (activations + weights), the model-level quantity of Fig. 5(c).
    """

    num_operators: int
    num_cim_operators: int
    total_macs: int
    total_flops: int
    total_weight_elements: int
    total_weight_bytes: int
    total_activation_elements: int
    total_activation_bytes: int
    mean_arithmetic_intensity: float


class Graph:
    """A directed acyclic graph of operators.

    Args:
        name: Human-readable model name (e.g. ``"resnet18"``).
        operators: Optional initial operators, added in order.
    """

    def __init__(self, name: str, operators: Optional[Iterable[Operator]] = None) -> None:
        self.name = name
        self._operators: Dict[str, Operator] = {}
        self._producers: Dict[str, str] = {}  # tensor name -> operator name
        # Derived views, built on first use and dropped by add_operator.
        self._consumers: Optional[Dict[str, List[Operator]]] = None
        self._predecessors: Optional[Dict[str, List[Operator]]] = None  # by operator name
        self._successors: Optional[Dict[str, List[Operator]]] = None
        self._topological: Optional[List[Operator]] = None
        self.graph_inputs: List[TensorSpec] = []
        self.graph_outputs: List[TensorSpec] = []
        #: Free-form model-level metadata (e.g. ``block_repeat`` for
        #: transformer models whose single physical block stands for all
        #: layers, following the paper's per-block compilation reuse).
        self.metadata: Dict = {}
        if operators:
            for op in operators:
                self.add_operator(op)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_operator(self, op: Operator) -> Operator:
        """Add an operator; its inputs may reference earlier outputs."""
        if op.name in self._operators:
            raise GraphError(f"duplicate operator name {op.name!r}")
        for out in op.outputs:
            if out.name in self._producers:
                raise GraphError(
                    f"tensor {out.name!r} produced by both "
                    f"{self._producers[out.name]!r} and {op.name!r}"
                )
        self._operators[op.name] = op
        for out in op.outputs:
            self._producers[out.name] = op.name
        self._consumers = self._predecessors = self._successors = self._topological = None
        return op

    def add_input(self, spec: TensorSpec) -> TensorSpec:
        """Declare a graph-level input tensor."""
        self.graph_inputs.append(spec)
        return spec

    def add_output(self, spec: TensorSpec) -> TensorSpec:
        """Declare a graph-level output tensor."""
        self.graph_outputs.append(spec)
        return spec

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._operators.values())

    def __contains__(self, name: str) -> bool:
        return name in self._operators

    def operator(self, name: str) -> Operator:
        """Return the operator with the given name."""
        try:
            return self._operators[name]
        except KeyError:
            raise GraphError(f"unknown operator {name!r}") from None

    @property
    def operators(self) -> List[Operator]:
        """Operators in insertion order."""
        return list(self._operators.values())

    def producer_of(self, tensor_name: str) -> Optional[Operator]:
        """Operator producing a tensor, or ``None`` for graph inputs."""
        producer = self._producers.get(tensor_name)
        return self._operators[producer] if producer is not None else None

    def _consumer_index(self) -> Dict[str, List[Operator]]:
        if self._consumers is None:
            consumers: Dict[str, List[Operator]] = {}
            for op in self._operators.values():
                for name in dict.fromkeys(t.name for t in op.inputs):
                    consumers.setdefault(name, []).append(op)
            self._consumers = consumers
        return self._consumers

    def _adjacency(self) -> Tuple[Dict[str, List[Operator]], Dict[str, List[Operator]]]:
        """The dependency edges as ``(predecessors, successors)`` by operator
        name: de-duplicated producers in input order, and de-duplicated
        consumers in output order, then insertion order."""
        if self._predecessors is None:
            operators, producers = self._operators, self._producers
            consumers = self._consumer_index()
            self._predecessors = {
                op.name: [
                    operators[name]
                    for name in dict.fromkeys(
                        producers[t.name] for t in op.inputs if t.name in producers
                    )
                ]
                for op in operators.values()
            }
            self._successors = {
                op.name: list(
                    {c.name: c for t in op.outputs for c in consumers.get(t.name, ())}.values()
                )
                for op in operators.values()
            }
        return self._predecessors, self._successors

    def consumers_of(self, tensor_name: str) -> List[Operator]:
        """Operators consuming a tensor, in insertion order."""
        return list(self._consumer_index().get(tensor_name, ()))

    def predecessors(self, op: Operator) -> List[Operator]:
        """Operators whose outputs feed ``op``."""
        return list(self._adjacency()[0][op.name])

    def successors(self, op: Operator) -> List[Operator]:
        """Operators consuming outputs of ``op``."""
        return list(self._adjacency()[1][op.name])

    def validate(self) -> None:
        """Check the graph is a DAG with all inputs accounted for.

        Raises:
            GraphError: If a cycle exists, or an operator consumes a tensor
                that is neither a graph input nor produced by any operator.
        """
        known = {spec.name for spec in self.graph_inputs}
        known.update(self._producers.keys())
        for op in self._operators.values():
            for tensor in op.inputs:
                if tensor.name not in known:
                    raise GraphError(
                        f"operator {op.name!r} consumes unknown tensor {tensor.name!r}"
                    )
        self.topological_order()

    def _kahn_order(self) -> Tuple[List[Operator], List[Operator]]:
        """Kahn's algorithm, always emitting the ready operator with the
        smallest insertion index.

        Returns ``(order, leftover)``: ``leftover`` holds, in insertion order,
        the operators a cycle kept from ever becoming ready.
        """
        predecessors, successors = self._adjacency()
        operators = list(self._operators.values())
        index = {op.name: i for i, op in enumerate(operators)}
        waiting = [len(predecessors[op.name]) for op in operators]
        ready = [i for i, count in enumerate(waiting) if not count]  # ascending: a heap
        order: List[Operator] = []
        while ready:
            op = operators[heappop(ready)]
            order.append(op)
            for successor in successors[op.name]:
                j = index[successor.name]
                waiting[j] -= 1
                if not waiting[j]:
                    heappush(ready, j)
        return order, [op for op, count in zip(operators, waiting) if count]

    def topological_order(self) -> List[Operator]:
        """Operators in a deterministic topological order.

        Ties are broken by insertion order so repeated compilations of the
        same model are reproducible (lexicographic topological sort keyed on
        the operator's insertion index).  Memoised until the next
        :meth:`add_operator`.

        Raises:
            GraphError: If the graph contains a cycle.
        """
        if self._topological is None:
            order, leftover = self._kahn_order()
            if leftover:
                raise GraphError(
                    f"graph contains a cycle: {[op.name for op in leftover]}"
                )
            self._topological = order
        return list(self._topological)

    def cim_operators(self) -> List[Operator]:
        """CIM-mappable operators in topological order."""
        return [op for op in self.topological_order() if op.is_cim_mappable]

    def dependency_pairs(self) -> Set[Tuple[str, str]]:
        """The relation ``W``: pairs ``(producer, consumer)`` of operator names."""
        return {
            (pred.name, name)
            for name, preds in self._adjacency()[0].items()
            for pred in preds
        }

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> GraphStats:
        """Aggregate model statistics (Fig. 5(c) style numbers)."""
        ops = self.operators
        total_macs = sum(op.macs for op in ops)
        total_flops = sum(op.flops for op in ops)
        total_weight_elements = sum(op.weight_elements for op in ops)
        total_weight_bytes = sum(op.weight_bytes for op in ops)
        total_activation_elements = sum(op.output_elements for op in ops if not op.is_view)
        total_activation_bytes = sum(op.output_bytes for op in ops if not op.is_view)
        moved = total_weight_elements + total_activation_elements
        mean_ai = (total_flops / moved) if moved else 0.0
        return GraphStats(
            num_operators=len(ops),
            num_cim_operators=sum(1 for op in ops if op.is_cim_mappable),
            total_macs=total_macs,
            total_flops=total_flops,
            total_weight_elements=total_weight_elements,
            total_weight_bytes=total_weight_bytes,
            total_activation_elements=total_activation_elements,
            total_activation_bytes=total_activation_bytes,
            mean_arithmetic_intensity=mean_ai,
        )

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Serialise the whole graph to a JSON-friendly dictionary."""
        return {
            "name": self.name,
            "metadata": dict(self.metadata),
            "inputs": [t.to_dict() for t in self.graph_inputs],
            "outputs": [t.to_dict() for t in self.graph_outputs],
            "operators": [op.to_dict() for op in self._operators.values()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Graph":
        """Rebuild a graph from :meth:`to_dict` output."""
        from .operators import operator_from_dict

        graph = cls(name=data["name"])
        graph.metadata = dict(data.get("metadata") or {})
        for spec in data.get("inputs", []):
            graph.add_input(TensorSpec.from_dict(spec))
        for op_data in data.get("operators", []):
            graph.add_operator(operator_from_dict(op_data))
        for spec in data.get("outputs", []):
            graph.add_output(TensorSpec.from_dict(spec))
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Graph {self.name!r}: {len(self)} operators>"
