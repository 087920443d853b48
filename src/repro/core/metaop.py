"""Dual-mode meta-operator flow (DMO, §4.4 / Fig. 13 of the paper).

The compiler expresses its result as a flow of *meta-operators* rather
than machine code so the output stays chip-agnostic: a backend can lower
the flow to the ISA of a particular dual-mode CIM chip.  The grammar
follows Fig. 13::

    <code>      ::= <operators>* | parallel "{" <operators>* "}"
    <operators> ::= <operators>* <CIM>* <MEMORY>* <SWC>*
    <SWC>       ::= CM.switch(<type>, arrayaddr)
    <type>      ::= TOM | TOC

``CM.switch(TOM, ...)`` marks the listed arrays as valid memory units
(on-chip buffer); ``CM.switch(TOC, ...)`` returns them to compute mode.
Standard compute and memory meta-operators describe MVM/MMM execution and
data movement; ``parallel { ... }`` wraps one network segment whose
operators execute as a pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Sequence, Tuple


class SwitchType(Enum):
    """Direction of a dual-mode switch meta-operator."""

    TO_MEMORY = "TOM"
    TO_COMPUTE = "TOC"


def _format_addresses(addresses: Sequence[int]) -> str:
    """Render an array-address list compactly (ranges collapsed)."""
    if not addresses:
        return "[]"
    sorted_addrs = sorted(addresses)
    ranges: List[Tuple[int, int]] = []
    start = prev = sorted_addrs[0]
    for addr in sorted_addrs[1:]:
        if addr == prev + 1:
            prev = addr
            continue
        ranges.append((start, prev))
        start = prev = addr
    ranges.append((start, prev))
    parts = [f"{a}" if a == b else f"{a}-{b}" for a, b in ranges]
    return "[" + ",".join(parts) + "]"


@dataclass(frozen=True)
class MetaOperator:
    """Base class of all meta-operators."""

    def render(self) -> str:
        """Single-line textual form (Fig. 13 syntax)."""
        raise NotImplementedError


@dataclass(frozen=True)
class SwitchOp(MetaOperator):
    """``CM.switch(<TOM|TOC>, arrayaddr)`` — change the mode of arrays."""

    switch_type: SwitchType
    array_addresses: Tuple[int, ...]

    def render(self) -> str:
        return f"CM.switch({self.switch_type.value}, {_format_addresses(self.array_addresses)})"


@dataclass(frozen=True)
class WeightLoadOp(MetaOperator):
    """Program static weights into compute-mode arrays."""

    operator: str
    array_addresses: Tuple[int, ...]
    elements: int

    def render(self) -> str:
        return (
            f"CIM.load_weight({self.operator}, "
            f"{_format_addresses(self.array_addresses)}, elems={self.elements})"
        )


@dataclass(frozen=True)
class ComputeOp(MetaOperator):
    """Execute an MVM/MMM on compute-mode arrays."""

    operator: str
    array_addresses: Tuple[int, ...]
    macs: int
    m: int
    k: int
    n: int

    def render(self) -> str:
        return (
            f"CIM.mvm({self.operator}, {_format_addresses(self.array_addresses)}, "
            f"dims={self.m}x{self.k}x{self.n})"
        )


@dataclass(frozen=True)
class MemoryReadOp(MetaOperator):
    """Read operands from memory-mode arrays / buffer / main memory."""

    operator: str
    elements: int
    source: str  # "cim-memory", "buffer" or "main-memory"
    array_addresses: Tuple[int, ...] = ()

    def render(self) -> str:
        suffix = f", {_format_addresses(self.array_addresses)}" if self.array_addresses else ""
        return f"MEM.read({self.operator}, elems={self.elements}, src={self.source}{suffix})"


@dataclass(frozen=True)
class MemoryWriteOp(MetaOperator):
    """Write results to memory-mode arrays / buffer / main memory."""

    operator: str
    elements: int
    destination: str
    array_addresses: Tuple[int, ...] = ()

    def render(self) -> str:
        suffix = f", {_format_addresses(self.array_addresses)}" if self.array_addresses else ""
        return (
            f"MEM.write({self.operator}, elems={self.elements}, "
            f"dst={self.destination}{suffix})"
        )


@dataclass
class ParallelBlock:
    """One network segment: its body executes as a pipeline."""

    segment_index: int
    body: List[MetaOperator] = field(default_factory=list)

    def append(self, op: MetaOperator) -> None:
        """Add a meta-operator to the block body."""
        self.body.append(op)

    def render(self, indent: str = "  ") -> str:
        """Multi-line textual form."""
        lines = [f"parallel {{  # segment {self.segment_index}"]
        lines.extend(indent + op.render() for op in self.body)
        lines.append("}")
        return "\n".join(lines)


@dataclass
class MetaProgram:
    """Complete meta-operator flow for one compiled graph."""

    graph_name: str
    items: List[object] = field(default_factory=list)  # SwitchOp / WeightLoadOp / ParallelBlock

    def append(self, item: object) -> None:
        """Append a top-level item (switch, weight load or segment block)."""
        self.items.append(item)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def blocks(self) -> List[ParallelBlock]:
        """The program's segments in order."""
        return [item for item in self.items if isinstance(item, ParallelBlock)]

    def switches(self) -> List[SwitchOp]:
        """Every mode-switch meta-operator, including those inside blocks."""
        found: List[SwitchOp] = []
        for item in self.items:
            if isinstance(item, SwitchOp):
                found.append(item)
            elif isinstance(item, ParallelBlock):
                found.extend(op for op in item.body if isinstance(op, SwitchOp))
        return found

    def operators(self) -> Iterator[MetaOperator]:
        """Iterate over every meta-operator in program order."""
        for item in self.items:
            if isinstance(item, ParallelBlock):
                yield from item.body
            else:
                yield item

    def count(self, cls: type) -> int:
        """Number of meta-operators of a given class."""
        return sum(1 for op in self.operators() if isinstance(op, cls))

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Full textual form of the meta-operator flow."""
        lines = [f"# meta-operator flow for {self.graph_name}"]
        for item in self.items:
            if isinstance(item, ParallelBlock):
                lines.append(item.render())
            else:
                lines.append(item.render())
        return "\n".join(lines)

    def __len__(self) -> int:
        return sum(1 for _ in self.operators())
