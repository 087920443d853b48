"""Tensor metadata used throughout the compiler.

The CMSwitch compiler never needs concrete tensor *values* to make
scheduling decisions; it only needs shapes and element widths.  The
functional simulator (:mod:`repro.sim.functional`) attaches concrete numpy
arrays to these specs when it executes a compiled program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Tuple


class DataType(Enum):
    """Element data types supported by the hardware model.

    The paper quantises all evaluated networks to 8-bit weights and
    activations; wider types are provided so the cost model can also be
    exercised on mixed-precision graphs.
    """

    INT8 = "int8"
    INT16 = "int16"
    INT32 = "int32"
    FP16 = "fp16"
    FP32 = "fp32"

    @property
    def size_bytes(self) -> int:
        """Size of one element in bytes."""
        return _DTYPE_BYTES[self]


_DTYPE_BYTES = {
    DataType.INT8: 1,
    DataType.INT16: 2,
    DataType.INT32: 4,
    DataType.FP16: 2,
    DataType.FP32: 4,
}


@dataclass(frozen=True)
class TensorSpec:
    """Shape/dtype description of a tensor flowing through the graph.

    Attributes:
        name: Unique tensor name within a graph.
        shape: Tensor shape.  Scalars are represented by an empty tuple.
        dtype: Element type, defaults to INT8 (the paper's quantisation).
    """

    name: str
    shape: Tuple[int, ...]
    dtype: DataType = DataType.INT8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("TensorSpec requires a non-empty name")
        shape = tuple(int(dim) for dim in self.shape)
        object.__setattr__(self, "shape", shape)
        for dim in shape:
            if dim <= 0:
                raise ValueError(
                    f"tensor {self.name!r}: all dimensions must be positive, got {shape}"
                )

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        """Total number of elements."""
        return int(math.prod(self.shape)) if self.shape else 1

    @property
    def num_bytes(self) -> int:
        """Total storage size in bytes."""
        return self.num_elements * self.dtype.size_bytes

    def to_dict(self) -> dict:
        """Serialise to a plain dictionary (JSON friendly)."""
        return {
            "name": self.name,
            "shape": list(self.shape),
            "dtype": self.dtype.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TensorSpec":
        """Deserialise from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            shape=tuple(data["shape"]),
            dtype=DataType(data["dtype"]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(d) for d in self.shape) or "scalar"
        return f"{self.name}:{dims}:{self.dtype.value}"


def elements(specs: Iterable[TensorSpec]) -> int:
    """Total number of elements across a collection of tensor specs."""
    return sum(spec.num_elements for spec in specs)
