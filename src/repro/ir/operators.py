"""Operator definitions for the DNN computation graph.

Operators carry only *metadata*: shapes, weight sizes, MAC counts and the
matrix dimensions they expose when lowered onto a CIM array.  This is the
same information an ONNX export of the evaluated networks would provide and
is all the compiler requires.

The central distinction for the dual-mode compiler is:

* **CIM-mappable operators** (:class:`MatMulLike` subclasses) execute as
  matrix-vector / matrix-matrix products on arrays in *compute mode*.  They
  expose ``matmul_dims()`` describing the ``M x K @ K x N`` product.
* **Auxiliary operators** (softmax, layer-norm, elementwise, pooling, ...)
  run on the chip's peripheral function units.  They contribute activation
  traffic but negligible MAC work and are never assigned compute arrays.

A mappable operator may have a *static* matrix operand (pre-trained
weights, e.g. ``Linear``/``Conv2d``) or a *dynamic* one (produced at run
time, e.g. the ``Q @ K^T`` and ``S @ V`` products inside attention).  The
distinction matters for the inter-segment weight-reload cost (Eq. 2 in the
paper) and for the data-supply term of the latency model (Eq. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .sealed import frozen, sealed_error, thawed
from .tensor import TensorSpec


class MatmulDims(NamedTuple):
    """Dimensions of the equivalent matrix product ``(M x K) @ (K x N)``.

    ``M`` rows of activations are streamed through a stationary ``K x N``
    matrix.  Convolutions are described through their im2col lowering.
    """

    m: int
    k: int
    n: int

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the product."""
        return self.m * self.k * self.n

    @property
    def stationary_elements(self) -> int:
        """Number of elements of the stationary (array-resident) operand."""
        return self.k * self.n

    @property
    def streamed_input_elements(self) -> int:
        """Number of elements streamed as the moving operand."""
        return self.m * self.k

    @property
    def output_elements(self) -> int:
        """Number of elements produced."""
        return self.m * self.n


class Operator:
    """Base class of all graph operators.

    Attributes:
        name: Unique operator name within a graph.
        inputs: Activation inputs (weights are *not* listed here).
        outputs: Produced tensors.
        weight: Optional static parameter tensor (weights + folded bias).
        attrs: Free-form attributes used by subclasses and analyses.

    Once a graph holding the operator is digested
    (:meth:`repro.ir.graph.Graph.digest`) the operator is sealed: its
    public attributes cannot be rebound and ``attrs`` is read-only.
    """

    op_type: str = "operator"
    _sealed: bool = False

    def __init__(
        self,
        name: str,
        inputs: Sequence[TensorSpec],
        outputs: Sequence[TensorSpec],
        weight: Optional[TensorSpec] = None,
        attrs: Optional[Dict] = None,
    ) -> None:
        if not name:
            raise ValueError("operator requires a non-empty name")
        if not outputs:
            raise ValueError(f"operator {name!r} must produce at least one output")
        self.name = name
        self.inputs: Tuple[TensorSpec, ...] = tuple(inputs)
        self.outputs: Tuple[TensorSpec, ...] = tuple(outputs)
        self.weight = weight
        self.attrs: Dict = dict(attrs or {})

    def __setattr__(self, name: str, value) -> None:
        if self._sealed and not name.startswith("_"):
            raise sealed_error(f"operator {self.name!r}")
        object.__setattr__(self, name, value)

    def _seal(self) -> None:
        """Make the operator read-only (idempotent; see :class:`Operator`)."""
        if not self._sealed:
            self.attrs = frozen(self.attrs)
            self._sealed = True

    # ------------------------------------------------------------------ #
    # classification
    # ------------------------------------------------------------------ #
    @property
    def is_cim_mappable(self) -> bool:
        """Whether the operator runs as MVM/MMM on compute-mode arrays."""
        return False

    @property
    def has_static_weight(self) -> bool:
        """Whether the stationary operand is a pre-determined weight tensor."""
        return self.weight is not None

    @property
    def is_view(self) -> bool:
        """Whether the operator is a zero-cost metadata transformation."""
        return False

    # ------------------------------------------------------------------ #
    # size / cost metadata
    # ------------------------------------------------------------------ #
    @property
    def input_elements(self) -> int:
        """Total activation input elements."""
        return sum(t.num_elements for t in self.inputs)

    @property
    def output_elements(self) -> int:
        """Total output elements."""
        return sum(t.num_elements for t in self.outputs)

    @property
    def output_bytes(self) -> int:
        """Total output bytes."""
        return sum(t.num_bytes for t in self.outputs)

    @property
    def weight_elements(self) -> int:
        """Static parameter elements (0 when the operator has no weights)."""
        return self.weight.num_elements if self.weight is not None else 0

    @property
    def weight_bytes(self) -> int:
        """Static parameter bytes."""
        return self.weight.num_bytes if self.weight is not None else 0

    @property
    def macs(self) -> int:
        """Multiply-accumulate count (0 for non-MAC operators)."""
        return 0

    @property
    def flops(self) -> int:
        """Floating point / fixed point operation count (2 per MAC)."""
        return 2 * self.macs

    def matmul_dims(self) -> Optional[MatmulDims]:
        """Equivalent matrix-product dimensions, or ``None`` if not mappable."""
        return None

    # ------------------------------------------------------------------ #
    # data-movement metadata used by the cost model
    # ------------------------------------------------------------------ #
    @property
    def streamed_input_elements(self) -> int:
        """Dynamic data elements that must be supplied during execution.

        This always contains the activation inputs.  For operators whose
        stationary operand is itself dynamic (attention score/context
        products) the stationary operand is included as well, because it
        has to be written into the arrays at run time.
        """
        return self.input_elements

    @property
    def streamed_elements(self) -> int:
        """Dynamic elements moved during execution: inputs plus outputs."""
        return self.streamed_input_elements + self.output_elements

    # ------------------------------------------------------------------ #
    # serialisation helpers
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Serialise to a plain dictionary (JSON friendly)."""
        return {
            "op_type": self.op_type,
            "name": self.name,
            "inputs": [t.to_dict() for t in self.inputs],
            "outputs": [t.to_dict() for t in self.outputs],
            "weight": self.weight.to_dict() if self.weight is not None else None,
            "attrs": thawed(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ins = ",".join(t.name for t in self.inputs)
        outs = ",".join(t.name for t in self.outputs)
        return f"<{self.op_type} {self.name} ({ins}) -> ({outs})>"


# ---------------------------------------------------------------------- #
# CIM-mappable operators
# ---------------------------------------------------------------------- #
class MatMulLike(Operator):
    """Base class for operators executable on compute-mode CIM arrays."""

    @property
    def is_cim_mappable(self) -> bool:
        return True

    @property
    def stationary_elements(self) -> int:
        """Elements of the operand held inside the compute arrays."""
        dims = self.matmul_dims()
        return dims.stationary_elements if dims is not None else 0


class Linear(MatMulLike):
    """Fully connected layer: ``[batch..., K] @ [K, N] (+ bias)``."""

    op_type = "linear"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        weight: TensorSpec,
        bias: bool = True,
        attrs: Optional[Dict] = None,
    ) -> None:
        if weight.rank != 2:
            raise ValueError(f"linear {name!r}: weight must be rank-2, got {weight.shape}")
        in_features, out_features = weight.shape
        if input.shape[-1] != in_features:
            raise ValueError(
                f"linear {name!r}: input feature dim {input.shape[-1]} does not match "
                f"weight in_features {in_features}"
            )
        if output.shape[-1] != out_features:
            raise ValueError(
                f"linear {name!r}: output feature dim {output.shape[-1]} does not match "
                f"weight out_features {out_features}"
            )
        super().__init__(name, [input], [output], weight=weight, attrs=attrs)
        self.attrs.setdefault("bias", bool(bias))

    def matmul_dims(self) -> MatmulDims:
        in_t = self.inputs[0]
        k, n = self.weight.shape
        m = in_t.num_elements // k
        return MatmulDims(m=m, k=k, n=n)

    @property
    def macs(self) -> int:
        return self.matmul_dims().macs


class MatMul(MatMulLike):
    """General matrix product of two *dynamic* operands.

    Used for the attention score (``Q @ K^T``) and context (``S @ V``)
    products.  The second operand is treated as the stationary matrix that
    would be written into compute arrays at run time; because it is dynamic
    data it is also counted as streamed traffic.  Batched products (one
    stationary matrix per attention head) process the heads sequentially on
    the same arrays, so the *simultaneous* stationary footprint is a single
    ``K x N`` matrix while every head's operand still counts as streamed
    data.
    """

    op_type = "matmul"

    def __init__(
        self,
        name: str,
        lhs: TensorSpec,
        rhs: TensorSpec,
        output: TensorSpec,
        attrs: Optional[Dict] = None,
    ) -> None:
        if lhs.shape[-1] != rhs.shape[-2]:
            raise ValueError(
                f"matmul {name!r}: inner dimensions do not agree: "
                f"{lhs.shape} @ {rhs.shape}"
            )
        super().__init__(name, [lhs, rhs], [output], weight=None, attrs=attrs)

    @property
    def has_static_weight(self) -> bool:
        return False

    def matmul_dims(self) -> MatmulDims:
        lhs, rhs = self.inputs
        k = lhs.shape[-1]
        n = rhs.shape[-1]
        m = lhs.num_elements // k
        return MatmulDims(m=m, k=k, n=n)

    @property
    def macs(self) -> int:
        lhs, rhs = self.inputs
        k = lhs.shape[-1]
        n = rhs.shape[-1]
        m = lhs.num_elements // k
        return m * k * n

    @property
    def streamed_input_elements(self) -> int:
        # Both operands are dynamic and must be supplied at run time.
        return self.input_elements


class Conv2d(MatMulLike):
    """2-D convolution in NCHW layout, described through its im2col form."""

    op_type = "conv2d"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        weight: TensorSpec,
        stride: Tuple[int, int] = (1, 1),
        padding: Tuple[int, int] = (0, 0),
        groups: int = 1,
        attrs: Optional[Dict] = None,
    ) -> None:
        if input.rank != 4 or output.rank != 4:
            raise ValueError(f"conv2d {name!r}: input/output must be rank-4 NCHW")
        if weight.rank != 4:
            raise ValueError(f"conv2d {name!r}: weight must be rank-4 OIHW")
        out_c, in_c_per_group, kh, kw = weight.shape
        n, in_c, _, _ = input.shape
        if in_c_per_group * groups != in_c:
            raise ValueError(
                f"conv2d {name!r}: weight input channels {in_c_per_group} x groups "
                f"{groups} != input channels {in_c}"
            )
        if output.shape[1] != out_c:
            raise ValueError(
                f"conv2d {name!r}: output channels {output.shape[1]} != weight "
                f"output channels {out_c}"
            )
        super().__init__(name, [input], [output], weight=weight, attrs=attrs)
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.groups = int(groups)
        self.attrs.update(
            {"stride": list(self.stride), "padding": list(self.padding), "groups": self.groups}
        )

    def matmul_dims(self) -> MatmulDims:
        out = self.outputs[0]
        weight = self.weight
        out_c, in_c_per_group, kh, kw = weight.shape
        n, _, oh, ow = out.shape
        # im2col: every output pixel is one row of the streamed activation
        # matrix, the unrolled kernel is the stationary matrix.  Grouped and
        # depthwise convolutions keep the per-group K but replicate rows.
        m = n * oh * ow
        k = in_c_per_group * kh * kw
        n_dim = out_c // self.groups if self.groups > 1 else out_c
        if self.groups > 1:
            m = m * self.groups
        return MatmulDims(m=m, k=k, n=max(n_dim, 1))

    @property
    def macs(self) -> int:
        out = self.outputs[0]
        out_c, in_c_per_group, kh, kw = self.weight.shape
        n, _, oh, ow = out.shape
        return n * oh * ow * out_c * in_c_per_group * kh * kw


# ---------------------------------------------------------------------- #
# Auxiliary (non-MAC) operators
# ---------------------------------------------------------------------- #
class Elementwise(Operator):
    """Pointwise operator (add, mul, activation functions)."""

    op_type = "elementwise"

    def __init__(
        self,
        name: str,
        inputs: Sequence[TensorSpec],
        output: TensorSpec,
        function: str = "add",
        attrs: Optional[Dict] = None,
    ) -> None:
        super().__init__(name, inputs, [output], attrs=attrs)
        self.function = function
        self.attrs["function"] = function

    @property
    def flops(self) -> int:
        return self.output_elements


class Activation(Elementwise):
    """Unary activation function (relu / gelu / silu / sigmoid / tanh)."""

    op_type = "activation"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        function: str = "relu",
        attrs: Optional[Dict] = None,
    ) -> None:
        super().__init__(name, [input], output, function=function, attrs=attrs)


class Softmax(Operator):
    """Softmax along the last axis (attention probabilities)."""

    op_type = "softmax"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        axis: int = -1,
        attrs: Optional[Dict] = None,
    ) -> None:
        super().__init__(name, [input], [output], attrs=attrs)
        self.axis = axis
        self.attrs["axis"] = axis

    @property
    def flops(self) -> int:
        # exp + sum + divide per element
        return 3 * self.output_elements


class Normalization(Operator):
    """Layer / batch / RMS normalisation."""

    op_type = "normalization"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        kind: str = "layernorm",
        attrs: Optional[Dict] = None,
    ) -> None:
        super().__init__(name, [input], [output], attrs=attrs)
        self.kind = kind
        self.attrs["kind"] = kind

    @property
    def flops(self) -> int:
        return 4 * self.output_elements


class Pool2d(Operator):
    """Spatial pooling (max or average) over NCHW tensors."""

    op_type = "pool2d"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        kernel: Tuple[int, int] = (2, 2),
        stride: Tuple[int, int] = (2, 2),
        mode: str = "max",
        attrs: Optional[Dict] = None,
    ) -> None:
        super().__init__(name, [input], [output], attrs=attrs)
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.mode = mode
        self.attrs.update({"kernel": list(self.kernel), "stride": list(self.stride), "mode": mode})

    @property
    def flops(self) -> int:
        return self.output_elements * self.kernel[0] * self.kernel[1]


class GlobalAvgPool(Operator):
    """Global average pooling reducing the spatial dimensions to 1x1."""

    op_type = "global_avg_pool"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        attrs: Optional[Dict] = None,
    ) -> None:
        super().__init__(name, [input], [output], attrs=attrs)

    @property
    def flops(self) -> int:
        return self.input_elements


class Embedding(Operator):
    """Token-embedding lookup.  The table is a static weight."""

    op_type = "embedding"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        weight: TensorSpec,
        attrs: Optional[Dict] = None,
    ) -> None:
        super().__init__(name, [input], [output], weight=weight, attrs=attrs)


class Reshape(Operator):
    """Zero-cost view change (reshape / transpose / flatten / split view)."""

    op_type = "reshape"

    def __init__(
        self,
        name: str,
        input: TensorSpec,
        output: TensorSpec,
        attrs: Optional[Dict] = None,
    ) -> None:
        if input.num_elements != output.num_elements:
            raise ValueError(
                f"reshape {name!r}: element count changes "
                f"({input.num_elements} -> {output.num_elements})"
            )
        super().__init__(name, [input], [output], attrs=attrs)

    @property
    def is_view(self) -> bool:
        return True


class Concat(Operator):
    """Concatenation along an axis (e.g. KV-cache append)."""

    op_type = "concat"

    def __init__(
        self,
        name: str,
        inputs: Sequence[TensorSpec],
        output: TensorSpec,
        axis: int = 0,
        attrs: Optional[Dict] = None,
    ) -> None:
        super().__init__(name, inputs, [output], attrs=attrs)
        self.axis = axis
        self.attrs["axis"] = axis


# ---------------------------------------------------------------------- #
# deserialisation registry
# ---------------------------------------------------------------------- #
_OPERATOR_CLASSES: Dict[str, type] = {}


def register_operator_class(cls: type) -> type:
    """Register an operator class for :func:`operator_from_dict`."""
    _OPERATOR_CLASSES[cls.op_type] = cls
    return cls


for _cls in (
    Linear,
    MatMul,
    Conv2d,
    Elementwise,
    Activation,
    Softmax,
    Normalization,
    Pool2d,
    GlobalAvgPool,
    Embedding,
    Reshape,
    Concat,
):
    register_operator_class(_cls)


def operator_from_dict(data: dict) -> Operator:
    """Reconstruct an operator from :meth:`Operator.to_dict` output.

    Reconstruction is generic: the operator is rebuilt through
    ``Operator.__new__`` and its fields restored, so subclasses with custom
    constructors round-trip without re-running validation.
    """
    op_type = data["op_type"]
    cls = _OPERATOR_CLASSES.get(op_type, Operator)
    op = cls.__new__(cls)
    op.name = data["name"]
    op.inputs = tuple(TensorSpec.from_dict(t) for t in data["inputs"])
    op.outputs = tuple(TensorSpec.from_dict(t) for t in data["outputs"])
    weight = data.get("weight")
    op.weight = TensorSpec.from_dict(weight) if weight else None
    op.attrs = dict(data.get("attrs") or {})
    # Restore commonly used attribute mirrors.
    if isinstance(op, Conv2d):
        op.stride = tuple(op.attrs.get("stride", (1, 1)))
        op.padding = tuple(op.attrs.get("padding", (0, 0)))
        op.groups = int(op.attrs.get("groups", 1))
    if isinstance(op, Pool2d):
        op.kernel = tuple(op.attrs.get("kernel", (2, 2)))
        op.stride = tuple(op.attrs.get("stride", (2, 2)))
        op.mode = op.attrs.get("mode", "max")
    if isinstance(op, Elementwise):
        op.function = op.attrs.get("function", "add")
    if isinstance(op, Softmax):
        op.axis = op.attrs.get("axis", -1)
    if isinstance(op, Normalization):
        op.kind = op.attrs.get("kind", "layernorm")
    if isinstance(op, Concat):
        op.axis = op.attrs.get("axis", 0)
    return op
