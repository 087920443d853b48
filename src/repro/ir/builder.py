"""Fluent builder for constructing computation graphs.

The model zoo (:mod:`repro.models`) uses this builder to assemble networks
layer by layer with automatic tensor naming and shape inference, mirroring
what an ONNX export of the corresponding PyTorch model would contain.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graph import Graph
from .operators import (
    Activation,
    Concat,
    Conv2d,
    Elementwise,
    Embedding,
    GlobalAvgPool,
    Linear,
    MatMul,
    Normalization,
    Pool2d,
    Reshape,
    Softmax,
)
from .tensor import DataType, TensorSpec


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


class GraphBuilder:
    """Incrementally builds a :class:`~repro.ir.graph.Graph`.

    Every helper returns the :class:`TensorSpec` of the produced tensor so
    calls can be chained naturally::

        builder = GraphBuilder("tiny")
        x = builder.input("x", (1, 3, 32, 32))
        x = builder.conv2d(x, out_channels=16, kernel=3, stride=1, padding=1)
        x = builder.relu(x)
        builder.output(x)
        graph = builder.finish()
    """

    def __init__(self, name: str, dtype: DataType = DataType.INT8) -> None:
        self.graph = Graph(name)
        self.dtype = dtype
        self._counter = 0

    # ------------------------------------------------------------------ #
    # naming helpers
    # ------------------------------------------------------------------ #
    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def tensor(self, name: str, shape: Sequence[int]) -> TensorSpec:
        """Create a tensor spec with the builder's default dtype."""
        return TensorSpec(name=name, shape=tuple(shape), dtype=self.dtype)

    # ------------------------------------------------------------------ #
    # graph boundary
    # ------------------------------------------------------------------ #
    def input(self, name: str, shape: Sequence[int]) -> TensorSpec:
        """Declare a graph input."""
        spec = self.tensor(name, shape)
        self.graph.add_input(spec)
        return spec

    def output(self, spec: TensorSpec) -> TensorSpec:
        """Declare a graph output."""
        self.graph.add_output(spec)
        return spec

    def finish(self) -> Graph:
        """Return the built graph, validated."""
        self.graph.validate()
        return self.graph

    # ------------------------------------------------------------------ #
    # CIM-mappable layers
    # ------------------------------------------------------------------ #
    def conv2d(
        self,
        input: TensorSpec,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        name: Optional[str] = None,
    ) -> TensorSpec:
        """Add a 2-D convolution (NCHW) and return its output tensor."""
        name = name or self._fresh("conv")
        n, in_c, h, w = input.shape
        oh = _conv_out_size(h, kernel, stride, padding)
        ow = _conv_out_size(w, kernel, stride, padding)
        out = self.tensor(f"{name}_out", (n, out_channels, oh, ow))
        weight = self.tensor(f"{name}_w", (out_channels, in_c // groups, kernel, kernel))
        self.graph.add_operator(
            Conv2d(
                name,
                input=input,
                output=out,
                weight=weight,
                stride=(stride, stride),
                padding=(padding, padding),
                groups=groups,
            )
        )
        return out

    def linear(
        self,
        input: TensorSpec,
        out_features: int,
        name: Optional[str] = None,
        bias: bool = True,
    ) -> TensorSpec:
        """Add a fully connected layer on the last dimension."""
        name = name or self._fresh("linear")
        in_features = input.shape[-1]
        out_shape = tuple(input.shape[:-1]) + (out_features,)
        out = self.tensor(f"{name}_out", out_shape)
        weight = self.tensor(f"{name}_w", (in_features, out_features))
        self.graph.add_operator(Linear(name, input=input, output=out, weight=weight, bias=bias))
        return out

    def matmul(
        self,
        lhs: TensorSpec,
        rhs: TensorSpec,
        name: Optional[str] = None,
    ) -> TensorSpec:
        """Add a dynamic-by-dynamic matrix product (attention score/context)."""
        name = name or self._fresh("matmul")
        out_shape = tuple(lhs.shape[:-1]) + (rhs.shape[-1],)
        out = self.tensor(f"{name}_out", out_shape)
        self.graph.add_operator(MatMul(name, lhs=lhs, rhs=rhs, output=out))
        return out

    # ------------------------------------------------------------------ #
    # auxiliary layers
    # ------------------------------------------------------------------ #
    def activation(
        self, input: TensorSpec, function: str = "relu", name: Optional[str] = None
    ) -> TensorSpec:
        """Add a unary activation function."""
        name = name or self._fresh(function)
        out = self.tensor(f"{name}_out", input.shape)
        self.graph.add_operator(Activation(name, input=input, output=out, function=function))
        return out

    def relu(self, input: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add a ReLU."""
        return self.activation(input, "relu", name)

    def gelu(self, input: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add a GELU."""
        return self.activation(input, "gelu", name)

    def silu(self, input: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add a SiLU / swish."""
        return self.activation(input, "silu", name)

    def softmax(self, input: TensorSpec, axis: int = -1, name: Optional[str] = None) -> TensorSpec:
        """Add a softmax along ``axis``."""
        name = name or self._fresh("softmax")
        out = self.tensor(f"{name}_out", input.shape)
        self.graph.add_operator(Softmax(name, input=input, output=out, axis=axis))
        return out

    def layernorm(self, input: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add a layer normalisation."""
        name = name or self._fresh("layernorm")
        out = self.tensor(f"{name}_out", input.shape)
        self.graph.add_operator(Normalization(name, input=input, output=out, kind="layernorm"))
        return out

    def rmsnorm(self, input: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add an RMS normalisation (LLaMA-style)."""
        name = name or self._fresh("rmsnorm")
        out = self.tensor(f"{name}_out", input.shape)
        self.graph.add_operator(Normalization(name, input=input, output=out, kind="rmsnorm"))
        return out

    def batchnorm(self, input: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add a batch normalisation."""
        name = name or self._fresh("batchnorm")
        out = self.tensor(f"{name}_out", input.shape)
        self.graph.add_operator(Normalization(name, input=input, output=out, kind="batchnorm"))
        return out

    def add(self, lhs: TensorSpec, rhs: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add an elementwise addition (residual connection)."""
        name = name or self._fresh("add")
        out = self.tensor(f"{name}_out", lhs.shape)
        self.graph.add_operator(Elementwise(name, inputs=[lhs, rhs], output=out, function="add"))
        return out

    def mul(self, lhs: TensorSpec, rhs: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add an elementwise multiplication (gating)."""
        name = name or self._fresh("mul")
        out = self.tensor(f"{name}_out", lhs.shape)
        self.graph.add_operator(Elementwise(name, inputs=[lhs, rhs], output=out, function="mul"))
        return out

    def pool2d(
        self,
        input: TensorSpec,
        kernel: int = 2,
        stride: int = 2,
        mode: str = "max",
        padding: int = 0,
        name: Optional[str] = None,
    ) -> TensorSpec:
        """Add a spatial pooling layer."""
        name = name or self._fresh(f"{mode}pool")
        n, c, h, w = input.shape
        oh = _conv_out_size(h, kernel, stride, padding)
        ow = _conv_out_size(w, kernel, stride, padding)
        out = self.tensor(f"{name}_out", (n, c, oh, ow))
        self.graph.add_operator(
            Pool2d(name, input=input, output=out, kernel=(kernel, kernel), stride=(stride, stride), mode=mode)
        )
        return out

    def global_avg_pool(self, input: TensorSpec, name: Optional[str] = None) -> TensorSpec:
        """Add a global average pooling layer producing (N, C)."""
        name = name or self._fresh("gap")
        n, c, _, _ = input.shape
        out = self.tensor(f"{name}_out", (n, c))
        self.graph.add_operator(GlobalAvgPool(name, input=input, output=out))
        return out

    def embedding(
        self,
        input: TensorSpec,
        vocab_size: int,
        hidden: int,
        name: Optional[str] = None,
    ) -> TensorSpec:
        """Add a token-embedding lookup."""
        name = name or self._fresh("embedding")
        out_shape = tuple(input.shape) + (hidden,)
        out = self.tensor(f"{name}_out", out_shape)
        weight = self.tensor(f"{name}_w", (vocab_size, hidden))
        self.graph.add_operator(Embedding(name, input=input, output=out, weight=weight))
        return out

    def reshape(
        self, input: TensorSpec, shape: Sequence[int], name: Optional[str] = None
    ) -> TensorSpec:
        """Add a zero-cost reshape."""
        name = name or self._fresh("reshape")
        out = self.tensor(f"{name}_out", shape)
        self.graph.add_operator(Reshape(name, input=input, output=out))
        return out

    def concat(
        self, inputs: Sequence[TensorSpec], axis: int, name: Optional[str] = None
    ) -> TensorSpec:
        """Add a concatenation along ``axis``."""
        name = name or self._fresh("concat")
        first = inputs[0]
        out_shape = list(first.shape)
        out_shape[axis] = sum(t.shape[axis] for t in inputs)
        out = self.tensor(f"{name}_out", out_shape)
        self.graph.add_operator(Concat(name, inputs=inputs, output=out, axis=axis))
        return out
