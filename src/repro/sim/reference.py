"""Numpy reference executor for computation graphs.

The functional simulator needs a ground-truth result to compare the
array-level CIM execution against (the paper verifies its compiled
meta-operator flows against PyTorch).  This module plays PyTorch's role:
it executes a :class:`~repro.ir.graph.Graph` operator by operator with
dense numpy kernels, using deterministic synthetic weights and inputs.

Numerics are carried in float32 regardless of the declared tensor dtypes —
the goal is functional equivalence of the mapping/tiling, not bit-exact
integer quantisation.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

import numpy as np

from ..ir.graph import Graph
from ..ir.operators import (
    Activation,
    Concat,
    Conv2d,
    Elementwise,
    Embedding,
    GlobalAvgPool,
    Linear,
    MatMul,
    Normalization,
    Operator,
    Pool2d,
    Reshape,
    Softmax,
)
from ..ir.tensor import TensorSpec


class ReferenceExecutionError(RuntimeError):
    """Raised when the reference executor cannot handle an operator."""


def deterministic_tensor(spec: TensorSpec, seed: int = 0, scale: float = 0.1) -> np.ndarray:
    """Deterministic pseudo-random float32 tensor for a spec.

    The same (name, shape, seed) yields the same data in every process (a
    CRC-32 seed, not the salted ``hash()``), so compiled programs and
    reference runs see identical inputs without storing any dataset.
    """
    canonical = repr((spec.name, tuple(int(d) for d in spec.shape), int(seed)))
    rng = np.random.default_rng(zlib.crc32(canonical.encode("utf-8")))
    return (rng.standard_normal(spec.shape) * scale).astype(np.float32)


def _im2col(x: np.ndarray, kh: int, kw: int, stride, padding) -> np.ndarray:
    """im2col for NCHW inputs -> (N * OH * OW, C * KH * KW)."""
    n, c, h, w = x.shape
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j, :, :] = padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw), oh, ow


class ReferenceExecutor:
    """Executes graphs with dense numpy kernels.

    Args:
        seed: Seed for the deterministic synthetic inputs and weights.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, graph: Graph, inputs: Optional[Dict[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
        """Execute ``graph``; returns every produced tensor by name."""
        values: Dict[str, np.ndarray] = {}
        for spec in graph.graph_inputs:
            if inputs and spec.name in inputs:
                values[spec.name] = np.asarray(inputs[spec.name], dtype=np.float32)
            else:
                values[spec.name] = deterministic_tensor(spec, self.seed)
        for op in graph.topological_order():
            values[op.outputs[0].name] = self.run_operator(op, values)
        return values

    def weight_of(self, op: Operator) -> np.ndarray:
        """Deterministic weight tensor of an operator."""
        if op.weight is None:
            raise ReferenceExecutionError(f"operator {op.name!r} has no weights")
        return deterministic_tensor(op.weight, self.seed)

    # ------------------------------------------------------------------ #
    # per-operator kernels
    # ------------------------------------------------------------------ #
    def run_operator(self, op: Operator, values: Dict[str, np.ndarray]) -> np.ndarray:
        """Execute one operator given the tensors produced so far."""
        args = [values[t.name] for t in op.inputs]
        if isinstance(op, Linear):
            return self._linear(op, args[0])
        if isinstance(op, MatMul):
            return np.matmul(args[0], args[1])
        if isinstance(op, Conv2d):
            return self._conv2d(op, args[0])
        if isinstance(op, Activation):
            return self._activation(op.function, args[0])
        if isinstance(op, Elementwise):
            return self._elementwise(op.function, args)
        if isinstance(op, Softmax):
            return self._softmax(args[0], op.axis)
        if isinstance(op, Normalization):
            return self._normalize(op.kind, args[0])
        if isinstance(op, Pool2d):
            return self._pool2d(op, args[0])
        if isinstance(op, GlobalAvgPool):
            return args[0].mean(axis=(2, 3))
        if isinstance(op, Embedding):
            table = self.weight_of(op)
            indices = np.mod(np.abs(args[0]).astype(np.int64), table.shape[0])
            return table[indices]
        if isinstance(op, Reshape):
            return args[0].reshape(op.outputs[0].shape)
        if isinstance(op, Concat):
            return np.concatenate(args, axis=op.axis)
        raise ReferenceExecutionError(f"unsupported operator type {op.op_type!r} ({op.name})")

    def _linear(self, op: Linear, x: np.ndarray) -> np.ndarray:
        weight = self.weight_of(op)
        k, n = weight.shape
        flat = x.reshape(-1, k)
        out = flat @ weight
        return out.reshape(op.outputs[0].shape)

    def _conv2d(self, op: Conv2d, x: np.ndarray) -> np.ndarray:
        weight = self.weight_of(op)  # (out_c, in_c_per_group, kh, kw)
        out_c, in_c_per_group, kh, kw = weight.shape
        groups = op.groups
        n, in_c, _, _ = x.shape
        outputs = []
        in_per_group = in_c // groups
        out_per_group = out_c // groups
        for g in range(groups):
            xg = x[:, g * in_per_group : (g + 1) * in_per_group]
            wg = weight[g * out_per_group : (g + 1) * out_per_group]
            cols, oh, ow = _im2col(xg, kh, kw, op.stride, op.padding)
            wmat = wg.reshape(out_per_group, -1).T  # (in*kh*kw, out_per_group)
            out = cols @ wmat  # (n*oh*ow, out_per_group)
            outputs.append(out.reshape(n, oh, ow, out_per_group).transpose(0, 3, 1, 2))
        return np.concatenate(outputs, axis=1)

    @staticmethod
    def _activation(function: str, x: np.ndarray) -> np.ndarray:
        if function == "relu":
            return np.maximum(x, 0.0)
        if function == "gelu":
            return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
        if function in ("silu", "swish"):
            return x / (1.0 + np.exp(-x))
        if function == "sigmoid":
            return 1.0 / (1.0 + np.exp(-x))
        if function == "tanh":
            return np.tanh(x)
        raise ReferenceExecutionError(f"unknown activation {function!r}")

    @staticmethod
    def _elementwise(function: str, args) -> np.ndarray:
        if function == "add":
            result = args[0]
            for other in args[1:]:
                result = result + other
            return result
        if function == "mul":
            result = args[0]
            for other in args[1:]:
                result = result * other
            return result
        raise ReferenceExecutionError(f"unknown elementwise function {function!r}")

    @staticmethod
    def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=axis, keepdims=True)

    @staticmethod
    def _normalize(kind: str, x: np.ndarray) -> np.ndarray:
        if kind == "rmsnorm":
            scale = np.sqrt(np.mean(x**2, axis=-1, keepdims=True) + 1e-6)
            return x / scale
        if kind == "batchnorm":
            mean = x.mean(axis=(0, 2, 3), keepdims=True) if x.ndim == 4 else x.mean(0, keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True) if x.ndim == 4 else x.var(0, keepdims=True)
            return (x - mean) / np.sqrt(var + 1e-6)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-6)

    @staticmethod
    def _pool2d(op: Pool2d, x: np.ndarray) -> np.ndarray:
        kh, kw = op.kernel
        sh, sw = op.stride
        n, c, h, w = x.shape
        oh = op.outputs[0].shape[2]
        ow = op.outputs[0].shape[3]
        # Pad (with -inf for max, 0 for avg) so strided windows always exist.
        pad_h = max(0, (oh - 1) * sh + kh - h)
        pad_w = max(0, (ow - 1) * sw + kw - w)
        fill = -np.inf if op.mode == "max" else 0.0
        padded = np.pad(x, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), constant_values=fill)
        windows = np.empty((n, c, oh, ow, kh, kw), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                windows[:, :, :, :, i, j] = padded[
                    :, :, i : i + sh * oh : sh, j : j + sw * ow : sw
                ]
        if op.mode == "max":
            return windows.max(axis=(4, 5))
        return windows.mean(axis=(4, 5))
