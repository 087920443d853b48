"""Numpy reference executor for computation graphs.

The functional simulator needs a ground-truth result to compare the
array-level CIM execution against (the paper verifies its compiled
meta-operator flows against PyTorch).  This module plays PyTorch's role:
it executes a :class:`~repro.ir.graph.Graph` operator by operator with
dense numpy kernels, using deterministic synthetic weights and inputs.

There is one walk, :meth:`ReferenceExecutor.walk`, over the graph's
topological order.  It draws each operator's weight once, hands it to the
kernel and to an optional ``visit`` callback, and can drop every tensor
once its last reader has run; :meth:`ReferenceExecutor.run` is the walk
that keeps every tensor.  A weight is drawn into its float32 output in
chunks of :data:`CHUNK_ELEMENTS`, so drawing it needs no more than the
weight itself plus one chunk of float64 scratch.

Numerics are carried in float32 regardless of the declared tensor dtypes —
every kernel takes and returns float32 — since the goal is functional
equivalence of the mapping/tiling, not bit-exact integer quantisation.
"""

from __future__ import annotations

import math
import zlib
from typing import Callable, Dict, List, Optional

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


#: Elements :func:`deterministic_tensor` draws per step (512 KiB of float64).
CHUNK_ELEMENTS = 64 * 1024

#: Standard deviation of every :func:`deterministic_tensor` draw.
SCALE = 0.1


def deterministic_tensor(spec: TensorSpec) -> np.ndarray:
    """Deterministic pseudo-random float32 tensor for a spec.

    The same (name, shape) yields the same data in every process (a
    CRC-32 of ``repr((name, shape, 0))``, not the salted ``hash()``), so
    compiled programs and reference runs see identical inputs without
    storing any dataset.

    The values are ``(rng.standard_normal(shape) * SCALE)`` cast to
    float32, bit for bit, but drawn :data:`CHUNK_ELEMENTS` at a time into
    the output: the generator's stream does not depend on how it is cut.
    """
    shape = tuple(int(d) for d in spec.shape)
    canonical = repr((spec.name, shape, 0))
    rng = np.random.default_rng(zlib.crc32(canonical.encode("utf-8")))
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    scratch = np.empty(min(CHUNK_ELEMENTS, flat.size), dtype=np.float64)
    for lo in range(0, flat.size, CHUNK_ELEMENTS):
        chunk = scratch[: min(CHUNK_ELEMENTS, flat.size - lo)]
        rng.standard_normal(out=chunk)
        chunk *= SCALE
        flat[lo : lo + chunk.size] = chunk
    return out


#: tanh-approximation gelu's sqrt(2 / pi).
_GELU_SCALE = math.sqrt(2.0 / math.pi)


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
    """Executes graphs with dense numpy kernels, on the seed-0
    :func:`deterministic_tensor` inputs and weights."""

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, graph: Graph, inputs: Optional[Dict[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
        """Execute ``graph``; returns every produced tensor by name."""
        values: Dict[str, np.ndarray] = {}
        self.walk(graph, values, inputs)
        return values

    def walk(
        self,
        graph: Graph,
        values: Dict[str, np.ndarray],
        inputs: Optional[Dict[str, np.ndarray]] = None,
        visit: Optional[Callable[[Operator, Optional[np.ndarray]], None]] = None,
        release: bool = False,
    ) -> None:
        """Execute ``graph`` into ``values``, one operator at a time.

        Each operator's weight is drawn once, used by its kernel, passed to
        ``visit(op, weight)`` — called while ``values`` holds the
        operator's inputs and output — and dropped before the next draw.
        With ``release``, a tensor leaves ``values`` after the visit of
        its last reader (an output no operator reads, after its own), so
        only live activations are held.
        """
        for spec in graph.graph_inputs:
            if inputs and spec.name in inputs:
                values[spec.name] = np.asarray(inputs[spec.name], dtype=np.float32)
            else:
                values[spec.name] = deterministic_tensor(spec)
        order = graph.topological_order()
        last_use: Dict[str, int] = {}  # a tensor's last reader, else its producer
        for position, op in enumerate(order if release else ()):
            last_use[op.outputs[0].name] = position
            last_use.update((tensor.name, position) for tensor in op.inputs)
        dead: List[List[str]] = [[] for _ in order]
        for name, position in last_use.items():
            dead[position].append(name)
        for op, names in zip(order, dead):
            weight = self.weight_of(op) if op.weight is not None else None
            values[op.outputs[0].name] = self.run_operator(op, values, weight)
            if visit is not None:
                visit(op, weight)
            del weight  # before the next operator draws its own
            for name in names:
                del values[name]

    def weight_of(self, op: Operator) -> np.ndarray:
        """Deterministic weight tensor of an operator."""
        if op.weight is None:
            raise ReferenceExecutionError(f"operator {op.name!r} has no weights")
        return deterministic_tensor(op.weight)

    # ------------------------------------------------------------------ #
    # per-operator kernels
    # ------------------------------------------------------------------ #
    def run_operator(
        self, op: Operator, values: Dict[str, np.ndarray], weight: Optional[np.ndarray]
    ) -> np.ndarray:
        """Execute one operator given the tensors produced so far and its
        drawn weight (None for an operator without one)."""
        args = [values[t.name] for t in op.inputs]
        if isinstance(op, Linear):
            return self._linear(op, args[0], weight)
        if isinstance(op, MatMul):
            return np.matmul(args[0], args[1])
        if isinstance(op, Conv2d):
            return self._conv2d(op, args[0], weight)
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
            indices = np.mod(np.abs(args[0]).astype(np.int64), weight.shape[0])
            return weight[indices]
        if isinstance(op, Reshape):
            return args[0].reshape(op.outputs[0].shape)
        if isinstance(op, Concat):
            return np.concatenate(args, axis=op.axis)
        raise ReferenceExecutionError(f"unsupported operator type {op.op_type!r} ({op.name})")

    @staticmethod
    def _linear(op: Linear, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        k, n = weight.shape
        flat = x.reshape(-1, k)
        out = flat @ weight
        return out.reshape(op.outputs[0].shape)

    @staticmethod
    def _conv2d(op: Conv2d, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        # weight: (out_c, in_c_per_group, kh, kw)
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
            # A Python float constant: a numpy float64 one would promote x.
            return 0.5 * x * (1.0 + np.tanh(_GELU_SCALE * (x + 0.044715 * x**3)))
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
