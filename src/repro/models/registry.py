"""Model registry: build any benchmark network by name.

The registry maps the model names used throughout the paper's evaluation
("bert", "llama2-7b", "opt-13b", "mobilenet", "resnet18", "vgg16", ...) to
builder functions that take a :class:`~repro.models.workload.Workload`.
It also provides a synthetic "tiny" family used by unit tests so the whole
compiler stack can be exercised quickly.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..ir.builder import GraphBuilder
from ..ir.graph import Graph
from .cnn import build_mobilenet_v2, build_resnet18, build_resnet50, build_vgg11, build_vgg16
from .transformer import (
    build_bert_base,
    build_bert_large,
    build_gpt2,
    build_gpt2_xl,
    build_llama2_7b,
    build_llama2_13b,
    build_opt_1_3b,
    build_opt_6_7b,
    build_opt_13b,
)
from .transformer.common import TransformerConfig, build_transformer_graph
from .workload import Phase, Workload

ModelBuilder = Callable[[Workload], Graph]


def build_tiny_mlp(workload: Workload) -> Graph:
    """A three-layer MLP used by tests and the quickstart example."""
    builder = GraphBuilder("tiny-mlp")
    x = builder.input("x", (workload.batch_size, 256))
    x = builder.linear(x, 512, name="fc1")
    x = builder.relu(x)
    x = builder.linear(x, 512, name="fc2")
    x = builder.relu(x)
    x = builder.linear(x, 64, name="fc3")
    builder.output(x)
    graph = builder.finish()
    graph.metadata.update({"family": "test", "model": "tiny-mlp", "block_repeat": 1.0})
    return graph


def build_tiny_cnn(workload: Workload) -> Graph:
    """A four-convolution CNN at 32x32 resolution for fast tests."""
    builder = GraphBuilder("tiny-cnn")
    x = builder.input("image", (workload.batch_size, 3, 32, 32))
    x = builder.conv2d(x, 16, kernel=3, stride=1, padding=1, name="conv1")
    x = builder.relu(x)
    x = builder.conv2d(x, 32, kernel=3, stride=2, padding=1, name="conv2")
    x = builder.relu(x)
    x = builder.conv2d(x, 64, kernel=3, stride=2, padding=1, name="conv3")
    x = builder.relu(x)
    x = builder.global_avg_pool(x)
    x = builder.linear(x, 10, name="classifier")
    builder.output(x)
    graph = builder.finish()
    graph.metadata.update({"family": "test", "model": "tiny-cnn", "block_repeat": 1.0})
    return graph


TINY_TRANSFORMER = TransformerConfig(
    name="tiny-transformer",
    hidden_size=128,
    num_layers=2,
    num_heads=4,
    ffn_hidden=256,
    vocab_size=1000,
    activation="gelu",
)


def build_tiny_transformer(workload: Workload) -> Graph:
    """A two-layer, 128-hidden transformer for fast tests."""
    return build_transformer_graph(TINY_TRANSFORMER, workload, blocks=2)


_REGISTRY: Dict[str, ModelBuilder] = {
    # Paper benchmark set (Fig. 14 names).
    "bert": build_bert_large,
    "bert-base": build_bert_base,
    "bert-large": build_bert_large,
    "gpt2": build_gpt2,
    "gpt2-xl": build_gpt2_xl,
    "llama2-7b": build_llama2_7b,
    "llama2-13b": build_llama2_13b,
    "opt-1.3b": build_opt_1_3b,
    "opt-6.7b": build_opt_6_7b,
    "opt-13b": build_opt_13b,
    "mobilenet": build_mobilenet_v2,
    "mobilenet-v2": build_mobilenet_v2,
    "resnet18": build_resnet18,
    "resnet50": build_resnet50,
    "vgg11": build_vgg11,
    "vgg16": build_vgg16,
    # Synthetic models for tests and examples.
    "tiny-mlp": build_tiny_mlp,
    "tiny-cnn": build_tiny_cnn,
    "tiny-transformer": build_tiny_transformer,
}


def list_models() -> List[str]:
    """Names of all registered models, sorted."""
    return sorted(_REGISTRY)


def register_model(name: str, builder: ModelBuilder, overwrite: bool = False) -> None:
    """Register a custom model builder under ``name``.

    Raises:
        ValueError: If the name is already taken and ``overwrite`` is False.
    """
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"model {name!r} is already registered")
    _REGISTRY[name] = builder


def build_model(name: str, workload: Workload | None = None) -> Graph:
    """Build a registered model for the given workload.

    Args:
        name: Registered model name (see :func:`list_models`).
        workload: Batch / sequence-length description; defaults to the
            paper's default workload (batch 1, sequence length 64).

    Raises:
        KeyError: If the model name is unknown.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; known models: {', '.join(list_models())}")
    workload = workload or Workload()
    return _REGISTRY[name](workload)


def is_transformer(name: str) -> bool:
    """Whether the registered model is transformer-based."""
    return any(
        key in name
        for key in ("bert", "gpt", "llama", "opt", "transformer")
    )


def default_workload(model: str, **fields) -> Workload:
    """The workload a bare model name means: one forward pass.

    Transformers run a single sequence-parallel encode pass, everything
    else a prefill pass (CNN builders ignore the phase) — the Fig. 14
    setting, a trace request's and the CLI's default.  ``fields`` are
    the other :class:`Workload` fields; an explicit ``phase`` wins.
    """
    phase = Phase.ENCODE if is_transformer(model) else Phase.PREFILL
    return Workload(**{"phase": phase, **fields})
