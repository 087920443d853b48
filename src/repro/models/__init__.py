"""Benchmark model zoo and workload descriptions.

The zoo covers every network in the paper's evaluation (BERT, GPT-2,
LLaMA 2, OPT, MobileNetV2, ResNet, VGG) plus tiny synthetic models used by
the test suite.  Graphs are constructed analytically — shapes, parameter
counts and MAC counts match an ONNX export of the reference PyTorch
implementations.
"""

from .registry import (
    build_model,
    build_tiny_cnn,
    build_tiny_mlp,
    build_tiny_transformer,
    default_workload,
    is_transformer,
    list_models,
    register_model,
)
from .workload import Phase, Workload

__all__ = [
    "Phase",
    "Workload",
    "build_model",
    "build_tiny_cnn",
    "build_tiny_mlp",
    "build_tiny_transformer",
    "default_workload",
    "is_transformer",
    "list_models",
    "register_model",
]
