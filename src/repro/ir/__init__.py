"""Computation-graph intermediate representation.

This package provides the ONNX-like graph substrate the CMSwitch compiler
consumes: tensor metadata, operator definitions with MAC/data-volume
accounting, the DAG container, a fluent builder, lowering/partitioning
transforms and JSON serialisation.
"""

from .builder import GraphBuilder
from .graph import Graph, GraphError, GraphStats
from .operators import (
    Activation,
    Concat,
    Conv2d,
    Elementwise,
    Embedding,
    GlobalAvgPool,
    Linear,
    MatMul,
    MatMulLike,
    MatmulDims,
    Normalization,
    Operator,
    Pool2d,
    Reshape,
    Softmax,
    operator_from_dict,
)
from .serialization import (
    SerializationError,
    graph_from_json,
    graph_to_json,
)
from .tensor import DataType, TensorSpec
from .transforms import (
    Shard,
    ceil_div,
    fuse_auxiliary_traffic,
    partition_operator,
    shard_operator,
    tile_counts,
)

__all__ = [
    "Activation",
    "Concat",
    "Conv2d",
    "DataType",
    "Elementwise",
    "Embedding",
    "GlobalAvgPool",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "GraphStats",
    "Linear",
    "MatMul",
    "MatMulLike",
    "MatmulDims",
    "Normalization",
    "Operator",
    "Pool2d",
    "Reshape",
    "SerializationError",
    "Softmax",
    "Shard",
    "TensorSpec",
    "ceil_div",
    "fuse_auxiliary_traffic",
    "graph_from_json",
    "graph_to_json",
    "operator_from_dict",
    "partition_operator",
    "shard_operator",
    "tile_counts",
]
