"""Tests for the graph builder and the lowering/partitioning transforms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    GraphBuilder,
    GraphError,
    Linear,
    MatMul,
    MatmulDims,
    Shard,
    TensorSpec,
    ceil_div,
    fuse_auxiliary_traffic,
    partition_operator,
    shard_operator,
    tile_counts,
)
from repro.ir.transforms import FUSEABLE_OP_TYPES


class TestBuilderShapes:
    def test_conv_output_shape(self):
        builder = GraphBuilder("b")
        x = builder.input("x", (1, 3, 32, 32))
        y = builder.conv2d(x, 16, kernel=3, stride=2, padding=1)
        assert y.shape == (1, 16, 16, 16)

    def test_conv_no_padding(self):
        builder = GraphBuilder("b")
        x = builder.input("x", (1, 3, 32, 32))
        y = builder.conv2d(x, 8, kernel=5, stride=1, padding=0)
        assert y.shape == (1, 8, 28, 28)

    def test_pool_output_shape(self):
        builder = GraphBuilder("b")
        x = builder.input("x", (1, 8, 16, 16))
        y = builder.pool2d(x, kernel=2, stride=2)
        assert y.shape == (1, 8, 8, 8)

    def test_linear_keeps_leading_dims(self):
        builder = GraphBuilder("b")
        x = builder.input("x", (2, 5, 64))
        y = builder.linear(x, 128)
        assert y.shape == (2, 5, 128)

    def test_matmul_shape(self):
        builder = GraphBuilder("b")
        a = builder.input("a", (2, 4, 8))
        b = builder.input("b", (2, 8, 6))
        y = builder.matmul(a, b)
        assert y.shape == (2, 4, 6)

    def test_global_avg_pool_shape(self):
        builder = GraphBuilder("b")
        x = builder.input("x", (3, 32, 7, 7))
        y = builder.global_avg_pool(x)
        assert y.shape == (3, 32)

    def test_concat_shape(self):
        builder = GraphBuilder("b")
        a = builder.input("a", (2, 3))
        b = builder.input("b", (2, 5))
        y = builder.concat([a, b], axis=1)
        assert y.shape == (2, 8)

    def test_embedding_shape(self):
        builder = GraphBuilder("b")
        ids = builder.input("ids", (2, 10))
        y = builder.embedding(ids, vocab_size=100, hidden=32)
        assert y.shape == (2, 10, 32)

    def test_auto_naming_unique(self):
        builder = GraphBuilder("b")
        x = builder.input("x", (1, 8))
        builder.linear(x, 8)
        builder.linear(x, 8)  # same source, fresh names
        graph = builder.finish()
        assert len({op.name for op in graph.operators}) == 2

    def test_finish_always_validates(self):
        builder = GraphBuilder("b")
        builder.linear(TensorSpec("ghost", (1, 8)), 8)  # never declared an input
        with pytest.raises(GraphError, match="unknown tensor 'ghost'"):
            builder.finish()


class TestTilingHelpers:
    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        assert ceil_div(1, 100) == 1

    def test_ceil_div_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(4, 0)

    def test_tile_counts(self):
        dims = MatmulDims(m=10, k=100, n=70)
        assert tile_counts(dims, 64, 64) == (2, 2)

    @given(
        k=st.integers(min_value=1, max_value=2000),
        n=st.integers(min_value=1, max_value=2000),
        rows=st.integers(min_value=8, max_value=256),
        cols=st.integers(min_value=8, max_value=256),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiles_cover_matrix(self, k, n, rows, cols):
        dims = MatmulDims(m=1, k=k, n=n)
        tiles_k, tiles_n = tile_counts(dims, rows, cols)
        assert tiles_k * rows >= k
        assert tiles_n * cols >= n
        assert (tiles_k - 1) * rows < k
        assert (tiles_n - 1) * cols < n


def make_linear(m, k, n):
    return Linear(
        "big",
        input=TensorSpec("x", (m, k)),
        output=TensorSpec("y", (m, n)),
        weight=TensorSpec("w", (k, n)),
    )


class TestPartitioning:
    def test_fitting_operator_single_shard(self):
        op = make_linear(4, 32, 32)
        shards = partition_operator(op, max_stationary_elements=64 * 64, array_rows=64, array_cols=64)
        assert shards == [Shard("big", "big", 0, (0, 32), (0, 32))]

    def test_oversized_operator_is_split(self):
        op = make_linear(4, 256, 256)
        shards = partition_operator(op, max_stationary_elements=64 * 64, array_rows=64, array_cols=64)
        assert len(shards) > 1

    def test_shards_cover_full_stationary_matrix(self):
        op = make_linear(4, 300, 500)
        shards = partition_operator(op, 4 * 64 * 64, 64, 64)
        covered_k = set()
        covered_n = set()
        for shard in shards:
            covered_k.update(range(*shard.k_range))
            covered_n.update(range(*shard.n_range))
        assert covered_k == set(range(300))
        assert covered_n == set(range(500))

    def test_shard_stationary_fits_budget(self):
        budget = 2 * 64 * 64
        op = make_linear(4, 512, 512)
        for shard in partition_operator(op, budget, 64, 64):
            (k_lo, k_hi), (n_lo, n_hi) = shard.k_range, shard.n_range
            assert (k_hi - k_lo) * (n_hi - n_lo) <= budget

    def test_k_split_marks_partial_sums(self):
        """Every shard of a K split covers a proper sub-range of K."""
        op = make_linear(4, 512, 64)
        shards = partition_operator(op, 64 * 64, 64, 64)
        assert len(shards) > 1
        assert all(shard.k_range != (0, 512) for shard in shards)
        assert all(0 <= lo < hi <= 512 for lo, hi in (s.k_range for s in shards))

    def test_n_only_split_has_no_partial_sums(self):
        op = make_linear(4, 64, 512)
        shards = partition_operator(op, 64 * 64, 64, 64)
        assert len(shards) > 1
        assert all(shard.k_range == (0, 64) for shard in shards)

    def test_shards_record_parent(self):
        op = make_linear(4, 512, 512)
        shards = partition_operator(op, 64 * 64, 64, 64)
        for index, shard in enumerate(shards):
            assert shard.parent == "big"
            assert shard.index == index
            assert shard.name == f"big::part{index}"

    @pytest.mark.parametrize(
        "op",
        [
            make_linear(4, 300, 500),
            MatMul(
                "big",
                lhs=TensorSpec("a", (4, 300)),
                rhs=TensorSpec("b", (300, 500)),
                output=TensorSpec("y", (4, 500)),
            ),
        ],
        ids=["static", "dynamic"],
    )
    def test_shard_operator_covers_its_range(self, op):
        """The last shard is the remainder in both K and N."""
        shard = partition_operator(op, 4 * 64 * 64, 64, 64)[-1]
        built = shard_operator(op, shard)
        assert built.name == shard.name
        assert built.has_static_weight == op.has_static_weight
        dims = built.matmul_dims()
        assert (dims.m, dims.k, dims.n) == (4, 300 - shard.k_range[0], 500 - shard.n_range[0])

    def test_non_mappable_operator_rejected(self, tiny_cnn_graph):
        aux = next(op for op in tiny_cnn_graph.operators if not op.is_cim_mappable)
        with pytest.raises(ValueError):
            partition_operator(aux, 64 * 64, 64, 64)

    def test_budget_below_one_array_rejected(self):
        with pytest.raises(ValueError):
            partition_operator(make_linear(4, 256, 256), 10, 64, 64)

    @given(
        k=st.integers(min_value=1, max_value=1500),
        n=st.integers(min_value=1, max_value=1500),
        budget_tiles=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_shards_macs_sum_to_parent(self, k, n, budget_tiles):
        op = make_linear(3, k, n)
        shards = partition_operator(op, budget_tiles * 64 * 64, 64, 64)
        total = sum(
            3 * (s.k_range[1] - s.k_range[0]) * (s.n_range[1] - s.n_range[0]) for s in shards
        )
        assert total == op.macs


class TestAuxiliaryFusion:
    def test_fuseable_types_add_no_traffic(self, tiny_cnn_graph):
        extra = fuse_auxiliary_traffic(tiny_cnn_graph)
        # tiny-cnn only has ReLU / GAP aux ops; GAP adds traffic, ReLU does not.
        gap = next(op for op in tiny_cnn_graph.operators if op.op_type == "global_avg_pool")
        assert sum(extra.values()) >= gap.output_elements
        relu_outputs = sum(
            op.output_elements
            for op in tiny_cnn_graph.operators
            if op.op_type in FUSEABLE_OP_TYPES
        )
        assert sum(extra.values()) < relu_outputs + gap.output_elements + 1

    def test_softmax_traffic_attributed(self, tiny_transformer_graph):
        extra = fuse_auxiliary_traffic(tiny_transformer_graph)
        softmax_out = sum(
            op.output_elements for op in tiny_transformer_graph.operators if op.op_type == "softmax"
        )
        assert sum(extra.values()) >= softmax_out

    def test_keys_are_cim_operators(self, tiny_transformer_graph):
        extra = fuse_auxiliary_traffic(tiny_transformer_graph)
        cim_names = {op.name for op in tiny_transformer_graph.cim_operators()}
        assert set(extra) == cim_names
