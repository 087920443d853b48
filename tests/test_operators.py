"""Unit tests for IR operators (repro.ir.operators)."""

import pytest

from repro.ir.operators import (
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
    operator_from_dict,
)
from repro.ir.tensor import DataType, TensorSpec


def t(name, *shape, dtype=DataType.INT8):
    return TensorSpec(name, tuple(shape), dtype=dtype)


class TestLinear:
    def make(self, m=4, k=8, n=16):
        return Linear(
            "fc",
            input=t("x", m, k),
            output=t("y", m, n),
            weight=t("w", k, n),
        )

    def test_macs(self):
        assert self.make(4, 8, 16).macs == 4 * 8 * 16

    def test_flops_twice_macs(self):
        op = self.make()
        assert op.flops == 2 * op.macs

    def test_matmul_dims(self):
        dims = self.make(4, 8, 16).matmul_dims()
        assert (dims.m, dims.k, dims.n) == (4, 8, 16)

    def test_matmul_dims_with_batch_dims(self):
        op = Linear(
            "fc", input=t("x", 2, 3, 8), output=t("y", 2, 3, 16), weight=t("w", 8, 16)
        )
        assert op.matmul_dims().m == 6

    def test_is_cim_mappable_with_static_weight(self):
        op = self.make()
        assert op.is_cim_mappable
        assert op.has_static_weight

    def test_weight_elements(self):
        assert self.make(4, 8, 16).weight_elements == 128

    def test_stationary_elements(self):
        assert self.make(4, 8, 16).stationary_elements == 128

    def test_streamed_excludes_static_weights(self):
        op = self.make(4, 8, 16)
        assert op.streamed_elements == 4 * 8 + 4 * 16

    def test_mismatched_input_features_rejected(self):
        with pytest.raises(ValueError):
            Linear("fc", input=t("x", 4, 7), output=t("y", 4, 16), weight=t("w", 8, 16))

    def test_mismatched_output_features_rejected(self):
        with pytest.raises(ValueError):
            Linear("fc", input=t("x", 4, 8), output=t("y", 4, 15), weight=t("w", 8, 16))

    def test_weight_rank_checked(self):
        with pytest.raises(ValueError):
            Linear("fc", input=t("x", 4, 8), output=t("y", 4, 16), weight=t("w", 8, 16, 1))


class TestMatMul:
    def make_batched(self, b=2, m=4, k=8, n=6):
        return MatMul("qk", lhs=t("q", b, m, k), rhs=t("kT", b, k, n), output=t("s", b, m, n))

    def test_macs(self):
        assert self.make_batched(2, 4, 8, 6).macs == 2 * 4 * 8 * 6

    def test_no_static_weight(self):
        op = self.make_batched()
        assert not op.has_static_weight
        assert op.weight_elements == 0

    def test_stationary_is_single_head_matrix(self):
        # Heads time-share the same compute arrays, so only one K x N matrix
        # must be resident at a time.
        op = self.make_batched(2, 4, 8, 6)
        assert op.stationary_elements == 8 * 6

    def test_streamed_includes_both_operands(self):
        op = self.make_batched(2, 4, 8, 6)
        assert op.streamed_input_elements == 2 * 4 * 8 + 2 * 8 * 6

    def test_inner_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MatMul("bad", lhs=t("a", 4, 8), rhs=t("b", 7, 6), output=t("c", 4, 6))

    def test_is_cim_mappable(self):
        assert self.make_batched().is_cim_mappable


class TestConv2d:
    def make(self, groups=1, in_c=8, out_c=16, k=3):
        return Conv2d(
            "conv",
            input=t("x", 1, in_c, 8, 8),
            output=t("y", 1, out_c, 8, 8),
            weight=t("w", out_c, in_c // groups, k, k),
            stride=(1, 1),
            padding=(1, 1),
            groups=groups,
        )

    def test_macs(self):
        op = self.make()
        assert op.macs == 1 * 8 * 8 * 16 * 8 * 3 * 3

    def test_matmul_dims_im2col(self):
        dims = self.make().matmul_dims()
        assert dims.m == 64
        assert dims.k == 8 * 9
        assert dims.n == 16

    def test_depthwise_macs(self):
        op = self.make(groups=8, in_c=8, out_c=8)
        assert op.macs == 1 * 8 * 8 * 8 * 1 * 3 * 3

    def test_grouped_dims_replicate_rows(self):
        op = self.make(groups=8, in_c=8, out_c=8)
        dims = op.matmul_dims()
        assert dims.m == 64 * 8
        assert dims.k == 9

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Conv2d(
                "conv",
                input=t("x", 1, 8, 8, 8),
                output=t("y", 1, 16, 8, 8),
                weight=t("w", 16, 4, 3, 3),
            )

    def test_output_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Conv2d(
                "conv",
                input=t("x", 1, 8, 8, 8),
                output=t("y", 1, 12, 8, 8),
                weight=t("w", 16, 8, 3, 3),
            )

    def test_rank_checked(self):
        with pytest.raises(ValueError):
            Conv2d(
                "conv",
                input=t("x", 8, 8, 8),
                output=t("y", 1, 16, 8, 8),
                weight=t("w", 16, 8, 3, 3),
            )


class TestAuxiliaryOperators:
    def test_activation_flops(self):
        op = Activation("relu", input=t("x", 4, 4), output=t("y", 4, 4), function="relu")
        assert op.flops == 16
        assert not op.is_cim_mappable

    def test_softmax_flops(self):
        op = Softmax("sm", input=t("x", 2, 8), output=t("y", 2, 8))
        assert op.flops == 3 * 16

    def test_normalization_kinds(self):
        op = Normalization("ln", input=t("x", 2, 8), output=t("y", 2, 8), kind="rmsnorm")
        assert op.kind == "rmsnorm"
        assert op.flops > 0

    def test_pool_flops(self):
        op = Pool2d("p", input=t("x", 1, 4, 8, 8), output=t("y", 1, 4, 4, 4), kernel=(2, 2))
        assert op.flops == 4 * 4 * 4 * 4

    def test_global_avg_pool(self):
        op = GlobalAvgPool("gap", input=t("x", 1, 16, 7, 7), output=t("y", 1, 16))
        assert op.flops == 16 * 49

    def test_embedding_has_weight(self):
        op = Embedding("emb", input=t("ids", 1, 8), output=t("y", 1, 8, 32), weight=t("w", 100, 32))
        assert op.weight_elements == 3200
        assert not op.is_cim_mappable

    def test_reshape_is_view(self):
        op = Reshape("r", input=t("x", 2, 8), output=t("y", 16))
        assert op.is_view
        assert op.flops == 0

    def test_reshape_element_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Reshape("r", input=t("x", 2, 8), output=t("y", 15))

    def test_concat(self):
        op = Concat("c", inputs=[t("a", 2, 3), t("b", 2, 5)], output=t("y", 2, 8), axis=1)
        assert op.input_elements == 16
        assert op.axis == 1

    def test_elementwise_mul(self):
        op = Elementwise("m", inputs=[t("a", 4), t("b", 4)], output=t("y", 4), function="mul")
        assert op.function == "mul"
        assert op.flops == 4

    def test_operator_requires_name_and_output(self):
        with pytest.raises(ValueError):
            Activation("", input=t("x", 1), output=t("y", 1))


class TestSerialization:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: Linear("fc", t("x", 4, 8), t("y", 4, 16), t("w", 8, 16)),
            lambda: MatMul("mm", t("a", 4, 8), t("b", 8, 6), t("c", 4, 6)),
            lambda: Conv2d("cv", t("x", 1, 4, 8, 8), t("y", 1, 8, 8, 8), t("w", 8, 4, 3, 3), padding=(1, 1)),
            lambda: Softmax("sm", t("x", 2, 8), t("y", 2, 8)),
            lambda: Pool2d("p", t("x", 1, 4, 8, 8), t("y", 1, 4, 4, 4)),
            lambda: Normalization("n", t("x", 2, 8), t("y", 2, 8), kind="layernorm"),
            lambda: Reshape("r", t("x", 2, 8), t("y", 16)),
            lambda: Concat("c", [t("a", 2, 3), t("b", 2, 5)], t("y", 2, 8), axis=1),
        ],
    )
    def test_roundtrip_preserves_costs(self, factory):
        original = factory()
        restored = operator_from_dict(original.to_dict())
        assert restored.op_type == original.op_type
        assert restored.name == original.name
        assert restored.macs == original.macs
        assert restored.flops == original.flops
        assert restored.input_elements == original.input_elements
        assert restored.output_elements == original.output_elements
        assert restored.weight_elements == original.weight_elements

    def test_roundtrip_preserves_matmul_dims(self):
        original = Conv2d(
            "cv", t("x", 1, 4, 8, 8), t("y", 1, 8, 4, 4), t("w", 8, 4, 3, 3), stride=(2, 2), padding=(1, 1)
        )
        restored = operator_from_dict(original.to_dict())
        assert restored.matmul_dims() == original.matmul_dims()
