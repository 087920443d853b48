"""Unit tests for tensor metadata (repro.ir.tensor)."""

import dataclasses

import numpy as np
import pytest

from repro.ir.tensor import DataType, TensorSpec, elements


class TestDataType:
    @pytest.mark.parametrize(
        "dtype,size",
        [
            (DataType.INT8, 1),
            (DataType.INT16, 2),
            (DataType.INT32, 4),
            (DataType.FP16, 2),
            (DataType.FP32, 4),
        ],
    )
    def test_size_bytes(self, dtype, size):
        assert dtype.size_bytes == size

    def test_roundtrip_from_value(self):
        assert DataType("int8") is DataType.INT8

    @pytest.mark.parametrize("dtype", list(DataType))
    def test_size_bytes_matches_the_numpy_type_of_that_name(self, dtype):
        """The numpy spelling ``docs/api.md`` gives in place of the
        removed ``numpy_dtype`` names a type of the same width."""
        name = {"fp16": "float16", "fp32": "float32"}.get(dtype.value, dtype.value)
        assert np.dtype(name).itemsize == dtype.size_bytes


class TestTensorSpec:
    def test_basic_properties(self):
        spec = TensorSpec("x", (2, 3, 4))
        assert spec.rank == 3
        assert spec.num_elements == 24
        assert spec.num_bytes == 24  # int8 default

    def test_fp32_bytes(self):
        spec = TensorSpec("x", (10,), dtype=DataType.FP32)
        assert spec.num_bytes == 40

    def test_scalar_shape(self):
        spec = TensorSpec("s", ())
        assert spec.rank == 0
        assert spec.num_elements == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TensorSpec("", (1,))

    @pytest.mark.parametrize("shape", [(0,), (-1, 2), (2, 0, 3)])
    def test_non_positive_dims_rejected(self, shape):
        with pytest.raises(ValueError):
            TensorSpec("x", shape)

    def test_shape_coerced_to_int_tuple(self):
        spec = TensorSpec("x", [2.0, 3.0])
        assert spec.shape == (2, 3)
        assert all(isinstance(d, int) for d in spec.shape)

    def test_frozen(self):
        spec = TensorSpec("x", (1,))
        with pytest.raises(AttributeError):
            spec.name = "y"

    def test_to_from_dict_roundtrip(self):
        spec = TensorSpec("act", (1, 16, 8, 8), dtype=DataType.FP16)
        restored = TensorSpec.from_dict(spec.to_dict())
        assert restored == spec

    def test_str_contains_name_and_dims(self):
        text = str(TensorSpec("act", (2, 4)))
        assert "act" in text and "2x4" in text

    def test_replace_renames_and_reshapes(self):
        spec = TensorSpec("x", (2, 3), dtype=DataType.FP16)
        renamed = dataclasses.replace(spec, name="y")
        reshaped = dataclasses.replace(spec, shape=[3.0, 2.0])
        assert (renamed.name, renamed.shape, renamed.dtype) == ("y", (2, 3), DataType.FP16)
        assert (reshaped.name, reshaped.shape) == ("x", (3, 2))
        assert spec == TensorSpec("x", (2, 3), dtype=DataType.FP16)  # original untouched

    @pytest.mark.parametrize(
        "changes", [{"name": ""}, {"shape": (2, 0)}], ids=["empty-name", "zero-dim"]
    )
    def test_replace_validates_like_the_constructor(self, changes):
        with pytest.raises(ValueError):
            dataclasses.replace(TensorSpec("x", (2, 3)), **changes)

    def test_equality_and_hash(self):
        a = TensorSpec("x", (2, 2))
        b = TensorSpec("x", (2, 2))
        assert a == b
        assert hash(a) == hash(b)


class TestAggregates:
    def test_elements_sum(self):
        specs = [TensorSpec("a", (2, 2)), TensorSpec("b", (3,))]
        assert elements(specs) == 7

    def test_empty_iterables(self):
        assert elements([]) == 0
