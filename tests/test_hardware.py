"""Tests for the dual-mode hardware abstraction, presets and chip state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    ArrayMode,
    CIMChip,
    ChipStateError,
    DualModeHardwareAbstraction,
    PRESETS,
    dynaplasia,
    get_preset,
    prime,
    small_test_chip,
)


def minimal_hw(**overrides):
    params = dict(
        name="unit",
        num_arrays=4,
        array_rows=16,
        array_cols=16,
        buffer_bytes=256,
        internal_bw_bits=32,
        extern_bw_bits=64,
    )
    params.update(overrides)
    return DualModeHardwareAbstraction(**params)


class TestDEHAValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_arrays": 0},
            {"array_rows": 0},
            {"array_cols": -1},
            {"buffer_bytes": -1},
            {"internal_bw_bits": 0},
            {"extern_bw_bits": 0},
            {"compute_latency_cycles": 0},
            {"weight_bits": 0},
            {"switch_latency_m2c": -1},
            {"weight_update_overlap": 1.0},
            {"weight_update_overlap": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(ValueError):
            minimal_hw(**overrides)

    def test_port_widths_default_to_row_width(self):
        hw = minimal_hw()
        assert hw.array_read_bits == hw.array_cols
        assert hw.array_write_bits == hw.array_cols


class TestDerivedQuantities:
    def test_array_capacity(self):
        hw = minimal_hw()
        assert hw.array_capacity_elements == 256

    def test_op_cim(self):
        hw = minimal_hw(compute_latency_cycles=4)
        assert hw.op_cim == 16 * 16 / 4

    def test_d_cim(self):
        hw = minimal_hw(array_read_bits=64, activation_bits=8)
        assert hw.d_cim == 8

    def test_d_main_combines_bandwidths(self):
        hw = minimal_hw(internal_bw_bits=32, extern_bw_bits=64)
        assert hw.d_main == 12
        assert hw.d_extern == 8

    def test_array_write_latency_scaling(self):
        base = minimal_hw(array_write_bits=128, weight_update_overlap=0.0)
        slowed = minimal_hw(array_write_bits=128, write_energy_factor=4.0, weight_update_overlap=0.0)
        assert slowed.array_write_latency_cycles == 4 * base.array_write_latency_cycles

    def test_weight_update_overlap_reduces_write_latency(self):
        exposed = minimal_hw(weight_update_overlap=0.75)
        full = minimal_hw(weight_update_overlap=0.0)
        assert exposed.array_write_latency_cycles == pytest.approx(
            0.25 * full.array_write_latency_cycles
        )

    def test_cycle_conversion(self):
        hw = minimal_hw(frequency_mhz=100.0)
        assert hw.cycle_time_ns == 10.0
        assert hw.cycles_to_ms(100_000) == pytest.approx(1.0)

    def test_buffer_elements(self):
        hw = minimal_hw(buffer_bytes=1024, activation_bits=8)
        assert hw.buffer_elements == 1024

    def test_with_overrides_is_copy(self):
        hw = minimal_hw()
        bigger = hw.with_overrides(num_arrays=16)
        assert bigger.num_arrays == 16
        assert hw.num_arrays == 4

    def test_dict_roundtrip(self):
        hw = dynaplasia()
        restored = DualModeHardwareAbstraction.from_dict(hw.to_dict())
        assert restored == hw

    def test_summary_mentions_key_figures(self):
        text = dynaplasia().summary()
        assert "96" in text and "320x320" in text


class TestPresets:
    def test_dynaplasia_table2_values(self):
        hw = dynaplasia()
        assert hw.num_arrays == 96
        assert (hw.array_rows, hw.array_cols) == (320, 320)
        assert hw.buffer_bytes == 10 * 1024 * 8
        assert hw.internal_bw_bits == 32
        assert hw.switch_latency_m2c == 1
        assert hw.switch_latency_c2m == 1

    def test_prime_has_more_capacity_and_costlier_writes(self):
        d, p = dynaplasia(), prime()
        assert p.num_arrays * p.array_capacity_elements > d.num_arrays * d.array_capacity_elements
        assert p.array_write_latency_cycles > d.array_write_latency_cycles

    def test_small_chip_is_small(self):
        hw = small_test_chip()
        assert hw.num_arrays <= 16
        assert hw.array_rows <= 128

    def test_get_preset_by_name(self):
        assert get_preset("dynaplasia").name == "dynaplasia"
        assert set(PRESETS) >= {"dynaplasia", "prime", "small-test-chip"}

    def test_get_preset_unknown_raises(self):
        with pytest.raises(KeyError):
            get_preset("tpu")

    def test_get_preset_shares_one_chip_per_name(self):
        assert get_preset("prime") is get_preset("prime")
        assert get_preset("prime") is not get_preset("dynaplasia")
        # Overrides build a new chip, every time.
        custom = get_preset("prime", num_arrays=8)
        assert custom is not get_preset("prime", num_arrays=8)
        assert custom == get_preset("prime", num_arrays=8) and custom.num_arrays == 8
        assert get_preset("prime").num_arrays != 8

    def test_preset_overrides(self):
        hw = get_preset("dynaplasia", num_arrays=128)
        assert hw.num_arrays == 128


class TestChipState:
    def test_initial_state_idle(self, small_chip):
        chip = CIMChip(small_chip)
        assert chip.num_idle == small_chip.num_arrays
        assert chip.num_compute == 0
        assert chip.num_memory == 0

    def test_assign_and_release(self, small_chip):
        chip = CIMChip(small_chip)
        chip.assign([0, 1], owner="fc1", mode=ArrayMode.COMPUTE)
        chip.assign([3], owner="buf", mode=ArrayMode.MEMORY)
        assert chip.num_compute == 2
        assert [a.owner for a in chip.arrays[:4]] == ["fc1", "fc1", None, "buf"]
        released = chip.release()
        assert released == [0, 1, 3]
        assert all(array.owner is None for array in chip.arrays)
        assert chip.num_compute == 2 and chip.num_memory == 1  # modes are kept

    def test_chips_of_one_hardware_share_no_state(self, small_chip):
        """A fresh ``CIMChip`` is the idle, unswitched state, whatever
        another chip of the same hardware did."""
        used = CIMChip(small_chip)
        used.assign([0, 1], owner="fc1", mode=ArrayMode.COMPUTE)
        used.switch_mode([2], ArrayMode.MEMORY)
        fresh = CIMChip(small_chip)
        assert fresh.num_idle == small_chip.num_arrays
        assert all(array.owner is None for array in fresh.arrays)
        assert (fresh.switch_count_m2c, fresh.switch_count_c2m, fresh.switch_cycles) == (0, 0, 0.0)
        assert used.num_compute == 2 and used.arrays[0].owner == "fc1"

    def test_double_assignment_rejected(self, small_chip):
        chip = CIMChip(small_chip)
        chip.assign([0], owner="fc1", mode=ArrayMode.COMPUTE)
        with pytest.raises(ChipStateError):
            chip.assign([0], owner="fc2", mode=ArrayMode.MEMORY)

    def test_out_of_range_index_rejected(self, small_chip):
        chip = CIMChip(small_chip)
        with pytest.raises(ChipStateError):
            chip.switch_mode([small_chip.num_arrays + 5], ArrayMode.COMPUTE)

    def test_switch_counts_and_cycles(self, small_chip):
        chip = CIMChip(small_chip)
        chip.switch_mode([0, 1, 2], ArrayMode.MEMORY)  # idle -> memory: free
        cycles = chip.switch_mode([0, 1], ArrayMode.COMPUTE)
        assert chip.switch_count_m2c == 2
        assert cycles == 2 * small_chip.switch_latency_m2c
        cycles = chip.switch_mode([0], ArrayMode.MEMORY)
        assert chip.switch_count_c2m == 1
        assert chip.switch_cycles == 2 * small_chip.switch_latency_m2c + small_chip.switch_latency_c2m

    def test_switch_to_same_mode_is_free(self, small_chip):
        chip = CIMChip(small_chip)
        chip.switch_mode([0], ArrayMode.COMPUTE)
        assert chip.switch_mode([0], ArrayMode.COMPUTE) == 0.0

    def test_allocate_free_prefers_mode_matches(self, small_chip):
        chip = CIMChip(small_chip)
        chip.switch_mode([4, 5], ArrayMode.MEMORY)
        indices, switched = chip.allocate_free(2, owner="buf", mode=ArrayMode.MEMORY)
        assert indices == [4, 5] and switched == []
        # Then the lowest-indexed free arrays, whose mode changes.
        indices, switched = chip.allocate_free(3, owner="fc", mode=ArrayMode.MEMORY)
        assert indices == switched == [0, 1, 2]
        assert chip.switch_cycles == 0.0  # idle -> memory is free

    def test_allocate_free_insufficient_raises(self, small_chip):
        chip = CIMChip(small_chip)
        with pytest.raises(ChipStateError):
            chip.allocate_free(small_chip.num_arrays + 1, owner="x", mode=ArrayMode.COMPUTE)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(list(ArrayMode)), st.sampled_from([None, "a", "b"])),
            min_size=1,
            max_size=24,
        ),
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0, 1e4)),
        st.lists(
            st.tuples(st.integers(0, 10), st.sampled_from(list(ArrayMode))), max_size=6
        ),
    )
    def test_allocate_free_is_the_sorted_placement(self, arrays, counters, requests):
        """The one-pass free-list placement equals the definition it
        replaced — sort the free arrays by (mode mismatch, index), take
        the first ``count``, ``assign`` them — in indices, switched
        subset, array states, switch counters and ``switch_cycles``."""

        def sorted_allocate_free(chip, count, owner, mode):
            free = [array for array in chip.arrays if array.owner is None]
            if len(free) < count:
                raise ChipStateError("insufficient")
            free.sort(key=lambda array: (array.mode is not mode, array.index))
            chosen = free[:count]
            switched = [array.index for array in chosen if array.mode is not mode]
            indices = [array.index for array in chosen]
            chip.assign(indices, owner, mode)
            return indices, switched

        def chip_in_state():
            chip = CIMChip(small_test_chip().with_overrides(num_arrays=len(arrays)))
            for array, (mode, owner) in zip(chip.arrays, arrays):
                array.mode, array.owner = mode, owner
            chip.switch_count_m2c, chip.switch_count_c2m, chip.switch_cycles = counters
            return chip

        def state(chip):
            return (
                [(array.mode, array.owner) for array in chip.arrays],
                chip.switch_count_m2c,
                chip.switch_count_c2m,
                chip.switch_cycles,
            )

        ours, theirs = chip_in_state(), chip_in_state()
        for step, (count, mode) in enumerate(requests):
            owner = f"op{step}"
            try:
                expected = sorted_allocate_free(theirs, count, owner, mode)
            except ChipStateError:
                with pytest.raises(ChipStateError):
                    ours.allocate_free(count, owner, mode)
                continue
            assert ours.allocate_free(count, owner, mode) == expected
            assert state(ours) == state(theirs)

    def test_memory_capacity_tracks_memory_arrays(self, small_chip):
        chip = CIMChip(small_chip)
        chip.switch_mode([0, 1, 2], ArrayMode.MEMORY)
        chip.switch_mode([2], ArrayMode.COMPUTE)
        capacity = chip.num_memory * small_chip.array_capacity_elements
        assert capacity == 2 * small_chip.array_capacity_elements
