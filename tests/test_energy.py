"""Tests for the energy-estimation extension."""

import pytest

from repro.baselines import CIMMLCCompiler
from repro.core import CMSwitchCompiler, CompilerOptions
from repro.cost.energy import EnergyParameters, EnergyReport, estimate_energy
from repro.hardware import prime, small_test_chip
from repro.models import Workload, build_model


@pytest.fixture(scope="module")
def transformer_programs(small_chip, tiny_transformer_graph):
    options = CompilerOptions(generate_code=False)
    return {
        "cmswitch": CMSwitchCompiler(small_chip, options).compile(tiny_transformer_graph),
        "cim-mlc": CIMMLCCompiler(small_chip).compile(tiny_transformer_graph),
    }


class TestEnergyParameters:
    def test_defaults_positive(self):
        params = EnergyParameters()
        assert params.mac_pj > 0
        assert params.offchip_pj_per_element > params.buffer_pj_per_element

    def test_scaled_for_reram_raises_write_energy(self):
        params = EnergyParameters()
        scaled = params.scaled_for(prime())
        assert scaled.array_write_pj_per_element > params.array_write_pj_per_element

    def test_scaled_for_edram_is_identity(self, small_chip):
        edram = small_chip.with_overrides(write_energy_factor=1.0)
        params = EnergyParameters()
        assert params.scaled_for(edram) == params


class TestEnergyReport:
    def test_totals_compose(self):
        report = EnergyReport(
            graph_name="g",
            compute_pj=10.0,
            array_access_pj=5.0,
            weight_write_pj=2.0,
            buffer_pj=1.0,
            offchip_pj=20.0,
            mode_switch_pj=0.5,
            leakage_pj=3.0,
            block_repeat=2.0,
        )
        assert report.dynamic_pj == pytest.approx(38.5)
        assert report.total_pj == pytest.approx(41.5)
        assert report.end_to_end_mj == pytest.approx(2 * 41.5 * 1e-9)
        assert sum(report.breakdown().values()) == pytest.approx(report.total_pj)

    def test_summary_mentions_energy(self):
        report = EnergyReport(graph_name="g", compute_pj=1.0)
        assert "mJ" in report.summary()


class TestEstimateEnergy:
    def test_positive_categories(self, transformer_programs):
        report = estimate_energy(transformer_programs["cmswitch"])
        assert report.compute_pj > 0
        assert report.offchip_pj > 0
        assert report.leakage_pj > 0
        assert report.total_pj == pytest.approx(report.dynamic_pj + report.leakage_pj)

    def test_compute_energy_matches_mac_count(self, transformer_programs, small_chip):
        params = EnergyParameters().scaled_for(small_chip)
        report = estimate_energy(transformer_programs["cmswitch"])
        macs = sum(
            profile.macs
            for segment in transformer_programs["cmswitch"].segments
            for profile in segment.profiles.values()
        )
        assert report.compute_pj == pytest.approx(macs * params.mac_pj)

    def test_dual_mode_reduces_offchip_energy(self, transformer_programs):
        cms = estimate_energy(transformer_programs["cmswitch"])
        mlc = estimate_energy(transformer_programs["cim-mlc"])
        assert cms.offchip_pj <= mlc.offchip_pj * 1.001

    def test_block_repeat_propagates(self, small_chip):
        graph = build_model("tiny-transformer", Workload(batch_size=1, seq_len=16))
        graph.metadata["block_repeat"] = 5.0
        program = CMSwitchCompiler(small_chip, CompilerOptions(generate_code=False)).compile(graph)
        report = estimate_energy(program)
        assert report.block_repeat == 5.0
        assert report.end_to_end_mj == pytest.approx(report.total_pj * 5.0 * 1e-9)
