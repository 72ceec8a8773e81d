"""Tests for repro.analysis: TCO model, table rendering."""

import pytest

from repro.analysis.tables import render_load_series_table, render_table
from repro.analysis.tco import TcoModel, TcoParameters


class TestTcoModel:
    @pytest.fixture(scope="class")
    def model(self):
        return TcoModel()

    def test_power_curve(self, model):
        assert model.server_power_watts(0.0) == pytest.approx(250.0)
        assert model.server_power_watts(1.0) == pytest.approx(500.0)
        assert model.server_power_watts(0.5) == pytest.approx(375.0)

    def test_tco_grows_with_utilization(self, model):
        assert (model.tco_per_server_usd(0.9)
                > model.tco_per_server_usd(0.2))

    def test_capex_dominates(self, model):
        # Facility provisioning + server >> energy delta: that is why
        # raising utilization is so valuable.
        tco_low = model.tco_per_server_usd(0.2)
        tco_high = model.tco_per_server_usd(0.9)
        assert (tco_high - tco_low) / tco_low < 0.15

    def test_paper_headline_numbers(self, model):
        assert model.throughput_per_tco_gain(0.20, 0.90) == pytest.approx(
            3.06, abs=0.15)  # "306%"
        assert model.throughput_per_tco_gain(0.75, 0.90) == pytest.approx(
            0.15, abs=0.05)  # "15%"

    def test_energy_prop_bounds(self, model):
        assert model.energy_proportionality_gain(0.20) < 0.07  # "< 7%"
        assert 0.01 < model.energy_proportionality_gain(0.75) < 0.05  # "~3%"

    def test_validation(self):
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(TcoParameters(), pue=0.5).validate()
        with pytest.raises(ValueError):
            dataclasses.replace(TcoParameters(),
                                idle_power_fraction=1.0).validate()
        m = TcoModel()
        with pytest.raises(ValueError):
            m.server_power_watts(2.0)
        with pytest.raises(ValueError):
            m.throughput_per_tco_gain(0.0, 0.9)
        with pytest.raises(ValueError):
            m.energy_proportionality_gain(0.5, idle_savings_fraction=2.0)


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                           title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_validation(self):
        with pytest.raises(ValueError):
            render_table([], [])
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])

    def test_render_load_series_table(self):
        out = render_load_series_table({"a": [1.0, 2.0]}, [0.1, 0.5])
        assert "10%" in out and "50%" in out
        with pytest.raises(ValueError):
            render_load_series_table({"a": [1.0]}, [0.1, 0.5])
