"""Integration tests: each paper figure's headline claims hold.

These use reduced grids (coarser load axes, shorter runs) so the suite
stays fast; the benchmarks regenerate the full-resolution artefacts.
"""

import pytest

from repro.experiments.common import baseline_cell, characterization_cell
from repro.experiments.fig1_interference import run_fig1
from repro.experiments.fig3_convexity import max_load_under_slo, run_fig3
from repro.experiments.fig4_latency_slo import run_sweep
from repro.experiments.fig7_network_bw import run_fig7
from repro.experiments.tco_table import run_tco_table
from repro.workloads.latency_critical import make_lc_workload


@pytest.fixture(scope="module")
def fig1_tables():
    loads = [0.10, 0.30, 0.50, 0.70, 0.90, 0.95]
    return run_fig1(loads=loads), loads


class TestFig1Claims:
    """The §3.3 interference analysis, one claim per test."""

    def test_cfs_shares_isolation_inadequate(self, fig1_tables):
        # brain under CFS shares violates at (nearly) every load for
        # every workload, and hurts microsecond-scale memkeyval most.
        tables, loads = fig1_tables
        for table in tables.values():
            violations = sum(table.cell("brain", l) > 1.0 for l in loads)
            assert violations >= len(loads) - 1
        assert (tables["memkeyval"].cell("brain", 0.30)
                > tables["websearch"].cell("brain", 0.30))

    def test_llc_big_catastrophic_at_low_load(self, fig1_tables):
        tables, _ = fig1_tables
        for table in tables.values():
            assert table.cell("LLC (big)", 0.10) > 1.0

    def test_llc_and_dram_interference_fade_with_load(self, fig1_tables):
        # "As the load increases, the impact of LLC and DRAM
        # interference decreases" (the LC workload defends its share).
        # For websearch/memkeyval the paper shows a return to ~100% at
        # 90-95% load; for ml_cluster the cells stay red (~205-225%)
        # because its own super-linear DRAM demand keeps the channels
        # saturated — we assert that distinction.
        tables, _ = fig1_tables
        for name in ("websearch", "memkeyval"):
            for row in ("LLC (big)", "DRAM"):
                assert (tables[name].cell(row, 0.90)
                        < tables[name].cell(row, 0.10))
                assert tables[name].cell(row, 0.90) < 1.5
        for row in ("LLC (big)", "DRAM"):
            assert tables["ml_cluster"].cell(row, 0.90) > 1.2

    def test_websearch_tolerates_small_llc(self, fig1_tables):
        tables, loads = fig1_tables
        ws = tables["websearch"]
        assert all(ws.cell("LLC (small)", l) <= 1.0 for l in loads)

    def test_ml_cluster_hurt_by_medium_llc_at_mid_load(self, fig1_tables):
        tables, _ = fig1_tables
        ml = tables["ml_cluster"]
        assert ml.cell("LLC (med)", 0.50) > 1.0
        assert ml.cell("LLC (med)", 0.10) <= 1.0

    def test_hyperthread_explodes_only_at_high_load(self, fig1_tables):
        tables, _ = fig1_tables
        for table in tables.values():
            assert table.cell("HyperThread", 0.95) > 1.2
            assert table.cell("HyperThread", 0.30) < 1.2

    def test_power_virus_worst_at_low_load_for_websearch(self, fig1_tables):
        tables, _ = fig1_tables
        ws = tables["websearch"]
        assert ws.cell("CPU power", 0.10) > ws.cell("CPU power", 0.90)

    def test_network_hurts_only_memkeyval(self, fig1_tables):
        tables, loads = fig1_tables
        assert tables["memkeyval"].cell("Network", 0.70) > 3.0
        for name in ("websearch", "ml_cluster"):
            values = [tables[name].cell("Network", l) for l in loads[:-1]]
            assert all(v <= 1.0 for v in values)

    def test_render_includes_all_rows(self, fig1_tables):
        tables, _ = fig1_tables
        text = tables["websearch"].render()
        for row in ("LLC (small)", "DRAM", "HyperThread", "CPU power",
                    "Network", "brain"):
            assert row in text


class TestCharacterizationMachinery:
    def test_baseline_cell_reasonable(self):
        lc = make_lc_workload("websearch")
        low = baseline_cell(lc, 0.1)
        high = baseline_cell(lc, 0.9)
        assert 0.1 < low < 0.6
        assert low < high <= 1.0

    def test_cell_records_placement(self):
        from repro.workloads.antagonists import figure1_antagonists
        lc = make_lc_workload("websearch")
        (spec,) = [row for row in figure1_antagonists()
                   if row.label == "DRAM"]
        result = characterization_cell(lc, spec, 0.5)
        assert result.lc_cores + result.antagonist_cores == 36
        assert result.antagonist == "DRAM"


class TestFig3Claims:
    def test_surface_monotone(self):
        surface = run_fig3(core_fractions=(0.25, 0.5, 1.0),
                           way_fractions=(0.25, 0.5, 1.0))
        assert surface.is_monotone_nondecreasing()

    def test_full_allocation_approaches_peak(self):
        lc = make_lc_workload("websearch")
        assert max_load_under_slo(lc, 36, 20) > 0.9

    def test_starved_allocation_is_low(self):
        lc = make_lc_workload("websearch")
        assert max_load_under_slo(lc, 4, 20) < 0.25

    def test_bad_args(self):
        lc = make_lc_workload("websearch")
        with pytest.raises(ValueError):
            max_load_under_slo(lc, 0, 20)
        with pytest.raises(ValueError):
            max_load_under_slo(lc, 4, 99)


@pytest.fixture(scope="module")
def ws_sweep():
    return run_sweep("websearch", be_tasks=("brain", "streetview"),
                     loads=(0.2, 0.5, 0.8), duration_s=600.0)


class TestFig4And5Claims:
    def test_no_slo_violations_under_heracles(self, ws_sweep):
        # The paper's headline: zero violations at any load with any BE.
        for be_name in ws_sweep.results:
            assert ws_sweep.no_violations(be_name), be_name

    def test_emu_exceeds_baseline(self, ws_sweep):
        for be_name in ws_sweep.results:
            emu = ws_sweep.emu_series(be_name)
            for value, load in zip(emu, ws_sweep.loads):
                assert value >= load - 0.05

    def test_brain_emu_at_least_75_percent_somewhere(self, ws_sweep):
        # "websearch and brain ... at least 75%" on average in the paper;
        # our substrate lands in that band at mid/high loads.
        assert max(ws_sweep.emu_series("brain")) >= 0.70

    def test_baseline_column_present(self, ws_sweep):
        assert len(ws_sweep.baseline_slo) == len(ws_sweep.loads)
        assert all(0 < v <= 1.0 for v in ws_sweep.baseline_slo)


class TestFig7Claims:
    @pytest.fixture(scope="class")
    def points(self):
        return run_fig7(loads=(0.2, 0.5, 0.8), duration_s=600.0)

    def test_memkeyval_protected(self, points):
        assert all(p.worst_slo <= 1.0 for p in points)

    def test_lc_bandwidth_grows_with_load(self, points):
        lc = [p.lc_gbps for p in points]
        assert lc == sorted(lc)

    def test_be_bandwidth_shrinks_with_load(self, points):
        assert points[-1].be_gbps < points[0].be_gbps

    def test_link_never_oversubscribed(self, points):
        assert all(p.total_gbps <= 10.0 + 1e-6 for p in points)


class TestTcoTable:
    def test_rows_and_ordering(self):
        rows = run_tco_table()
        assert [r.baseline_utilization for r in rows] == [0.75, 0.50, 0.20]
        gains = [r.heracles_gain for r in rows]
        assert gains == sorted(gains)  # lower baseline -> bigger gain

    def test_heracles_beats_energy_prop_everywhere(self):
        for row in run_tco_table():
            assert row.heracles_gain > row.energy_prop_gain
