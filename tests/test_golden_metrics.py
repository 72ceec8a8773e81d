"""Golden regression tests for reported aggregate metrics.

The paper-facing numbers — worst 60-second windowed SLO fraction, mean
EMU, max root SLO fraction — are aggregates over whole simulated runs.
A refactor that subtly shifts the physics or the controller trajectory
can move them without failing any behavioural test, so these tests pin
small fixed-seed runs to their exact values (the simulator is fully
deterministic for a given seed).

If a change *intentionally* alters the model, update the constants and
say so in the commit; if you did not intend to change reported figures,
a failure here means the refactor is not equivalence-preserving.

Tolerance note: values are asserted to 1e-9 relative — loose enough to
survive last-ulp differences in libm across platforms, tight enough
that any real modelling change trips it.
"""

import pytest

from repro import build_colocation
from repro.cluster.cluster import WebsearchCluster
from repro.core.controller import HeraclesController
from repro.scenarios import (ClusterSpec, ScenarioSpec, TraceSpec,
                             compile_scenario)
from repro.workloads.traces import DiurnalTrace

RTOL = 1e-9


class TestColocationGoldens:
    """websearch + brain at 55% load, seed 3, 300 s (managed)."""

    @pytest.fixture(scope="class")
    def history(self):
        sim = build_colocation("websearch", "brain", load=0.55, seed=3)
        HeraclesController.for_sim(sim)
        return sim.run(300)

    def test_worst_window_slo(self, history):
        assert history.worst_window_slo(skip_s=120.0) == pytest.approx(
            0.68670384912247, rel=RTOL)

    def test_mean_emu(self, history):
        assert history.mean_emu(skip_s=120.0) == pytest.approx(
            0.9016822308882855, rel=RTOL)

    def test_max_slo_fraction(self, history):
        assert history.max_slo_fraction(skip_s=120.0) == pytest.approx(
            0.7490958052996884, rel=RTOL)

    def test_mean_dram_bw(self, history):
        assert history.mean("dram_bw_gbps", skip_s=120.0) == pytest.approx(
            58.8380539772727, rel=RTOL)


class TestCountedDramGoldens:
    """The two per-core-counter variants of Algorithm 2 — MBA throttling
    and hardware-counted LC bandwidth — with websearch on the wiggly
    diurnal trace (0.15-0.90, 600 s period; ``make_trace`` of
    ``test_batch_equivalence``), seed 3, 1800 s.  A constant load leaves
    the MBA step's order unexercised; the diurnal sweep moves it."""

    GOLDENS = {
        ("mba", "stream-DRAM"): (0.7884833128706599, 0.9523649339400059,
                                 14.102222222222222, 82.5149541146274),
        ("mba", "streetview"): (0.8395264807877728, 0.8497137920458561,
                                12.206666666666667, 70.92773849078145),
        ("counted", "stream-DRAM"): (0.7043996071389159,
                                     0.8716436891120338,
                                     5.7155555555555555, 82.33593795281182),
        ("counted", "streetview"): (0.7835221004211728, 0.8479798534011568,
                                    9.091666666666667, 82.6681127559662),
    }

    @pytest.mark.parametrize("variant, be", sorted(GOLDENS))
    def test_goldens(self, variant, be):
        from repro.core.hw_dram import attach_hardware_counted_heracles
        from repro.core.mba import attach_mba_heracles
        attach = {"mba": attach_mba_heracles,
                  "counted": attach_hardware_counted_heracles}[variant]
        trace = DiurnalTrace(low=0.15, high=0.90, period_s=600.0,
                             noise_sigma=0.03, seed=3)
        sim = build_colocation("websearch", be, trace=trace, seed=3)
        attach(sim)
        history = sim.run(1800)
        slo, emu, cores, dram = self.GOLDENS[variant, be]
        assert history.worst_window_slo() == pytest.approx(slo, rel=RTOL)
        assert history.mean_emu() == pytest.approx(emu, rel=RTOL)
        assert history.mean("be_cores") == pytest.approx(cores, rel=RTOL)
        assert history.mean("dram_bw_gbps") == pytest.approx(dram,
                                                             rel=RTOL)


class TestClusterGoldens:
    """4-leaf websearch cluster, 20-minute diurnal trace, seed 3: the
    managed arm of a ``cluster`` scenario (the fleet engine)."""

    @pytest.fixture(scope="class")
    def cluster_run(self):
        spec = ScenarioSpec(
            name="golden-cluster", duration_s=600.0, warmup_s=0.0, seed=3,
            cluster=ClusterSpec(leaves=4, arms=("managed",),
                                trace=TraceSpec(kind="diurnal", low=0.2,
                                                high=0.9, period_s=1200,
                                                noise_sigma=0.02)))
        result = compile_scenario(spec).run(processes=1)
        return result, result.cluster_arms["managed"]

    def test_record_count(self, cluster_run):
        _, history = cluster_run
        assert len(history.records) == 20  # one per 30 s over 600 s

    def test_mean_emu(self, cluster_run):
        _, history = cluster_run
        assert history.mean_emu() == pytest.approx(
            0.7209578512992155, rel=RTOL)

    def test_min_emu(self, cluster_run):
        _, history = cluster_run
        assert history.min_emu() == pytest.approx(0.2, rel=RTOL)

    def test_max_root_slo_fraction(self, cluster_run):
        _, history = cluster_run
        assert history.max_root_slo_fraction() == pytest.approx(
            0.9294770982976907, rel=RTOL)

    def test_root_slo_ms(self, cluster_run):
        result, _ = cluster_run
        assert result.root_slo_ms == pytest.approx(
            15.406552528095565, rel=RTOL)

    def test_engines_agree(self, cluster_run):
        """The scalar reference cluster reproduces the same goldens."""
        _, batch_history = cluster_run
        trace = DiurnalTrace(low=0.2, high=0.9, period_s=1200,
                             noise_sigma=0.02, seed=3)
        scalar = WebsearchCluster(leaves=4, trace=trace, seed=3)
        scalar_history = scalar.run(600)
        assert scalar_history.mean_emu() == pytest.approx(
            batch_history.mean_emu(), rel=1e-12)
        assert scalar_history.max_root_slo_fraction() == pytest.approx(
            batch_history.max_root_slo_fraction(), rel=1e-12)


class TestChaos1kGoldens:
    """chaos-1k at 120x compression, 1% leaves (10 leaves, 360 s).

    Pins the fault-injection showcase scenario: crash/restart waves on
    web-core, a straggler through web-himem's peak, a kv-edge power
    cap, and an ml-batch root partition.  The values bake in every
    chaos code path, so a drift here means the chaos engine moved.
    """

    @staticmethod
    def compressed_spec():
        from repro.scenarios.library import chaos_1k_scenario
        return chaos_1k_scenario(time_compression=120.0,
                                 leaves_scale=0.01)

    @pytest.fixture(scope="class")
    def summary(self):
        from repro.scenarios import run_scenario
        spec = self.compressed_spec()
        result = run_scenario(spec, processes=1)
        return result.fleet.summary(skip_s=spec.warmup_s)

    def test_fleet_emu(self, summary):
        assert summary["fleet_emu"] == pytest.approx(
            0.5430787489564083, rel=RTOL)
        assert summary["min_fleet_emu"] == pytest.approx(
            0.27516806888290857, rel=RTOL)

    def test_weighted_root_latency(self, summary):
        assert summary["weighted_root_latency_ms"] == pytest.approx(
            72.40651867416112, rel=RTOL)

    def test_crashed_cluster_stats(self, summary):
        web = summary["clusters"]["web-core"]
        assert web["mean_emu"] == pytest.approx(
            0.6188655681649528, rel=RTOL)
        assert web["max_root_slo_fraction"] == pytest.approx(
            0.9341017267791231, rel=RTOL)

    def test_partitioned_cluster_stats(self, summary):
        ml = summary["clusters"]["ml-batch"]
        assert ml["max_root_slo_fraction"] == pytest.approx(
            9.25579281906647, rel=RTOL)
        assert ml["mean_emu"] == pytest.approx(
            0.4417925233619397, rel=RTOL)

    def test_straggler_blows_the_leaf_slo(self, summary):
        # A 60% frequency derate through the diurnal peak is not
        # survivable at that SLO — the pin documents the blast radius.
        himem = summary["clusters"]["web-himem"]
        assert himem["max_root_slo_fraction"] == pytest.approx(
            57.51172052619947, rel=RTOL)

    def test_mega_engine_agrees(self, summary):
        import dataclasses

        from repro.scenarios import run_scenario
        spec = self.compressed_spec()
        mega = dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, engine="mega"))
        result = run_scenario(mega, processes=1)
        assert result.fleet.summary(skip_s=spec.warmup_s) == summary


class TestWorstWindowDtCorrectness:
    """worst_window_slo derives its width from the actual tick size."""

    def test_non_unit_dt_window(self):
        sim = build_colocation("websearch", "brain", load=0.4, seed=1)
        sim.run(120, dt_s=0.5)  # 240 ticks of 0.5 s
        history = sim.history
        assert history.dt_s() == pytest.approx(0.5)
        # A 60 s window over 0.5 s ticks must span 120 samples, not 60.
        import numpy as np
        series = history.column("slo_fraction")
        csum = np.cumsum(np.insert(series, 0, 0.0))
        expected = ((csum[120:] - csum[:-120]) / 120).max()
        assert history.worst_window_slo(window_s=60.0) == pytest.approx(
            float(expected), rel=1e-12)

    def test_explicit_dt_override(self):
        sim = build_colocation("websearch", "brain", load=0.4, seed=1)
        sim.run(60)
        h = sim.history
        assert h.worst_window_slo(window_s=30.0, dt_s=1.0) == pytest.approx(
            h.worst_window_slo(window_s=30.0), rel=1e-12)
        with pytest.raises(ValueError):
            h.worst_window_slo(dt_s=-1.0)

    def test_cluster_record_cadence_non_unit_dt(self):
        trace = DiurnalTrace(low=0.2, high=0.9, period_s=1200,
                             noise_sigma=0.0, seed=1)
        cluster = WebsearchCluster(leaves=2, trace=trace, seed=1,
                                   managed=False)
        cluster.run(120, dt_s=2.0)  # 60 ticks; record every 15 ticks
        assert len(cluster.history.records) == 4
        times = [r.t_s for r in cluster.history.records]
        assert times == [0.0, 30.0, 60.0, 90.0]
