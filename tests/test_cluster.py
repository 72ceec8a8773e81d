"""Tests for repro.cluster: root aggregation, leaves, and the cluster."""

import pytest

from repro.cluster.cluster import WebsearchCluster
from repro.cluster.leaf import Leaf, LeafConfig
from repro.cluster.root import RootAggregator
from repro.workloads.traces import ConstantLoad, DiurnalTrace


class TestRootAggregator:
    def test_combine_tracks_worst_leaf(self):
        root = RootAggregator(straggler_weight=1.0)
        assert root.combine([10.0, 20.0, 12.0]) == pytest.approx(20.0)

    def test_combine_blends_with_mean(self):
        root = RootAggregator(straggler_weight=0.5)
        assert root.combine([10.0, 30.0]) == pytest.approx(
            0.5 * 30.0 + 0.5 * 20.0)

    def test_empty_leaves_rejected(self):
        with pytest.raises(ValueError):
            RootAggregator().combine([])

    def test_windowed_average(self):
        root = RootAggregator(window_s=30.0)
        for t in range(40):
            root.record(float(t), [10.0 if t < 35 else 40.0])
        # Window (9, 39]: 25 samples at 10, 5 at 40.
        expected = (26 * 10.0 + 5 * 40.0) / 31
        assert root.windowed_latency_ms() == pytest.approx(expected, rel=0.05)

    def test_no_samples_raises(self):
        with pytest.raises(ValueError):
            RootAggregator().windowed_latency_ms()

    def test_validation(self):
        with pytest.raises(ValueError):
            RootAggregator(window_s=0.0)
        with pytest.raises(ValueError):
            RootAggregator(straggler_weight=1.5)


class TestLeaf:
    def test_leaf_runs_managed(self):
        config = LeafConfig(index=0, be_name="brain", leaf_slo_ms=20.0,
                            seed=1)
        leaf = Leaf(config, trace=ConstantLoad(0.3),
                    spec=None or __import__(
                        "repro.hardware.spec",
                        fromlist=["default_machine_spec"]
                    ).default_machine_spec())
        for _ in range(60):
            record = leaf.tick()
        assert leaf.controller is not None
        assert record.tail_latency_ms > 0
        assert record.emu >= record.load - 0.01

    def test_leaf_slo_override_moves_target_only(self):
        from repro.hardware.spec import default_machine_spec
        spec = default_machine_spec()
        config = LeafConfig(index=0, be_name="brain", leaf_slo_ms=17.0,
                            seed=1)
        leaf = Leaf(config, trace=ConstantLoad(0.3), spec=spec)
        assert leaf.sim.lc.profile.slo_latency_ms == pytest.approx(17.0)
        # Calibration (service time) still reflects the service's SLO.
        assert leaf.sim.lc.base_service_ms > 1.0

    def test_unmanaged_leaf_has_no_controller(self):
        from repro.hardware.spec import default_machine_spec
        config = LeafConfig(index=0, be_name="brain", leaf_slo_ms=17.0,
                            seed=1)
        leaf = Leaf(config, trace=ConstantLoad(0.3),
                    spec=default_machine_spec(), managed=False)
        assert leaf.controller is None


class TestWebsearchCluster:
    @pytest.fixture(scope="class")
    def short_run(self):
        trace = DiurnalTrace(low=0.2, high=0.9, period_s=1800,
                             noise_sigma=0.0, seed=3)
        cluster = WebsearchCluster(leaves=4, trace=trace, seed=3)
        history = cluster.run(900)
        return cluster, history

    def test_needs_two_leaves(self):
        with pytest.raises(ValueError):
            WebsearchCluster(leaves=1)

    def test_be_tasks_alternate(self, short_run):
        cluster, _ = short_run
        names = [leaf.sim.be.name for leaf in cluster.leaves]
        assert names == ["brain", "streetview", "brain", "streetview"]
        # Every leaf's colocation runs under its own Heracles instance.
        assert all(leaf.controller is not None for leaf in cluster.leaves)

    def test_root_slo_above_leaf_slo(self, short_run):
        cluster, _ = short_run
        assert cluster.root_slo_ms > cluster.leaf_slo_ms

    def test_history_recorded(self, short_run):
        _, history = short_run
        assert len(history.records) >= 25
        assert all(r.root_latency_ms > 0 for r in history.records)

    def test_emu_at_least_load(self, short_run):
        _, history = short_run
        for record in history.records:
            assert record.emu >= record.load - 0.05

    def test_summary_metrics(self, short_run):
        _, history = short_run
        assert 0 < history.min_emu() <= history.mean_emu() <= 1.5
        assert history.max_root_slo_fraction() > 0
        assert history.column("load").max() <= 0.9 + 1e-9

    def test_shared_dram_model(self, short_run):
        cluster, _ = short_run
        # One offline model object shared by all leaves.
        models = {id(leaf.controller.core_memory.dram_model)
                  for leaf in cluster.leaves}
        assert len(models) == 1
