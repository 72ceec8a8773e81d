"""Tests for the paper's anticipated extensions: per-core DRAM
accounting (§4.2) and the centralized cluster coordinator (§5.3)."""

import pytest

import repro
from repro.cluster.coordinator import (ClusterCoordinator,
                                       CoordinatedWebsearchCluster)
from repro.core.hw_dram import (HardwareCountedCoreMemoryController,
                                attach_hardware_counted_heracles)
from repro.workloads.traces import DiurnalTrace


class TestHardwareDramAccounting:
    def test_no_offline_model_needed(self):
        sim = repro.build_colocation("websearch", "streetview", load=0.45,
                                     seed=3)
        controller = attach_hardware_counted_heracles(sim)
        assert isinstance(controller.core_memory,
                          HardwareCountedCoreMemoryController)
        history = sim.run(700)
        assert history.worst_window_slo(skip_s=240) <= 1.0
        assert history.mean_emu(skip_s=240) > 0.55

    def test_counter_read_includes_margin(self):
        sim = repro.build_colocation("websearch", "brain", load=0.4, seed=1)
        controller = attach_hardware_counted_heracles(sim)
        sim.tick()
        cm = controller.core_memory
        raw = sim.counters.dram_bw_of("websearch") / 2
        assert cm.lc_bw_model_gbps() == pytest.approx(raw * 1.10)

    def test_requires_be(self):
        from repro.sim.engine import ColocationSim
        from repro.workloads.latency_critical import make_lc_workload
        from repro.workloads.traces import ConstantLoad
        sim = ColocationSim(lc=make_lc_workload("websearch"),
                            trace=ConstantLoad(0.4))
        with pytest.raises(ValueError):
            attach_hardware_counted_heracles(sim)

    def test_safe_on_dram_heavy_colocation(self):
        # The whole point of the DRAM guard: stream-DRAM with counters.
        sim = repro.build_colocation("websearch", "stream-DRAM", load=0.4,
                                     seed=3)
        attach_hardware_counted_heracles(sim)
        history = sim.run(700)
        assert history.worst_window_slo(skip_s=240) <= 1.0
        assert history.column("dram_utilization").max() <= 0.99


class TestClusterCoordinator:
    def test_target_raises_with_root_slack(self):
        c = ClusterCoordinator(root_slo_ms=20.0, base_leaf_slo_ms=17.0)
        target = c.step_targets(0.0, root_latency_ms=10.0)  # big slack
        assert target > 17.0

    def test_target_lowers_when_slack_thin(self):
        c = ClusterCoordinator(root_slo_ms=20.0, base_leaf_slo_ms=17.0)
        c.step_targets(0.0, root_latency_ms=19.5)
        assert c.leaf_target_ms < 17.0

    def test_clamped_to_band(self):
        c = ClusterCoordinator(root_slo_ms=20.0, base_leaf_slo_ms=17.0,
                               period_s=0.5)
        for t in range(60):
            c.step_targets(float(t), root_latency_ms=2.0)
        assert c.scale == pytest.approx(c.max_scale)
        for t in range(60, 160):
            c.step_targets(float(t), root_latency_ms=19.9)
        assert c.scale == pytest.approx(c.min_scale)

    def test_period_respected(self):
        c = ClusterCoordinator(root_slo_ms=20.0, base_leaf_slo_ms=17.0,
                               period_s=30.0)
        c.step_targets(0.0, 10.0)
        scale = c.scale
        c.step_targets(10.0, 10.0)  # not due
        assert c.scale == scale

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterCoordinator(root_slo_ms=0.0, base_leaf_slo_ms=17.0)
        with pytest.raises(ValueError):
            ClusterCoordinator(20.0, 17.0, raise_slack=0.1, lower_slack=0.2)
        with pytest.raises(ValueError):
            ClusterCoordinator(20.0, 17.0, min_scale=1.2)

    def test_coordinated_cluster_runs_safely(self):
        trace = DiurnalTrace(low=0.2, high=0.9, period_s=2400,
                             noise_sigma=0.0, seed=5)
        coordinated = CoordinatedWebsearchCluster(leaves=4, trace=trace,
                                                  seed=5)
        history = coordinated.run(2400)
        assert history.max_root_slo_fraction(skip_s=300) <= 1.0
        assert history.mean_emu(skip_s=300) > 0.6
        # The coordinator actually moved the targets at some point.
        assert coordinated.coordinator.scale != 1.0


class TestCli:
    def test_parser_choices(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["tco"])
        assert args.experiment == "tco"

    def test_tco_runs(self, capsys):
        from repro.cli import main
        assert main(["tco"]) == 0
        out = capsys.readouterr().out
        assert "Throughput/TCO" in out

    def test_quickstart_runs(self, capsys):
        from repro.cli import main
        assert main(["quickstart"]) == 0
        assert "EMU" in capsys.readouterr().out

    def test_rejects_unknown(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_jobs_warns_for_serial_experiments(self, capsys):
        # fig1/fig3/fig7/tco/quickstart run a fixed serial pipeline;
        # --jobs must say so instead of being silently ignored.
        from repro.cli import main
        with pytest.warns(UserWarning, match="--jobs has no effect"):
            assert main(["tco", "--jobs", "4"]) == 0
        capsys.readouterr()

    def test_jobs_accepted_for_sweeps_without_warning(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["fig8", "--jobs", "2"])
        assert args.jobs == 2
        args = build_parser().parse_args(["scenario", "fig4", "-j", "3"])
        assert args.jobs == 3

    def test_quickstart_seed_passthrough(self, capsys):
        from repro.cli import main
        assert main(["quickstart", "--seed", "7"]) == 0
        out_a = capsys.readouterr().out
        assert main(["quickstart", "--seed", "7"]) == 0
        out_b = capsys.readouterr().out
        assert out_a == out_b  # deterministic for a pinned seed
        assert "EMU" in out_a

    def test_jobs_rejects_nonpositive(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="jobs"):
            main(["fig4", "--jobs", "0"])
