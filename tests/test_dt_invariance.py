"""dt-correctness property tests: reported metrics are tick-invariant.

The telemetry refactor retired a class of bugs where recording or
reporting code silently assumed a 1-second tick (window widths in
samples, record cadences in ticks, 1-tick-per-second run loops).
These tests pin the retirement as a *property*: the paper-facing
aggregates — worst 60-second windowed SLO, mean EMU, cluster record
cadence — are invariant (up to window rounding) across
``dt_s ∈ {0.5, 1, 5}`` on the scalar, batched, sweep and cluster
paths.

The workloads are built noise-free (tail-noise draws happen once per
tick, so a run at ``dt_s=0.5`` would otherwise consume a different
number of draws than the same run at ``dt_s=5`` and the comparison
would measure noise, not dt-correctness).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.static import optimistic_static
from repro.cluster.cluster import WebsearchCluster
from repro.cluster.coordinator import CoordinatedWebsearchCluster
from repro.fleet import ClusterPlan, ShardedFleetSim
from repro.hardware.spec import default_machine_spec
from repro.scenarios import run_scenario
from repro.scenarios.library import fig4_scenario
from repro.sim.batch import BatchColocationSim
from repro.sim.chaos import ChaosEvent
from repro.sim.engine import ColocationSim
from repro.sim.runner import JOBS_ENV
from repro.workloads.best_effort import make_be_workload
from repro.workloads.latency_critical import (LC_PROFILES,
                                              LatencyCriticalWorkload)
from repro.workloads.traces import (ConstantLoad, DiurnalTrace,
                                    websearch_cluster_trace)

DTS = (0.5, 1.0, 5.0)


def quiet_lc(spec=None):
    """websearch with tail noise disabled (see module docstring)."""
    spec = spec or default_machine_spec()
    profile = replace(LC_PROFILES["websearch"], noise_sigma=0.0)
    return LatencyCriticalWorkload(profile, spec)


def smooth_trace():
    """A noiseless diurnal trace (deterministic at every timestamp)."""
    return DiurnalTrace(low=0.2, high=0.8, period_s=300.0,
                        noise_sigma=0.0, seed=0)


class TestScalarDtInvariance:
    def _run(self, dt_s, trace, be=None, controller=None, duration=600.0):
        spec = default_machine_spec()
        sim = ColocationSim(lc=quiet_lc(spec), trace=trace,
                            be=be and make_be_workload(be, spec),
                            spec=spec, seed=0)
        if controller is not None:
            sim.set_chaos_events(controller(spec).events())
        sim.run(duration, dt_s=dt_s)
        return sim.history

    def test_worst_window_slo_invariant(self):
        worst = [self._run(dt, smooth_trace()).worst_window_slo(skip_s=120.0)
                 for dt in DTS]
        for value in worst[1:]:
            assert value == pytest.approx(worst[0], rel=0.02)

    def test_mean_emu_invariant_at_steady_state(self):
        means = [
            self._run(dt, ConstantLoad(0.5), be="brain",
                      controller=optimistic_static,
                      duration=300.0).mean_emu(skip_s=60.0)
            for dt in DTS
        ]
        # Post-warmup ticks are identical at any dt: exact invariance.
        for value in means[1:]:
            assert value == pytest.approx(means[0], rel=1e-9)
        assert means[0] > 0.5  # BE actually colocated

    def test_max_slo_fraction_invariant_at_steady_state(self):
        maxima = [
            self._run(dt, ConstantLoad(0.6),
                      duration=300.0).max_slo_fraction(skip_s=60.0)
            for dt in DTS
        ]
        for value in maxima[1:]:
            assert value == pytest.approx(maxima[0], rel=1e-9)


class TestBatchDtInvariance:
    def _run(self, dt_s, trace, duration=600.0):
        spec = default_machine_spec()
        batch = BatchColocationSim(
            lc=quiet_lc(spec), trace=trace,
            bes=[make_be_workload("brain", spec), None], spec=spec,
            seeds=[0, 1])
        batch.set_chaos_events(optimistic_static(spec).events(members=(0,)))
        batch.run(duration, dt_s=dt_s)
        return batch

    def test_member_metrics_invariant(self):
        runs = [self._run(dt, ConstantLoad(0.5), duration=300.0)
                for dt in DTS]
        for which in range(2):
            emu = [r.members[which].history.mean_emu(skip_s=60.0)
                   for r in runs]
            worst = [r.members[which].history.worst_window_slo(skip_s=60.0)
                     for r in runs]
            for value in emu[1:]:
                assert value == pytest.approx(emu[0], rel=1e-9)
            for value in worst[1:]:
                assert value == pytest.approx(worst[0], rel=1e-9)

    def test_batch_matches_scalar_at_coarse_dt(self):
        """The dt plumbing is identical across engines (dt_s=5)."""
        spec = default_machine_spec()
        sim = ColocationSim(lc=quiet_lc(spec), trace=smooth_trace(),
                            be=make_be_workload("brain", spec), spec=spec,
                            seed=0)
        sim.set_chaos_events(optimistic_static(spec).events())
        sim.run(300.0, dt_s=5.0)

        batch = self._run(5.0, smooth_trace(), duration=300.0)
        member = batch.members[0].history
        np.testing.assert_allclose(member.column("slo_fraction"),
                                   sim.history.column("slo_fraction"),
                                   rtol=1e-9, atol=1e-12)
        assert member.worst_window_slo(skip_s=60.0) == pytest.approx(
            sim.history.worst_window_slo(skip_s=60.0), rel=1e-12)


class TestSweepDtInvariance:
    """A sweep scenario runs its cells at the spec's ``dt_s`` and
    reports the same grid at every tick size once Heracles has
    settled."""

    def _run(self, dt_s, monkeypatch):
        monkeypatch.setitem(LC_PROFILES, "websearch",
                            replace(LC_PROFILES["websearch"],
                                    noise_sigma=0.0))
        spec = fig4_scenario(lc_tasks=("websearch",),
                             be_tasks=("brain", "streetview"),
                             loads=(0.3, 0.6), duration_s=600.0,
                             warmup_s=240.0)
        return run_scenario(replace(spec, dt_s=dt_s)).sweeps["websearch"]

    def test_grid_invariant(self, monkeypatch):
        grids = [self._run(dt, monkeypatch) for dt in DTS]
        for dt, grid in zip(DTS, grids):
            for cells in grid.results.values():
                assert [len(c.history) for c in cells] == \
                    [int(600.0 / dt)] * 2
        for be_name, cells in grids[0].results.items():
            for other in grids[1:]:
                for a, b in zip(cells, other.results[be_name]):
                    assert b.mean_emu == pytest.approx(a.mean_emu,
                                                       rel=1e-9)
                    assert b.history.worst_window_slo(skip_s=240.0) == \
                        pytest.approx(
                            a.history.worst_window_slo(skip_s=240.0),
                            rel=1e-9)


class TestChaosDtInvariance:
    """Chaos events honour the tick size: an event at ``at_s`` fires at
    the same simulated time whatever the dt, so the degraded run's
    aggregates are tick-invariant — and the engines stay bit-identical
    at every tick size."""

    #: Every chaos action with event times on the coarsest (5 s) grid.
    ACTIONS = {
        "leaf_crash": ((60.0, "leaf_crash", None),
                       (160.0, "leaf_restart", None)),
        "straggler": ((60.0, "straggler", 0.55), (160.0, "straggler", 1.0)),
        "power_cap": ((60.0, "power_cap", 0.6), (160.0, "power_cap", 1.0)),
        "partition": ((60.0, "partition", 45.0),),
        "actuator": ((20.0, "disable_be", None), (80.0, "enable_be", None),
                     (100.0, "set_be_cores", 2), (130.0, "set_llc_split", 3),
                     (160.0, "set_be_net_ceil", 2.5)),
    }

    def _events(self, action):
        return [ChaosEvent(at_s, name, value)
                for at_s, name, value in self.ACTIONS[action]]

    def _run(self, dt_s, action, duration=300.0):
        spec = default_machine_spec()
        batch = BatchColocationSim(
            lc=quiet_lc(spec), trace=ConstantLoad(0.5),
            bes=[make_be_workload("brain", spec), None], spec=spec,
            seeds=[0, 1])
        batch.set_chaos_events(
            optimistic_static(spec).events(members=(0,))
            + tuple(e.retarget((0,)) for e in self._events(action)))
        batch.run(duration, dt_s=dt_s)
        return batch

    @pytest.mark.parametrize("action", sorted(ACTIONS))
    def test_member_metrics_invariant(self, action):
        runs = [self._run(dt, action) for dt in DTS]
        emu = [r.members[0].history.mean_emu(skip_s=60.0) for r in runs]
        worst = [r.members[0].history.max_slo_fraction(skip_s=60.0)
                 for r in runs]
        for value in emu[1:]:
            assert value == pytest.approx(emu[0], rel=1e-9)
        for value in worst[1:]:
            assert value == pytest.approx(worst[0], rel=1e-9)

    @pytest.mark.parametrize("dt_s", DTS)
    def test_engines_identical_at_every_dt(self, dt_s):
        """Sharded and mega runs of a chaos schedule are bit-identical
        whatever the tick size."""
        from repro.sim.chaos import ChaosEvent
        events = (ChaosEvent(30.0, "leaf_crash", members=(0,)),
                  ChaosEvent(45.0, "straggler", 0.6, members=(1,)),
                  ChaosEvent(60.0, "power_cap", 0.75),
                  ChaosEvent(80.0, "partition", 25.0, members=(2,)),
                  ChaosEvent(120.0, "leaf_restart", members=(0,)))

        def run(engine, shard_leaves=1):
            fleet = ShardedFleetSim(
                [ClusterPlan(name="c", leaves=3, trace=ConstantLoad(0.6),
                             seed=0, events=events)],
                shard_leaves=shard_leaves, engine=engine)
            return fleet.run(180.0, dt_s=dt_s, processes=1)

        sharded = run("sharded")
        mega = run("mega", shard_leaves=3)
        for name in ("t_s", "load", "root_latency_ms",
                     "root_slo_fraction", "emu"):
            assert np.array_equal(
                sharded.cluster("c").history.column(name),
                mega.cluster("c").history.column(name)), (
                f"dt_s={dt_s}: column {name!r} diverged across engines")
        assert sharded.summary() == mega.summary()


class TestClusterDtInvariance:
    def _run(self, dt_s, duration=240.0):
        cluster = WebsearchCluster(leaves=2, trace=ConstantLoad(0.6),
                                   seed=0, managed=False)
        cluster.run(duration, dt_s=dt_s)
        return cluster

    def test_record_cadence_invariant(self):
        runs = [self._run(dt) for dt in DTS]
        counts = [len(r.history) for r in runs]
        assert counts == [counts[0]] * len(DTS)
        base = runs[0].history.times()
        for run in runs[1:]:
            np.testing.assert_allclose(run.history.times(), base)

    def test_mean_emu_invariant(self):
        emus = [self._run(dt).history.mean_emu() for dt in DTS]
        for value in emus[1:]:
            assert value == pytest.approx(emus[0], rel=1e-9)
        mins = [self._run(dt).history.min_emu() for dt in DTS]
        for value in mins[1:]:
            assert value == pytest.approx(mins[0], rel=1e-9)


class TestFleetDtInvariance:
    """The sharded fleet path reports dt-invariant metrics too."""

    def _run(self, dt_s, duration=240.0, shard_leaves=1):
        fleet = ShardedFleetSim(
            [ClusterPlan(name="c", leaves=2, trace=ConstantLoad(0.6),
                         managed=False, seed=0)],
            shard_leaves=shard_leaves)
        return fleet.run(duration, dt_s=dt_s, processes=1)

    def test_record_cadence_invariant(self):
        runs = [self._run(dt) for dt in DTS]
        counts = [len(r.telemetry) for r in runs]
        assert counts == [counts[0]] * len(DTS)
        base = runs[0].telemetry.times()
        for run in runs[1:]:
            np.testing.assert_allclose(run.telemetry.times(), base)

    def test_fleet_emu_invariant(self):
        means = [self._run(dt).telemetry.mean_fleet_emu() for dt in DTS]
        for value in means[1:]:
            assert value == pytest.approx(means[0], rel=1e-9)
        minima = [self._run(dt).telemetry.min_fleet_emu() for dt in DTS]
        for value in minima[1:]:
            assert value == pytest.approx(minima[0], rel=1e-9)

    def test_matches_cluster_driver_at_every_dt(self):
        """Fleet dt plumbing is the cluster driver's, bit for bit."""
        for dt in DTS:
            cluster = WebsearchCluster(leaves=2, trace=ConstantLoad(0.6),
                                       seed=0, managed=False)
            cluster.run(240.0, dt_s=dt)
            fleet = self._run(dt)
            history = fleet.cluster("c").history
            for name in ("t_s", "load", "root_latency_ms",
                         "root_slo_fraction", "emu"):
                assert np.array_equal(history.column(name),
                                      cluster.history.column(name)), (
                    f"dt_s={dt}: column {name!r} diverged")


class TestFleetSeedDeterminism:
    """Same spec + seed => identical fleet summary, run over run."""

    def _summary(self, seed=7, shard_leaves=3):
        fleet = ShardedFleetSim(
            [ClusterPlan(name="a", leaves=4,
                         trace=websearch_cluster_trace(seed=seed),
                         seed=seed),
             ClusterPlan(name="b", leaves=3,
                         trace=websearch_cluster_trace(seed=seed + 1),
                         managed=False, seed=seed + 1)],
            shard_leaves=shard_leaves)
        return fleet.run(120.0, processes=None).summary(skip_s=30.0)

    def test_repeated_runs_identical(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        assert self._summary() == self._summary()

    def test_identical_across_job_counts(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        serial = self._summary()
        monkeypatch.setenv(JOBS_ENV, "4")
        assert self._summary() == serial

    def test_seed_actually_matters(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")
        assert self._summary(seed=7) != self._summary(seed=8)


class TestCoordinatorDt:
    """CoordinatedWebsearchCluster.run honours the tick size."""

    def _coordinated(self):
        return CoordinatedWebsearchCluster(leaves=2,
                                           trace=ConstantLoad(0.5),
                                           seed=0, managed=False)

    def test_non_unit_dt_simulates_full_duration(self):
        coordinated = self._coordinated()
        coordinated.run(90.0, dt_s=0.5)
        assert coordinated.cluster.time_s == pytest.approx(90.0)
        assert coordinated.cluster._tick_index == 180

    def test_fractional_duration_not_truncated(self):
        coordinated = self._coordinated()
        coordinated.run(45.5, dt_s=0.5)
        assert coordinated.cluster.time_s == pytest.approx(45.5)

    def test_coarse_dt_steps_targets_at_time_cadence(self):
        coordinated = self._coordinated()
        coordinated.run(120.0, dt_s=5.0)
        # The coordinator's 30-second period elapsed four times.
        assert coordinated.cluster.time_s == pytest.approx(120.0)
        assert coordinated.coordinator._last_step_s is not None

    def test_rejects_bad_dt(self):
        coordinated = self._coordinated()
        with pytest.raises(ValueError):
            coordinated.run(10.0, dt_s=0.0)

    def test_default_dt_matches_legacy(self):
        coordinated = self._coordinated()
        history = coordinated.run(60.0)
        assert coordinated.cluster.time_s == pytest.approx(60.0)
        assert len(history) >= 1
