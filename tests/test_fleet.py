"""Fleet layer: sharded execution differential-tested against the
monolithic cluster run and the scalar reference engine.

The heart of this module is the differential harness: the same 8-leaf
cluster run (a) as a scalar per-leaf loop, (b) as the managed arm of a
``cluster`` scenario (one one-cluster fleet unit), and (c) as a sharded
fleet across shard counts {1, 3, 8} and ``REPRO_JOBS`` ∈ {1, 4} — all
producing *bit-identical* cluster histories.  Equality is asserted
with ``np.array_equal`` (no tolerance): the fleet layer's contract is
that partitioning and parallelism change wall-clock, never numbers.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.cluster import WebsearchCluster, cluster_slo_targets
from repro.fleet import (ClusterPlan, ShardedFleetSim, ShardTask,
                         assemble_cluster, overlapping_seed_ranges,
                         pack_shards, partition_leaves)
from repro.hardware.spec import default_machine_spec
from repro.scenarios import (ClusterSpec, ScenarioError, ScenarioSpec,
                             compile_scenario, load_scenario, registry)
from repro.sim.chaos import ChaosEvent
from repro.sim.megabatch import run_mega_fleet
from repro.sim.runner import JOBS_ENV
from repro.workloads.traces import (ConstantLoad, PhasedTrace,
                                    websearch_cluster_trace)

LEAVES = 8
DURATION = 240.0
SEED = 3
CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")


def reference_trace():
    """The shared cluster trace every differential run uses."""
    return websearch_cluster_trace(seed=SEED)


LEAF_FIELDS = ("times_s", "tails_ms", "emus", "be_norm", "be_cores")


def run_with_leaves(monkeypatch, run):
    """``run()`` plus the per-leaf telemetry its roll-up assembled.

    Wraps the fleet's ``assemble_cluster`` to keep each cluster's
    ``[0, leaves)`` record, keyed by cluster name.
    """
    from repro.fleet import simulator
    leaves = {}

    def assemble(shards, total_leaves=None):
        record = assemble_cluster(shards, total_leaves)
        leaves[record.cluster] = record
        return record

    monkeypatch.setattr(simulator, "assemble_cluster", assemble)
    return run(), leaves


def assert_leaf_arrays_identical(got, want, what, collected=False):
    """Bitwise equality of every cluster's per-leaf telemetry arrays;
    ``collected`` also requires the BE slack signals to be present."""
    assert sorted(got) == sorted(want), f"{what}: cluster sets differ"
    for name, record in want.items():
        if collected:
            assert record.be_cores.shape == record.tails_ms.shape
        for field in LEAF_FIELDS:
            a, b = getattr(got[name], field), getattr(record, field)
            assert np.array_equal(a, b), (
                f"{what} [{name}]: per-leaf {field} diverged")


def assert_cluster_histories_identical(got, want, what):
    """Bitwise equality of two ClusterHistory column sets."""
    assert len(got) == len(want), f"{what}: record counts differ"
    for name in CLUSTER_FIELDS:
        a, b = got.column(name), want.column(name)
        assert np.array_equal(a, b), (
            f"{what}: column {name!r} diverged (max abs diff "
            f"{np.abs(a - b).max():.3e})")


class TestPartitionLeaves:
    def test_single_shard(self):
        assert partition_leaves(8, 8) == [(0, 8)]
        assert partition_leaves(8, 100) == [(0, 8)]

    def test_near_equal_split(self):
        assert partition_leaves(8, 3) == [(0, 3), (3, 6), (6, 8)]
        assert partition_leaves(10, 4) == [(0, 4), (4, 7), (7, 10)]

    def test_unit_shards(self):
        ranges = partition_leaves(5, 1)
        assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_tiles_exactly(self):
        for total in (2, 7, 64, 1000):
            for size in (1, 3, 64, 128):
                ranges = partition_leaves(total, size)
                assert ranges[0][0] == 0 and ranges[-1][1] == total
                assert all(hi == nlo for (_, hi), (nlo, _)
                           in zip(ranges, ranges[1:]))
                assert all(0 < hi - lo <= size for lo, hi in ranges)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="must be positive"):
            partition_leaves(0, 4)
        with pytest.raises(ValueError, match="must be positive"):
            partition_leaves(-3, 4)
        with pytest.raises(ValueError, match="zero or negative"):
            partition_leaves(8, 0)
        with pytest.raises(ValueError, match="zero or negative"):
            partition_leaves(8, -1)


@pytest.fixture(scope="module")
def batch_cluster():
    """The monolithic run: the managed arm of a ``cluster`` scenario,
    one array-engine unit over the whole cluster.  Its default trace is
    :func:`reference_trace`."""
    spec = ScenarioSpec(name="diff", duration_s=DURATION, warmup_s=0.0,
                        seed=SEED, cluster=ClusterSpec(leaves=LEAVES,
                                                       arms=("managed",)))
    result = compile_scenario(spec).run(processes=1)
    leaf_slo_ms, _ = cluster_slo_targets(default_machine_spec(), LEAVES)
    return SimpleNamespace(history=result.cluster_arms["managed"],
                           root_slo_ms=result.root_slo_ms,
                           leaf_slo_ms=leaf_slo_ms)


@pytest.fixture(scope="module")
def scalar_cluster():
    """The per-leaf scalar reference run."""
    cluster = WebsearchCluster(leaves=LEAVES, trace=reference_trace(),
                               seed=SEED)
    cluster.run(DURATION)
    return cluster


def make_fleet(shard_leaves, engine="sharded", events=()):
    """The differential cluster as a fleet (any packing)."""
    return ShardedFleetSim(
        [ClusterPlan(name="diff", leaves=LEAVES, trace=reference_trace(),
                     seed=SEED, events=tuple(events))],
        shard_leaves=shard_leaves, engine=engine)


def run_fleet_once(shard_leaves, processes=1, engine="sharded",
                   slack_epoch_s=None):
    """One fleet run of the differential cluster (any engine)."""
    return make_fleet(shard_leaves, engine).run(
        DURATION, processes=processes, slack_epoch_s=slack_epoch_s)


class TestFleetDifferential:
    """Sharded fleet vs batch cluster vs scalar cluster: bit-identical."""

    def test_scalar_matches_batch_bitwise(self, batch_cluster,
                                          scalar_cluster):
        assert_cluster_histories_identical(
            scalar_cluster.history, batch_cluster.history,
            "scalar vs batch")
        assert scalar_cluster.root_slo_ms == batch_cluster.root_slo_ms

    @pytest.mark.parametrize("jobs", ["1", "4"])
    @pytest.mark.parametrize("shard_leaves,expected_shards",
                             [(8, 1), (3, 3), (1, 8)])
    def test_fleet_matches_batch_bitwise(self, batch_cluster, monkeypatch,
                                         shard_leaves, expected_shards,
                                         jobs):
        monkeypatch.setenv(JOBS_ENV, jobs)
        assert len(make_fleet(shard_leaves)._shards()) == expected_shards
        result = run_fleet_once(shard_leaves, processes=None)
        outcome = result.cluster("diff")
        assert outcome.root_slo_ms == batch_cluster.root_slo_ms
        assert outcome.leaf_slo_ms == batch_cluster.leaf_slo_ms
        assert_cluster_histories_identical(
            outcome.history, batch_cluster.history,
            f"fleet[{expected_shards} shard(s), jobs={jobs}] vs batch")

    def test_assemble_rejects_incomplete_tiling(self):
        """A missing trailing shard must fail loudly, never roll up."""
        targets = {"diff": cluster_slo_targets(default_machine_spec(),
                                               LEAVES)}
        shards = run_mega_fleet(make_fleet(3)._shards(), targets, 30.0)
        with pytest.raises(ValueError, match="ends at leaf"):
            assemble_cluster(shards[:-1], total_leaves=LEAVES)
        with pytest.raises(ValueError, match="starts at leaf"):
            assemble_cluster(shards[1:], total_leaves=LEAVES)
        with pytest.raises(ValueError, match="do not tile"):
            assemble_cluster([shards[0], shards[2]], total_leaves=LEAVES)

    def test_summary_is_shard_count_invariant(self):
        summaries = [run_fleet_once(shard_leaves).summary(skip_s=60.0)
                     for shard_leaves in (8, 3)]
        assert summaries[0] == summaries[1]

    def test_slo_targets_use_cluster_population_not_shard_size(self):
        """A shard of 3 leaves must keep the 8-leaf root SLO."""
        spec = default_machine_spec()
        _, root_slo_full = cluster_slo_targets(spec, LEAVES)
        _, root_slo_small = cluster_slo_targets(spec, 3)
        assert root_slo_full > root_slo_small
        result = run_fleet_once(shard_leaves=3)
        assert result.cluster("diff").root_slo_ms == root_slo_full


class TestMegaEngineDifferential:
    """The mega engine joins the bit-identity triangle: one fleet-wide
    array program must reproduce the batch cluster (and hence the
    scalar reference and every sharded plan) number for number."""

    @pytest.fixture(scope="class")
    def mega_run(self):
        with pytest.MonkeyPatch.context() as patch:
            return run_with_leaves(patch, lambda: run_fleet_once(
                shard_leaves=LEAVES, engine="mega"))

    @pytest.fixture(scope="class")
    def mega_result(self, mega_run):
        return mega_run[0]

    def test_mega_matches_batch_bitwise(self, mega_result, batch_cluster):
        outcome = mega_result.cluster("diff")
        assert outcome.root_slo_ms == batch_cluster.root_slo_ms
        assert outcome.leaf_slo_ms == batch_cluster.leaf_slo_ms
        assert_cluster_histories_identical(
            outcome.history, batch_cluster.history, "mega vs batch")

    def test_mega_matches_scalar_bitwise(self, mega_result,
                                         scalar_cluster):
        assert_cluster_histories_identical(
            mega_result.cluster("diff").history, scalar_cluster.history,
            "mega vs scalar")

    def test_mega_is_one_whole_cluster_shard(self, mega_run):
        """The mega engine runs each cluster as a single
        whole-population shard, whatever the shard size."""
        tasks = make_fleet(3, engine="mega")._shards()
        assert [(t.leaf_lo, t.leaf_hi) for t in tasks] == [(0, LEAVES)]
        assert mega_run[1]["diff"].tails_ms.shape \
            == (int(DURATION), LEAVES)

    @pytest.mark.parametrize("jobs", ["1", "4"])
    @pytest.mark.parametrize("shard_leaves", [8, 3, 1])
    def test_mega_summary_matches_sharded(self, mega_run, monkeypatch,
                                          shard_leaves, jobs):
        """Summaries and every leaf's telemetry are engine- and
        shard-plan-invariant, whatever the worker pool shape."""
        monkeypatch.setenv(JOBS_ENV, jobs)
        sharded, leaves = run_with_leaves(
            monkeypatch, lambda: run_fleet_once(shard_leaves,
                                                processes=None))
        mega_result, mega_leaves = mega_run
        assert mega_result.summary(skip_s=60.0) \
            == sharded.summary(skip_s=60.0)
        assert_leaf_arrays_identical(
            leaves, mega_leaves, f"shard={shard_leaves} jobs={jobs}")

    def test_mega_slack_view_matches_sharded(self, monkeypatch):
        """The scheduler's slack signals survive the engine swap."""
        mega, mega_leaves = run_with_leaves(monkeypatch, lambda: (
            run_fleet_once(LEAVES, engine="mega", slack_epoch_s=30.0)))
        sharded, leaves = run_with_leaves(monkeypatch, lambda: (
            run_fleet_once(3, slack_epoch_s=30.0)))
        assert_leaf_arrays_identical(leaves, mega_leaves, "mega vs sharded",
                                     collected=True)
        a, b = mega.slack, sharded.slack
        assert a is not None and b is not None
        assert np.array_equal(a.epoch_t_s, b.epoch_t_s)
        for name in ("harvest_core_s", "grant_cores", "latched"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (
                f"slack signal {name!r} diverged between engines")

    def test_mega_slack_view_matches_sharded_under_be_chaos(self,
                                                            monkeypatch):
        """BE-toggle chaos must land in the *same* grant row on both
        engines.  The recorded grant for tick k is what tick k+1's
        actuator gather sees — including chaos events firing at the
        start of tick k+1 — so the mega loop cannot simply read the
        post-controller state after tick k.  The fuzzer caught the
        mega engine doing exactly that (shifting ``grant_cores`` by
        one tick around every BE toggle and diverging the scheduler's
        crediting); one-tick epochs make any such shift visible here.
        """
        events = (ChaosEvent(45.0, "disable_be"),
                  ChaosEvent(75.0, "enable_be"),
                  ChaosEvent(110.0, "set_be_cores", 2, members=(3,)),
                  ChaosEvent(150.0, "disable_be", members=(3,)))

        def run(engine, shard_leaves):
            return run_with_leaves(monkeypatch, lambda: make_fleet(
                shard_leaves, engine, events).run(
                    DURATION, processes=1, slack_epoch_s=1.0))

        mega, mega_leaves = run("mega", LEAVES)
        sharded, leaves = run("sharded", 3)
        assert_leaf_arrays_identical(leaves, mega_leaves,
                                     "mega vs sharded under BE chaos",
                                     collected=True)
        a, b = mega.slack, sharded.slack
        for name in ("harvest_core_s", "grant_cores", "latched"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (
                f"slack signal {name!r} diverged between engines "
                f"under BE-toggle chaos")

    def test_mega_heterogeneous_matches_sharded(self):
        """Mixed specs / LCs / unmanaged clusters in one array program."""
        def plans():
            return [
                ClusterPlan(name="web", leaves=4,
                            trace=reference_trace(), seed=1),
                ClusterPlan(name="kv", leaves=3, lc_name="memkeyval",
                            be_mix=("iperf",),
                            trace=PhasedTrace(reference_trace(), 600.0),
                            managed=False, seed=2),
            ]
        sharded = ShardedFleetSim(plans(), shard_leaves=2) \
            .run(120.0, processes=1)
        mega = ShardedFleetSim(plans(), engine="mega").run(120.0)
        for name in ("web", "kv"):
            assert_cluster_histories_identical(
                mega.cluster(name).history, sharded.cluster(name).history,
                f"mega vs sharded [{name}]")
        for name in ("fleet_emu", "weighted_root_latency_ms"):
            assert np.array_equal(mega.telemetry.fleet_column(name),
                                  sharded.telemetry.fleet_column(name))

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine='bogus'"):
            ShardedFleetSim(
                [ClusterPlan(name="c", leaves=4, trace=ConstantLoad(0.5))],
                engine="bogus")


#: One event schedule per chaos action (plus the actuator actions),
#: each exercising the action's full lifecycle — fire, run degraded,
#: recover — inside the differential window.
CHAOS_SETS = {
    "leaf_crash": (ChaosEvent(30.0, "leaf_crash", members=(1, 4)),
                   ChaosEvent(80.0, "leaf_restart", members=(1, 4))),
    "straggler": (ChaosEvent(25.0, "straggler", 0.55, members=(2,)),
                  ChaosEvent(90.0, "straggler", 1.0, members=(2,))),
    "power_cap": (ChaosEvent(20.0, "power_cap", 0.7),
                  ChaosEvent(100.0, "power_cap", 1.0)),
    "partition": (ChaosEvent(40.0, "partition", 30.0, members=(0, 5)),),
    "actuator": (ChaosEvent(20.0, "disable_be", members=(3,)),
                 ChaosEvent(60.0, "enable_be", members=(3,)),
                 ChaosEvent(75.0, "set_be_cores", 2, members=(3,)),
                 ChaosEvent(90.0, "set_llc_split", 3, members=(3,)),
                 ChaosEvent(105.0, "set_be_net_ceil", 2.5, members=(3,))),
}

CHAOS_DURATION = 120.0


def run_chaos_fleet(events, shard_leaves, engine="sharded", processes=1):
    """One fleet run of the differential cluster under a chaos schedule."""
    fleet = ShardedFleetSim(
        [ClusterPlan(name="diff", leaves=LEAVES, trace=reference_trace(),
                     seed=SEED, events=tuple(events))],
        shard_leaves=shard_leaves, engine=engine)
    return fleet.run(CHAOS_DURATION, processes=processes)


class TestChaosDifferential:
    """Chaos events across engines: the bit-identity contract extends to
    every fault-injection action.  The same schedule runs (a) as one
    whole-cluster shard, (b) sharded 3 ways across worker pools, and
    (c) on the mega engine — identical histories, no tolerance."""

    @pytest.mark.parametrize("action", sorted(CHAOS_SETS))
    def test_action_is_shard_and_engine_invariant(self, action):
        events = CHAOS_SETS[action]
        whole = run_chaos_fleet(events, shard_leaves=LEAVES)
        sharded = run_chaos_fleet(events, shard_leaves=3)
        mega = run_chaos_fleet(events, shard_leaves=LEAVES, engine="mega")
        for other, what in ((sharded, "3-shard"), (mega, "mega")):
            assert_cluster_histories_identical(
                other.cluster("diff").history,
                whole.cluster("diff").history,
                f"chaos[{action}] {what} vs whole-cluster")
            assert other.summary(skip_s=10.0) == whole.summary(skip_s=10.0)

    @pytest.mark.parametrize("action", sorted(CHAOS_SETS))
    def test_action_actually_fires(self, action):
        """Guard against silently dropped events: every schedule must
        change the cluster's history relative to the no-chaos run."""
        plain = run_chaos_fleet((), shard_leaves=LEAVES)
        chaos = run_chaos_fleet(CHAOS_SETS[action], shard_leaves=LEAVES)
        a = plain.cluster("diff").history.column("root_latency_ms")
        b = chaos.cluster("diff").history.column("root_latency_ms")
        assert not np.array_equal(a, b), (
            f"chaos[{action}]: schedule had no observable effect")

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_mixed_schedule_across_pools(self, monkeypatch, jobs):
        """All five chaos actions plus actuator pokes interleaved, on a
        heterogeneous managed + unmanaged fleet, across worker pools."""
        monkeypatch.setenv(JOBS_ENV, jobs)
        events_a = (ChaosEvent(20.0, "leaf_crash", members=(0,)),
                    ChaosEvent(30.0, "straggler", 0.6, members=(2,)),
                    ChaosEvent(45.0, "power_cap", 0.75),
                    ChaosEvent(60.0, "partition", 25.0, members=(3,)),
                    ChaosEvent(90.0, "leaf_restart", members=(0,)),
                    ChaosEvent(100.0, "set_be_cores", 1, members=(1,)))
        events_b = (ChaosEvent(35.0, "enable_be"),
                    ChaosEvent(55.0, "set_llc_split", 2, members=(1,)),
                    ChaosEvent(70.0, "leaf_crash", members=(2,)),
                    ChaosEvent(95.0, "set_be_net_ceil", 1.5))

        def plans():
            return [
                ClusterPlan(name="alpha", leaves=5,
                            trace=reference_trace(), seed=1,
                            events=events_a),
                ClusterPlan(name="beta", leaves=4, lc_name="memkeyval",
                            be_mix=("iperf",),
                            trace=PhasedTrace(reference_trace(), 600.0),
                            managed=False, seed=2, events=events_b),
            ]
        fine = ShardedFleetSim(plans(), shard_leaves=2) \
            .run(CHAOS_DURATION, processes=None)
        coarse = ShardedFleetSim(plans(), shard_leaves=5) \
            .run(CHAOS_DURATION, processes=None)
        mega = ShardedFleetSim(plans(), engine="mega").run(CHAOS_DURATION)
        for name in ("alpha", "beta"):
            want = coarse.cluster(name).history
            for other, what in ((fine, "2-leaf shards"), (mega, "mega")):
                assert_cluster_histories_identical(
                    other.cluster(name).history, want,
                    f"mixed chaos [{name}] {what} vs whole-cluster")
        assert fine.summary() == coarse.summary() == mega.summary()

    def test_whole_cluster_events_reach_every_shard(self):
        """members=None fans out to all leaves on every execution plan —
        including shards whose leaf range starts past zero."""
        events = (ChaosEvent(30.0, "leaf_crash"),)
        sharded = run_chaos_fleet(events, shard_leaves=3)
        tails = sharded.cluster("diff").history.column("root_latency_ms")
        # Every leaf dead: the root sees zero latency after the crash.
        assert tails[-1] == 0.0

    def test_plan_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError, match="targets\\s+leaf 9"):
            ShardedFleetSim([ClusterPlan(
                name="c", leaves=4, trace=ConstantLoad(0.5),
                events=(ChaosEvent(10.0, "leaf_crash", members=(9,)),))])

    def test_plan_rejects_invalid_events(self):
        with pytest.raises(ValueError, match="value"):
            ShardedFleetSim([ClusterPlan(
                name="c", leaves=4, trace=ConstantLoad(0.5),
                events=(ChaosEvent(10.0, "straggler"),))])


#: A chaos schedule that *straddles* the snapshot tick below: at
#: t=55 s two leaves are crashed, one is a straggler, the power cap is
#: active — and the recovery events are still pending.  The shard
#: archives must carry the degraded state and the schedule cursor.
STRADDLING_EVENTS = (
    ChaosEvent(30.0, "leaf_crash", members=(1, 4)),
    ChaosEvent(40.0, "straggler", 0.6, members=(2,)),
    ChaosEvent(50.0, "power_cap", 0.75),
    ChaosEvent(80.0, "leaf_restart", members=(1, 4)),
    ChaosEvent(95.0, "straggler", 1.0, members=(2,)),
    ChaosEvent(100.0, "power_cap", 1.0),
)

SNAPSHOT_AT = 55.0


class TestCheckpointResume:
    """Fleet-level checkpoint/resume: run-to-T ≡ save + restore +
    resume, bit for bit, for the sharded and mega engines, across
    shard plans and worker pools, under chaos events straddling the
    snapshot tick.  Plus the manifest validation that keeps a snapshot
    from silently resuming under a different fleet."""

    def _fleet(self, engine="sharded", shard_leaves=LEAVES,
               events=STRADDLING_EVENTS):
        return ShardedFleetSim(
            [ClusterPlan(name="diff", leaves=LEAVES,
                         trace=reference_trace(), seed=SEED,
                         events=tuple(events))],
            shard_leaves=shard_leaves, engine=engine)

    def _straight(self, **over):
        return self._fleet(**over).run(CHAOS_DURATION, processes=1)

    def test_saving_does_not_perturb_the_run(self, tmp_path):
        """The run that *writes* the snapshot stays on trajectory, and
        the checkpoint directory holds a manifest + one unit archive."""
        import os

        from repro.fleet.simulator import (FLEET_CHECKPOINT_VERSION,
                                           FLEET_META_NAME)
        ckpt = str(tmp_path / "ckpt")
        straight = self._straight()
        saved = self._fleet().run(CHAOS_DURATION, processes=1,
                                  checkpoint_dir=ckpt,
                                  checkpoint_at_s=SNAPSHOT_AT)
        assert_cluster_histories_identical(
            saved.cluster("diff").history, straight.cluster("diff").history,
            "checkpointing run vs straight")
        assert sorted(os.listdir(ckpt)) == [FLEET_META_NAME, "unit_0.npz"]
        meta = json.loads((tmp_path / "ckpt" / FLEET_META_NAME)
                          .read_text())
        assert meta["version"] == FLEET_CHECKPOINT_VERSION
        assert meta["checkpoint_t_s"] == SNAPSHOT_AT
        assert meta["engine"] == "sharded"

    @pytest.mark.parametrize("engine,shard_leaves,jobs",
                             [("sharded", 8, "1"), ("sharded", 3, "4"),
                              ("sharded", 1, "1"), ("mega", 8, "1")])
    def test_resume_is_bit_identical(self, tmp_path, monkeypatch, engine,
                                     shard_leaves, jobs):
        monkeypatch.setenv(JOBS_ENV, jobs)
        ckpt = str(tmp_path / "ckpt")
        straight = self._straight(engine=engine,
                                  shard_leaves=shard_leaves)
        self._fleet(engine=engine, shard_leaves=shard_leaves) \
            .run(CHAOS_DURATION, processes=None, checkpoint_dir=ckpt,
                 checkpoint_at_s=SNAPSHOT_AT)
        resumed = self._fleet(engine=engine, shard_leaves=shard_leaves) \
            .run(CHAOS_DURATION, processes=None, resume_from=ckpt)
        assert_cluster_histories_identical(
            resumed.cluster("diff").history,
            straight.cluster("diff").history,
            f"resumed[{engine}, shard={shard_leaves}, jobs={jobs}] "
            f"vs straight")
        assert resumed.summary(skip_s=10.0) == straight.summary(
            skip_s=10.0)

    def test_branching_two_futures_from_one_snapshot(self, tmp_path):
        """Warm-started what-if: the same snapshot resumed twice gives
        bit-identical futures (fork determinism at fleet scale)."""
        ckpt = str(tmp_path / "ckpt")
        self._fleet().run(CHAOS_DURATION, processes=1,
                          checkpoint_dir=ckpt,
                          checkpoint_at_s=SNAPSHOT_AT)
        forks = [self._fleet().run(CHAOS_DURATION, processes=1,
                                   resume_from=ckpt) for _ in range(2)]
        assert_cluster_histories_identical(
            forks[0].cluster("diff").history,
            forks[1].cluster("diff").history, "fork A vs fork B")

    def test_checkpoint_args_must_pair(self):
        from repro.sim.checkpoint import CheckpointError
        with pytest.raises(CheckpointError, match="go together"):
            self._fleet().run(CHAOS_DURATION, checkpoint_dir="/tmp/x")
        with pytest.raises(CheckpointError, match="go together"):
            self._fleet().run(CHAOS_DURATION, checkpoint_at_s=30.0)

    def test_snapshot_must_land_inside_the_run(self, tmp_path):
        from repro.sim.checkpoint import CheckpointError
        with pytest.raises(CheckpointError, match="land in"):
            self._fleet().run(CHAOS_DURATION,
                              checkpoint_dir=str(tmp_path / "c"),
                              checkpoint_at_s=CHAOS_DURATION + 60.0)

    def test_manifest_rejects_cross_engine_resume(self, tmp_path):
        from repro.sim.checkpoint import CheckpointError
        ckpt = str(tmp_path / "ckpt")
        self._fleet(engine="sharded").run(
            CHAOS_DURATION, processes=1, checkpoint_dir=ckpt,
            checkpoint_at_s=SNAPSHOT_AT)
        with pytest.raises(CheckpointError, match="engine"):
            self._fleet(engine="mega").run(CHAOS_DURATION,
                                           resume_from=ckpt)

    def test_manifest_rejects_topology_mismatch(self, tmp_path):
        from repro.sim.checkpoint import CheckpointError
        ckpt = str(tmp_path / "ckpt")
        self._fleet(shard_leaves=3).run(
            CHAOS_DURATION, processes=1, checkpoint_dir=ckpt,
            checkpoint_at_s=SNAPSHOT_AT)
        with pytest.raises(CheckpointError, match="shard_leaves"):
            self._fleet(shard_leaves=8).run(CHAOS_DURATION,
                                            resume_from=ckpt)

    def test_resumed_run_cannot_checkpoint_backwards(self, tmp_path):
        from repro.sim.checkpoint import CheckpointError
        ckpt = str(tmp_path / "ckpt")
        self._fleet().run(CHAOS_DURATION, processes=1,
                          checkpoint_dir=ckpt,
                          checkpoint_at_s=SNAPSHOT_AT)
        with pytest.raises(CheckpointError, match="further ahead"):
            self._fleet().run(CHAOS_DURATION, processes=1,
                              resume_from=ckpt,
                              checkpoint_dir=str(tmp_path / "again"),
                              checkpoint_at_s=SNAPSHOT_AT)

    def test_missing_manifest_fails_loudly(self, tmp_path):
        from repro.sim.checkpoint import CheckpointError
        with pytest.raises(CheckpointError, match="manifest"):
            self._fleet().run(CHAOS_DURATION,
                              resume_from=str(tmp_path / "nowhere"))

    def test_unit_archive_from_another_snapshot_is_rejected(self,
                                                            tmp_path):
        """A unit archive whose tick count is not the manifest's."""
        import shutil

        from repro.sim.checkpoint import CheckpointError, load_engine
        for name, at_s in (("a", SNAPSHOT_AT), ("b", SNAPSHOT_AT + 10.0)):
            self._fleet().run(CHAOS_DURATION, processes=1,
                              checkpoint_dir=str(tmp_path / name),
                              checkpoint_at_s=at_s)
        shutil.copy(tmp_path / "b" / "unit_0.npz",
                    tmp_path / "a" / "unit_0.npz")
        assert load_engine(str(tmp_path / "b" / "unit_0.npz")).time_s \
            == SNAPSHOT_AT + 10.0
        with pytest.raises(CheckpointError,
                           match="65 completed ticks.*tick 55"):
            self._fleet().run(CHAOS_DURATION, processes=1,
                              resume_from=str(tmp_path / "a"))

    def test_previous_layout_is_refused(self, tmp_path):
        """A version-2 directory (one archive per merged group) is
        refused by its manifest version before any archive loads."""
        from repro.fleet.simulator import FLEET_META_NAME
        from repro.sim.checkpoint import CheckpointError
        ckpt = tmp_path / "ckpt"
        self._fleet().run(CHAOS_DURATION, processes=1,
                          checkpoint_dir=str(ckpt),
                          checkpoint_at_s=SNAPSHOT_AT)
        (ckpt / "unit_0.npz").rename(ckpt / "mega_group_0_0.npz")
        meta = json.loads((ckpt / FLEET_META_NAME).read_text())
        meta["version"] = 2
        (ckpt / FLEET_META_NAME).write_text(json.dumps(meta))
        with pytest.raises(CheckpointError,
                           match="version 2, this build reads version 3"):
            self._fleet().run(CHAOS_DURATION, resume_from=str(ckpt))


class TestPackShards:
    def test_one_unit_takes_everything(self):
        assert pack_shards([3, 3, 2], 1) == [(0, 3)]

    def test_cuts_nearest_the_even_share(self):
        assert pack_shards([3, 3, 2, 4, 4], 2) == [(0, 3), (3, 5)]
        assert pack_shards([1] * 6, 3) == [(0, 2), (2, 4), (4, 6)]
        # Lopsided shards: every unit still gets at least one.
        assert pack_shards([100, 1, 1], 3) == [(0, 1), (1, 2), (2, 3)]

    def test_tiles_in_order(self):
        for sizes in ([64] * 16, [63, 63, 62, 50, 50, 3], list(range(1, 9))):
            for units in range(1, len(sizes) + 1):
                cuts = pack_shards(sizes, units)
                assert len(cuts) == units
                assert cuts[0][0] == 0 and cuts[-1][1] == len(sizes)
                assert all(hi == nlo for (_, hi), (nlo, _)
                           in zip(cuts, cuts[1:]))
                assert all(lo < hi for lo, hi in cuts)

    def test_rejects_bad_unit_counts(self):
        with pytest.raises(ValueError, match="units"):
            pack_shards([4, 4], 0)
        with pytest.raises(ValueError, match="units"):
            pack_shards([4, 4], 3)


class TestFleetUnit:
    """One unit of the fleet engine, driven directly."""

    def _run(self, leaf_lo=0, leaf_hi=2, duration_s=30.0, dt_s=1.0):
        plan = ClusterPlan(name="c", leaves=4, trace=ConstantLoad(0.5),
                           managed=False, seed=1)
        targets = {"c": cluster_slo_targets(default_machine_spec(), 4)}
        return run_mega_fleet([ShardTask(plan, 0, leaf_lo, leaf_hi)],
                              targets, duration_s, dt_s=dt_s)

    def test_result_shapes(self):
        (result,) = self._run()
        assert result.tails_ms.shape == (30, 2)
        assert result.emus.shape == (30, 2)
        assert result.times_s.shape == (30,)
        assert result.be_norm.shape == result.be_cores.shape == (0, 0)
        assert (result.tails_ms > 0).all()

    @pytest.mark.parametrize("cuts", [[(0, 1), (1, 4), (4, 6)],
                                      [(0, 3)], [(3, 6)]])
    def test_leaf_arrays_do_not_depend_on_slicing(self, cuts):
        """Each slice's per-leaf arrays, BE signals included, equal the
        same leaves' columns of a whole-cluster unit, bit for bit, in
        one unit or one unit per slice."""
        plan = ClusterPlan(name="c", leaves=6, trace=reference_trace(),
                           seed=1, events=(
                               ChaosEvent(20.0, "disable_be",
                                          members=(0, 3)),
                               ChaosEvent(35.0, "set_be_cores", 2,
                                          members=(2, 3)),
                               ChaosEvent(50.0, "enable_be",
                                          members=(0, 3))))
        targets = {"c": cluster_slo_targets(default_machine_spec(), 6)}

        def run(ranges, unit=0):
            return run_mega_fleet([ShardTask(plan, 0, lo, hi)
                                   for lo, hi in ranges], targets, 80.0,
                                  unit=unit, collect_be=True)

        (whole,) = run([(0, 6)])
        assert whole.be_cores.shape == whole.tails_ms.shape == (80, 6)
        packed = run(cuts)
        alone = [result for u, cut in enumerate(cuts)
                 for result in run([cut], unit=u)]
        for results, what in ((packed, "one unit"), (alone, "unit each")):
            for result in results:
                lo, hi = result.leaf_lo, result.leaf_hi
                assert np.array_equal(result.times_s, whole.times_s)
                for field in LEAF_FIELDS[1:]:
                    assert np.array_equal(
                        getattr(result, field),
                        getattr(whole, field)[:, lo:hi]), (
                        f"{what}: leaves [{lo}, {hi}) {field} diverged")

    def test_rejects_degenerate_tasks(self):
        with pytest.raises(ValueError, match="duration"):
            self._run(duration_s=0.0)
        with pytest.raises(ValueError, match="dt"):
            self._run(dt_s=-1.0)
        with pytest.raises(ValueError, match="empty"):
            self._run(leaf_hi=0)
        with pytest.raises(ValueError, match="outside the cluster"):
            self._run(leaf_hi=9)
        with pytest.raises(ValueError, match="outside the cluster"):
            self._run(leaf_lo=-1)


def packing_plans():
    """Three clusters, two structural groups, chaos across shard edges.

    ``beta`` runs on a 12-core server, so it cannot merge into the
    array program of the stock-server clusters.  Every multi-leaf
    event target spans a boundary of the 3-leaf partition
    (``[0, 3) [3, 5) [5, 7)`` for ``alpha``, ``[0, 3) [3, 5)`` for
    ``beta``, ``[0, 2) [2, 4)`` for ``gamma``).
    """
    stock = default_machine_spec()
    small = dataclasses.replace(
        stock, socket=dataclasses.replace(stock.socket, cores=12))
    return [
        ClusterPlan(name="alpha", leaves=7, trace=reference_trace(),
                    seed=1, events=(
                        ChaosEvent(20.0, "leaf_crash", members=(2, 3)),
                        ChaosEvent(30.0, "straggler", 0.6,
                                   members=(1, 2, 3, 4, 5)),
                        ChaosEvent(45.0, "set_be_cores", 1,
                                   members=(4, 5)),
                        ChaosEvent(70.0, "leaf_restart", members=(2, 3)),
                        ChaosEvent(90.0, "straggler", 1.0,
                                   members=(1, 2, 3, 4, 5)))),
        ClusterPlan(name="beta", leaves=5, lc_name="memkeyval",
                    be_mix=("iperf",), spec=small,
                    trace=PhasedTrace(reference_trace(), 600.0), seed=2,
                    events=(
                        ChaosEvent(25.0, "partition", 30.0,
                                   members=(2, 3)),
                        ChaosEvent(40.0, "power_cap", 0.75),
                        ChaosEvent(60.0, "disable_be", members=(1, 3)),
                        ChaosEvent(100.0, "power_cap", 1.0))),
        ClusterPlan(name="gamma", leaves=4, trace=ConstantLoad(0.4),
                    managed=False, seed=3, events=(
                        ChaosEvent(35.0, "enable_be", members=(1, 2)),
                        ChaosEvent(50.0, "set_llc_split", 3,
                                   members=(1, 2)))),
    ]


class TestPackingInvariance:
    """A leaf's trajectory does not depend on which other leaves share
    its array: every packing of the shards onto units — one unit, or
    one per pool worker — gives the same per-leaf telemetry, histories,
    slack views and merged decision traces."""

    @staticmethod
    def _run(monkeypatch, shard_leaves, processes, **kwargs):
        fleet = ShardedFleetSim(packing_plans(), shard_leaves=shard_leaves)
        return run_with_leaves(monkeypatch, lambda: fleet.run(
            CHAOS_DURATION, processes=processes, slack_epoch_s=10.0,
            **kwargs))

    @staticmethod
    def _assert_same_fleet(got, want, what):
        from repro.obs import events_to_jsonl
        (got, got_leaves), (want, want_leaves) = got, want
        assert_leaf_arrays_identical(got_leaves, want_leaves, what,
                                     collected=True)
        for outcome in want.clusters:
            assert_cluster_histories_identical(
                got.cluster(outcome.name).history, outcome.history,
                f"{what} [{outcome.name}]")
        assert got.summary(skip_s=10.0) == want.summary(skip_s=10.0)
        for name in ("harvest_core_s", "grant_cores", "latched"):
            assert np.array_equal(getattr(got.slack, name),
                                  getattr(want.slack, name)), (
                f"{what}: slack signal {name!r} diverged")
        assert events_to_jsonl(got.trace) == events_to_jsonl(want.trace), (
            f"{what}: merged decision traces differ")

    def test_every_packing_is_identical(self, monkeypatch):
        from repro.obs import TRACE_ENV
        monkeypatch.setenv(TRACE_ENV, "1")
        reference = run_with_leaves(monkeypatch, lambda: ShardedFleetSim(
            packing_plans(), engine="mega").run(CHAOS_DURATION,
                                                slack_epoch_s=10.0))
        assert len(reference[0].trace["t_s"]) > 0
        for shard_leaves in (1, 3, 8):
            for processes in (1, 2, 3):
                self._assert_same_fleet(
                    self._run(monkeypatch, shard_leaves, processes),
                    reference,
                    f"shard={shard_leaves} processes={processes}")

    def test_two_unit_checkpoint_resumes_on_one_process(self, tmp_path,
                                                        monkeypatch):
        from repro.fleet.simulator import FLEET_META_NAME
        from repro.obs import TRACE_ENV
        monkeypatch.setenv(TRACE_ENV, "1")
        ckpt = str(tmp_path / "ckpt")
        straight = self._run(monkeypatch, 3, 1)
        saved = self._run(monkeypatch, 3, 2, checkpoint_dir=ckpt,
                          checkpoint_at_s=SNAPSHOT_AT)
        meta = json.loads((tmp_path / "ckpt" / FLEET_META_NAME)
                          .read_text())
        assert meta["units"] == 2
        resumed = self._run(monkeypatch, 3, 1, resume_from=ckpt)
        self._assert_same_fleet(resumed, saved, "resumed vs saving run")
        assert_leaf_arrays_identical(resumed[1], straight[1],
                                     "resumed vs straight", collected=True)
        for outcome in straight[0].clusters:
            assert_cluster_histories_identical(
                resumed[0].cluster(outcome.name).history, outcome.history,
                f"resumed vs straight [{outcome.name}]")

    def test_corrupt_unit_count_is_rejected(self, tmp_path, monkeypatch):
        from repro.fleet.simulator import FLEET_META_NAME
        from repro.sim.checkpoint import CheckpointError
        ckpt = tmp_path / "ckpt"
        self._run(monkeypatch, 3, 2, checkpoint_dir=str(ckpt),
                  checkpoint_at_s=SNAPSHOT_AT)
        meta_path = ckpt / FLEET_META_NAME
        meta = json.loads(meta_path.read_text())
        meta["units"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="units=99"):
            self._run(monkeypatch, 3, 1, resume_from=str(ckpt))

    def test_unit_archive_from_another_packing_is_rejected(self, tmp_path,
                                                           monkeypatch):
        """A unit archive whose slices are not the ones the live fleet
        packs into that unit."""
        from repro.sim.checkpoint import CheckpointError
        ckpt = tmp_path / "ckpt"
        self._run(monkeypatch, 3, 2, checkpoint_dir=str(ckpt),
                  checkpoint_at_s=SNAPSHOT_AT)
        (ckpt / "unit_0.npz").rename(ckpt / "swap.npz")
        (ckpt / "unit_1.npz").rename(ckpt / "unit_0.npz")
        (ckpt / "swap.npz").rename(ckpt / "unit_1.npz")
        with pytest.raises(CheckpointError, match="holds slices"):
            self._run(monkeypatch, 3, 1, resume_from=str(ckpt))


def fleet_shaped(shape, **over):
    """A small loadable fleet- or schedule-shaped scenario dict."""
    fleet = {"clusters": [{"name": "a", "leaves": 4,
                           "trace": {"kind": "constant", "load": 0.5}}]}
    data = {"name": "matrix", "duration_s": 120, "warmup_s": 30,
            shape: ({"epoch_s": 60, "fleet": fleet}
                    if shape == "schedule" else fleet)}
    data.update(over)
    return data


def run_cli(*argv):
    from repro.cli import main
    return main(list(argv))


#: Options fleet-shaped runs do not support, each with the error it must
#: raise before any work starts — never a silent drop.
UNSUPPORTED_FLEET_OPTIONS = {
    "fleet-spill_dir": (ScenarioError, "spill_dir", lambda: load_scenario(
        fleet_shaped("fleet", checkpoint={"spill_dir": "spill"}))),
    "schedule-spill_dir": (ScenarioError, "spill_dir", lambda: load_scenario(
        fleet_shaped("schedule", checkpoint={"spill_dir": "spill"}))),
    "fleet-spill_dir-with-save": (
        ScenarioError, "spill_dir", lambda: load_scenario(fleet_shaped(
            "fleet", checkpoint={"save": "ck", "at_s": 60,
                                 "spill_dir": "spill"}))),
    "cli-fleet--spill-dir": (SystemExit, "spill_dir", lambda: run_cli(
        "fleet", "mixed-fleet-1k", "--spill-dir", "spill")),
    "cli-sched--spill-dir": (SystemExit, "spill_dir", lambda: run_cli(
        "sched", "batch-backlog-1k", "--spill-dir", "spill")),
    "fleet-top-level-engine": (ScenarioError, "engine", lambda: load_scenario(
        fleet_shaped("fleet", engine="batch"))),
    "schedule-top-level-server": (
        ScenarioError, "per\\s+cluster", lambda: load_scenario(
            fleet_shaped("schedule", server={"cores": 8}))),
    "fleet-controller": (ScenarioError, "controller", lambda: load_scenario(
        fleet_shaped("fleet", controller="none"))),
    "cluster-duplicate-arms": (ScenarioError, "arms", lambda: load_scenario(
        {"name": "twice", "cluster": {"arms": ["managed", "managed"]}})),
    "sweep-duplicate-be_tasks": (
        ScenarioError, "be_tasks", lambda: load_scenario(
            {"name": "twice", "sweep": {"be_tasks": ["brain", "brain"]}})),
}


@pytest.mark.parametrize("case", sorted(UNSUPPORTED_FLEET_OPTIONS))
def test_unsupported_option_fails_loud(case):
    error, match, attempt = UNSUPPORTED_FLEET_OPTIONS[case]
    with pytest.raises(error, match=match):
        attempt()


class TestHeterogeneousFleet:
    @staticmethod
    def _fleet():
        return ShardedFleetSim(
            [
                ClusterPlan(name="web", leaves=4,
                            trace=reference_trace(), seed=1),
                ClusterPlan(name="kv", leaves=3, lc_name="memkeyval",
                            be_mix=("iperf",),
                            trace=PhasedTrace(reference_trace(), 600.0),
                            managed=False, seed=2),
            ],
            shard_leaves=2)

    @pytest.fixture(scope="class")
    def result(self):
        return self._fleet().run(120.0, processes=1)

    def test_telemetry_shapes(self, result):
        telemetry = result.telemetry
        assert telemetry.column("emu").shape == (len(telemetry), 2)
        assert telemetry.fleet_column("fleet_emu").shape \
            == (len(telemetry),)
        assert telemetry.cluster_names == ["web", "kv"]
        with pytest.raises(KeyError):
            telemetry.fleet_column("emu")

    def test_fleet_emu_is_leaf_weighted(self, result):
        telemetry = result.telemetry
        emu = telemetry.column("emu")
        expected = (emu[:, 0] * 4 + emu[:, 1] * 3) / 7.0
        np.testing.assert_allclose(telemetry.fleet_column("fleet_emu"),
                                   expected, rtol=1e-12)

    def test_weighted_latency_bounded_by_slowest_cluster(self, result):
        telemetry = result.telemetry
        latency = telemetry.column("root_latency_ms")
        weighted = telemetry.fleet_column("weighted_root_latency_ms")
        assert (weighted <= latency.max(axis=1) + 1e-12).all()
        assert (weighted >= latency.min(axis=1) - 1e-12).all()

    def test_cluster_lookup_and_shards(self, result):
        assert result.cluster("web").leaves == 4
        assert [(t.plan.name, t.leaf_lo, t.leaf_hi, t.member_base)
                for t in self._fleet()._shards()] == [
            ("web", 0, 2, 0), ("web", 2, 4, 0), ("kv", 0, 2, 4),
            ("kv", 2, 3, 4)]
        with pytest.raises(KeyError):
            result.cluster("nope")

    def test_summary_contents(self, result):
        summary = result.summary(skip_s=30.0)
        assert summary["leaves"] == 7
        assert set(summary["clusters"]) == {"web", "kv"}
        assert 0.0 < summary["fleet_emu"] <= 1.5
        assert summary["weighted_root_latency_ms"] > 0


class TestFleetValidation:
    def _plan(self, **over):
        base = dict(name="c", leaves=4, trace=ConstantLoad(0.5))
        base.update(over)
        return ClusterPlan(**base)

    def test_rejects_bad_leaf_counts(self):
        for leaves in (0, -5, 1):
            with pytest.raises(ValueError, match="at least two leaves"):
                ShardedFleetSim([self._plan(leaves=leaves)])

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError, match="zero or negative"):
            ShardedFleetSim([self._plan()], shard_leaves=0)
        with pytest.raises(ValueError, match="zero or negative"):
            ShardedFleetSim([self._plan()], shard_leaves=-4)

    def test_accepts_same_seed_clusters(self):
        """A cluster scenario's arms share one seed on purpose; the spec
        layer, not the engine, rejects overlaps in user-written fleets."""
        fleet = ShardedFleetSim([self._plan(name="a", seed=7),
                                 self._plan(name="b", seed=7)])
        assert [plan.seed for plan in fleet.clusters] == [7, 7]

    def test_overlapping_seed_ranges(self):
        """Adjacent seeds + 1000-leaf clusters would share noise streams;
        widely spaced seeds or sub-1000 clusters do not."""
        assert overlapping_seed_ranges(
            [(7, 1500, "a"), (8, 1500, "b")]) == ("a", "b")
        assert overlapping_seed_ranges(
            [(7, 1500, "a"), (9, 1500, "b")]) is None
        assert overlapping_seed_ranges(
            [(7, 500, "a"), (8, 500, "b")]) is None

    def test_rejects_duplicate_names_and_empty_fleets(self):
        with pytest.raises(ValueError, match="unique"):
            ShardedFleetSim([self._plan(), self._plan()])
        with pytest.raises(ValueError, match="at least one cluster"):
            ShardedFleetSim([])

    def test_rejects_unknown_workloads(self):
        with pytest.raises(ValueError, match="unknown LC workload"):
            ShardedFleetSim([self._plan(lc_name="nope")])
        with pytest.raises(ValueError, match="unknown BE workload"):
            ShardedFleetSim([self._plan(be_mix=("nope",))])
        with pytest.raises(ValueError, match="at least one BE"):
            ShardedFleetSim([self._plan(be_mix=())])

    def test_rejects_bad_run_arguments(self):
        fleet = ShardedFleetSim([self._plan()])
        with pytest.raises(ValueError, match="duration"):
            fleet.run(0.0)
        with pytest.raises(ValueError, match="dt"):
            fleet.run(10.0, dt_s=0.0)
        with pytest.raises(ValueError, match="record_period_s"):
            ShardedFleetSim([self._plan()], record_period_s=0.0)

    def test_zero_step_run_is_empty_not_a_crash(self, monkeypatch):
        """duration/dt rounding to zero ticks mirrors the cluster driver
        (an empty history), instead of crashing on empty reductions."""
        fleet = ShardedFleetSim([self._plan(leaves=2)])
        result, leaves = run_with_leaves(monkeypatch, lambda: fleet.run(
            1.0, dt_s=5.0, processes=1, slack_epoch_s=10.0))
        assert len(result.cluster("c").history) == 0
        assert len(result.telemetry) == 0
        assert leaves["c"].tails_ms.shape == (0, 2)
        assert result.slack.epochs == 0


class TestFleetSpecSchema:
    def _fleet_dict(self, **over):
        data = {
            "name": "spec-fleet",
            "duration_s": 120, "warmup_s": 30,
            "fleet": {
                "shard_leaves": 2,
                "clusters": [
                    {"name": "a", "leaves": 4,
                     "trace": {"kind": "constant", "load": 0.5}},
                    {"name": "b", "leaves": 3, "lc": "memkeyval",
                     "be_mix": ["iperf"], "managed": False,
                     "trace": {"kind": "diurnal", "period_s": 600,
                               "phase_s": 150}},
                ],
            },
        }
        data.update(over)
        return data

    def test_loads_and_compiles(self):
        spec = load_scenario(self._fleet_dict())
        assert spec.fleet.total_leaves() == 7
        assert spec.fleet.clusters[1].trace.phase_s == 150
        assert compile_scenario(spec).kind == "fleet"

    def test_cluster_seed_derivation(self):
        spec = load_scenario(self._fleet_dict(seed=10))
        assert spec.fleet.cluster_seed(0, spec.seed) == 10
        assert spec.fleet.cluster_seed(1, spec.seed) == 11
        explicit = self._fleet_dict(seed=10)
        explicit["fleet"]["clusters"][1]["seed"] = 99
        spec = load_scenario(explicit)
        assert spec.fleet.cluster_seed(1, spec.seed) == 99

    def test_rejects_zero_or_negative_counts(self):
        bad = self._fleet_dict()
        bad["fleet"]["clusters"][0]["leaves"] = 0
        with pytest.raises(ScenarioError, match="zero or negative"):
            load_scenario(bad)
        bad = self._fleet_dict()
        bad["fleet"]["clusters"][0]["leaves"] = -4
        with pytest.raises(ScenarioError, match="zero or negative"):
            load_scenario(bad)
        bad = self._fleet_dict()
        bad["fleet"]["shard_leaves"] = 0
        with pytest.raises(ScenarioError, match="zero or negative"):
            load_scenario(bad)

    def test_fleet_engine_field(self):
        """`fleet.engine` selects the execution engine (default
        sharded); unknown engines fail at load time, and the top-level
        per-cluster `engine` stays rejected for fleet shapes."""
        spec = load_scenario(self._fleet_dict())
        assert spec.fleet.engine == "sharded"
        mega = self._fleet_dict()
        mega["fleet"]["engine"] = "mega"
        spec = load_scenario(mega)
        assert spec.fleet.engine == "mega"
        compiled = compile_scenario(spec)
        assert compiled.kind == "fleet"
        assert compiled._build_fleet(spec.fleet).engine == "mega"
        bad = self._fleet_dict()
        bad["fleet"]["engine"] = "bogus"
        with pytest.raises(ScenarioError, match="unknown fleet engine"):
            load_scenario(bad)

    def test_rejects_unknown_fields_and_names(self):
        bad = self._fleet_dict()
        bad["fleet"]["shards"] = 4
        with pytest.raises(ScenarioError, match="unknown field"):
            load_scenario(bad)
        bad = self._fleet_dict()
        bad["fleet"]["clusters"][0]["lc"] = "nope"
        with pytest.raises(ScenarioError, match="unknown LC workload"):
            load_scenario(bad)
        bad = self._fleet_dict()
        bad["fleet"]["clusters"][1]["name"] = "a"
        with pytest.raises(ScenarioError, match="unique"):
            load_scenario(bad)

    def test_rejects_misplaced_top_level_fields(self):
        with pytest.raises(ScenarioError, match="per\\s+cluster"):
            load_scenario(self._fleet_dict(server={"cores": 8}))
        with pytest.raises(ScenarioError, match="engine"):
            load_scenario(self._fleet_dict(engine="batch"))
        with pytest.raises(ScenarioError, match="controller"):
            load_scenario(self._fleet_dict(controller="none"))
        both = self._fleet_dict()
        both["members"] = [{"lc": "websearch"}]
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(both)

    def test_rejects_seed_collisions_at_load_time(self):
        """Overlapping leaf-seed ranges fail as a load-time ScenarioError
        (never a mid-run ValueError the CLI would not catch)."""
        bad = self._fleet_dict()
        bad["fleet"]["clusters"][0]["leaves"] = 1500
        bad["fleet"]["clusters"][1]["leaves"] = 1500
        with pytest.raises(ScenarioError, match="seed ranges"):
            load_scenario(bad)
        spaced = self._fleet_dict()
        spaced["fleet"]["clusters"][0]["leaves"] = 1500
        spaced["fleet"]["clusters"][1]["leaves"] = 1500
        spaced["fleet"]["clusters"][1]["seed"] = 99
        assert load_scenario(spaced).fleet.total_leaves() == 3000

    def test_registered_fleet_scenarios_validate(self):
        mixed = registry.get("mixed-fleet-1k")
        assert mixed.fleet.total_leaves() == 1000
        assert len(mixed.fleet.clusters) == 4
        sun = registry.get("follow-the-sun")
        phases = [c.trace.phase_s for c in sun.fleet.clusters]
        assert phases[0] == 0.0 and phases[1] < phases[2]
        chaos = registry.get("chaos-1k")
        assert chaos.fleet.total_leaves() == 1000
        actions = {inj.action for inj in chaos.injections}
        assert {"leaf_crash", "leaf_restart", "straggler", "power_cap",
                "partition"} <= actions
        assert all(inj.at_s < chaos.duration_s for inj in chaos.injections)

    def test_fleet_spec_runs_through_compiler(self):
        spec = load_scenario(self._fleet_dict())
        result = compile_scenario(spec).run(processes=1)
        assert result.kind == "fleet"
        rendered = result.render()
        assert "spec-fleet" in rendered and "a" in rendered
        assert "fleet EMU" in rendered

    def test_build_raises_for_fleet_shape(self):
        spec = load_scenario(self._fleet_dict())
        with pytest.raises(ScenarioError, match="runner grid"):
            compile_scenario(spec).build()


class TestFleetCli:
    def test_fleet_list_shows_only_fleet_scenarios(self, capsys):
        from repro.cli import main
        assert main(["fleet", "--list"]) == 0
        out = capsys.readouterr().out
        assert "mixed-fleet-1k" in out and "follow-the-sun" in out
        assert "chaos-1k" in out
        assert "fig4" not in out

    def test_fleet_runs_spec_file(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(JOBS_ENV, "1")
        spec = {
            "name": "cli-fleet", "duration_s": 60, "warmup_s": 10,
            "fleet": {"clusters": [
                {"name": "only", "leaves": 2, "managed": False,
                 "trace": {"kind": "constant", "load": 0.4}}]},
        }
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(spec))
        assert main(["fleet", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli-fleet" in out and "fleet EMU" in out

    def test_fleet_rejects_non_fleet_scenarios(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="not fleet-shaped"):
            main(["fleet", "fig4"])

    def test_fleet_rejects_bad_shard_leaves(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="positive"):
            main(["fleet", "mixed-fleet-1k", "--shard-leaves", "0"])

    def test_fig8_rejects_bad_leaves(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="at least two leaves"):
            main(["fig8", "--leaves", "0"])

    def test_fig8_rejects_unknown_engine(self):
        """fig8 has one backend; an ``--engine`` flag is an error."""
        from repro.cli import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig8", "--engine", "scalar"])
