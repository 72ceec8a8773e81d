"""Engine-level checkpoint/restore: the bit-identity gate.

The contract under test (``repro.sim.checkpoint``): run-to-T is
**bit-identical** to run-to-T/2 + ``save_engine`` + ``load_engine`` +
resume — for the scalar engine and the batched engine, with chaos
schedules straddling the snapshot tick and with chunked spill-to-disk
active on either side of the round trip.  Equality is asserted with
``np.array_equal`` (no tolerance): a checkpoint is a point on the same
trajectory, not an approximation of it.

The fleet-level round trip (sharded + mega engines, worker pools,
manifest validation) lives in ``tests/test_fleet.py``; the scenario /
CLI plumbing in ``tests/test_scenarios.py`` and the fuzzer's resume
axis in ``tests/test_scenario_fuzz.py``.
"""

import numpy as np
import pytest

from repro.core.controller import HeraclesController
from repro.hardware.spec import default_machine_spec
from repro.metrics.columns import SPILL_CHUNK_ENV
from repro.sim.batch import BatchColocationSim
from repro.sim.chaos import ChaosEvent
from repro.sim.checkpoint import (CHECKPOINT_VERSION, CheckpointError,
                                  checkpoint_step, completed_steps,
                                  load_engine, run_ticks, save_engine)
from repro.sim.engine import ColocationSim, SimHistory
from repro.workloads.best_effort import make_be_workload
from repro.workloads.latency_critical import make_lc_workload
from repro.workloads.traces import DiurnalTrace

DURATION = 180.0
SNAPSHOT_AT = 90.0
SEED = 4

#: Chaos schedule that *straddles* the snapshot tick: the engine is
#: saved mid-degradation (straggler active, one event still pending),
#: so the schedule cursor and the degraded state must both survive the
#: pickle round trip.
STRADDLING_EVENTS = (
    ChaosEvent(40.0, "straggler", 0.6),
    ChaosEvent(60.0, "power_cap", 0.7),
    ChaosEvent(130.0, "straggler", 1.0),
    ChaosEvent(150.0, "power_cap", 1.0),
)


def make_trace(seed=SEED):
    return DiurnalTrace(low=0.15, high=0.90, period_s=600.0,
                        noise_sigma=0.03, seed=seed)


def make_scalar(spill_dir=None, events=()):
    """One managed websearch+brain server under Heracles."""
    spec = default_machine_spec()
    sim = ColocationSim(lc=make_lc_workload("websearch", spec),
                        trace=make_trace(), be=make_be_workload(
                            "brain", spec),
                        spec=spec, seed=SEED, spill_dir=spill_dir)
    HeraclesController.for_sim(sim)
    if events:
        sim.set_chaos_events(events)
    return sim


def make_batch(spill_dir=None, events=()):
    """A 3-member managed batch (full per-member history)."""
    spec = default_machine_spec()
    lc = make_lc_workload("websearch", spec)
    bes = [make_be_workload(name, spec)
           for name in ("brain", "streetview", "brain")]
    batch = BatchColocationSim(
        lc=lc, trace=make_trace(), bes=bes, spec=spec,
        seeds=[SEED * 100 + i for i in range(3)],
        record_history=True, spill_dir=spill_dir)
    batch.attach_vec_heracles()
    if events:
        batch.set_chaos_events(events)
    return batch


def assert_sim_histories_identical(got, want, what):
    """Bitwise equality across the full TickRecord field set."""
    assert len(got) == len(want), f"{what}: lengths differ"
    for name in SimHistory.field_names():
        a, b = got.column(name), want.column(name)
        assert np.array_equal(a, b, equal_nan=True), (
            f"{what}: column {name!r} diverged")


def round_trip(factory, path, kind, at_s=SNAPSHOT_AT, duration=DURATION,
               dt_s=1.0):
    """Run to ``at_s``, save, load, resume to ``duration``."""
    total = int(round(duration / dt_s))
    k = checkpoint_step(at_s, duration, dt_s)
    sim = factory()
    run_ticks(sim, k, dt_s)
    save_engine(sim, path, kind=kind)
    restored = load_engine(path, expect_kind=kind)
    assert restored.time_s == pytest.approx(at_s)
    assert completed_steps(restored.sim, dt_s) == k
    run_ticks(restored.sim, total - k, dt_s)
    return restored.sim


class TestScalarRoundTrip:
    def test_resume_is_bit_identical(self, tmp_path):
        straight = make_scalar()
        straight.run(DURATION)
        resumed = round_trip(make_scalar, str(tmp_path / "ckpt.npz"),
                             "single")
        assert_sim_histories_identical(resumed.history, straight.history,
                                       "scalar resume vs straight")
        assert resumed.time_s == straight.time_s

    def test_resume_under_straddling_chaos(self, tmp_path):
        """Snapshot taken mid-degradation: the chaos cursor, the
        degraded actuator state, and the pending events all ride."""
        straight = make_scalar(events=STRADDLING_EVENTS)
        straight.run(DURATION)
        resumed = round_trip(
            lambda: make_scalar(events=STRADDLING_EVENTS),
            str(tmp_path / "chaos.npz"), "single")
        assert_sim_histories_identical(resumed.history, straight.history,
                                       "chaos resume vs straight")
        # The schedule must actually bite (guards a silently dropped
        # cursor producing a trivially-equal no-chaos pair).
        plain = make_scalar()
        plain.run(DURATION)
        assert not np.array_equal(resumed.history.column(
            "tail_latency_ms"), plain.history.column("tail_latency_ms"))

    def test_branching_forks_are_deterministic(self, tmp_path):
        """Warm-started what-if: two branches restored from one
        snapshot replay the same future, bit for bit."""
        path = str(tmp_path / "fork.npz")
        sim = make_scalar()
        run_ticks(sim, int(SNAPSHOT_AT), 1.0)
        save_engine(sim, path, kind="single")
        branches = []
        for _ in range(2):
            restored = load_engine(path, expect_kind="single").sim
            run_ticks(restored, int(DURATION - SNAPSHOT_AT), 1.0)
            branches.append(restored)
        assert_sim_histories_identical(branches[0].history,
                                       branches[1].history,
                                       "fork A vs fork B")

    def test_spill_round_trip_matches_in_ram(self, tmp_path, monkeypatch):
        """Chunked spill on both sides of the snapshot: the restored
        engine re-flushes its folded columns and stays on trajectory."""
        monkeypatch.setenv(SPILL_CHUNK_ENV, "32")  # force real chunking
        straight = make_scalar()
        straight.run(DURATION)
        resumed = round_trip(
            lambda: make_scalar(spill_dir=str(tmp_path / "spill")),
            str(tmp_path / "ckpt.npz"), "single")
        assert_sim_histories_identical(resumed.history, straight.history,
                                       "spilled resume vs in-RAM")


#: Batch snapshot tick, off every controller period's grid (poll 15 s,
#: core/memory and power 2 s): a restore that resets the vector
#: controller's period clocks would step a subsystem early and diverge.
BATCH_SNAPSHOT_AT = 97.0

#: Per-member events straddling the batch snapshot.  Member 0 crashes
#: and restarts before it, so replaying the fired events (a rewound
#: cursor) would cold-restart it again; member 1 is crashed and still
#: down at save time; member 2's straggler is pending.
BATCH_EVENTS = (ChaosEvent(20.0, "leaf_crash", members=(0,)),
                ChaosEvent(30.0, "leaf_crash", members=(1,)),
                ChaosEvent(45.0, "leaf_restart", members=(0,)),
                ChaosEvent(50.0, "straggler", 0.5, members=(2,)),
                ChaosEvent(110.0, "leaf_restart", members=(1,)),
                ChaosEvent(140.0, "straggler", 1.0, members=(2,)))


class TestBatchRoundTrip:
    def test_resume_is_bit_identical(self, tmp_path):
        straight = make_batch()
        straight.run(DURATION)
        resumed = round_trip(make_batch, str(tmp_path / "batch.npz"),
                             "batch", at_s=BATCH_SNAPSHOT_AT)
        for i in range(3):
            assert_sim_histories_identical(
                resumed.members[i].history, straight.members[i].history,
                f"batch member {i} resume vs straight")

    def test_resume_under_member_targeted_chaos(self, tmp_path):
        straight = make_batch(events=BATCH_EVENTS)
        straight.run(DURATION)
        resumed = round_trip(lambda: make_batch(events=BATCH_EVENTS),
                             str(tmp_path / "chaos.npz"), "batch",
                             at_s=BATCH_SNAPSHOT_AT)
        for i in range(3):
            assert_sim_histories_identical(
                resumed.members[i].history, straight.members[i].history,
                f"chaos batch member {i}")
        # Member 0 has re-grown its BE task by the snapshot, so a second
        # cold restart there would show (guards a replayed schedule
        # that happens to be idempotent).
        be_cores = straight.members[0].history.column("be_cores")
        assert be_cores[int(BATCH_SNAPSHOT_AT) - 1] > 0

    def test_meta_records_engine_clock(self, tmp_path):
        path = str(tmp_path / "meta.npz")
        batch = make_batch()
        run_ticks(batch, 90, 1.0)
        save_engine(batch, path, kind="batch")
        restored = load_engine(path)
        assert restored.meta["version"] == CHECKPOINT_VERSION
        assert restored.meta["kind"] == "batch"
        assert restored.sim.n == 3
        assert restored.time_s == pytest.approx(90.0)


class TestNoisePrefetch:
    """The tail-noise prefetch is sized to the horizon of ``run``; chunks
    of any sizes consume each member's stream in the same order."""

    def test_sized_split_and_direct_chunks_agree(self):
        straight = make_batch()
        straight.run(DURATION)
        assert len(straight._noise_chunk) == int(DURATION)
        split = make_batch()
        split.run(30.0)
        assert len(split._noise_chunk) == 30
        run_ticks(split, 50, 1.0)   # a direct tick prefetches 1024 rows
        assert len(split._noise_chunk) == 1024
        split.run(DURATION - 80.0)  # continues mid-chunk
        for i in range(3):
            assert_sim_histories_identical(
                split.members[i].history, straight.members[i].history,
                f"batch member {i} split vs straight")


class TestArchiveValidation:
    def _saved(self, tmp_path, name="ok"):
        sim = make_scalar()
        run_ticks(sim, 5, 1.0)
        return save_engine(sim, str(tmp_path / name), kind="single")

    def test_kind_mismatch_is_rejected_before_unpickling(self, tmp_path):
        path = self._saved(tmp_path)
        with pytest.raises(CheckpointError,
                           match="holds a 'single'.*expected 'batch'"):
            load_engine(path, expect_kind="batch")

    def test_version_mismatch_is_rejected(self, tmp_path):
        import json
        path = str(tmp_path / "future.npz")
        meta = json.dumps({"version": 99, "kind": "single",
                           "time_s": 0.0}).encode("utf-8")
        np.savez(path,
                 __meta__=np.frombuffer(meta, dtype=np.uint8),
                 __pickle__=np.zeros(4, dtype=np.uint8))
        with pytest.raises(CheckpointError, match="version 99"):
            load_engine(path)

    def test_foreign_npz_is_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, data=np.arange(8))
        with pytest.raises(CheckpointError,
                           match="not an engine checkpoint"):
            load_engine(path)

    def test_missing_and_corrupt_files(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_engine(str(tmp_path / "nope.npz"))
        bad = tmp_path / "trunc.npz"
        bad.write_bytes(b"PK\x03\x04 not a zipfile")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_engine(str(bad))

    def test_suffix_is_appended_and_resolved(self, tmp_path):
        path = self._saved(tmp_path, name="bare")
        assert path.endswith("bare.npz")
        # Loading by the suffixless name the caller gave also works.
        assert load_engine(str(tmp_path / "bare")).time_s \
            == pytest.approx(5.0)

    def test_checkpoint_step_bounds(self):
        assert checkpoint_step(90.0, 180.0, 1.0) == 90
        assert checkpoint_step(180.0, 180.0, 1.0) == 180
        with pytest.raises(CheckpointError, match="land in"):
            checkpoint_step(0.0, 180.0, 1.0)
        with pytest.raises(CheckpointError, match="land in"):
            checkpoint_step(200.0, 180.0, 1.0)
        with pytest.raises(CheckpointError, match="dt must be positive"):
            checkpoint_step(10.0, 180.0, 0.0)
        with pytest.raises(CheckpointError, match="dt must be positive"):
            completed_steps(make_scalar(), -1.0)

    def test_tick_split_never_loses_a_tick(self):
        """The round-vs-round trap: segment boundaries are integer
        ticks, so prefix + remainder always tile the straight run."""
        for duration, dt in ((3.0, 1.0), (1.5, 0.4), (240.0, 7.0)):
            total = int(round(duration / dt))
            for step in range(1, total + 1):
                at_s = step * dt
                k = checkpoint_step(at_s, duration, dt)
                assert k + (total - k) == total


class TestScenarioResumeManifest:
    """A members snapshot resumes only under the scenario that wrote
    it: member count, each member's LC, BE and seed, and the tick
    size, each mismatch named by its field."""

    @staticmethod
    def _spec(checkpoint, n=3, lc="websearch", dt_s=1.0):
        from repro.scenarios import ScenarioSpec
        return ScenarioSpec.from_dict({
            "name": "manifest", "duration_s": 20, "warmup_s": 0,
            "dt_s": dt_s, "members": [{"lc": lc, "be": "brain"}] * n,
            "checkpoint": checkpoint})

    @pytest.mark.parametrize("resume_under, match", [
        ({"n": 4}, "snapshot members=3 does not match this scenario's 4"),
        ({"lc": "memkeyval"}, r"snapshot members\[0\]\.lc='websearch' "
                              r"does not match this scenario's "
                              r"'memkeyval'"),
        ({"dt_s": 0.5}, "snapshot dt_s=1.0 does not match"),
    ], ids=["member-count", "workload", "tick-size"])
    def test_mismatch_is_rejected(self, resume_under, match, tmp_path):
        from repro.scenarios import run_scenario
        path = str(tmp_path / "ck.npz")
        run_scenario(self._spec({"save": path, "at_s": 10}))
        with pytest.raises(CheckpointError, match=match):
            run_scenario(self._spec({"resume": path}, **resume_under))
