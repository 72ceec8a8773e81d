"""The observability layer's two contracts, pinned.

1. **Zero cost when off, zero perturbation when on** — enabling
   decision tracing or the phase profiler never changes a single
   simulated number: telemetry, summaries and schedules stay
   bit-identical to the untraced run.
2. **Determinism of the trace itself** — the merged decision trace is
   one canonical event stream: byte-identical JSONL across fleet
   engines, shard plans, worker counts, and checkpoint/resume, with
   fleet-global member indices throughout.

Plus the first-divergence explainer (``tools/diff_runs.py``), which is
pinned against a re-creation of the PR 9 mega ``grant_cores`` bug: it
must name the exact tick, column and member, with the triggering chaos
event attached as context.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.obs import (FIELDS, KINDS, PHASES, SOURCES, PhaseProfiler,
                       TRACE_ENV, PROFILE_ENV, PROGRESS_ENV, TraceSink,
                       empty_payload, events_to_jsonl, iter_events,
                       make_sink, merge_payloads, merge_profiles,
                       read_jsonl, render_profile, trace_enabled,
                       write_jsonl)
from repro.scenarios import CheckpointSpec, run_scenario
from repro.scenarios.library import fig4_scenario
from repro.scenarios.spec import (ClusterSpec, FleetSpec, InjectionSpec,
                                  ScenarioSpec, ScheduleSpec, ShardSpec,
                                  TraceSpec, JobSpec, WorkloadSpec)
from repro.sim.chaos import CHAOS_EVENT_ACTIONS
from repro.sim.engine import SimHistory
from repro.sim.runner import JOBS_ENV

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import diff_runs  # noqa: E402

FIELD_NAMES = tuple(name for name, _ in FIELDS)


def fleet_spec(duration_s=40.0, schedule=False, seed=3):
    """A small two-cluster fleet with chaos + actuator injections."""
    clusters = (
        ShardSpec(name="east", leaves=5, lc="websearch",
                  be_mix=("stream-DRAM",), managed=True,
                  trace=TraceSpec(kind="constant", load=0.5)),
        ShardSpec(name="west", leaves=4, lc="memkeyval",
                  be_mix=("brain",), managed=True,
                  trace=TraceSpec(kind="diurnal", low=0.2, high=0.8,
                                  period_s=30.0, noise_sigma=0.0)),
    )
    fleet = FleetSpec(clusters=clusters, shard_leaves=3,
                      record_period_s=5.0)
    injections = tuple(
        injection for injection in (
            InjectionSpec(at_s=10.0, action="disable_be", cluster="east",
                          leaf=2),
            InjectionSpec(at_s=18.0, action="enable_be", cluster="east",
                          leaf=2),
            InjectionSpec(at_s=14.0, action="straggler", value=0.5,
                          cluster="west", leaf=1),
            InjectionSpec(at_s=25.0, action="power_cap", value=0.7),
        ) if injection.at_s < duration_s)
    kwargs = dict(name="obs-fleet", duration_s=duration_s, dt_s=1.0,
                  warmup_s=0.0, seed=seed, injections=injections)
    if schedule:
        jobs = (JobSpec(name="crunch", demand_core_s=60.0, max_cores=4,
                        count=2),)
        return ScenarioSpec(schedule=ScheduleSpec(fleet=fleet, jobs=jobs,
                                                  epoch_s=10.0), **kwargs)
    return ScenarioSpec(fleet=fleet, **kwargs)


def member_spec(duration_s=30.0):
    """A two-member scenario with one chaos injection."""
    return ScenarioSpec(
        name="obs-members", duration_s=duration_s, warmup_s=0.0, seed=1,
        members=(
            WorkloadSpec(lc="websearch", be="stream-DRAM",
                         trace=TraceSpec(kind="constant", load=0.5)),
            WorkloadSpec(lc="memkeyval", be="brain",
                         trace=TraceSpec(kind="constant", load=0.6)),
        ),
        injections=(InjectionSpec(at_s=8.0, action="disable_be", leaf=0),
                    InjectionSpec(at_s=16.0, action="enable_be", leaf=0)))


def run_traced(spec, jobs=1, monkeypatch=None, trace=True, profile=False):
    """Run a scenario with the obs env toggles pinned."""
    saved = {name: os.environ.get(name)
             for name in (TRACE_ENV, PROFILE_ENV, JOBS_ENV)}
    os.environ[JOBS_ENV] = str(jobs)
    if trace:
        os.environ[TRACE_ENV] = "1"
    else:
        os.environ.pop(TRACE_ENV, None)
    if profile:
        os.environ[PROFILE_ENV] = "1"
    else:
        os.environ.pop(PROFILE_ENV, None)
    try:
        return run_scenario(spec, processes=None)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def with_fleet(spec, **overrides):
    """Replace fleet engine/shard knobs on a fleet or schedule spec."""
    if spec.schedule is not None:
        fleet = dataclasses.replace(spec.schedule.fleet, **overrides)
        return dataclasses.replace(
            spec, schedule=dataclasses.replace(spec.schedule, fleet=fleet))
    return dataclasses.replace(
        spec, fleet=dataclasses.replace(spec.fleet, **overrides))


class TestTraceSchema:
    def test_sink_emits_canonical_fields(self):
        sink = TraceSink()
        sink.emit(4.0, 2, "controller", "cores", a=3.0, b=4.0, slo=0.9,
                  load=0.5)
        sink.emit(1.0, -1, "checkpoint", "save", a=10.0)
        payload = sink.payload()
        assert tuple(payload) == FIELD_NAMES
        assert all(len(payload[name]) == 2 for name in payload)

    def test_unknown_source_and_kind_are_rejected(self):
        sink = TraceSink()
        with pytest.raises(KeyError):
            sink.emit(0.0, 0, "nonsense", "cores")
        with pytest.raises(KeyError):
            sink.emit(0.0, 0, "controller", "nonsense")

    def test_merge_is_permutation_invariant(self):
        sink = TraceSink()
        events = [(3.0, 1, "chaos", "chaos_straggler", 0.5),
                  (1.0, 0, "controller", "be_gate", 0.0),
                  (3.0, 0, "controller", "cores", 2.0),
                  (2.0, 2, "sched", "place", 4.0)]
        for t, m, source, kind, a in events:
            sink.emit(t, m, source, kind, a=a)
        forward = sink.payload()
        sink2 = TraceSink()
        for t, m, source, kind, a in reversed(events):
            sink2.emit(t, m, source, kind, a=a)
        merged_a = merge_payloads([forward])
        merged_b = merge_payloads([sink2.payload()])
        assert events_to_jsonl(merged_a) == events_to_jsonl(merged_b)
        times = merged_a["t_s"]
        assert np.all(times[:-1] <= times[1:])

    def test_jsonl_round_trip_and_nan_policy(self, tmp_path):
        sink = TraceSink()
        sink.emit(5.0, 3, "chaos", "chaos_power_cap", a=0.7)
        merged = merge_payloads([sink.payload()])
        path = write_jsonl(merged, str(tmp_path / "t.jsonl"))
        events = read_jsonl(path)
        assert events == list(iter_events(merged))
        # unset payload fields export as JSON null, never NaN
        assert events[0]["b"] is None
        assert "NaN" not in (tmp_path / "t.jsonl").read_text()

    def test_empty_payload_has_every_field(self):
        payload = empty_payload()
        assert tuple(payload) == FIELD_NAMES
        assert all(len(payload[name]) == 0 for name in payload)
        assert events_to_jsonl(merge_payloads([payload])) == ""

    def test_vocabulary_is_fixed(self):
        assert SOURCES == ("controller", "chaos", "sched", "checkpoint")
        assert len(set(KINDS)) == len(KINDS)
        for kind in ("be_gate", "cores", "llc", "dvfs", "net_ceil",
                     "place", "evict", "save"):
            assert kind in KINDS
        assert all(k.startswith("chaos_") for k in KINDS
                   if k not in ("be_gate", "cores", "llc", "dvfs",
                                "net_ceil", "place", "evict", "save"))
        # Every event action traces under its own kind.
        assert {f"chaos_{action}" for action in CHAOS_EVENT_ACTIONS} \
            == {k for k in KINDS if k.startswith("chaos_")}

    def test_make_sink_follows_env(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert make_sink() is None
        assert not trace_enabled()
        monkeypatch.setenv(TRACE_ENV, "1")
        assert isinstance(make_sink(), TraceSink)
        assert trace_enabled()


class TestTraceNeverPerturbs:
    """Contract 1: tracing on ≡ tracing off, bit for bit."""

    @pytest.mark.parametrize("engine", ["sharded", "mega"])
    def test_fleet_telemetry_identical(self, engine):
        spec = with_fleet(fleet_spec(), engine=engine)
        spec.validate()
        plain = run_traced(spec, trace=False)
        traced = run_traced(spec, trace=True, profile=True)
        assert traced.fleet.summary(skip_s=0.0) == \
            plain.fleet.summary(skip_s=0.0)
        for outcome in plain.fleet.clusters:
            other = traced.fleet.cluster(outcome.name)
            for name in ("t_s", "load", "root_latency_ms", "emu"):
                assert np.array_equal(other.history.column(name),
                                      outcome.history.column(name))
        assert plain.trace is None and traced.trace is not None
        assert len(traced.trace["t_s"]) > 0

    def test_schedule_outcome_identical(self):
        spec = fleet_spec(schedule=True)
        spec.validate()
        plain = run_traced(spec, trace=False)
        traced = run_traced(spec, trace=True)
        assert traced.schedule.summary() == plain.schedule.summary()
        kinds = {event["kind"] for event in iter_events(traced.trace)}
        assert "place" in kinds

    def test_members_identical(self):
        spec = member_spec()
        spec.validate()
        plain = run_traced(spec, trace=False)
        traced = run_traced(spec, trace=True)
        for a, b in zip(plain.members, traced.members):
            for name in ("tail_latency_ms", "emu", "be_throughput_norm"):
                assert np.array_equal(a.history.column(name),
                                      b.history.column(name))
        assert len(traced.trace["t_s"]) > 0


class TestTraceDeterminism:
    """Contract 2: one canonical event stream, however the fleet ran."""

    VARIANTS = (
        ("sharded shard=3 jobs=1", dict(engine="sharded"), 1),
        ("sharded shard=1 jobs=4", dict(engine="sharded",
                                        shard_leaves=1), 4),
        ("sharded shard=64 jobs=1", dict(engine="sharded",
                                         shard_leaves=64), 1),
        ("mega jobs=1", dict(engine="mega"), 1),
        ("mega jobs=4", dict(engine="mega"), 4),
    )

    @pytest.mark.parametrize("schedule", [False, True])
    def test_jsonl_identical_across_engines_plans_jobs(self, schedule):
        spec = fleet_spec(schedule=schedule)
        spec.validate()
        reference = None
        for what, overrides, jobs in self.VARIANTS:
            result = run_traced(with_fleet(spec, **overrides), jobs=jobs)
            text = events_to_jsonl(result.trace)
            if reference is None:
                reference = text
                assert text  # the injections guarantee events
            else:
                assert text == reference, f"{what}: trace diverged"

    def test_cluster_jsonl_identical_across_jobs(self):
        """Both arms in one unit (1 worker) or one arm per unit (2)."""
        spec = ScenarioSpec(
            name="obs-cluster", duration_s=40.0, warmup_s=0.0, seed=2,
            cluster=ClusterSpec(leaves=3))
        spec.validate()
        one, two = (events_to_jsonl(run_traced(spec, jobs=jobs).trace)
                    for jobs in (1, 2))
        assert one  # Heracles on the managed arm always decides
        assert one == two

    def test_member_indices_are_fleet_global(self):
        spec = fleet_spec()
        spec.validate()
        result = run_traced(spec)
        members = {event["member"]
                   for event in iter_events(result.trace)}
        leaves = sum(c.leaves for c in spec.fleet.clusters)
        assert members <= set(range(-1, leaves))
        # west's straggler chaos lands at global index 5 + 1 == 6
        straggler = [event for event in iter_events(result.trace)
                     if event["kind"] == "chaos_straggler"]
        assert [event["member"] for event in straggler] == [6]

    @pytest.mark.parametrize("engine", ["sharded", "mega"])
    def test_checkpoint_resume_trace_identical(self, engine, tmp_path):
        spec = with_fleet(fleet_spec(), engine=engine)
        ckpt = str(tmp_path / "ckpt")
        saver = dataclasses.replace(
            spec, checkpoint=CheckpointSpec(save=ckpt, at_s=20.0))
        saver.validate()
        saved = run_traced(saver)
        resumer = dataclasses.replace(
            spec, checkpoint=CheckpointSpec(resume=ckpt))
        resumed = run_traced(resumer)
        assert events_to_jsonl(resumed.trace) == \
            events_to_jsonl(saved.trace)
        kinds = [event["kind"] for event in iter_events(saved.trace)
                 if event["source"] == "checkpoint"]
        assert kinds == ["save"]


class TestProfiler:
    def test_phases_fixed_and_sums_sane(self):
        spec = fleet_spec(duration_s=20.0)
        spec.validate()
        result = run_traced(spec, trace=False, profile=True)
        assert result.profile is not None
        assert set(result.profile) <= set(PHASES)
        assert all(value >= 0.0 for value in result.profile.values())
        core = {"chaos", "physics", "telemetry", "controllers"}
        assert sum(result.profile.get(name, 0.0) for name in core) > 0.0

    def test_batch_physics_is_timed_per_layer(self):
        """The batch engine splits physics into its five layers, and
        timing them changes no number."""
        spec = member_spec()
        spec.validate()
        plain = run_traced(spec, trace=False, profile=False)
        profiled = run_traced(spec, trace=False, profile=True)
        assert plain.profile is None
        for layer in ("power", "cache", "dram", "network", "tail"):
            assert profiled.profile[layer] > 0.0, layer
        assert profiled.profile["physics"] == 0.0
        for a, b in zip(plain.members, profiled.members):
            for name in SimHistory.field_names():
                assert np.array_equal(a.history.column(name),
                                      b.history.column(name),
                                      equal_nan=True), name

    def test_schedule_run_profiles_the_scheduler(self):
        spec = fleet_spec(duration_s=20.0, schedule=True)
        spec.validate()
        plain = run_traced(spec, trace=False, profile=False)
        profiled = run_traced(spec, trace=False, profile=True)
        assert plain.profile is None
        assert set(profiled.profile) <= set(PHASES)
        assert profiled.profile["sched"] > 0.0
        assert profiled.schedule.summary() == plain.schedule.summary()

    def test_merge_accumulates(self):
        one = PhaseProfiler()
        one.add("physics", 1.5)
        two = PhaseProfiler()
        two.add("physics", 0.5)
        two.add("ipc", 1.0)
        merged = merge_profiles([one.as_dict(), two.as_dict()])
        assert merged["physics"] == 2.0
        assert merged["ipc"] == 1.0
        with pytest.raises(KeyError):
            one.add("nonsense", 1.0)

    def test_render_is_share_ordered(self):
        text = render_profile({"physics": 3.0, "ipc": 1.0})
        lines = text.strip().splitlines()
        assert "75.0%" in lines[1] and "physics" in lines[1]
        assert lines[-1].startswith("total")


class TestDiffRuns:
    def test_identical_columns_yield_none(self):
        times = np.arange(4.0)
        cols = {"x": np.arange(8.0).reshape(4, 2)}
        assert diff_runs.first_divergence(times, cols, cols) is None

    def test_nan_equals_nan(self):
        times = np.arange(2.0)
        cols = {"x": np.array([np.nan, 1.0])}
        assert diff_runs.first_divergence(
            times, cols, {"x": np.array([np.nan, 1.0])}) is None

    def test_earliest_tick_then_name_then_member(self):
        times = np.arange(3.0) * 10.0
        a = {"b_col": np.zeros((3, 2)), "a_col": np.zeros((3, 2))}
        b = {"b_col": np.zeros((3, 2)), "a_col": np.zeros((3, 2))}
        b["b_col"][1, 0] = 1.0   # tick 1
        b["a_col"][1, 1] = 2.0   # tick 1, earlier name, later member
        b["a_col"][2, 0] = 3.0   # later tick: ignored
        div = diff_runs.first_divergence(times, a, b)
        assert (div.tick, div.column, div.member) == (1, "a_col", 1)
        assert div.t_s == 10.0
        assert (div.value_a, div.value_b) == (0.0, 2.0)

    def test_shared_column_reports_no_member(self):
        times = np.arange(3.0)
        a = {"fleet_emu": np.array([1.0, 1.0, 1.0])}
        b = {"fleet_emu": np.array([1.0, 0.5, 1.0])}
        div = diff_runs.first_divergence(times, a, b)
        assert div.member is None and div.tick == 1

    def test_mismatched_schemas_are_structural_errors(self):
        times = np.arange(2.0)
        with pytest.raises(ValueError):
            diff_runs.first_divergence(times, {"x": np.zeros(2)},
                                       {"y": np.zeros(2)})
        with pytest.raises(ValueError):
            diff_runs.first_divergence(times, {"x": np.zeros(2)},
                                       {"x": np.zeros(3)})

    def test_context_window_reaches_lagged_trigger(self):
        sink = TraceSink()
        sink.emit(20.0, 2, "chaos", "chaos_disable_be", b=20.0)
        trace = merge_payloads([sink.payload()])
        events = diff_runs.nearest_events(trace, 19.0, member=2,
                                          window=1.0)
        assert [event["kind"] for event in events] == ["chaos_disable_be"]
        assert diff_runs.nearest_events(trace, 19.0, member=2) == []


class TestDiffRunsPinpointsPR9MegaBug:
    """The acceptance gate: re-create the PR 9 mega ``grant_cores``
    regression (reading ``be_cores_now()`` mid-loop instead of the
    chaos-aware lagged gather) and demand the explainer names the
    exact tick, column and member, with the triggering chaos event
    attached."""

    def run_fleet(self, spec, engine, buggy=False):
        """One traced per-tick-slack fleet run, optionally re-broken."""
        from repro.scenarios.compiler import compile_scenario
        from repro.sim.megabatch import MegaClusterSim

        fleet_spec_ = dataclasses.replace(spec.fleet, engine=engine)
        fleet = compile_scenario(spec)._build_fleet(fleet_spec_)
        original = MegaClusterSim.tick

        def buggy_tick(sim, dt_s):
            pre = sim.be_cores_now()   # pre-chaos read: the old bug
            result = original(sim, dt_s)
            sim._gathered_be_cores = pre
            return result

        if buggy:
            MegaClusterSim.tick = buggy_tick
        try:
            return fleet.run(spec.duration_s, dt_s=spec.dt_s,
                             slack_epoch_s=spec.dt_s)
        finally:
            MegaClusterSim.tick = original

    def test_exact_tick_column_member_and_trigger(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(JOBS_ENV, "1")
        spec = fleet_spec(duration_s=30.0)
        spec.validate()
        reference = self.run_fleet(spec, "sharded")
        rebroken = self.run_fleet(spec, "mega", buggy=True)
        groups = {group: (times, cols, window) for group, times, cols,
                  window in diff_runs.fleet_columns(reference)}
        times, cols, window = groups["slack"]
        buggy_cols = {group: cols_ for group, _, cols_, _ in
                      diff_runs.fleet_columns(rebroken)}["slack"]
        div = diff_runs.first_divergence(times, cols, buggy_cols,
                                         trace=reference.trace,
                                         window=window)
        assert div is not None
        # The first chaos BE-toggle is disable_be on east leaf 2 at
        # t=10 s; the lagged gather writes it into slack row 9.
        assert div.column == "grant_cores"
        assert div.member == 2
        assert div.tick == 9
        assert div.value_a == 0.0      # chaos disabled BE: no grant
        assert div.value_b > 0.0       # the buggy read missed it
        kinds = [event["kind"] for event in div.context]
        assert "chaos_disable_be" in kinds

    def test_healthy_engines_report_no_divergence(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(JOBS_ENV, "1")
        spec = fleet_spec(duration_s=20.0)
        spec.validate()
        a = self.run_fleet(spec, "sharded")
        b = self.run_fleet(spec, "mega")
        for group, times, cols, window in diff_runs.fleet_columns(a):
            other = [g[2] for g in diff_runs.fleet_columns(b)
                     if g[0] == group][0]
            assert diff_runs.first_divergence(times, cols, other) is None


class TestDiffRunsOnMembers:
    """Member scenarios compare every ``SimHistory`` column per (tick,
    member), so a last-bit change to one member's numbers shows."""

    def test_one_member_perturbation_is_reported(self):
        result = run_traced(member_spec(), trace=True)
        [(group, times, cols, window)] = diff_runs.member_columns(result)
        assert group == "members"
        assert cols["slo_fraction"].shape == (len(times), 2)
        assert set(cols) == set(result.members[0].history.field_names())
        assert diff_runs.first_divergence(times, cols, cols) is None
        perturbed = dict(cols)
        slo = cols["slo_fraction"].copy()
        slo[:, 1] *= 1.0 + 1e-15
        perturbed["slo_fraction"] = slo
        div = diff_runs.first_divergence(times, cols, perturbed,
                                         trace=result.trace)
        assert div is not None
        assert (div.column, div.member) == ("slo_fraction", 1)
        changed = slo[:, 1] != cols["slo_fraction"][:, 1]
        assert div.tick == int(np.argmax(changed))
        assert div.value_b == slo[div.tick, 1] != div.value_a

    def test_sweep_cell_perturbation_is_reported(self):
        """A sweep runs as members, one per grid cell; a one-entry
        change to one cell is reported at its tick, column and cell."""
        spec = fig4_scenario(lc_tasks=("websearch",),
                             be_tasks=("brain", "iperf"), loads=(0.3, 0.6),
                             duration_s=30.0, warmup_s=0.0, seed=2)
        result = diff_runs._run_variant(spec, None, None, None)
        [(group, times, cols, window)] = diff_runs.member_columns(result)
        assert cols["emu"].shape == (30, 4)
        assert diff_runs.first_divergence(times, cols, cols) is None
        perturbed = dict(cols)
        perturbed["emu"] = cols["emu"].copy()
        perturbed["emu"][17, 2] += 1e-12
        div = diff_runs.first_divergence(times, cols, perturbed)
        assert (div.tick, div.column, div.member) == (17, "emu", 2)
        assert diff_runs._member_label(result, group, 2) == "(websearch+iperf)"

    def test_fleet_overrides_are_rejected(self):
        with pytest.raises(SystemExit, match="members spec"):
            diff_runs._run_variant(member_spec(), "mega", None, None)


class TestDiffRunsAgainstRevision:
    """``scenario --base REV``: run A is the spec at a git revision, run
    in a temporary worktree by a subprocess on that tree's ``src``."""

    def run_tool(self, tmp_path, rev):
        path = tmp_path / "fleet.json"
        spec = fleet_spec(duration_s=30.0, schedule=True)
        path.write_text(json.dumps(spec.to_data()))
        return subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "diff_runs.py"),
             "scenario", str(path), "--base", rev, "--json"],
            capture_output=True, text=True,
            env=dict(os.environ, **{JOBS_ENV: "1"}))

    def test_head_is_reproduced_bitwise(self, tmp_path):
        if subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True).returncode:
            pytest.skip("not a git checkout")
        done = self.run_tool(tmp_path, "HEAD")
        assert done.returncode == 0, done.stdout + done.stderr
        verdict = json.loads(done.stdout.splitlines()[-1])
        assert verdict["diverged"] is False
        assert verdict["columns_compared"] > 0

    def test_head_members_reproduced_bitwise(self, tmp_path):
        if subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True).returncode:
            pytest.skip("not a git checkout")
        path = tmp_path / "members.json"
        path.write_text(json.dumps(member_spec().to_data()))
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "diff_runs.py"),
             "scenario", str(path), "--base", "HEAD", "--json"],
            capture_output=True, text=True)
        assert done.returncode == 0, done.stdout + done.stderr
        verdict = json.loads(done.stdout.splitlines()[-1])
        assert verdict == {"diverged": False, "columns_compared": 18}

    def test_unknown_revision_fails_loud(self, tmp_path):
        done = self.run_tool(tmp_path, "no-such-revision")
        assert done.returncode == 1
        assert "cannot check out 'no-such-revision'" in done.stderr


class TestCliJsonAndArtifacts:
    @pytest.fixture(autouse=True)
    def _isolated_obs_env(self):
        """Snapshot/restore the obs toggles around every CLI test.

        ``repro.cli`` enables --trace/--profile/--progress by exporting
        the env toggles process-wide (correct for a real CLI process,
        which exits); in-process tests must put the environment back or
        later tests inherit observability they never asked for.
        """
        names = (TRACE_ENV, PROFILE_ENV, PROGRESS_ENV)
        saved = {name: os.environ.get(name) for name in names}
        for name in names:
            os.environ.pop(name, None)
        yield
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value

    def write_spec(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(fleet_spec(duration_s=20.0).to_data())
                        + "\n")
        return str(path)

    def test_scenario_json_is_machine_readable(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(JOBS_ENV, "1")
        main(["scenario", self.write_spec(tmp_path), "--json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["kind"] == "fleet"
        assert doc["scenario"] == "obs-fleet"
        assert "fleet" in doc

    def test_trace_flag_writes_canonical_jsonl(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(JOBS_ENV, "1")
        trace_path = tmp_path / "out.jsonl"
        main(["scenario", self.write_spec(tmp_path), "--json",
              "--trace", str(trace_path)])
        err = capsys.readouterr().err
        events = read_jsonl(str(trace_path))
        assert events, "trace file is empty"
        assert f"-> {trace_path}" in err
        for event in events:
            assert event["source"] in SOURCES
            assert event["kind"] in KINDS

    def test_profile_flag_prints_phase_table(self, tmp_path, capsys,
                                             monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(JOBS_ENV, "1")
        main(["scenario", self.write_spec(tmp_path), "--json",
              "--profile"])
        err = capsys.readouterr().err
        # A fleet runs the batch engine: physics reads per layer.
        assert "phase" in err and "power" in err and "tail" in err

    def test_progress_heartbeat_reaches_stderr(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(JOBS_ENV, "1")
        main(["scenario", self.write_spec(tmp_path), "--json",
              "--progress"])
        err = capsys.readouterr().err
        assert "[progress]" in err and "100%" in err

    def test_sched_json_includes_policies(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(JOBS_ENV, "1")
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(
            fleet_spec(duration_s=20.0, schedule=True).to_data()) + "\n")
        main(["sched", str(path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "schedule"
        assert "policies" in doc and doc["policies"]
