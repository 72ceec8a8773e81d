"""Hypothesis-driven scenario fuzzer: the auto-generated bit-identity
test matrix.

The hand-written differential tests pin specific scenarios; this module
generates *random valid* :class:`ScenarioSpec` trees across all five
shapes (members / sweep / cluster / fleet / schedule) — including
random chaos and actuator injections — and asserts the engine
equivalence contracts hold for every one of them:

* fleet-like shapes (``fleet``, ``schedule``): bit-identical
  ``FleetResult.summary()`` and per-cluster history columns across
  engine ∈ {sharded, mega} × shard_leaves ∈ {1, 3, as-drawn} ×
  ``REPRO_JOBS`` ∈ {1, 4};
* member shapes: a batch of 2-3 members reruns bitwise, and every
  member matches its scalar solo twin — the same member run alone on
  the scalar reference engine with the same seed, controller and the
  injections that reach it — under the repo's scalar↔batch contract
  (``rtol=1e-9`` floats, exact actuator columns);
* cluster shapes (injection-free): the batch engine matches the
  scalar per-leaf loop bitwise on every arm;
* sweep shapes, with injections aimed at cells by grid index: every
  cell of the batch matches its scalar solo twin under the same
  scalar↔batch contract;
* the resume axis: a run that *writes* a mid-run checkpoint and a
  fresh run *resumed* from that checkpoint are both bit-identical to
  the straight run — for fleet-like shapes across engine ∈
  {sharded, mega} × ``REPRO_JOBS`` ∈ {1, 4}, and for sweeps and for
  clusters with injections (member histories, arm histories);
* the trace axis: enabling decision tracing (``REPRO_TRACE=1``)
  leaves every simulated number bit-identical, and the merged trace
  itself is byte-identical JSONL across engine × shard plan × worker
  count.

Profiles (``REPRO_FUZZ_PROFILE``): ``dev`` (default: a quick pass with
a random seed), ``ci`` (the CI pin: derandomized, 200 examples for the
fleet matrix) and ``soak`` (long seeded runs: every test draws
:data:`SOAK_FACTOR` times its ``ci`` example count).  Seed a soak with
pytest's ``--hypothesis-seed``::

    REPRO_FUZZ_PROFILE=soak python -m pytest -x -q \
        tests/test_scenario_fuzz.py --hypothesis-seed=0

Every test notes its generated spec as one line of
``ScenarioSpec.to_data()`` JSON, so a failure prints a scenario file:
save that line as ``spec.json`` and ``load_scenario`` or
``python -m repro.cli scenario spec.json`` reads it back.
"""

import dataclasses
import json
import os
import tempfile

import numpy as np

from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.cluster.cluster import WebsearchCluster
from repro.scenarios import CheckpointSpec, run_scenario
from repro.scenarios.spec import (CONTROLLERS, ClusterSpec, FleetSpec,
                                  InjectionSpec, JobSpec, ScenarioSpec,
                                  ScheduleSpec, ShardSpec, SweepSpec,
                                  TraceSpec, WorkloadSpec)
from repro.sim.chaos import CHAOS_EVENT_ACTIONS
from repro.sim.runner import JOBS_ENV
from repro.workloads.best_effort import BE_PROFILES
from repro.workloads.latency_critical import LC_PROFILES

# -- hypothesis profiles -------------------------------------------------
# "ci" is the pinned gate: derandomized (fixed example corpus, no flaky
# reruns) and sized so the fleet matrix covers 200 generated scenarios.
# "dev" (default) is a quick local pass with the usual random seed.
# "soak" scales every test's count by SOAK_FACTOR and takes its seed
# from --hypothesis-seed.
PROFILE = os.environ.get("REPRO_FUZZ_PROFILE", "dev")
#: How many times its ``ci`` example count each test draws under soak.
SOAK_FACTOR = 5
settings.register_profile(
    "ci", max_examples=200, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "dev", max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "soak", max_examples=200 * SOAK_FACTOR, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(PROFILE)


def examples(n):
    """A test's example count: ``n`` under ci and dev, scaled by soak."""
    return n * SOAK_FACTOR if PROFILE == "soak" else n


def note_spec(spec):
    """Attach the spec to a failure report as one line of JSON, a
    scenario file ``load_scenario`` and ``repro scenario`` read back."""
    note("failing scenario (save the next line as spec.json):\n"
         + json.dumps(spec.to_data(), sort_keys=True))


LCS = tuple(sorted(LC_PROFILES))
BES = tuple(sorted(BE_PROFILES))

#: Valid values per value-taking action (grids, not raw floats: the
#: interesting behaviour lives at distinct regimes, not in the mantissa).
VALUE_GRIDS = {
    "set_be_cores": (1, 2, 4),
    "set_llc_split": (1, 3, 6),
    "lower_be_frequency": (1, 3, 8),
    "set_be_net_ceil": (0.5, 2.0, 9.0),
    "straggler": (0.25, 0.5, 0.75, 1.0),
    "power_cap": (0.4, 0.7, 1.0),
    "partition": (5.0, 15.0, 30.0),
}

CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")
MEMBER_FLOAT_FIELDS = (
    "t_s", "load", "tail_latency_ms", "slo_fraction", "be_throughput_norm",
    "emu", "dram_bw_gbps", "dram_utilization", "cpu_utilization",
    "power_fraction_of_tdp", "lc_net_gbps", "be_net_gbps",
    "link_utilization",
)
MEMBER_EXACT_FIELDS = ("be_cores", "be_llc_ways", "be_enabled",
                       "be_dvfs_cap_ghz", "be_net_ceil_gbps")


def draw_injection(draw, duration, cluster_leaves=None, n_members=None):
    """One valid InjectionSpec for a fleet (cluster_leaves) or members
    (n_members) scenario."""
    action = draw(st.sampled_from(CHAOS_EVENT_ACTIONS))
    value = (draw(st.sampled_from(VALUE_GRIDS[action]))
             if action in VALUE_GRIDS else None)
    at_s = float(draw(st.integers(0, int(duration) - 1)))
    cluster = None
    leaf = None
    if cluster_leaves is not None:
        cluster = draw(st.one_of(
            st.none(), st.sampled_from(sorted(cluster_leaves))))
        if cluster is not None:
            leaf = draw(st.one_of(
                st.none(), st.integers(0, cluster_leaves[cluster] - 1)))
    else:
        leaf = draw(st.one_of(st.none(), st.integers(0, n_members - 1)))
    return InjectionSpec(at_s=at_s, action=action, value=value,
                         cluster=cluster, leaf=leaf)


def draw_trace(draw):
    """A deterministic (noise-free) trace with distinct regimes."""
    kind = draw(st.sampled_from(("constant", "diurnal")))
    if kind == "constant":
        return TraceSpec(kind="constant",
                         load=draw(st.sampled_from((0.3, 0.5, 0.7))))
    return TraceSpec(kind="diurnal", low=0.2,
                     high=draw(st.sampled_from((0.6, 0.85))),
                     period_s=120.0, noise_sigma=0.0)


@st.composite
def fleet_like_specs(draw):
    """A random valid fleet or schedule scenario, with injections."""
    clusters = []
    for i in range(draw(st.integers(1, 2))):
        be_mix = draw(st.lists(st.sampled_from(BES), min_size=1,
                               max_size=2, unique=True))
        clusters.append(ShardSpec(
            name=f"c{i}",
            leaves=draw(st.integers(2, 4)),
            lc=draw(st.sampled_from(LCS)),
            be_mix=tuple(be_mix),
            trace=draw_trace(draw),
            managed=draw(st.booleans())))
    fleet = FleetSpec(clusters=tuple(clusters),
                      shard_leaves=draw(st.sampled_from((2, 8))),
                      record_period_s=5.0)
    duration = float(draw(st.sampled_from((40, 60))))
    cluster_leaves = {c.name: c.leaves for c in fleet.clusters}
    injections = tuple(
        draw_injection(draw, duration, cluster_leaves=cluster_leaves)
        for _ in range(draw(st.integers(0, 5))))
    kwargs = dict(
        name="fuzz-fleet",
        duration_s=duration,
        dt_s=draw(st.sampled_from((0.5, 1.0))),
        warmup_s=float(draw(st.sampled_from((0, 10)))),
        seed=draw(st.integers(0, 5)),
        injections=injections)
    if draw(st.booleans()):
        jobs = tuple(
            JobSpec(name=f"job{j}",
                    demand_core_s=float(draw(st.sampled_from((40, 160)))),
                    max_cores=draw(st.sampled_from((1, 4))),
                    priority=draw(st.sampled_from((0, 1))),
                    arrival_s=float(draw(st.sampled_from((0, 15)))),
                    count=draw(st.sampled_from((1, 2))))
            for j in range(draw(st.integers(0, 2))))
        return ScenarioSpec(schedule=ScheduleSpec(fleet=fleet, jobs=jobs,
                                                  epoch_s=20.0),
                            **kwargs)
    return ScenarioSpec(fleet=fleet, **kwargs)


@st.composite
def member_specs(draw):
    """A random valid members scenario of 2-3 members, so it runs on the
    batch engine (every member gets a BE so the actuator injections
    always have a group to poke)."""
    n = draw(st.integers(2, 3))
    duration = 60.0
    members = tuple(
        WorkloadSpec(lc=draw(st.sampled_from(LCS)),
                     be=draw(st.sampled_from(BES)),
                     trace=draw_trace(draw),
                     controller=draw(st.sampled_from(CONTROLLERS)))
        for _ in range(n))
    injections = tuple(
        draw_injection(draw, duration, n_members=n)
        for _ in range(draw(st.integers(0, 4))))
    return ScenarioSpec(name="fuzz-members", duration_s=duration,
                        warmup_s=15.0, seed=draw(st.integers(0, 5)),
                        members=members, injections=injections)


def solo_twin(spec, index):
    """Member ``index`` of a members scenario, alone.

    The twin keeps the member's effective seed and controller and the
    injections that reach it: those aimed at it move to leaf 0, the
    untargeted ones stay, the rest go.  One member runs on the scalar
    reference engine.
    """
    member = dataclasses.replace(
        spec.members[index], seed=spec.member_seed(index),
        controller=spec.member_controller(index))
    injections = tuple(
        inj if inj.leaf is None else dataclasses.replace(inj, leaf=0)
        for inj in spec.injections if inj.leaf in (None, index))
    return dataclasses.replace(spec, members=(member,),
                               injections=injections)


@st.composite
def cluster_specs(draw, injections=False):
    """A random valid cluster scenario, with injections aimed at arms
    when ``injections`` is set (the scalar ``WebsearchCluster`` the
    batch test compares with takes none)."""
    cluster = ClusterSpec(
        leaves=draw(st.integers(2, 3)),
        arms=draw(st.sampled_from((("managed",), ("baseline",),
                                   ("managed", "baseline"),
                                   ("baseline", "managed")))),
        trace=draw_trace(draw))
    duration = 40.0
    drawn = tuple(
        draw_injection(draw, duration, cluster_leaves=dict.fromkeys(
            cluster.arms, cluster.leaves))
        for _ in range(draw(st.integers(0, 4)) if injections else 0))
    return ScenarioSpec(name="fuzz-cluster", duration_s=duration,
                        warmup_s=10.0, seed=draw(st.integers(0, 5)),
                        cluster=cluster, injections=drawn)


@st.composite
def sweep_specs(draw):
    """A random valid sweep scenario (small grid), with injections
    aimed at cells by grid index."""
    sweep = SweepSpec(
        lc_tasks=(draw(st.sampled_from(LCS)),),
        be_tasks=tuple(draw(st.lists(st.sampled_from(BES), min_size=1,
                                     max_size=2, unique=True))),
        loads=tuple(draw(st.lists(st.sampled_from((0.25, 0.5, 0.75)),
                                  min_size=1, max_size=2, unique=True))),
        include_baseline=draw(st.booleans()))
    duration = 40.0
    cells = len(sweep.be_tasks) * len(sweep.loads)
    injections = tuple(
        draw_injection(draw, duration, n_members=cells)
        for _ in range(draw(st.integers(0, 3))))
    return ScenarioSpec(name="fuzz-sweep", duration_s=duration,
                        warmup_s=10.0, seed=draw(st.integers(0, 5)),
                        sweep=sweep, injections=injections)


def run_with_jobs(spec, jobs):
    """Run a scenario with ``REPRO_JOBS`` pinned to ``jobs``."""
    saved = os.environ.get(JOBS_ENV)
    os.environ[JOBS_ENV] = str(jobs)
    try:
        return run_scenario(spec, processes=None)
    finally:
        if saved is None:
            os.environ.pop(JOBS_ENV, None)
        else:
            os.environ[JOBS_ENV] = saved


def with_fleet(spec, **overrides):
    """Replace fleet engine/shard knobs on a fleet or schedule spec."""
    if spec.schedule is not None:
        fleet = dataclasses.replace(spec.schedule.fleet, **overrides)
        return dataclasses.replace(
            spec, schedule=dataclasses.replace(spec.schedule, fleet=fleet))
    return dataclasses.replace(
        spec, fleet=dataclasses.replace(spec.fleet, **overrides))


def assert_fleet_results_identical(got, want, what, warmup_s):
    """Bit-identical fleet summaries and per-cluster history columns."""
    assert got.fleet.summary(skip_s=warmup_s) == \
        want.fleet.summary(skip_s=warmup_s), f"{what}: summary diverged"
    for outcome in want.fleet.clusters:
        other = got.fleet.cluster(outcome.name)
        assert len(other.history) == len(outcome.history), (
            f"{what}: cluster {outcome.name!r} record counts differ")
        for name in CLUSTER_FIELDS:
            a = other.history.column(name)
            b = outcome.history.column(name)
            assert np.array_equal(a, b), (
                f"{what}: cluster {outcome.name!r} column {name!r} "
                f"diverged (max abs diff {np.abs(a - b).max():.3e})")
    if want.schedule is not None:
        assert got.schedule.summary() == want.schedule.summary(), (
            f"{what}: schedule summary diverged")


class TestFleetMatrix:
    """The headline gate: every generated fleet/schedule scenario is
    bit-identical across engine × shard size × worker count."""

    @given(spec=fleet_like_specs())
    def test_engine_shard_jobs_identity(self, spec):
        note_spec(spec)
        spec.validate()
        base = run_with_jobs(spec, 1)
        variants = (
            ("sharded shard=1 jobs=1", with_fleet(
                spec, engine="sharded", shard_leaves=1), 1),
            ("sharded shard=3 jobs=4", with_fleet(
                spec, engine="sharded", shard_leaves=3), 4),
            ("mega jobs=1", with_fleet(spec, engine="mega"), 1),
        )
        for what, variant, jobs in variants:
            got = run_with_jobs(variant, jobs)
            assert_fleet_results_identical(got, base, what, spec.warmup_s)


class TestResumeAxis:
    """The checkpoint/resume leg of the matrix: for every generated
    fleet/schedule scenario, (a) the run that writes a snapshot at
    T/2 and (b) a fresh run resumed from that snapshot are both
    bit-identical to the straight run — per engine and worker pool.
    (Hypothesis forbids the function-scoped ``tmp_path`` fixture
    inside ``@given``, so each example manages its own tempdir.)"""

    VARIANTS = (
        ("sharded jobs=1", {}, 1),
        ("sharded shard=3 jobs=4", dict(engine="sharded",
                                        shard_leaves=3), 4),
        ("mega jobs=1", dict(engine="mega"), 1),
    )

    @settings(max_examples=examples(15))
    @given(spec=fleet_like_specs())
    def test_save_and_resume_match_straight_run(self, spec):
        note_spec(spec)
        spec.validate()
        at_s = spec.duration_s / 2.0  # always on the tick grid here
        base = run_with_jobs(spec, 1)
        with tempfile.TemporaryDirectory() as tmp:
            for i, (what, overrides, jobs) in enumerate(self.VARIANTS):
                ckpt = os.path.join(tmp, f"ckpt{i}")
                variant = with_fleet(spec, **overrides) \
                    if overrides else spec
                saver = dataclasses.replace(
                    variant, checkpoint=CheckpointSpec(save=ckpt,
                                                       at_s=at_s))
                saver.validate()
                saved = run_with_jobs(saver, jobs)
                assert_fleet_results_identical(
                    saved, base, f"{what} (checkpointing run)",
                    spec.warmup_s)
                resumer = dataclasses.replace(
                    variant, checkpoint=CheckpointSpec(resume=ckpt))
                resumed = run_with_jobs(resumer, jobs)
                assert_fleet_results_identical(
                    resumed, base, f"{what} (resumed run)",
                    spec.warmup_s)


def assert_lowered_runs_identical(got, want, what):
    """Bit-identical member histories (a sweep) and arm histories (a
    cluster)."""
    assert len(got.members) == len(want.members), f"{what}: member count"
    for i, (a, b) in enumerate(zip(got.members, want.members)):
        assert len(a.history) == len(b.history), f"{what}: member {i}"
        for name in MEMBER_FLOAT_FIELDS + MEMBER_EXACT_FIELDS:
            assert np.array_equal(a.history.column(name),
                                  b.history.column(name), equal_nan=True), (
                f"{what}: member {i} column {name!r} diverged")
    assert list(got.cluster_arms) == list(want.cluster_arms), what
    assert got.root_slo_ms == want.root_slo_ms, f"{what}: root SLO"
    for arm, history in want.cluster_arms.items():
        other = got.cluster_arms[arm]
        assert len(other) == len(history), f"{what}: arm {arm!r}"
        for name in CLUSTER_FIELDS:
            assert np.array_equal(other.column(name),
                                  history.column(name)), (
                f"{what}: arm {arm!r} column {name!r} diverged")


class TestLoweredResumeAxis:
    """The resume leg for the shapes that lower to members or a fleet:
    a sweep (with cell injections) and a cluster (with arm injections)
    saved at T/2, and resumed from that snapshot, equal the straight
    run bit for bit."""

    @settings(max_examples=examples(15))
    @given(spec=st.one_of(sweep_specs(), cluster_specs(injections=True)))
    def test_save_and_resume_match_straight_run(self, spec):
        note_spec(spec)
        spec.validate()
        base = run_scenario(spec, processes=1)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = os.path.join(tmp, "ckpt")
            for what, checkpoint in (
                    ("checkpointing run", CheckpointSpec(
                        save=ckpt, at_s=spec.duration_s / 2.0)),
                    ("resumed run", CheckpointSpec(resume=ckpt))):
                got = run_scenario(
                    dataclasses.replace(spec, checkpoint=checkpoint),
                    processes=1)
                assert_lowered_runs_identical(got, base, what)


class TestTraceAxis:
    """The observability leg of the matrix: for every generated
    fleet/schedule scenario, (a) enabling decision tracing never
    changes a simulated number — the traced run is bit-identical to
    the untraced baseline — and (b) the merged trace itself is one
    canonical stream: byte-identical JSONL across engine × shard plan
    × worker count."""

    VARIANTS = (
        ("sharded jobs=1", {}, 1),
        ("sharded shard=3 jobs=4", dict(engine="sharded",
                                        shard_leaves=3), 4),
        ("mega jobs=1", dict(engine="mega"), 1),
    )

    @settings(max_examples=examples(10))
    @given(spec=fleet_like_specs())
    def test_trace_on_is_bit_identical_and_canonical(self, spec):
        from repro.obs import TRACE_ENV, events_to_jsonl

        note_spec(spec)
        spec.validate()
        # The baseline must be untraced even when the suite itself runs
        # under ambient REPRO_TRACE=1 (the CI tier1-trace leg).
        saved = os.environ.pop(TRACE_ENV, None)
        try:
            base = run_with_jobs(spec, 1)
            assert base.trace is None
            os.environ[TRACE_ENV] = "1"
            reference = None
            for what, overrides, jobs in self.VARIANTS:
                variant = with_fleet(spec, **overrides) \
                    if overrides else spec
                traced = run_with_jobs(variant, jobs)
                assert_fleet_results_identical(
                    traced, base, f"{what} (traced run)", spec.warmup_s)
                text = events_to_jsonl(traced.trace)
                if reference is None:
                    reference = text
                else:
                    assert text == reference, f"{what}: trace diverged"
        finally:
            if saved is None:
                os.environ.pop(TRACE_ENV, None)
            else:
                os.environ[TRACE_ENV] = saved


class TestMemberScenarios:
    @settings(max_examples=examples(40))
    @given(spec=member_specs())
    def test_batch_deterministic_and_matches_scalar(self, spec):
        """The batch reruns bitwise, and every member matches its
        scalar solo twin under the scalar↔batch contract."""
        note_spec(spec)
        spec.validate()
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.kind == "batch"
        for i, (a, b) in enumerate(zip(first.members, second.members)):
            assert len(a.history) == len(b.history)
            for name in MEMBER_FLOAT_FIELDS:
                assert np.array_equal(a.history.column(name),
                                      b.history.column(name)), (
                    f"member {i}: rerun column {name!r} diverged")
        for i, member in enumerate(first.members):
            solo = run_scenario(solo_twin(spec, i))
            assert solo.kind == "single"
            a = solo.members[0].history
            b = member.history
            assert len(a) == len(b)
            for name in MEMBER_FLOAT_FIELDS:
                np.testing.assert_allclose(
                    a.column(name), b.column(name), rtol=1e-9, atol=1e-12,
                    err_msg=f"member {i}: scalar vs batch column {name!r} "
                            f"diverged")
            for name in MEMBER_EXACT_FIELDS:
                assert np.array_equal(a.column(name), b.column(name),
                                      equal_nan=True), (
                    f"member {i}: scalar vs batch column {name!r} "
                    f"diverged")


class TestClusterScenarios:
    @settings(max_examples=examples(15))
    @given(spec=cluster_specs(), processes=st.sampled_from((1, 2)))
    def test_batch_matches_scalar_bitwise(self, spec, processes):
        """Each arm (one cluster of the scenario's fleet, sharing a unit
        with the other arm at one worker) matches a scalar per-leaf
        ``WebsearchCluster`` bit for bit."""
        note_spec(spec)
        spec.validate()
        batch = run_scenario(spec, processes=processes)
        assert tuple(batch.cluster_arms) == spec.cluster.arms
        for arm, history in batch.cluster_arms.items():
            scalar = WebsearchCluster(
                leaves=spec.cluster.leaves,
                trace=spec.cluster.trace.build(default_seed=spec.seed),
                managed=(arm == "managed"), seed=spec.seed)
            other = scalar.run(spec.duration_s, dt_s=spec.dt_s)
            assert batch.root_slo_ms == scalar.root_slo_ms
            assert len(history) == len(other)
            for name in CLUSTER_FIELDS:
                assert np.array_equal(history.column(name),
                                      other.column(name)), (
                    f"arm {arm!r}: column {name!r} diverged")


class TestSweepScenarios:
    @settings(max_examples=examples(10))
    @given(spec=sweep_specs())
    def test_batch_matches_scalar(self, spec):
        """Every cell matches its solo twin (the cell alone, with the
        injections that reach it) on the scalar reference engine under
        the scalar↔batch contract."""
        note_spec(spec)
        spec.validate()
        result = run_scenario(spec)
        lowered = spec.lowered()
        assert tuple(result.sweeps) == spec.sweep.lc_tasks
        index = 0
        for lc_name, grid in result.sweeps.items():
            assert grid.loads == list(spec.sweep.loads)
            assert tuple(grid.results) == spec.sweep.be_tasks
            for be_name, cells in grid.results.items():
                for cell in cells:
                    twin = run_scenario(solo_twin(lowered, index))
                    index += 1
                    what = f"{lc_name}/{be_name}@{cell.load}"
                    a, b = twin.members[0].history, cell.history
                    assert len(a) == len(b)
                    for name in MEMBER_FLOAT_FIELDS:
                        np.testing.assert_allclose(
                            a.column(name), b.column(name), rtol=1e-9,
                            atol=1e-12,
                            err_msg=f"{what}: column {name!r} diverged")
                    for name in MEMBER_EXACT_FIELDS:
                        assert np.array_equal(a.column(name),
                                              b.column(name),
                                              equal_nan=True), (
                            f"{what}: column {name!r} diverged")
