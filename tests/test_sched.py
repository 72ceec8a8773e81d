"""Scheduler layer: job model, policies, the decision-epoch engine,
the ``schedule:`` scenario shape, and the sched CLI.

The differential class at the heart of this module mirrors PR-4's
harness one layer up: a ``schedule:`` scenario with an *empty* job
queue must produce bit-identical cluster histories to the plain
``fleet:`` run of the same fleet, for any shard count and worker-pool
size — the scheduler meters jobs over Heracles' slack and never
touches leaf physics.
"""

import json

import numpy as np
import pytest

from repro.fleet.aggregate import FleetSlackView, LeafSlackView
from repro.scenarios import (ScenarioError, compile_scenario, load_scenario,
                             registry)
from repro.sched import (BeJob, JobState, Placement, PlacementContext,
                         Policy, RoundRobinPolicy, SlackGreedyPolicy,
                         StaticPolicy, compare_policies, expand_jobs,
                         make_policy, render_comparison, run_schedule,
                         tco_summary)
from repro.sim.runner import JOBS_ENV

CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")


def make_slack(harvest, grant, latched=None, epoch_s=60.0,
               cluster="c", total_cores=36):
    """Build a synthetic single-cluster fleet slack view from arrays."""
    harvest = np.asarray(harvest, dtype=float)
    grant = np.asarray(grant, dtype=float)
    epochs, leaves = harvest.shape
    if latched is None:
        latched = np.zeros((epochs, leaves), dtype=bool)
    view = LeafSlackView(
        cluster=cluster, total_cores=total_cores,
        epoch_t_s=np.arange(epochs) * epoch_s,
        epoch_len_s=np.full(epochs, epoch_s),
        harvest_core_s=harvest, grant_cores=grant,
        latched=np.asarray(latched, dtype=bool))
    return FleetSlackView([view])


class TestBeJob:
    def test_validation(self):
        BeJob("ok", demand_core_s=1.0).validate()
        with pytest.raises(ValueError, match="demand"):
            BeJob("j", demand_core_s=0.0).validate()
        with pytest.raises(ValueError, match="max_cores"):
            BeJob("j", demand_core_s=1.0, max_cores=0).validate()
        with pytest.raises(ValueError, match="arrival"):
            BeJob("j", demand_core_s=1.0, arrival_s=-1.0).validate()
        with pytest.raises(ValueError, match="non-empty name"):
            BeJob("", demand_core_s=1.0).validate()

    def test_order_key_priority_then_arrival_then_name(self):
        jobs = [BeJob("b", 1.0, priority=0, arrival_s=5.0),
                BeJob("a", 1.0, priority=0, arrival_s=5.0),
                BeJob("z", 1.0, priority=3),
                BeJob("c", 1.0, priority=0, arrival_s=1.0)]
        ordered = [r.job.name for r in expand_jobs(jobs)]
        assert ordered == ["z", "c", "a", "b"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate job name"):
            expand_jobs([BeJob("j", 1.0), BeJob("j", 2.0)])


def ctx_for(jobs, rate, cap, latched=None, epoch=1):
    """A one-epoch placement context over synthetic signals."""
    rate = np.asarray(rate, dtype=float)
    if latched is None:
        latched = np.zeros(len(rate), dtype=bool)
    return PlacementContext(
        epoch=epoch, epoch_len_s=60.0, rate_per_core=rate,
        cap=np.asarray(cap, dtype=float),
        latched=np.asarray(latched, dtype=bool),
        max_cores=np.array([j.max_cores for j in jobs], dtype=np.int64),
        pinned_leaf=np.arange(len(jobs), dtype=np.int64) % len(rate))


def per_job(placement, jobs):
    """A placement triple as one ``{leaf: cores}`` dict per job."""
    out = [{} for _ in range(jobs)]
    for j, leaf, cores in zip(placement.job.tolist(),
                              placement.leaf.tolist(),
                              placement.cores.tolist()):
        assert leaf not in out[j], "a (job, leaf) pair placed twice"
        out[j][leaf] = cores
    return out


class TestPolicies:
    def test_greedy_packs_best_leaves_first(self):
        ctx = ctx_for([BeJob("j", 1e6, max_cores=6)],
                      rate=[0.2, 0.9, 0.5], cap=[4, 4, 4])
        placement = SlackGreedyPolicy().place(ctx)
        assert per_job(placement, 1) == [{1: 4, 2: 2}]

    def test_greedy_skips_latched_and_zero_rate_leaves(self):
        ctx = ctx_for([BeJob("j", 1e6, max_cores=8)],
                      rate=[0.2, 0.9, 0.0], cap=[4, 4, 4],
                      latched=[False, True, False])
        placement = SlackGreedyPolicy().place(ctx)
        assert per_job(placement, 1) == [{0: 4}]

    def test_greedy_is_work_conserving(self):
        jobs = [BeJob(f"j{i}", 1e6, max_cores=3) for i in range(4)]
        ctx = ctx_for(jobs, rate=[0.5, 0.4], cap=[5, 5])
        placement = SlackGreedyPolicy().place(ctx)
        placed = sum(sum(p.values()) for p in per_job(placement, 4))
        # 12 wanted cores against 10 slots: every slot is filled.
        assert placed == 10

    def test_round_robin_spreads_and_rotates(self):
        jobs = [BeJob("j", 1e6, max_cores=2)]
        p0 = RoundRobinPolicy().place(
            ctx_for(jobs, rate=[0, 0, 0], cap=[2, 2, 2], epoch=0))
        p1 = RoundRobinPolicy().place(
            ctx_for(jobs, rate=[0, 0, 0], cap=[2, 2, 2], epoch=1))
        assert per_job(p0, 1) == [{0: 1, 1: 1}]
        assert per_job(p1, 1) == [{1: 1, 2: 1}]

    def test_round_robin_wraps_jobs_wider_than_the_ring(self):
        # A job wider than the granted-leaf count keeps cycling until
        # its parallelism limit or the grant runs out.
        jobs = [BeJob("wide", 1e6, max_cores=8)]
        placement = RoundRobinPolicy().place(
            ctx_for(jobs, rate=[0, 0], cap=[8, 8], epoch=0))
        assert per_job(placement, 1) == [{0: 4, 1: 4}]
        placement = RoundRobinPolicy().place(
            ctx_for(jobs, rate=[0, 0], cap=[3, 2], epoch=0))
        assert per_job(placement, 1) == [{0: 3, 1: 2}]

    def test_static_stays_on_pinned_leaf(self):
        jobs = [BeJob("a", 1e6, max_cores=8), BeJob("b", 1e6, max_cores=8)]
        ctx = ctx_for(jobs, rate=[0.1, 0.9, 0.9], cap=[4, 4, 4])
        placement = StaticPolicy().place(ctx)
        assert per_job(placement, 2) == [{0: 4}, {1: 4}]

    def test_all_policies_respect_caps(self):
        jobs = [BeJob(f"j{i}", 1e6, max_cores=50) for i in range(3)]
        for policy in ("slack-greedy", "round-robin", "static"):
            ctx = ctx_for(jobs, rate=[0.5, 0.5], cap=[3, 2])
            placement = make_policy(policy).place(ctx)
            per_leaf = {}
            for slots in per_job(placement, 3):
                for leaf, cores in slots.items():
                    per_leaf[leaf] = per_leaf.get(leaf, 0) + cores
            for leaf, used in per_leaf.items():
                assert used <= ctx.cap[leaf], policy

    def test_greedy_placement_does_not_import_numpy_ma(self):
        """np.unique (behind np.union1d) imports numpy.ma, about 14 ms
        of every scheduler process; the greedy cut points do without."""
        import os
        import subprocess
        import sys
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.sched import PlacementContext, SlackGreedyPolicy\n"
            "ctx = PlacementContext(\n"
            "    epoch=1, epoch_len_s=60.0,\n"
            "    rate_per_core=np.array([0.2, 0.9, 0.5]),\n"
            "    cap=np.array([4.0, 4.0, 4.0]),\n"
            "    latched=np.zeros(3, dtype=bool),\n"
            "    max_cores=np.array([3, 6], dtype=np.int64),\n"
            "    pinned_leaf=np.array([0, 1], dtype=np.int64))\n"
            "placement = SlackGreedyPolicy().place(ctx)\n"
            "assert placement.cores.sum() == 9, placement.cores\n"
            "print('numpy.ma' in sys.modules)\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            make_policy("fifo")


class TestScheduler:
    def test_first_epoch_places_nothing(self):
        slack = make_slack([[100.0], [100.0]], [[4], [4]])
        outcome = run_schedule(slack, [BeJob("j", 1e6)], "slack-greedy")
        assigned = outcome.store.column("assigned_cores")
        assert assigned[0].sum() == 0
        assert assigned[1].sum() > 0

    def test_crediting_full_leaf(self):
        # One job holding the whole grant earns the leaf's whole
        # harvest; demand sized to exactly one epoch's credit.
        slack = make_slack([[120.0], [120.0]], [[4], [4]])
        outcome = run_schedule(slack, [BeJob("j", 120.0, max_cores=4)])
        record = outcome.job("j")
        assert record.state == JobState.COMPLETED
        assert record.completed_at_s == 120.0
        assert outcome.goodput_core_s == pytest.approx(120.0)
        assert outcome.credited_core_s == pytest.approx(120.0)

    def test_partial_occupancy_credits_proportionally(self):
        # max_cores=1 against a grant of 4: the job can absorb only a
        # quarter of the leaf's harvest; the rest is wasted.
        slack = make_slack([[120.0], [120.0]], [[4], [4]])
        outcome = run_schedule(slack, [BeJob("j", 1e6, max_cores=1)])
        assert outcome.credited_core_s == pytest.approx(30.0)
        assert outcome.wasted_core_s == pytest.approx(120.0 + 90.0)

    def test_latched_epoch_forfeits_credit_and_counts_eviction(self):
        slack = make_slack([[120.0], [120.0]], [[4], [4]],
                           latched=[[False], [True]])
        outcome = run_schedule(slack, [BeJob("j", 1e6, max_cores=4)])
        assert outcome.credited_core_s == 0.0
        assert outcome.evictions == 1
        assert outcome.job("j").evictions == 1
        assert outcome.wasted_core_s == pytest.approx(240.0)

    def test_queue_limit_rejects_overflow_in_priority_order(self):
        slack = make_slack([[10.0, 10.0]], [[2, 2]])
        jobs = [BeJob("low", 100.0, priority=0),
                BeJob("high", 100.0, priority=1),
                BeJob("mid", 100.0, priority=0, arrival_s=0.0)]
        outcome = run_schedule(slack, jobs, queue_limit=2)
        assert outcome.rejected == 1
        assert outcome.job("high").state == JobState.QUEUED
        # 'low' and 'mid' tie on priority and arrival; the name
        # tiebreak admits 'low' and bounces 'mid'.
        assert outcome.job("low").state == JobState.QUEUED
        assert outcome.job("mid").state == JobState.REJECTED

    @pytest.mark.parametrize("triple, message", [
        (([0], [0], [-1]), "negative cores to leaf 0"),
        (([0], [0], [5]), "gave job 'j' 5 slots, over its max_cores=4"),
        (([0, 1], [0, 0], [3, 3]),
         "packed 6 slots onto leaf 0, over its grant of 4"),
        (([1, 1], [0, 0], [1, 1]), "job 'k' on leaf 0 twice"),
        (([2], [0], [1]), "outside the queue"),
        (([0], [1], [1]), "outside the fleet"),
    ], ids=["negative", "over-max-cores", "over-grant", "twice",
            "job-range", "leaf-range"])
    def test_buggy_policy_fails_loudly(self, triple, message):
        class Buggy(Policy):
            name = "buggy"

            def place(self, ctx):
                return Placement(*triple) if ctx.epoch \
                    else Placement((), (), ())

        slack = make_slack([[10.0], [10.0]], [[4], [4]])
        jobs = [BeJob("j", 1e6, max_cores=4), BeJob("k", 1e6, max_cores=4)]
        with pytest.raises(ValueError, match=message):
            run_schedule(slack, jobs, Buggy())

    def test_empty_queue_wastes_all_harvest(self):
        slack = make_slack([[50.0, 20.0]], [[2, 2]])
        outcome = run_schedule(slack, [])
        assert outcome.store is None
        assert outcome.harvested_core_s == pytest.approx(70.0)
        assert outcome.wasted_core_s == pytest.approx(70.0)
        assert outcome.goodput_core_s == 0.0

    def test_arrivals_wait_for_their_epoch(self):
        slack = make_slack([[60.0]] * 4, [[4]] * 4)
        outcome = run_schedule(slack, [BeJob("late", 1e6, arrival_s=130.0)])
        assigned = outcome.store.column("assigned_cores")
        assert assigned[:3].sum() == 0  # epochs start at 0/60/120/180
        assert assigned[3].sum() > 0

    def test_accounting_columns_reconcile(self):
        slack = make_slack([[100.0, 40.0]] * 3, [[4, 4]] * 3)
        jobs = [BeJob(f"j{i}", 150.0, max_cores=4) for i in range(3)]
        outcome = run_schedule(slack, jobs)
        store = outcome.store
        assert store.column("credit_core_s").sum() == pytest.approx(
            outcome.credited_core_s)
        shared = store.column("credited_core_s")
        assert shared.sum() == pytest.approx(outcome.credited_core_s)
        assert store.column("harvest_core_s").sum() == pytest.approx(
            outcome.harvested_core_s)
        assert (store.column("wasted_core_s") >= -1e-9).all()

    def test_goodput_never_exceeds_credit(self):
        slack = make_slack([[90.0, 10.0]] * 4, [[3, 3]] * 4)
        jobs = [BeJob(f"j{i}", 80.0, max_cores=2) for i in range(5)]
        for policy in ("slack-greedy", "round-robin", "static"):
            outcome = run_schedule(slack, jobs, policy)
            assert outcome.goodput_core_s <= outcome.credited_core_s + 1e-9
            assert outcome.credited_core_s <= outcome.harvested_core_s + 1e-9

    def test_policy_comparison_on_skewed_fleet(self):
        # Four leaves, one of which harvests nothing (an unmanaged
        # machine): greedy avoids it, static pins a job onto it.
        rng = np.random.default_rng(0)
        harvest = rng.uniform(20.0, 80.0, size=(8, 4))
        harvest[:, 3] = 0.0
        grant = np.full((8, 4), 4.0)
        grant[:, 3] = 0.0
        slack = make_slack(harvest, grant)
        jobs = [BeJob(f"j{i}", 120.0, max_cores=4) for i in range(4)]
        outcomes = compare_policies(slack, jobs,
                                    policies=("slack-greedy", "static"))
        greedy, static = outcomes["slack-greedy"], outcomes["static"]
        assert greedy.credited_core_s > static.credited_core_s
        assert greedy.goodput_core_s >= static.goodput_core_s
        text = render_comparison(outcomes)
        assert "slack-greedy" in text and "static" in text


def schedule_dict(jobs=(), shard_leaves=3, epoch_s=60, **over):
    """A small loadable schedule-scenario dict."""
    data = {
        "name": "sched-spec",
        "duration_s": 240, "warmup_s": 60, "seed": 3,
        "schedule": {
            "epoch_s": epoch_s,
            "fleet": {
                "shard_leaves": shard_leaves,
                "clusters": [
                    {"name": "a", "leaves": 5,
                     "trace": {"kind": "diurnal", "period_s": 600,
                               "noise_sigma": 0.02}},
                    {"name": "b", "leaves": 4, "managed": False,
                     "trace": {"kind": "constant", "load": 0.5}},
                ],
            },
            "jobs": list(jobs),
        },
    }
    data.update(over)
    return data


class TestScheduleDifferential:
    """Empty queue => bit-identical to the plain fleet run."""

    @pytest.fixture(scope="class")
    def plain_fleet(self):
        data = schedule_dict()
        data["fleet"] = data.pop("schedule")["fleet"]
        spec = load_scenario(data)
        return compile_scenario(spec).run(processes=1)

    @pytest.mark.parametrize("jobs", ["1", "4"])
    @pytest.mark.parametrize("shard_leaves", [1, 3, 9])
    def test_empty_queue_matches_plain_fleet(self, plain_fleet, monkeypatch,
                                             shard_leaves, jobs):
        monkeypatch.setenv(JOBS_ENV, jobs)
        spec = load_scenario(schedule_dict(shard_leaves=shard_leaves))
        result = compile_scenario(spec).run()
        assert result.kind == "schedule"
        for name in ("a", "b"):
            want = plain_fleet.fleet.cluster(name).history
            got = result.fleet.cluster(name).history
            for column in CLUSTER_FIELDS:
                assert np.array_equal(got.column(column),
                                      want.column(column)), (
                    f"cluster {name!r} column {column!r} diverged from "
                    f"the plain fleet run (shards={shard_leaves}, "
                    f"jobs={jobs})")
        assert result.fleet.summary(skip_s=60.0) == \
            plain_fleet.fleet.summary(skip_s=60.0)

    @pytest.mark.parametrize("jobs", ["1", "4"])
    @pytest.mark.parametrize("shard_leaves", [3, 9])
    def test_schedule_outcome_is_plan_invariant(self, monkeypatch,
                                                shard_leaves, jobs):
        """Non-empty queues: goodput accounting is bit-identical too."""
        monkeypatch.setenv(JOBS_ENV, jobs)
        spec = load_scenario(schedule_dict(
            jobs=[{"name": "j", "demand_core_s": 2000, "max_cores": 6,
                   "count": 4}],
            shard_leaves=shard_leaves))
        summary = compile_scenario(spec).run().schedule.summary()
        reference = getattr(self, "_summary", None)
        if reference is None:
            type(self)._summary = summary
        else:
            assert summary == reference


class TestScheduleSpecSchema:
    def test_loads_and_compiles(self):
        spec = load_scenario(schedule_dict(
            jobs=[{"name": "j", "demand_core_s": 100, "count": 3}]))
        assert spec.schedule.fleet.total_leaves() == 9
        assert [j.name for j in spec.schedule.expand_jobs()] == \
            ["j-000", "j-001", "j-002"]
        assert compile_scenario(spec).kind == "schedule"

    def test_single_jobs_keep_their_bare_name(self):
        spec = load_scenario(schedule_dict(
            jobs=[{"name": "solo", "demand_core_s": 10}]))
        assert [j.name for j in spec.schedule.expand_jobs()] == ["solo"]

    def test_rejects_unknown_fields_and_bad_values(self):
        bad = schedule_dict()
        bad["schedule"]["preemption"] = True
        with pytest.raises(ScenarioError, match="unknown field"):
            load_scenario(bad)
        bad = schedule_dict(jobs=[{"name": "j", "demand_core_s": -5}])
        with pytest.raises(ScenarioError, match="demand_core_s"):
            load_scenario(bad)
        bad = schedule_dict(jobs=[{"name": "j", "demand_core_s": 5,
                                   "max_cores": 0}])
        with pytest.raises(ScenarioError, match="max_cores"):
            load_scenario(bad)
        bad = schedule_dict(jobs=[{"name": "j", "demand_core_s": 5,
                                   "count": 0}])
        with pytest.raises(ScenarioError, match="count"):
            load_scenario(bad)
        bad = schedule_dict(epoch_s=0)
        with pytest.raises(ScenarioError, match="epoch_s"):
            load_scenario(bad)
        bad = schedule_dict()
        bad["schedule"]["policy"] = "fifo"
        with pytest.raises(ScenarioError, match="unknown scheduling"):
            load_scenario(bad)
        bad = schedule_dict()
        bad["schedule"]["queue_limit"] = -1
        with pytest.raises(ScenarioError, match="queue_limit"):
            load_scenario(bad)

    def test_rejects_name_collisions_after_expansion(self):
        bad = schedule_dict(jobs=[
            {"name": "j-000", "demand_core_s": 5},
            {"name": "j", "demand_core_s": 5, "count": 2}])
        with pytest.raises(ScenarioError, match="collides after expansion"):
            load_scenario(bad)

    def test_rejects_misplaced_top_level_fields(self):
        with pytest.raises(ScenarioError, match="per\\s+cluster"):
            load_scenario(schedule_dict(server={"cores": 8}))
        with pytest.raises(ScenarioError, match="controller"):
            load_scenario(schedule_dict(controller="none"))
        with pytest.raises(ScenarioError, match="engine"):
            load_scenario(schedule_dict(engine="batch"))
        both = schedule_dict()
        both["members"] = [{"lc": "websearch"}]
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(both)

    def test_rejects_seed_collisions_in_nested_fleet(self):
        bad = schedule_dict()
        bad["schedule"]["fleet"]["clusters"][0]["leaves"] = 1500
        bad["schedule"]["fleet"]["clusters"][1]["leaves"] = 1500
        with pytest.raises(ScenarioError, match="seed ranges"):
            load_scenario(bad)

    def test_registered_schedule_scenarios_validate(self):
        backlog = registry.get("batch-backlog-1k")
        assert backlog.schedule.fleet.total_leaves() == 1000
        assert sum(j.count for j in backlog.schedule.jobs) == 1000
        assert any(not c.managed
                   for c in backlog.schedule.fleet.clusters)
        scavenger = registry.get("diurnal-scavenger")
        assert scavenger.schedule.queue_limit > 0
        arrivals = {j.arrival_s for j in scavenger.schedule.jobs}
        assert len(arrivals) > 1

    def test_build_raises_for_schedule_shape(self):
        spec = load_scenario(schedule_dict())
        with pytest.raises(ScenarioError, match="runner grid"):
            compile_scenario(spec).build()

    def test_tco_summary_requires_slack_view(self):
        data = schedule_dict()
        data["fleet"] = data.pop("schedule")["fleet"]
        plain = compile_scenario(load_scenario(data)).run(processes=1)
        spec = load_scenario(schedule_dict(
            jobs=[{"name": "j", "demand_core_s": 100}]))
        scheduled = compile_scenario(spec).run(processes=1)
        with pytest.raises(ValueError, match="no slack view"):
            tco_summary(scheduled.schedule, plain.fleet)
        summary = tco_summary(scheduled.schedule, scheduled.fleet,
                              skip_s=60.0)
        assert 0.0 <= summary["harvested_utilization"] <= 1.0
        assert summary["lc_utilization"] > 0


class TestSchedCli:
    def test_sched_list_shows_only_schedule_scenarios(self, capsys):
        from repro.cli import main
        assert main(["sched", "--list"]) == 0
        out = capsys.readouterr().out
        assert "batch-backlog-1k" in out and "diurnal-scavenger" in out
        assert "mixed-fleet-1k" not in out and "fig4" not in out

    def test_sched_runs_spec_file_with_comparison(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(JOBS_ENV, "1")
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule_dict(
            jobs=[{"name": "j", "demand_core_s": 1000, "count": 3}])))
        assert main(["sched", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scheduler [slack-greedy]" in out
        assert "throughput/TCO" in out
        assert "static" in out  # the comparison table

    def test_sched_policy_override_and_no_compare(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.cli import main
        monkeypatch.setenv(JOBS_ENV, "1")
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule_dict(
            jobs=[{"name": "j", "demand_core_s": 1000}])))
        assert main(["sched", str(path), "--policy", "static",
                     "--no-compare"]) == 0
        out = capsys.readouterr().out
        assert "scheduler [static]" in out
        assert "vs-static" not in out

    def test_sched_rejects_non_schedule_scenarios(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="not schedule-shaped"):
            main(["sched", "mixed-fleet-1k"])

    def test_fleet_points_schedule_scenarios_at_sched(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="'sched' command"):
            main(["fleet", "batch-backlog-1k"])
