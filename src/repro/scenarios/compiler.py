"""Lower a validated :class:`ScenarioSpec` onto the engine stack.

The compiler is the bridge between the declarative layer and the
execution layers below it.  Each scenario *shape* lowers differently:

* ``members`` — one :class:`~repro.sim.engine.ColocationSim` (single
  member, scalar engine) or one :class:`~repro.sim.batch.
  BatchColocationSim` (several members, or ``engine: batch``): Heracles
  members run under a ``HeraclesController`` (scalar) or the batch's
  vector controller, and a static baseline's grant and every injection
  go on the engine's event schedule (start of tick, see
  :mod:`repro.sim.chaos`);
* ``sweep`` — a (LC x BE x load) grid of independent constant-load
  runs fanned across :func:`repro.sim.runner.run_sweep` via the
  experiment layer's :func:`~repro.experiments.common.colocation_sweep`
  (so a sweep scenario is numerically identical to the hand-wired
  Figure 4-7 harness, offline-profiling memoization included);
* ``cluster`` — each managed/baseline arm a one-cluster fleet (the
  ``fleet`` lowering below, one in-process unit), the arms dispatched
  through the same runner;
* ``fleet`` — a sharded multi-cluster :class:`~repro.fleet.simulator.
  ShardedFleetSim`, every cluster partitioned into homogeneous shards
  fanned across the runner's process pool;
* ``schedule`` — the same sharded fleet run with the per-leaf slack
  view collected, then the :mod:`repro.sched` scheduler placing the
  spec's best-effort job queue over it (an empty queue leaves the
  fleet/cluster histories bit-identical to the plain ``fleet`` run).

Typical use::

    from repro.scenarios import load_scenario, compile_scenario

    spec = load_scenario("examples/scenarios/three_way_be_mix.yaml")
    result = compile_scenario(spec).run()
    print(result.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Union

from ..baselines import SCENARIO_BASELINES
from ..cluster.cluster import ClusterHistory
from ..core.controller import HeraclesController
from ..experiments.common import (ColocationResult, baseline_cell,
                                  colocation_sweep)
from ..fleet import (ClusterOutcome, ClusterPlan, FleetResult,
                     ShardedFleetSim)
from ..obs.trace import concat_payloads
from ..sched import ScheduleOutcome, run_schedule, tco_summary
from ..sim.batch import BatchColocationSim
from ..sim.chaos import ChaosEvent
from ..sim.checkpoint import (checkpoint_step, completed_steps, load_engine,
                              run_ticks, save_engine,
                              trace_checkpoint_save)
from ..sim.engine import ColocationSim, SimHistory
from ..sim.runner import memoized_dram_model, run_sweep
from ..workloads.best_effort import make_be_workload
from ..workloads.latency_critical import make_lc_workload
from .spec import (FleetSpec, InjectionSpec, ScenarioError, ScenarioSpec,
                   ShardSpec)


def _chaos_event(injection: InjectionSpec) -> ChaosEvent:
    """Lower one injection to the engines' shared event type."""
    return ChaosEvent(
        at_s=injection.at_s, action=injection.action,
        value=injection.value,
        members=None if injection.leaf is None else (injection.leaf,))


def _run_cluster_arm(fleet: ShardedFleetSim, duration_s: float,
                     dt_s: float) -> ClusterOutcome:
    """Run one ``cluster``-scenario arm, a one-cluster fleet, in-process.

    Module-level so the arms can fan out across the runner's pool.
    """
    return fleet.run(duration_s, dt_s=dt_s, processes=1).clusters[0]


@dataclass
class MemberResult:
    """One member's run summary plus its full tick history."""

    lc: str
    be: Optional[str]
    controller: str
    seed: int
    history: SimHistory
    warmup_s: float

    def worst_window_slo(self) -> float:
        """Worst 60 s windowed SLO fraction past the warm-up."""
        return self.history.worst_window_slo(skip_s=self.warmup_s)

    def mean_emu(self) -> float:
        """Mean effective machine utilization past the warm-up."""
        return self.history.mean_emu(skip_s=self.warmup_s)

    def max_slo_fraction(self) -> float:
        """Worst single-tick SLO fraction past the warm-up."""
        return self.history.max_slo_fraction(skip_s=self.warmup_s)

    def mean_be_throughput(self) -> float:
        """Mean normalized BE throughput past the warm-up."""
        return self.history.mean("be_throughput_norm", skip_s=self.warmup_s)


@dataclass
class SweepGrid:
    """One LC workload's (BE x load) sweep results."""

    lc_name: str
    loads: List[float]
    baseline_slo: List[float] = field(default_factory=list)
    results: Dict[str, List[ColocationResult]] = field(default_factory=dict)


@dataclass
class ScenarioResult:
    """Everything a compiled scenario produced.

    Which fields are populated depends on the scenario shape:
    ``members`` fills :attr:`members`; ``sweep`` fills :attr:`sweeps`
    (one :class:`SweepGrid` per LC task, in spec order); ``cluster``
    fills :attr:`cluster_arms` and :attr:`root_slo_ms`; ``fleet``
    fills :attr:`fleet`.
    """

    spec: ScenarioSpec
    kind: str
    members: List[MemberResult] = field(default_factory=list)
    sweeps: Dict[str, SweepGrid] = field(default_factory=dict)
    cluster_arms: Dict[str, ClusterHistory] = field(default_factory=dict)
    root_slo_ms: Optional[float] = None
    fleet: Optional[FleetResult] = None
    schedule: Optional[ScheduleOutcome] = None
    trace: Optional[Dict[str, object]] = None
    profile: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable run summary (the CLI's ``--json`` payload).

        Plain JSON types only — strings, ints, floats, lists, dicts —
        and deterministic for a given spec + seed, so two runs of the
        same scenario compare with ``==`` on the parsed document.  The
        shape-specific section mirrors what :meth:`render` prints:
        ``members`` for member scenarios, ``sweeps``/``arms`` for grid
        shapes, the fleet summary (plus the schedule/TCO roll-up) for
        fleet-shaped runs.
        """
        spec = self.spec
        out: Dict[str, object] = {
            "scenario": spec.name,
            "kind": self.kind,
            "duration_s": float(spec.duration_s),
            "warmup_s": float(spec.warmup_s),
            "seed": int(spec.seed),
        }
        skip = spec.warmup_s
        if self.kind in ("single", "batch"):
            out["members"] = [
                {"lc": m.lc, "be": m.be, "controller": m.controller,
                 "seed": int(m.seed),
                 "worst_window_slo": m.worst_window_slo(),
                 "max_slo_fraction": m.max_slo_fraction(),
                 "mean_emu": m.mean_emu(),
                 "mean_be_throughput": m.mean_be_throughput()}
                for m in self.members]
        elif self.kind == "sweep":
            out["sweeps"] = {
                lc: {"loads": [float(x) for x in grid.loads],
                     "baseline_slo": [float(x) for x in grid.baseline_slo],
                     "worst_window_slo": {
                         be: [r.history.worst_window_slo(skip_s=skip)
                              for r in cells]
                         for be, cells in grid.results.items()}}
                for lc, grid in self.sweeps.items()}
        elif self.kind == "cluster":
            out["root_slo_ms"] = float(self.root_slo_ms)
            out["arms"] = {
                arm: {"max_root_slo_fraction":
                      history.max_root_slo_fraction(skip_s=skip),
                      "mean_emu": history.mean_emu(skip_s=skip)}
                for arm, history in self.cluster_arms.items()}
        if self.fleet is not None:
            out["fleet"] = self.fleet.summary(skip_s=skip)
        if self.schedule is not None:
            out["schedule"] = self.schedule.summary()
            out["tco"] = tco_summary(self.schedule, self.fleet,
                                     skip_s=skip)
        return out

    def render(self) -> str:
        """Human-readable report (what the CLI prints)."""
        if self.kind == "sweep":
            return self._render_sweep()
        if self.kind == "cluster":
            return self._render_cluster()
        if self.kind == "fleet":
            return self._render_fleet()
        if self.kind == "schedule":
            return self._render_schedule()
        return self._render_members()

    def _render_members(self) -> str:
        lines = [f"scenario {self.spec.name}: {len(self.members)} member(s),"
                 f" {self.spec.duration_s:.0f} s"
                 f" (warm-up {self.spec.warmup_s:.0f} s)"]
        header = (f"{'#':>2}  {'LC':<10} {'BE':<12} {'controller':<20} "
                  f"{'worst60s':>9} {'maxSLO':>7} {'EMU':>6} {'BE-tput':>8}")
        lines.append(header)
        lines.append("-" * len(header))
        for i, m in enumerate(self.members):
            lines.append(
                f"{i:>2}  {m.lc:<10} {m.be or '-':<12} {m.controller:<20} "
                f"{m.worst_window_slo():>9.0%} {m.max_slo_fraction():>7.0%} "
                f"{m.mean_emu():>6.0%} {m.mean_be_throughput():>8.0%}")
        return "\n".join(lines) + "\n"

    def _render_sweep(self) -> str:
        from ..analysis.tables import render_load_series_table
        chunks = []
        for lc_name, grid in self.sweeps.items():
            series: Dict[str, List[float]] = {}
            if grid.baseline_slo:
                series["baseline"] = grid.baseline_slo
            for be_name, cells in grid.results.items():
                series[be_name] = [
                    r.history.worst_window_slo(skip_s=self.spec.warmup_s)
                    for r in cells]
            chunks.append(render_load_series_table(
                series, grid.loads,
                title=f"{lc_name}: worst-case tail latency "
                      f"(fraction of SLO)"))
            chunks.append("")
        return "\n".join(chunks) + "\n" if chunks else ""

    def _render_cluster(self) -> str:
        skip = self.spec.warmup_s
        lines = [f"root SLO: {self.root_slo_ms:.1f} ms"]
        labels = {"managed": "Heracles", "baseline": "baseline"}
        for arm, history in self.cluster_arms.items():
            lines.append(
                f"{labels.get(arm, arm)}: max latency "
                f"{history.max_root_slo_fraction(skip_s=skip) * 100:.0f}% "
                f"of SLO, mean EMU "
                f"{history.mean_emu(skip_s=skip) * 100:.0f}%")
        return "\n".join(lines) + "\n"

    def _render_fleet(self) -> str:
        skip = self.spec.warmup_s
        summary = self.fleet.summary(skip_s=skip)
        lines = [f"fleet {self.spec.name}: {summary['leaves']} leaves "
                 f"across {len(self.fleet.clusters)} cluster(s), "
                 f"{self.spec.duration_s:.0f} s "
                 f"(warm-up {self.spec.warmup_s:.0f} s)"]
        header = (f"{'cluster':<14} {'leaves':>6} {'mode':<8} "
                  f"{'maxSLO':>7} {'worst60s':>9} {'EMU':>6} {'minEMU':>7}")
        lines.append(header)
        lines.append("-" * len(header))
        for outcome in self.fleet.clusters:
            stats = summary["clusters"][outcome.name]
            mode = "managed" if outcome.managed else "baseline"
            lines.append(
                f"{outcome.name:<14} {outcome.leaves:>6} {mode:<8} "
                f"{stats['max_root_slo_fraction']:>7.0%} "
                f"{stats['worst_window_slo']:>9.0%} "
                f"{stats['mean_emu']:>6.0%} {stats['min_emu']:>7.0%}")
        lines.append(
            f"fleet EMU {summary['fleet_emu']:.0%} "
            f"(min {summary['min_fleet_emu']:.0%}), load-weighted root "
            f"latency {summary['weighted_root_latency_ms']:.1f} ms")
        return "\n".join(lines) + "\n"

    def _render_schedule(self) -> str:
        lines = [self._render_fleet().rstrip("\n")]
        outcome = self.schedule
        s = outcome.summary()
        lines.append(
            f"scheduler [{outcome.policy}]: {s['completed']}/{s['jobs']} "
            f"jobs completed ({s['rejected']} rejected, "
            f"{s['evictions']} evictions), goodput "
            f"{s['goodput_core_h']:.1f} core-h, credited "
            f"{s['credited_core_h']:.1f} of {s['harvested_core_h']:.1f} "
            f"harvested core-h")
        tco = tco_summary(outcome, self.fleet, skip_s=self.spec.warmup_s)
        lines.append(
            f"scheduled BE adds {tco['harvested_utilization']:.1%} fleet "
            f"utilization over the {tco['lc_utilization']:.1%} LC "
            f"baseline -> {tco['tco_gain']:+.1%} throughput/TCO")
        return "\n".join(lines) + "\n"


class CompiledScenario:
    """A spec lowered onto the engine stack, ready to run.

    ``kind`` is one of ``single`` (scalar engine), ``batch``, ``sweep``,
    ``cluster``, ``fleet`` or ``schedule``.  :meth:`build` materializes
    the simulation object
    for member scenarios (useful for stepping manually or attaching
    extra instrumentation); :meth:`run` executes the whole scenario and
    returns a :class:`ScenarioResult`.
    """

    def __init__(self, spec: ScenarioSpec):
        spec.validate()
        self.spec = spec
        if spec.sweep is not None:
            self.kind = "sweep"
        elif spec.cluster is not None:
            self.kind = "cluster"
        elif spec.fleet is not None:
            self.kind = "fleet"
        elif spec.schedule is not None:
            self.kind = "schedule"
        elif len(spec.members) > 1 or spec.engine == "batch":
            self.kind = "batch"
        else:
            self.kind = "single"
        self.machine = spec.server.to_machine_spec()

    # -- member scenarios ----------------------------------------------

    def build(self) -> Union[ColocationSim, BatchColocationSim]:
        """Materialize the simulation for a member scenario.

        Returns a fully wired :class:`ColocationSim` (kind ``single``)
        or :class:`BatchColocationSim` (kind ``batch``) with Heracles
        attached and baseline grants and injections scheduled, but not
        yet run.

        Raises:
            ScenarioError: for sweep/cluster scenarios, which lower to
                runner grids instead of a single simulation object.
        """
        spec = self.spec
        if self.kind not in ("single", "batch"):
            raise ScenarioError(
                f"scenario {spec.name!r} is a {self.kind} scenario; it "
                f"lowers to a runner grid — call run() instead of build()")
        spill_dir = spec.checkpoint.spill_dir \
            if spec.checkpoint is not None else None
        members = spec.members
        lcs = [make_lc_workload(m.lc, self.machine) for m in members]
        bes = [make_be_workload(m.be, self.machine) if m.be else None
               for m in members]
        traces = [m.trace.build(default_seed=spec.member_seed(i))
                  for i, m in enumerate(members)]
        seeds = [spec.member_seed(i) for i in range(len(members))]
        if self.kind == "single":
            sim = ColocationSim(lc=lcs[0], trace=traces[0], be=bes[0],
                                spec=self.machine, seed=seeds[0],
                                spill_dir=spill_dir)
        else:
            sim = BatchColocationSim(
                lc=lcs, trace=traces, bes=bes, spec=self.machine,
                seeds=seeds, n=len(members), record_history=True,
                spill_dir=spill_dir)
        events = self._attach(sim)
        events += [_chaos_event(inj) for inj in spec.injections]
        if events:
            sim.set_chaos_events(events)
        return sim

    def _attach(self, sim) -> List[ChaosEvent]:
        """Attach Heracles; return the static baselines' grant events.

        Heracles members (those with a BE to manage) get a
        ``HeraclesController`` on the scalar engine and share the
        batch's vector controller on a batch, one offline model segment
        per member.  A static baseline member's grant is returned as
        start-up events aimed at that member; they go ahead of the
        injections on the schedule, so an injection at ``t=0`` acts on
        the granted state.
        """
        batch = isinstance(sim, BatchColocationSim)
        segments = []
        grants: List[ChaosEvent] = []
        for i, member in enumerate(self.spec.members):
            controller = self.spec.member_controller(i)
            if controller == "heracles" and member.be is not None:
                model = memoized_dram_model(member.lc, self.machine)
                if batch:
                    segments.append((slice(i, i + 1), model))
                else:
                    HeraclesController.for_sim(sim, dram_model=model)
            elif controller in SCENARIO_BASELINES:
                grants += SCENARIO_BASELINES[controller](
                    self.machine).events(members=(i,))
            # "none" (and "heracles" without a BE): no controller.
        if segments:
            managed = [False] * sim.n
            for sl, _ in segments:
                managed[sl.start] = True
            sim.attach_vec_heracles(model_segments=segments,
                                    managed=managed)
        return grants

    # -- execution ------------------------------------------------------

    def run(self, processes: Optional[int] = None) -> ScenarioResult:
        """Execute the scenario and collect results.

        Args:
            processes: worker processes for sweep/cluster fan-out
                (``None`` = auto via :func:`repro.sim.runner.
                default_jobs`; ignored by member scenarios, which are
                single simulations).

        Returns:
            A populated :class:`ScenarioResult`.
        """
        if self.kind == "sweep":
            return self._run_sweep(processes)
        if self.kind == "cluster":
            return self._run_cluster(processes)
        if self.kind == "fleet":
            return self._run_fleet(processes)
        if self.kind == "schedule":
            return self._run_schedule(processes)
        return self._run_members()

    def _run_members(self) -> ScenarioResult:
        spec = self.spec
        ckpt = spec.checkpoint
        if ckpt is None:
            sim = self.build()
            sim.run(spec.duration_s, dt_s=spec.dt_s)
        else:
            sim = self._run_members_checkpointed()
        result = ScenarioResult(spec=spec, kind=self.kind)
        sims = sim.members if isinstance(sim, BatchColocationSim) else [sim]
        for i, member_sim in enumerate(sims):
            member = spec.members[i]
            result.members.append(MemberResult(
                lc=member.lc, be=member.be,
                controller=spec.member_controller(i),
                seed=spec.member_seed(i),
                history=member_sim.history,
                warmup_s=spec.warmup_s))
        if sim._obs_trace is not None:
            result.trace = concat_payloads([sim._obs_trace.payload()])
        if sim._obs_prof is not None:
            result.profile = sim._obs_prof.as_dict()
        return result

    def _run_members_checkpointed(self):
        """Run a member scenario in checkpoint-aware tick segments.

        Segment boundaries are integer ticks (never duration halves —
        see :mod:`repro.sim.checkpoint`), so a resumed or snapshotting
        run replays the exact tick sequence a straight ``sim.run``
        executes and stays bit-identical to it.
        """
        spec = self.spec
        ckpt = spec.checkpoint
        expect = "batch" if self.kind == "batch" else "single"
        total = int(round(spec.duration_s / spec.dt_s))
        if ckpt.resume is not None:
            restored = load_engine(ckpt.resume, expect_kind=expect)
            sim = restored.sim
            done = completed_steps(sim, spec.dt_s)
            if done > total:
                raise ScenarioError(
                    f"checkpoint.resume: snapshot holds {done} completed "
                    f"tick(s), past this scenario's {total}-tick run "
                    f"(duration_s={spec.duration_s}, dt_s={spec.dt_s})")
        else:
            sim = self.build()
            done = 0
        if ckpt.save is not None:
            k_save = checkpoint_step(ckpt.at_s, spec.duration_s, spec.dt_s)
            if k_save <= done:
                raise ScenarioError(
                    f"checkpoint.at_s: snapshot at {ckpt.at_s} s lands at "
                    f"or before the resumed snapshot; a resumed run can "
                    f"only checkpoint further ahead")
            run_ticks(sim, k_save - done, spec.dt_s)
            # Emitted before the archive is written so the pickled sink
            # already carries the event and a resumed run replays it.
            trace_checkpoint_save(getattr(sim, "_obs_trace", None),
                                  sim.time_s, k_save)
            save_engine(sim, ckpt.save, kind=expect)
            done = k_save
        run_ticks(sim, total - done, spec.dt_s)
        return sim

    def _run_sweep(self, processes: Optional[int]) -> ScenarioResult:
        spec = self.spec
        sweep = spec.sweep
        result = ScenarioResult(spec=spec, kind="sweep")
        for lc_name in sweep.lc_tasks:
            grid = SweepGrid(lc_name=lc_name, loads=list(sweep.loads))
            if sweep.include_baseline:
                lc = make_lc_workload(lc_name, self.machine)
                grid.baseline_slo = [
                    baseline_cell(lc, load, self.machine)
                    for load in sweep.loads]
            grid.results = colocation_sweep(
                lc_name, sweep.be_tasks, sweep.loads,
                duration_s=spec.duration_s, warmup_s=spec.warmup_s,
                spec=self.machine, seed=spec.seed, processes=processes)
            result.sweeps[lc_name] = grid
        return result

    def _build_fleet(self, fleet_spec) -> ShardedFleetSim:
        """Lower a :class:`FleetSpec` onto the sharded fleet simulator.

        Shared by the ``fleet`` and ``schedule`` shapes, so a scheduled
        fleet is constructed *identically* to the plain fleet it wraps
        — the root of the empty-queue bit-identity gate — and by each
        arm of a ``cluster`` scenario, a one-cluster fleet.
        """
        spec = self.spec
        # A cluster-less injection reaches every cluster; a leaf target
        # stays cluster-local.  Schedule order is preserved per cluster
        # — it is the engines' tie-break for same-timestamp events.
        plans = [
            ClusterPlan(
                name=cluster.name,
                leaves=cluster.leaves,
                trace=cluster.trace.build(
                    default_seed=fleet_spec.cluster_seed(i, spec.seed)),
                lc_name=cluster.lc,
                be_mix=cluster.be_mix,
                spec=(None if cluster.server.is_default()
                      else cluster.server.to_machine_spec()),
                managed=cluster.managed,
                seed=fleet_spec.cluster_seed(i, spec.seed),
                events=tuple(
                    _chaos_event(inj) for inj in spec.injections
                    if inj.cluster is None or inj.cluster == cluster.name))
            for i, cluster in enumerate(fleet_spec.clusters)
        ]
        return ShardedFleetSim(
            plans, shard_leaves=fleet_spec.shard_leaves,
            record_period_s=fleet_spec.record_period_s,
            engine=fleet_spec.engine)

    def _fleet_run_kwargs(self) -> Dict[str, Optional[str]]:
        """Checkpoint/resume kwargs for a fleet-shaped run."""
        ckpt = self.spec.checkpoint
        if ckpt is None:
            return {}
        return dict(checkpoint_dir=ckpt.save, checkpoint_at_s=ckpt.at_s,
                    resume_from=ckpt.resume)

    def _run_fleet(self, processes: Optional[int]) -> ScenarioResult:
        spec = self.spec
        fleet = self._build_fleet(spec.fleet)
        outcome = fleet.run(spec.duration_s, dt_s=spec.dt_s,
                            processes=processes,
                            **self._fleet_run_kwargs())
        return ScenarioResult(spec=spec, kind="fleet", fleet=outcome,
                              trace=outcome.trace,
                              profile=outcome.profile)

    def _run_schedule(self, processes: Optional[int]) -> ScenarioResult:
        spec = self.spec
        schedule = spec.schedule
        fleet = self._build_fleet(schedule.fleet)
        outcome = fleet.run(spec.duration_s, dt_s=spec.dt_s,
                            processes=processes,
                            slack_epoch_s=schedule.epoch_s,
                            **self._fleet_run_kwargs())
        started = perf_counter()
        scheduled = run_schedule(outcome.slack, schedule.expand_jobs(),
                                 policy=schedule.policy,
                                 queue_limit=schedule.queue_limit)
        profile = outcome.profile
        if profile is not None:
            profile = dict(profile, sched=perf_counter() - started)
        payloads = [p for p in (outcome.trace, scheduled.trace)
                    if p is not None]
        return ScenarioResult(spec=spec, kind="schedule", fleet=outcome,
                              schedule=scheduled,
                              trace=(concat_payloads(payloads)
                                     if payloads else None),
                              profile=profile)

    def _run_cluster(self, processes: Optional[int]) -> ScenarioResult:
        spec = self.spec
        cluster = spec.cluster
        arms = [
            ((self._build_fleet(FleetSpec(
                clusters=(ShardSpec(
                    name=arm, leaves=cluster.leaves, server=spec.server,
                    trace=cluster.trace, managed=(arm == "managed"),
                    seed=spec.seed),),
                engine="mega")), spec.duration_s, spec.dt_s), {})
            for arm in cluster.arms
        ]
        outcomes = run_sweep(_run_cluster_arm, arms, processes=processes,
                             star=True)
        result = ScenarioResult(spec=spec, kind="cluster")
        for arm, outcome in zip(cluster.arms, outcomes):
            result.cluster_arms[arm] = outcome.history
            result.root_slo_ms = outcome.root_slo_ms
        return result


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Validate and lower a scenario spec (see :class:`CompiledScenario`)."""
    return CompiledScenario(spec)


def run_scenario(spec: ScenarioSpec,
                 processes: Optional[int] = None) -> ScenarioResult:
    """Compile and run a scenario in one call."""
    return compile_scenario(spec).run(processes=processes)
