"""The fleet engine: cluster slices as heterogeneous array programs.

Every fleet run goes through :class:`MegaFleetSim`.  Its input is a
list of cluster *slices* (contiguous leaf ranges of cluster plans);
the fleet layer (:mod:`repro.fleet.simulator`) decides only how leaves
are packed onto it — whole clusters in one in-process unit
(``engine="mega"``), or shards packed into one unit per pool worker
(``engine="sharded"``).  Within a unit, structurally compatible slices
are *merged* into one :class:`~repro.sim.batch.BatchColocationSim` —
per-cluster hardware capacities (DRAM bandwidth, NIC link rate), LC
workloads, SLO targets and traces become per-member broadcast columns
and segment slices — and the Heracles controllers of every managed
leaf step together as the batch's vector controller, with no per-leaf
Python objects and no per-shard Python tick loops.

A unit owns its collected ``(T, N)`` telemetry and its completed-tick
count, and returns each slice's columns as a
:class:`~repro.fleet.shard.ShardResult` of views into them.  A fleet
snapshot pickles the whole unit, telemetry trimmed to the completed
rows, into one ``unit_<u>.npz`` engine archive
(:func:`~repro.sim.checkpoint.save_engine`); a resume loads that unit
and ticks on.

Equivalence contract
--------------------

A merged group *is* a batch: members are the batch's array state and
Heracles is its masked vector program (see :mod:`repro.sim.batch`), so
a leaf's trajectory is the one a single-cluster batch gives it.
``tests/test_fleet.py`` enforces bit-identity of every cluster
roll-up, under every packing, against the scalar reference
:class:`~repro.cluster.cluster.WebsearchCluster` (one
``ColocationSim`` and ``HeraclesController`` per leaf).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from .batch import BatchColocationSim
from .batch import _VecHeracles, _VecLatencyMonitor  # noqa: F401

# The benchmark's span tracer names this and the two above here.
MegaClusterSim = BatchColocationSim

class MegaFleetSim:
    """Cluster slices of a fleet as heterogeneous ``(T, N)`` programs.

    The one fleet engine.  Its input is a list of *slices* — each a
    :class:`~repro.fleet.shard.ShardTask`, a contiguous leaf range
    ``[leaf_lo, leaf_hi)`` of one cluster plan.  Slices whose machine
    specs are structurally identical — everything but DRAM bandwidth
    and NIC link rate, which the batch physics takes as per-member
    columns — are *merged* into a single :class:`BatchColocationSim` over
    their concatenated membership, with per-cluster SLOs, offline DRAM
    models and traces carried as per-member arrays and segment slices.
    Structurally incompatible specs (different core counts, cache
    geometry, turbo ladder, power envelope) fall back to one group
    each.

    Leaf ``i`` of a plan gets the tail-noise seed ``seed * 1000 + i``,
    the BE task ``be_mix[i % len(be_mix)]`` and the chaos events
    targeting ``i`` by its *global* index, wherever its slice starts,
    and Heracles runs one independent controller per leaf.  So a
    leaf's trajectory does not depend on which other slices share its
    array: whole clusters in one unit, or shards packed into several
    units across a worker pool, produce the same numbers.

    Produces one :class:`~repro.fleet.shard.ShardResult` per slice, in
    slice order — column views of the unit's telemetry, no copies —
    which the fleet roll-up (``assemble_cluster`` → ``rollup_cluster``
    → fleet telemetry) consumes.
    """

    def __init__(self, slices, targets: Dict[str, Tuple[float, float]],
                 unit: int = 0):
        # Deferred imports: this module sits in repro.sim, below the
        # cluster/fleet layers it is building for.
        from ..cluster.leaf import make_leaf_lc
        from ..hardware.spec import default_machine_spec
        from ..sim.runner import memoized_dram_model
        from ..workloads.best_effort import make_be_workload
        self.slices = list(slices)
        self.unit = unit
        for task in self.slices:
            if task.leaf_hi <= task.leaf_lo:
                raise ValueError(f"shard [{task.leaf_lo}, {task.leaf_hi}) "
                                 f"is empty")
            if task.leaf_lo < 0 or task.leaf_hi > task.plan.leaves:
                raise ValueError(
                    f"shard [{task.leaf_lo}, {task.leaf_hi}) falls outside "
                    f"the cluster's {task.plan.leaves}-leaf population")

        group_of: Dict[object, int] = {}
        buckets: List[dict] = []
        # One LC instance and one BE instance per task name per cluster,
        # shared by all of its slices, as a monolithic cluster shares
        # them across its leaves.
        workloads: Dict[int, tuple] = {}
        for index, task in enumerate(self.slices):
            plan, lo, hi = task.plan, task.leaf_lo, task.leaf_hi
            spec = plan.spec or default_machine_spec()
            key = spec.structural_key()
            if key not in group_of:
                group_of[key] = len(buckets)
                buckets.append({"lcs": [], "traces": [], "bes": [],
                                "seeds": [], "specs": [], "managed": [],
                                "models": [], "spans": [], "events": [],
                                "members": []})
            bucket = buckets[group_of[key]]
            if task.cluster_index not in workloads:
                leaf_slo_ms, _ = targets[plan.name]
                workloads[task.cluster_index] = (
                    make_leaf_lc(spec, leaf_slo_ms, lc_name=plan.lc_name),
                    {})
            lc, be_by_name = workloads[task.cluster_index]
            be_names = [plan.be_mix[i % len(plan.be_mix)]
                        for i in range(lo, hi)]
            for name in sorted(set(be_names) - set(be_by_name)):
                be_by_name[name] = make_be_workload(name, spec)
            n = hi - lo
            g_lo = len(bucket["lcs"])
            bucket["lcs"] += [lc] * n
            bucket["traces"] += [plan.trace] * n
            bucket["bes"] += [be_by_name[name] for name in be_names]
            bucket["seeds"] += [plan.seed * 1000 + i for i in range(lo, hi)]
            bucket["specs"] += [spec] * n
            bucket["managed"] += [plan.managed] * n
            if plan.managed:
                bucket["models"].append(
                    (slice(g_lo, g_lo + n),
                     memoized_dram_model(plan.lc_name, spec)))
            bucket["spans"].append((index, g_lo, g_lo + n))
            bucket["members"] += range(task.member_base + lo,
                                       task.member_base + hi)
            # Chaos events arrive with cluster-local leaf targets (or
            # None for the whole cluster); each slice keeps the
            # intersection with its own leaf range, as explicit indices
            # offset into the group.
            for event in plan.events:
                local = (range(lo, hi) if event.members is None
                         else [m for m in event.members if lo <= m < hi])
                if local:
                    bucket["events"].append(event.retarget(
                        tuple(m - lo + g_lo for m in local)))

        #: (merged sim, [(slice index, member lo, member hi), ...])
        self.groups: List[Tuple[BatchColocationSim, list]] = []
        for bucket in buckets:
            sim = BatchColocationSim(
                lc=bucket["lcs"], trace=bucket["traces"],
                bes=bucket["bes"], spec=bucket["specs"][0],
                seeds=bucket["seeds"], specs=bucket["specs"],
                record_history=False)
            if bucket["models"]:
                sim.attach_vec_heracles(
                    model_segments=bucket["models"],
                    managed=np.array(bucket["managed"], dtype=bool))
            if bucket["events"]:
                sim.set_chaos_events(bucket["events"])
            # Fleet-global member indices (plan order numbers the
            # leaves), so decision-trace events merge invariantly under
            # any packing.
            sim.obs_set_members(bucket["members"])
            self.groups.append((sim, bucket["spans"]))
        #: Completed ticks, and per group the telemetry collected over
        #: them under :class:`~repro.fleet.shard.ShardResult`'s field
        #: names: ``times_s`` (T,), ``tails_ms`` / ``emus`` and, when
        #: the run collects them, ``be_norm`` / ``be_cores`` (T, group
        #: members).
        self.steps_done = 0
        self.telemetry: List[Dict[str, np.ndarray]] = [{} for _ in
                                                       self.groups]

    @property
    def engines(self) -> List[BatchColocationSim]:
        """The merged group sims (what a restore reconciles)."""
        return [sim for sim, _ in self.groups]

    @property
    def time_s(self) -> float:
        """The unit's clock (every group ticks in step)."""
        return self.groups[0][0].time_s

    def __getstate__(self):
        """Pickle the collected telemetry trimmed to the completed rows.

        After ``k`` ticks every row ``[0, k)`` is written except
        ``be_cores`` row ``k - 1``, which tick ``k + 1`` gathers; the
        resumed tick ``k`` rewrites it from the restored actuator state.
        """
        k = self.steps_done
        state = dict(self.__dict__)
        state["telemetry"] = [
            {name: rows[:k - 1] if name == "be_cores" else rows[:k]
             for name, rows in rec.items()}
            for rec in self.telemetry]
        return state

    @staticmethod
    def archive(checkpoint_dir: str, unit: int) -> str:
        """Archive path of one fleet unit under a checkpoint directory."""
        return os.path.join(checkpoint_dir, f"unit_{unit}.npz")

    @classmethod
    def load(cls, checkpoint_dir: str, unit: int, slices,
             steps_done: int) -> "MegaFleetSim":
        """Restore unit ``unit`` of a fleet snapshot to resume it.

        The archive must hold the live fleet's ``slices`` for this unit
        and ``steps_done`` completed ticks (the manifest's snapshot
        tick); anything else is a checkpoint from another fleet or run.
        """
        from .checkpoint import CheckpointError, load_engine
        path = cls.archive(checkpoint_dir, unit)
        engine = load_engine(path, expect_kind="fleet_unit").sim

        def ranges(tasks):
            return [(t.plan.name, t.leaf_lo, t.leaf_hi, t.member_base)
                    for t in tasks]

        if ranges(engine.slices) != ranges(slices):
            raise CheckpointError(
                f"{path}: holds slices {ranges(engine.slices)}, this "
                f"fleet packs {ranges(slices)} into unit {unit}")
        if engine.steps_done != steps_done:
            raise CheckpointError(
                f"{path}: holds {engine.steps_done} completed ticks, the "
                f"manifest's snapshot is at tick {steps_done}")
        return engine

    def run(self, duration_s: float, dt_s: float = 1.0,
            collect_be: bool = False,
            checkpoint_dir: Optional[str] = None,
            checkpoint_at_s: Optional[float] = None) -> list:
        """Advance the merged groups to ``duration_s``; one ShardResult
        per slice.

        A restored unit (:meth:`load`) continues from its completed
        ticks, bit-identical to the uninterrupted run.
        ``checkpoint_dir`` + ``checkpoint_at_s`` write the unit (state
        and collected telemetry) to :meth:`archive` after the tick
        whose time reaches ``checkpoint_at_s``.
        """
        from ..fleet.shard import ShardResult
        from .checkpoint import CheckpointError, checkpoint_step, save_engine
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        steps = int(round(duration_s / dt_s))
        k0 = self.steps_done
        if k0 > steps:
            raise CheckpointError(
                f"checkpoint holds {k0} completed ticks but the resumed "
                f"run is only {steps} ticks long")
        names = ["times_s", "tails_ms", "emus"]
        if collect_be:
            names += ["be_norm", "be_cores"]
        if k0 and set(self.telemetry[0]) != set(names):
            raise CheckpointError(
                f"checkpoint collect_be={not collect_be} does not match "
                f"this run's collect_be={collect_be}")
        k_save = None
        if checkpoint_dir is not None and checkpoint_at_s is not None:
            k_save = checkpoint_step(checkpoint_at_s, duration_s, dt_s)
        for g, (sim, _) in enumerate(self.groups):
            rec = {name: np.empty(steps if name == "times_s"
                                  else (steps, sim.n)) for name in names}
            for name, rows in self.telemetry[g].items():
                rec[name][:len(rows)] = rows
            self.telemetry[g] = rec
        columns = [(sim, rec["times_s"], rec["tails_ms"], rec["emus"],
                    rec.get("be_norm"), rec.get("be_cores"))
                   for (sim, _), rec in zip(self.groups, self.telemetry)]
        from ..obs.progress import make_heartbeat
        heartbeat = make_heartbeat(f"fleet[unit {self.unit}]", steps)
        for k in range(k0, steps):
            for sim, times, tails, emus, be_norm, be_cores in columns:
                sim._ticks_left = steps - k   # sizes the noise prefetch
                result = sim.tick(dt_s)
                times[k] = result.t_s
                tails[k] = result.tail_latency_ms
                emus[k] = result.emu
                if collect_be:
                    be_norm[k] = result.be_throughput_norm
                    # The recorded grant for tick k is the state tick
                    # k+1's actuator gather sees — post controller step
                    # of tick k *and* post any chaos events firing at
                    # the start of tick k+1, the state a cluster
                    # scheduler would poll from Heracles.  Reading
                    # be_cores_now() here instead would miss those
                    # chaos mutations and shift the scheduler's
                    # grant_cores epochs by one tick.
                    if k:
                        be_cores[k - 1] = sim._gathered_be_cores
            self.steps_done = k + 1
            if k_save is not None and k + 1 == k_save:
                save_engine(self, self.archive(checkpoint_dir, self.unit),
                            kind="fleet_unit")
            if heartbeat is not None:
                heartbeat.beat(k + 1)
        for sim, _ in self.groups:
            sim._ticks_left = None
        if steps and collect_be:
            for sim, _, _, _, _, be_cores in columns:
                # The final row has no following tick to gather it; one
                # direct read closes the shift.
                be_cores[steps - 1] = sim.be_cores_now()
        results: List[Optional[ShardResult]] = [None] * len(self.slices)
        for (_, spans), rec in zip(self.groups, self.telemetry):
            for index, lo, hi in spans:
                task = self.slices[index]
                leaves = {name: rows[:, lo:hi] for name, rows in rec.items()
                          if name != "times_s"}
                results[index] = ShardResult(
                    cluster=task.plan.name, leaf_lo=task.leaf_lo,
                    leaf_hi=task.leaf_hi, times_s=rec["times_s"], **leaves)
        # Observability rides on the first slice's result (the fleet
        # layer merges payloads across all results, so placement is
        # arbitrary; events already carry fleet-global member indices).
        from ..obs.profile import merge_profiles
        from ..obs.trace import concat_payloads
        payloads = [sim._obs_trace.payload() for sim in self.engines
                    if sim._obs_trace is not None]
        if payloads:
            results[0].trace = concat_payloads(payloads)
        profiles = [sim._obs_prof.as_dict() for sim in self.engines
                    if sim._obs_prof is not None]
        if profiles:
            results[0].profile = merge_profiles(profiles)
        return results


def run_mega_fleet(slices, targets: Dict[str, Tuple[float, float]],
                   duration_s: float, unit: int = 0,
                   resume_from: Optional[str] = None, resume_steps: int = 0,
                   **run_kwargs) -> list:
    """Build (or restore) and run one fleet unit: the pool work unit.

    :class:`~repro.fleet.simulator.ShardedFleetSim` packs its slices
    into units and fans them across :func:`repro.sim.runner.run_sweep`;
    returns one :class:`~repro.fleet.shard.ShardResult` per slice, in
    slice order.  ``resume_from`` names a checkpoint directory whose
    unit archive, taken after ``resume_steps`` ticks, replaces the
    build (:meth:`MegaFleetSim.load`).  ``run_kwargs`` (``dt_s``,
    ``collect_be`` and the checkpoint parameters) pass straight through
    to :meth:`MegaFleetSim.run`.
    """
    if resume_from is None:
        engine = MegaFleetSim(slices, targets, unit=unit)
    else:
        engine = MegaFleetSim.load(resume_from, unit, slices, resume_steps)
    return engine.run(duration_s, **run_kwargs)
