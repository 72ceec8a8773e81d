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
    slice order, which the fleet roll-up (``assemble_cluster`` →
    ``rollup_cluster`` → fleet telemetry) consumes.
    """

    def __init__(self, slices, targets: Dict[str, Tuple[float, float]],
                 unit: int = 0):
        # Deferred imports: this module sits in repro.sim, below the
        # cluster/fleet layers it is building for.
        import dataclasses
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

        def structural_key(spec):
            return dataclasses.replace(
                spec,
                socket=dataclasses.replace(spec.socket, dram_bw_gbps=1.0),
                nic=dataclasses.replace(spec.nic, link_gbps=1.0))

        group_of: Dict[object, int] = {}
        buckets: List[dict] = []
        # One LC instance and one BE instance per task name per cluster,
        # shared by all of its slices, as a monolithic cluster shares
        # them across its leaves.
        workloads: Dict[int, tuple] = {}
        for index, task in enumerate(self.slices):
            plan, lo, hi = task.plan, task.leaf_lo, task.leaf_hi
            spec = plan.spec or default_machine_spec()
            key = structural_key(spec)
            if key not in group_of:
                group_of[key] = len(buckets)
                buckets.append({"lcs": [], "traces": [], "bes": [],
                                "seeds": [], "specs": [], "managed": [],
                                "models": [], "spans": [], "events": []})
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
            self.groups.append((sim, bucket["spans"]))
        self._set_member_maps()

    def _set_member_maps(self) -> None:
        """Stamp fleet-global member indices on every group sim.

        Plan order defines the fleet-global leaf numbering (cluster
        leaf ``j`` of plan ``i`` is global index ``sum(leaves[:i]) +
        j``, carried as each slice's ``member_base``), so
        decision-trace events merge invariantly under any packing.
        Cheap (one int64 array per group), so it runs unconditionally
        and also re-stamps restored groups.
        """
        for sim, spans in self.groups:
            members = np.empty(sim.n, dtype=np.int64)
            for index, lo, hi in spans:
                task = self.slices[index]
                members[lo:hi] = task.member_base + np.arange(
                    task.leaf_lo, task.leaf_hi)
            sim.obs_set_members(members)

    @staticmethod
    def group_archive(checkpoint_dir: str, unit: int, group: int) -> str:
        """Archive path of one unit's merged group under a checkpoint."""
        return os.path.join(checkpoint_dir,
                            f"mega_group_{unit}_{group}.npz")

    def _save_groups(self, checkpoint_dir: str, k: int, recs,
                     collect_be: bool) -> None:
        """Snapshot every group after ``k`` completed ticks.

        Rows ``[0, k)`` of each group's collected arrays are fully
        written at this point except ``be_cores`` row ``k - 1``, which
        is only gathered by tick ``k + 1``; the resumed run rewrites it
        deterministically from the restored actuator state.
        """
        from .checkpoint import save_engine
        for g, ((sim, _), (times, tails, emus, be_norm, be_cores)) \
                in enumerate(zip(self.groups, recs)):
            arrays = {"times": times[:k], "tails": tails[:k],
                      "emus": emus[:k]}
            if collect_be:
                arrays["be_norm"] = be_norm[:k]
                arrays["be_cores"] = be_cores[:k - 1]
            path = self.group_archive(checkpoint_dir, self.unit, g)
            save_engine(sim, path, kind="mega_group", arrays=arrays,
                        extra_meta={"steps_done": k, "n": sim.n,
                                    "group": g,
                                    "collect_be": bool(collect_be)})

    def _load_groups(self, resume_from: str, recs, steps: int,
                     collect_be: bool) -> int:
        """Swap in saved group sims + collected prefixes; returns k0.

        The engine is first rebuilt fresh from its slices (group
        layout is a deterministic function of the slices), then each
        group's archive replaces the fresh sim and refills the
        already-computed telemetry rows — validated against the
        rebuilt layout so a checkpoint from a different fleet fails
        loudly.
        """
        from .checkpoint import CheckpointError, load_engine
        k0 = None
        for g, (group, rec) in enumerate(zip(self.groups, recs)):
            sim, spans = group
            restored = load_engine(
                self.group_archive(resume_from, self.unit, g),
                expect_kind="mega_group")
            if restored.meta.get("n") != sim.n:
                raise CheckpointError(
                    f"group {g}: checkpoint holds {restored.meta.get('n')} "
                    f"members, this fleet builds {sim.n}")
            if bool(restored.meta.get("collect_be")) != bool(collect_be):
                raise CheckpointError(
                    f"group {g}: checkpoint collect_be="
                    f"{restored.meta.get('collect_be')} does not match "
                    f"this run's collect_be={collect_be}")
            k = int(restored.meta["steps_done"])
            if k0 is None:
                k0 = k
            elif k != k0:
                raise CheckpointError(
                    f"group {g}: checkpointed at tick {k}, other groups "
                    f"at {k0} — mixed-run checkpoint directory")
            if k > steps:
                raise CheckpointError(
                    f"checkpoint holds {k} completed ticks but the "
                    f"resumed run is only {steps} ticks long")
            self.groups[g] = (restored.sim, spans)
            times, tails, emus, be_norm, be_cores = rec
            times[:k] = restored.arrays["times"]
            tails[:k] = restored.arrays["tails"]
            emus[:k] = restored.arrays["emus"]
            if collect_be:
                be_norm[:k] = restored.arrays["be_norm"]
                # be_cores lands one tick late (see the run loop), so
                # the checkpoint carries one row fewer; the resumed
                # tick k rewrites row k - 1 from the restored state.
                be_cores[:k - 1] = restored.arrays["be_cores"]
        # Restored sims come back with whatever observability state the
        # saving run pickled (load_engine reconciles the sinks with this
        # process's environment); the global member maps are this run's.
        self._set_member_maps()
        return k0 or 0

    def run(self, duration_s: float, dt_s: float = 1.0,
            collect_be: bool = False,
            checkpoint_dir: Optional[str] = None,
            checkpoint_at_s: Optional[float] = None,
            resume_from: Optional[str] = None) -> list:
        """Advance the merged groups; one ShardResult per slice.

        ``checkpoint_dir`` + ``checkpoint_at_s`` snapshot every group
        (state + collected telemetry prefix) after the tick whose time
        reaches ``checkpoint_at_s``; ``resume_from`` restores such a
        directory and continues from the saved tick, producing results
        bit-identical to the uninterrupted run.
        """
        from ..fleet.shard import ShardResult
        from .checkpoint import checkpoint_step
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        steps = int(round(duration_s / dt_s))
        k_save = None
        if checkpoint_dir is not None and checkpoint_at_s is not None:
            k_save = checkpoint_step(checkpoint_at_s, duration_s, dt_s)
        recs = []
        for sim, _ in self.groups:
            times = np.empty(steps)
            tails = np.empty((steps, sim.n))
            emus = np.empty((steps, sim.n))
            if collect_be:
                be_norm = np.empty((steps, sim.n))
                be_cores = np.empty((steps, sim.n))
            else:
                be_norm = be_cores = None
            recs.append((times, tails, emus, be_norm, be_cores))
        k0 = 0
        if resume_from is not None:
            k0 = self._load_groups(resume_from, recs, steps, collect_be)
        from ..obs.progress import make_heartbeat
        heartbeat = make_heartbeat(f"fleet[unit {self.unit}]", steps)
        for k in range(k0, steps):
            for (sim, _), (times, tails, emus, be_norm, be_cores) in zip(
                    self.groups, recs):
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
            if k_save is not None and k + 1 == k_save:
                self._save_groups(checkpoint_dir, k + 1, recs, collect_be)
            if heartbeat is not None:
                heartbeat.beat(k + 1)
        for sim, _ in self.groups:
            sim._ticks_left = None
        if steps and collect_be:
            for (sim, _), (times, tails, emus, be_norm, be_cores) in zip(
                    self.groups, recs):
                # The final row has no following tick to gather it; one
                # direct read closes the shift.
                be_cores[steps - 1] = sim.be_cores_now()
        results: List[Optional[ShardResult]] = [None] * len(self.slices)
        for (sim, spans), (times, tails, emus, be_norm, be_cores) in zip(
                self.groups, recs):
            for index, lo, hi in spans:
                task = self.slices[index]
                # Contiguous per-slice copies: the summary reductions
                # see the same (T, leaves) layout a per-slice engine
                # would have filled directly.
                p_tails = np.ascontiguousarray(tails[:, lo:hi])
                p_emus = np.ascontiguousarray(emus[:, lo:hi])
                if steps:
                    summary = {
                        "mean_emu": float(p_emus.mean()),
                        "min_emu": float(p_emus.min()),
                        "worst_tail_ms": float(p_tails.max()),
                        "mean_tail_ms": float(p_tails.mean()),
                    }
                else:
                    # duration_s / dt_s rounded to zero ticks: an empty
                    # run reports the metric layer's nothing-recorded
                    # value instead of crashing on empty reductions.
                    summary = {"mean_emu": 0.0, "min_emu": 0.0,
                               "worst_tail_ms": 0.0, "mean_tail_ms": 0.0}
                if collect_be:
                    p_be_norm = np.ascontiguousarray(be_norm[:, lo:hi])
                    p_be_cores = np.ascontiguousarray(be_cores[:, lo:hi])
                else:
                    p_be_norm = p_be_cores = np.zeros((0, 0))
                results[index] = ShardResult(
                    cluster=task.plan.name,
                    cluster_index=task.cluster_index,
                    shard_index=task.shard_index, leaf_lo=task.leaf_lo,
                    leaf_hi=task.leaf_hi, times_s=times.copy(),
                    tails_ms=p_tails, emus=p_emus, summary=summary,
                    be_norm=p_be_norm, be_cores=p_be_cores)
        # Observability rides on the first slice's result (the fleet
        # layer merges payloads across all results, so placement is
        # arbitrary; events already carry fleet-global member indices).
        from ..obs.profile import merge_profiles
        from ..obs.trace import concat_payloads
        payloads = [sim._obs_trace.payload() for sim, _ in self.groups
                    if sim._obs_trace is not None]
        if payloads:
            results[0].trace = concat_payloads(payloads)
        profiles = [sim._obs_prof.as_dict() for sim, _ in self.groups
                    if sim._obs_prof is not None]
        if profiles:
            results[0].profile = merge_profiles(profiles)
        return results


def run_mega_fleet(slices, targets: Dict[str, Tuple[float, float]],
                   duration_s: float, unit: int = 0, **run_kwargs) -> list:
    """Build and run one fleet unit: the picklable pool work unit.

    :class:`~repro.fleet.simulator.ShardedFleetSim` packs its slices
    into units and fans them across :func:`repro.sim.runner.run_sweep`;
    returns one :class:`~repro.fleet.shard.ShardResult` per slice, in
    slice order.  ``run_kwargs`` (``dt_s``, ``collect_be`` and the
    checkpoint/resume parameters) pass straight through to
    :meth:`MegaFleetSim.run`.
    """
    return MegaFleetSim(slices, targets, unit=unit).run(duration_s,
                                                        **run_kwargs)
