"""The fleet simulator: thousands of leaves across clusters.

The paper's §5.3 minicluster stops at tens of homogeneous leaves
behind one fan-out root.  :class:`ShardedFleetSim` scales the same
construction to fleet size: a *fleet* is a set of clusters — each with
its own machine spec, LC workload, BE mix, leaf count, and
(phase-shifted) load trace.  Every fleet runs on one engine, the
array program of :class:`~repro.sim.megabatch.MegaFleetSim`; the
``engine`` option only picks how leaves are packed onto it.
``"sharded"`` partitions each cluster into *shards* and packs them,
in order, into one unit per worker of the
:func:`repro.sim.runner.run_sweep` process pool (worker count via
``REPRO_JOBS`` / ``--jobs``, like every other sweep); ``"mega"`` runs
whole clusters as one in-process unit.

Per-shard telemetry rolls up losslessly: each cluster's
:class:`~repro.cluster.cluster.ClusterHistory` is reconstructed
bit-identically to a monolithic single-process run of that cluster
(see :mod:`repro.fleet.aggregate`), and the per-cluster streams stack
into fleet-level :class:`~repro.metrics.columns.BatchColumnStore`
columns (fleet EMU, per-cluster SLO fractions, load-weighted root
latency).

Typical use::

    from repro.fleet import ClusterPlan, ShardedFleetSim
    from repro.workloads.traces import websearch_cluster_trace

    fleet = ShardedFleetSim([
        ClusterPlan(name="us-east", leaves=400,
                    trace=websearch_cluster_trace(seed=1), seed=1),
        ClusterPlan(name="eu-west", leaves=200,
                    trace=websearch_cluster_trace(seed=2), seed=2),
    ], shard_leaves=64)
    result = fleet.run(duration_s=3600.0)
    print(result.telemetry.mean_fleet_emu(skip_s=600.0))
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster.cluster import ClusterHistory, cluster_slo_targets
from ..hardware.spec import MachineSpec, default_machine_spec
from ..obs.profile import PhaseProfiler, profile_enabled
from ..obs.trace import concat_payloads, make_sink
from ..sim.checkpoint import (CheckpointError, checkpoint_step,
                              trace_checkpoint_save)
from ..sim.megabatch import run_mega_fleet
from ..sim.runner import default_jobs, run_sweep
from ..workloads.best_effort import BE_PROFILES
from ..workloads.latency_critical import LC_PROFILES
from ..workloads.traces import LoadTrace
from .aggregate import (FleetSlackView, FleetTelemetry, assemble_cluster,
                        build_fleet_telemetry, reduce_leaf_epochs,
                        rollup_cluster)
from .shard import ShardResult, ShardTask, pack_shards, partition_leaves

#: Default shard size: the grain the packing cuts units at, small
#: enough that units of near-equal leaf counts exist for any worker
#: count a host offers.
DEFAULT_SHARD_LEAVES = 64

#: Manifest file written into a fleet checkpoint directory alongside
#: one ``unit_<u>.npz`` engine archive per unit.  Resuming validates
#: the manifest against the live fleet before any archive is
#: unpickled, so a checkpoint taken with a different topology fails
#: with a message naming the mismatch.
FLEET_META_NAME = "meta.json"

#: Layout version of a fleet checkpoint directory, recorded in its
#: manifest; bumped on any incompatible change (3: one archive per
#: fleet unit).
FLEET_CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class ClusterPlan:
    """One homogeneous cluster of a fleet (the engine-level plan).

    Args:
        name: aggregation/reporting key (unique within the fleet).
        leaves: leaf population behind this cluster's fan-out root
            (at least 2, like :class:`~repro.cluster.cluster.
            WebsearchCluster`).
        trace: the cluster's shared offered-load trace (wrap in
            :class:`~repro.workloads.traces.PhasedTrace` for
            follow-the-sun fleets).
        lc_name: LC workload every leaf runs.
        be_mix: BE task names cycled across leaves by global index;
            the default matches the §5.3 brain/streetview alternation.
        spec: machine description (``None`` = the paper's server).
        managed: run Heracles on every leaf (``False`` = baseline
            cluster, BE disabled).
        seed: cluster base seed; leaf ``i`` uses ``seed * 1000 + i``.
            Clusters whose seed ranges overlap share noise streams;
            a cluster scenario's arms do so on purpose.
        events: chaos schedule for this cluster
            (:class:`~repro.sim.chaos.ChaosEvent` tuples with
            cluster-local leaf targets, or ``members=None`` for every
            leaf).  Resolved identically under every packing — see
            :mod:`repro.sim.chaos` for the semantics.
    """

    name: str
    leaves: int
    trace: LoadTrace
    lc_name: str = "websearch"
    be_mix: Tuple[str, ...] = ("brain", "streetview")
    spec: Optional[MachineSpec] = None
    managed: bool = True
    seed: int = 0
    events: Tuple = ()

    def validate(self) -> None:
        """Check leaf count, workload names, and the BE mix."""
        if self.leaves < 2:
            raise ValueError(
                f"cluster {self.name!r}: leaves={self.leaves} — a cluster "
                f"needs at least two leaves (zero or negative counts are "
                f"invalid)")
        if self.lc_name not in LC_PROFILES:
            raise ValueError(
                f"cluster {self.name!r}: unknown LC workload "
                f"{self.lc_name!r}; choose from "
                f"{', '.join(sorted(LC_PROFILES))}")
        if not self.be_mix:
            raise ValueError(f"cluster {self.name!r}: be_mix must name at "
                             f"least one BE task")
        for be in self.be_mix:
            if be not in BE_PROFILES:
                raise ValueError(
                    f"cluster {self.name!r}: unknown BE workload {be!r}; "
                    f"choose from {', '.join(sorted(BE_PROFILES))}")
        for event in self.events:
            event.validate()
            for leaf in event.members or ():
                if not 0 <= leaf < self.leaves:
                    raise ValueError(
                        f"cluster {self.name!r}: chaos event targets "
                        f"leaf {leaf} of {self.leaves}")


@dataclass
class ClusterOutcome:
    """One cluster's rolled-up run within a fleet result.

    The bulk per-leaf telemetry is consumed by the roll-up and
    dropped, so results stay light even for full-fidelity fleet runs.
    """

    name: str
    leaves: int
    managed: bool
    leaf_slo_ms: float
    root_slo_ms: float
    history: ClusterHistory


@dataclass
class FleetResult:
    """Everything a fleet run produced.

    ``clusters`` holds each cluster's bit-exact
    :class:`ClusterHistory` roll-up; ``telemetry`` is the fleet-level
    column store.  ``slack`` is the decision-epoch per-leaf slack view
    the fleet scheduler consumes — populated only when the run asked
    for it (``slack_epoch_s``).

    ``trace`` is the run's merged decision-trace payload
    (:mod:`repro.obs.trace` columns with fleet-global member indices;
    event order unspecified — the JSONL exporters canonicalize) and
    ``profile`` the fleet-wide tick-phase wall-clock
    breakdown; each is ``None`` unless the corresponding observability
    toggle was on.
    """

    clusters: List[ClusterOutcome]
    telemetry: FleetTelemetry
    duration_s: float
    dt_s: float
    slack: Optional[FleetSlackView] = None
    trace: Optional[Dict[str, Any]] = None
    profile: Optional[Dict[str, float]] = None

    def cluster(self, name: str) -> ClusterOutcome:
        """Look up one cluster's outcome by name."""
        for outcome in self.clusters:
            if outcome.name == name:
                return outcome
        raise KeyError(f"no cluster named {name!r} in this fleet")

    def summary(self, skip_s: float = 0.0,
                slo_window_s: float = 60.0) -> Dict[str, object]:
        """Deterministic fleet summary (the seed-determinism contract).

        Args:
            skip_s: warm-up prefix excluded from every aggregate.
            slo_window_s: window for the per-cluster worst-window SLO.

        Returns:
            Plain floats only, so two runs of the same spec + seed can
            be compared with ``==`` — the determinism regression tests
            do exactly that.
        """
        clusters = {}
        for outcome in self.clusters:
            history = outcome.history
            clusters[outcome.name] = {
                "leaves": outcome.leaves,
                "root_slo_ms": outcome.root_slo_ms,
                "mean_emu": history.mean_emu(skip_s=skip_s),
                "min_emu": history.min_emu(skip_s=skip_s),
                "max_root_slo_fraction":
                    history.max_root_slo_fraction(skip_s=skip_s),
                "worst_window_slo": history.metrics.worst_window(
                    "root_slo_fraction", window_s=slo_window_s,
                    skip_s=skip_s),
            }
        return {
            "leaves": sum(o.leaves for o in self.clusters),
            "fleet_emu": self.telemetry.mean_fleet_emu(skip_s=skip_s),
            "min_fleet_emu": self.telemetry.min_fleet_emu(skip_s=skip_s),
            "weighted_root_latency_ms":
                self.telemetry.mean_weighted_root_latency_ms(skip_s=skip_s),
            "clusters": clusters,
        }


class ShardedFleetSim:
    """Partition a fleet into shards, pack them into units, run them.

    Args:
        clusters: the fleet's cluster plans (unique names).
        shard_leaves: maximum leaves per shard; each cluster splits
            into ``ceil(leaves / shard_leaves)`` near-equal shards.
            Must be positive — zero or negative shard sizes are
            rejected eagerly.
        record_period_s: cluster record cadence (30 s in the paper).
        engine: the packing.  ``"sharded"`` (default) packs the shards
            into ``min(workers, shards)`` contiguous units of
            near-equal leaf counts, run across the process pool;
            ``"mega"`` runs whole clusters as one in-process unit, one
            whole-cluster shard each.  Every unit is a
            :class:`~repro.sim.megabatch.MegaFleetSim`, so telemetry is
            bit-identical either way.
    """

    PACKINGS = ("sharded", "mega")

    def __init__(self, clusters: Sequence[ClusterPlan],
                 shard_leaves: int = DEFAULT_SHARD_LEAVES,
                 record_period_s: float = 30.0,
                 engine: str = "sharded"):
        if engine not in self.PACKINGS:
            raise ValueError(f"engine={engine!r}: expected one of "
                             f"{self.PACKINGS}")
        clusters = list(clusters)
        if not clusters:
            raise ValueError("a fleet needs at least one cluster")
        if shard_leaves <= 0:
            raise ValueError(
                f"shard_leaves={shard_leaves}: shard size must be positive "
                f"(got zero or negative)")
        if record_period_s <= 0:
            raise ValueError("record_period_s must be positive")
        names = [plan.name for plan in clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"cluster names must be unique, got {names}")
        for plan in clusters:
            plan.validate()
        self.clusters = clusters
        self.shard_leaves = shard_leaves
        self.record_period_s = record_period_s
        self.engine = engine

    def _shards(self) -> List[ShardTask]:
        """The fleet's shards in fleet order (whole clusters for mega)."""
        shards, base = [], 0
        for index, plan in enumerate(self.clusters):
            ranges = [(0, plan.leaves)] if self.engine == "mega" \
                else partition_leaves(plan.leaves, self.shard_leaves)
            shards += [ShardTask(plan, index, lo, hi, base)
                       for lo, hi in ranges]
            base += plan.leaves
        return shards

    def _fleet_meta(self, dt_s: float, checkpoint_at_s: float,
                    collect_be: bool, units: int) -> Dict[str, Any]:
        """The manifest describing a fleet checkpoint directory."""
        return {
            "version": FLEET_CHECKPOINT_VERSION,
            "engine": self.engine,
            "units": units,
            "dt_s": float(dt_s),
            "checkpoint_t_s": float(checkpoint_at_s),
            "collect_be": bool(collect_be),
            "shard_leaves": self.shard_leaves,
            "clusters": [{"name": plan.name, "leaves": plan.leaves,
                          "seed": plan.seed} for plan in self.clusters],
        }

    def _load_fleet_meta(self, resume_from: str, dt_s: float,
                         collect_be: bool, shards: int) -> Dict[str, Any]:
        """Read and validate a checkpoint manifest against this fleet."""
        meta_path = os.path.join(resume_from, FLEET_META_NAME)
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read fleet checkpoint manifest {meta_path}: "
                f"{exc}")
        if meta.get("version") != FLEET_CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{meta_path}: checkpoint version {meta.get('version')!r}, "
                f"this build reads version {FLEET_CHECKPOINT_VERSION} "
                f"(one unit_<u>.npz archive per fleet unit)")
        expected = self._fleet_meta(dt_s, meta.get("checkpoint_t_s", 0.0),
                                    collect_be, meta.get("units"))
        for key in ("engine", "dt_s", "collect_be", "shard_leaves",
                    "clusters"):
            if meta.get(key) != expected[key]:
                raise CheckpointError(
                    f"{meta_path}: checkpoint {key}={meta.get(key)!r} "
                    f"does not match this fleet's {expected[key]!r}; a "
                    f"snapshot only resumes under the engine, tick size, "
                    f"sharding, slack mode, and cluster plans that wrote "
                    f"it")
        units = meta.get("units")
        if isinstance(units, bool) or not isinstance(units, int) \
                or not 1 <= units <= shards:
            raise CheckpointError(
                f"{meta_path}: checkpoint units={units!r} is not a unit "
                f"count for this fleet's {shards} shards")
        return meta

    def run(self, duration_s: float, dt_s: float = 1.0,
            processes: Optional[int] = None,
            slack_epoch_s: Optional[float] = None,
            checkpoint_dir: Optional[str] = None,
            checkpoint_at_s: Optional[float] = None,
            resume_from: Optional[str] = None) -> FleetResult:
        """Run the whole fleet and roll up its telemetry.

        Args:
            duration_s: simulated run length (shared by every cluster).
            dt_s: tick size (the record cadence is tick-counted from
                it, like the cluster driver's).
            processes: worker processes (``None`` = auto via
                ``REPRO_JOBS`` / :func:`repro.sim.runner.default_jobs`;
                ``1`` forces the serial in-process path).  Under
                ``engine="sharded"`` the shards are packed into
                ``min(workers, shards)`` units; ``"mega"`` always runs
                one unit.
            slack_epoch_s: when given, the units additionally collect
                the per-leaf BE slack signals and the result carries a
                :class:`FleetSlackView` at this decision-epoch
                granularity (the scheduler hook).  ``None`` keeps the
                plain fleet run — no extra telemetry.
            checkpoint_dir: when given (with ``checkpoint_at_s``),
                snapshot every unit's full engine state mid-run into
                this directory — one ``unit_<u>.npz`` archive per unit
                plus a :data:`FLEET_META_NAME` manifest —
                so a later run can resume (or branch several what-ifs)
                from ``t = checkpoint_at_s`` instead of ``t = 0``.
            checkpoint_at_s: simulated time of the snapshot; must land
                on a tick strictly inside the run.
            resume_from: a checkpoint directory written by a previous
                run of this same fleet; the run rebuilds the saved
                packing (whatever the worker count now), loads every
                unit from its archive and only ticks the remaining
                steps.  The result is bit-identical to running from
                ``t = 0``.

        Returns:
            The populated :class:`FleetResult`.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        if slack_epoch_s is not None and slack_epoch_s <= 0:
            raise ValueError("slack_epoch_s must be positive")
        if (checkpoint_dir is None) != (checkpoint_at_s is None):
            raise CheckpointError(
                "checkpoint_dir and checkpoint_at_s go together: give "
                "both to take a snapshot, neither to skip it")
        collect_be = slack_epoch_s is not None
        shards = self._shards()
        k_save = None
        k_done = 0
        if checkpoint_dir is not None:
            k_save = checkpoint_step(checkpoint_at_s, duration_s, dt_s)
        if resume_from is not None:
            resume_meta = self._load_fleet_meta(resume_from, dt_s,
                                                collect_be, len(shards))
            k_done = int(round(resume_meta["checkpoint_t_s"] / dt_s))
            if k_save is not None and k_save <= k_done:
                raise CheckpointError(
                    f"checkpoint at t={checkpoint_at_s}s lands at or "
                    f"before the resumed snapshot "
                    f"(t={resume_meta['checkpoint_t_s']}s); a resumed "
                    f"run can only checkpoint further ahead")
            units = resume_meta["units"]
        elif self.engine == "mega":
            units = 1
        else:
            workers = processes if processes is not None \
                else default_jobs(len(shards))
            units = max(1, min(workers, len(shards)))
        targets = {
            plan.name: cluster_slo_targets(
                plan.spec or default_machine_spec(), plan.leaves,
                lc_name=plan.lc_name)
            for plan in self.clusters
        }
        profiler = PhaseProfiler() if profile_enabled() else None
        t_dispatch = perf_counter()
        calls = [((shards[lo:hi], targets, duration_s),
                  dict(unit=unit, dt_s=dt_s, collect_be=collect_be,
                       checkpoint_dir=checkpoint_dir,
                       checkpoint_at_s=checkpoint_at_s,
                       resume_from=resume_from, resume_steps=k_done))
                 for unit, (lo, hi) in enumerate(
                     pack_shards([s.leaves for s in shards], units))]
        results = [result for unit_results in run_sweep(
            run_mega_fleet, calls, processes=processes, star=True)
            for result in unit_results]
        dispatch_wall_s = perf_counter() - t_dispatch
        # Harvest the units' observability payloads before the roll-up
        # consumes (and drops) the bulk results.  The fleet-level sink
        # adds run-scoped events (checkpoint saves) so the merged trace
        # stays invariant under the packing — a per-unit save event
        # would count units.
        fleet_sink = make_sink()
        if fleet_sink is not None and resume_from is not None:
            # The snapshot this run warm-started from: replayed so a
            # resumed trace matches the checkpointing run's.
            trace_checkpoint_save(
                fleet_sink, resume_meta["checkpoint_t_s"], k_done)
        if fleet_sink is not None and checkpoint_dir is not None:
            trace_checkpoint_save(fleet_sink, checkpoint_at_s, k_save)
        trace_payloads = [r.trace for r in results if r.trace is not None]
        if fleet_sink is not None and len(fleet_sink):
            trace_payloads.append(fleet_sink.payload())
        trace = concat_payloads(trace_payloads) if trace_payloads else None
        if profiler is not None:
            for result in results:
                profiler.merge(result.profile)
            # Wall-clock not attributed to any unit's tick phases: unit
            # construction (and, on a pool, dispatch, pickling and
            # result transport).  Parallel units overlap, so the
            # residual clamps at zero and is exact only when serial.
            pooled = len(calls) > 1 and (
                processes if processes is not None
                else default_jobs(len(calls))) > 1
            profiler.add("ipc" if pooled else "setup", max(
                0.0, dispatch_wall_s - sum(profiler.seconds.values())))
        if checkpoint_dir is not None:
            # The manifest is written last, once every unit archive
            # exists — a directory with a manifest is a complete,
            # resumable snapshot; one without is a partial write.
            os.makedirs(checkpoint_dir, exist_ok=True)
            meta_path = os.path.join(checkpoint_dir, FLEET_META_NAME)
            with open(meta_path, "w", encoding="utf-8") as handle:
                json.dump(self._fleet_meta(dt_s, checkpoint_at_s,
                                           collect_be, units),
                          handle, indent=2, sort_keys=True)
                handle.write("\n")

        by_cluster: Dict[str, List[ShardResult]] = {}
        for result in results:
            by_cluster.setdefault(result.cluster, []).append(result)
        del results  # the raw arrays are dropped cluster by cluster below

        outcomes = []
        histories: Dict[str, ClusterHistory] = {}
        slack_views = []
        t_rollup = perf_counter()
        for plan in self.clusters:
            leaf_slo_ms, root_slo_ms = targets[plan.name]
            # Pop each cluster's shard list so its bulk (T, n) arrays
            # are released as soon as they are rolled up.  In-process
            # records are views of their unit's buffers, which go with
            # the last cluster that shares them.
            shard_results = by_cluster.pop(plan.name)
            assembled = assemble_cluster(shard_results,
                                         total_leaves=plan.leaves)
            history = rollup_cluster(
                assembled.times_s, assembled.tails_ms, assembled.emus,
                trace=plan.trace, root_slo_ms=root_slo_ms,
                record_period_s=self.record_period_s, dt_s=dt_s)
            histories[plan.name] = history
            if slack_epoch_s is not None:
                spec = plan.spec or default_machine_spec()
                slack_views.append(reduce_leaf_epochs(
                    assembled, cluster=plan.name, leaf_slo_ms=leaf_slo_ms,
                    total_cores=spec.total_cores, epoch_s=slack_epoch_s,
                    dt_s=dt_s))
            outcomes.append(ClusterOutcome(
                name=plan.name, leaves=plan.leaves, managed=plan.managed,
                leaf_slo_ms=leaf_slo_ms, root_slo_ms=root_slo_ms,
                history=history))
            del shard_results, assembled
        telemetry = build_fleet_telemetry(
            histories, [plan.name for plan in self.clusters],
            [plan.leaves for plan in self.clusters])
        slack = FleetSlackView(slack_views) if slack_epoch_s is not None \
            else None
        if profiler is not None:
            profiler.add("rollup", perf_counter() - t_rollup)
        return FleetResult(clusters=outcomes, telemetry=telemetry,
                           duration_s=duration_s, dt_s=dt_s, slack=slack,
                           trace=trace,
                           profile=(profiler.as_dict()
                                    if profiler is not None else None))
