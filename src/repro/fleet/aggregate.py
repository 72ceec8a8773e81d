"""Fleet telemetry roll-up: shards → clusters → fleet columns.

Three stages, all deterministic and shard-count-independent:

1. :func:`rollup_cluster` reassembles a cluster's per-tick leaf
   telemetry from its shard slices (concatenated in global leaf order)
   and replays the recording protocol of the scalar reference
   :class:`~repro.cluster.cluster.WebsearchCluster` — the same
   :class:`~repro.cluster.root.RootAggregator` window arithmetic, the
   same tick-counted record cadence, the same ``np.mean`` EMU
   reduction — so the resulting :class:`~repro.cluster.cluster.
   ClusterHistory` is bit-identical to the reference run of the same
   cluster, for any shard partition.  It is the one cluster recorder
   of every fleet, and so of every ``cluster`` scenario arm.

2. :func:`build_fleet_telemetry` stacks the per-cluster histories into
   one fleet-level :class:`~repro.metrics.columns.BatchColumnStore`
   (clusters on the member axis, record ticks on the row axis) and
   derives the fleet aggregates: leaf-weighted fleet EMU and
   load-weighted root latency, stored as shared columns alongside the
   per-cluster ones.

3. :func:`reduce_leaf_epochs` folds the raw per-tick leaf telemetry
   into the decision-epoch granularity the fleet scheduler consumes —
   per-leaf harvested BE core-seconds, the Heracles BE-core grant, and
   the SLO latch — as a compact :class:`LeafSlackView` per cluster
   (stacked fleet-wide by :class:`FleetSlackView`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..cluster.cluster import ClusterHistory, ClusterRecord
from ..cluster.root import RootAggregator
from ..metrics.columns import BatchColumnStore
from ..metrics.windows import WindowedMetrics
from ..workloads.traces import LoadTrace
from .shard import ShardResult


def assemble_cluster(shards: Sequence[ShardResult],
                     total_leaves: Optional[int] = None) -> ShardResult:
    """Concatenate one cluster's shard slices into leaf-ordered arrays.

    Returns one :class:`ShardResult` over ``[0, leaves)`` (a lone
    whole-cluster shard is returned as it is, without a copy).  Shards
    must tile the population contiguously — from leaf 0 up to
    ``total_leaves`` when given — and agree on the tick clock; all of
    it is asserted, since a violation (a missing shard, say) would
    silently break the bit-identity contract.
    """
    ordered = sorted(shards, key=lambda s: s.leaf_lo)
    first = ordered[0]
    if first.leaf_lo != 0:
        raise ValueError(f"cluster {first.cluster!r}: shard coverage "
                         f"starts at leaf {first.leaf_lo}, not 0")
    if total_leaves is not None and ordered[-1].leaf_hi != total_leaves:
        raise ValueError(
            f"cluster {first.cluster!r}: shard coverage ends at leaf "
            f"{ordered[-1].leaf_hi}, not the cluster's {total_leaves}")
    for prev, nxt in zip(ordered, ordered[1:]):
        if prev.leaf_hi != nxt.leaf_lo:
            raise ValueError(
                f"cluster {prev.cluster!r}: shards [{prev.leaf_lo}, "
                f"{prev.leaf_hi}) and [{nxt.leaf_lo}, {nxt.leaf_hi}) do "
                f"not tile the leaf population")
        if not np.array_equal(prev.times_s, nxt.times_s):
            raise ValueError(f"cluster {prev.cluster!r}: shards disagree "
                             f"on the tick clock")
    if len(ordered) == 1:
        return dataclasses.replace(first, trace=None, profile=None)

    def joined(name):
        return np.concatenate([getattr(s, name) for s in ordered], axis=1)

    collected = first.be_norm.shape == first.tails_ms.shape
    return ShardResult(
        cluster=first.cluster, leaf_lo=0, leaf_hi=ordered[-1].leaf_hi,
        times_s=first.times_s, tails_ms=joined("tails_ms"),
        emus=joined("emus"),
        be_norm=joined("be_norm") if collected else np.zeros((0, 0)),
        be_cores=joined("be_cores") if collected else np.zeros((0, 0)))


@dataclass
class LeafSlackView:
    """One cluster's per-leaf slack signals at decision-epoch grain.

    The scheduler never sees raw ticks: the (T, leaves) telemetry is
    folded into epochs of ``epoch_s`` simulated seconds (tick-counted,
    like the record cadence), keeping the view small enough to hold
    for a 1000-leaf 12-hour run while preserving exactly the signals
    Algorithm 1 exposes — how much BE throughput Heracles actually
    harvested, how many cores it granted BE, and whether the leaf
    latched an SLO violation.

    Arrays are (E, leaves): ``harvest_core_s`` is the normalized BE
    core-seconds each leaf harvested during the epoch (BE throughput
    normalized to a whole dedicated server x machine cores x seconds);
    ``grant_cores`` is the floor of the mean Heracles BE-core grant;
    ``latched`` marks epochs where any tick's tail latency reached the
    leaf SLO.  ``epoch_t_s`` / ``epoch_len_s`` are (E,).
    """

    cluster: str
    total_cores: int
    epoch_t_s: np.ndarray
    epoch_len_s: np.ndarray
    harvest_core_s: np.ndarray
    grant_cores: np.ndarray
    latched: np.ndarray

    @property
    def epochs(self) -> int:
        """Number of decision epochs in the view."""
        return len(self.epoch_t_s)

    @property
    def leaves(self) -> int:
        """Number of leaves in the cluster."""
        return self.harvest_core_s.shape[1]


def reduce_leaf_epochs(assembled: ShardResult, cluster: str,
                       leaf_slo_ms: float, total_cores: int,
                       epoch_s: float, dt_s: float) -> LeafSlackView:
    """Fold per-tick leaf telemetry into a :class:`LeafSlackView`.

    Args:
        assembled: the cluster's leaf-ordered telemetry (must carry the
            BE signals, i.e. the shards ran with ``collect_be``).
        cluster: the cluster's name (carried through for reporting).
        leaf_slo_ms: the uniform leaf latency target the latch compares
            against.
        total_cores: physical cores of the cluster's machine spec (the
            EMU denominator that converts normalized BE throughput to
            core-seconds).
        epoch_s: decision-epoch length in simulated seconds; the epoch
            is tick-counted (``max(1, round(epoch_s / dt_s))`` ticks),
            the same derivation every cadence in the repo uses.
        dt_s: tick size of the recorded run.
    """
    if epoch_s <= 0:
        raise ValueError("epoch_s must be positive")
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    steps, leaves = assembled.tails_ms.shape
    if steps and assembled.be_norm.shape != (steps, leaves):
        raise ValueError(
            f"cluster {cluster!r}: BE slack signals were not collected "
            f"(run the shards with collect_be=True)")
    epoch_ticks = max(1, int(round(epoch_s / dt_s)))
    starts = np.arange(0, steps, epoch_ticks)
    if not steps:
        empty = np.zeros((0, leaves))
        return LeafSlackView(cluster=cluster, total_cores=total_cores,
                             epoch_t_s=np.zeros(0), epoch_len_s=np.zeros(0),
                             harvest_core_s=empty, grant_cores=empty,
                             latched=empty.astype(bool))
    ticks_per = np.diff(np.append(starts, steps))
    harvest = np.add.reduceat(assembled.be_norm, starts, axis=0) \
        * total_cores * dt_s
    grant = np.floor(np.add.reduceat(assembled.be_cores, starts, axis=0)
                     / ticks_per[:, None])
    latched = np.maximum.reduceat(assembled.tails_ms, starts, axis=0) \
        >= leaf_slo_ms
    return LeafSlackView(
        cluster=cluster, total_cores=total_cores,
        epoch_t_s=assembled.times_s[starts],
        epoch_len_s=ticks_per * dt_s,
        harvest_core_s=harvest, grant_cores=grant, latched=latched)


class FleetSlackView:
    """The fleet-wide slack view: per-cluster epochs, stacked by leaf.

    Concatenates the clusters' :class:`LeafSlackView` arrays along the
    leaf axis (in fleet plan order, so global leaf identity is stable
    whatever the shard partition) and exposes the flattened (E, N)
    signal arrays the placement policies consume.
    """

    def __init__(self, views: Sequence[LeafSlackView]):
        views = list(views)
        if not views:
            raise ValueError("a fleet slack view needs at least one cluster")
        first = views[0]
        for view in views[1:]:
            if not np.array_equal(view.epoch_t_s, first.epoch_t_s):
                raise ValueError(
                    f"clusters {first.cluster!r} and {view.cluster!r} "
                    f"disagree on the epoch clock")
        self.views = views
        self.epoch_t_s = first.epoch_t_s
        self.epoch_len_s = first.epoch_len_s
        self.harvest_core_s = np.concatenate(
            [v.harvest_core_s for v in views], axis=1)
        self.grant_cores = np.concatenate(
            [v.grant_cores for v in views], axis=1)
        self.latched = np.concatenate([v.latched for v in views], axis=1)
        self.leaf_cores = np.concatenate(
            [np.full(v.leaves, v.total_cores) for v in views])
        self.leaf_cluster = np.concatenate(
            [np.full(v.leaves, i) for i, v in enumerate(views)])
        self.cluster_names = [v.cluster for v in views]

    @property
    def epochs(self) -> int:
        """Number of decision epochs."""
        return len(self.epoch_t_s)

    @property
    def leaves(self) -> int:
        """Total fleet leaf population."""
        return self.harvest_core_s.shape[1]


def rollup_cluster(times_s: np.ndarray,
                   tails_ms: np.ndarray,
                   emus: np.ndarray,
                   trace: LoadTrace,
                   root_slo_ms: float,
                   record_period_s: float = 30.0,
                   dt_s: float = 1.0) -> ClusterHistory:
    """Replay the cluster recording protocol over assembled telemetry.

    Args:
        times_s: (T,) tick clock (time at the *start* of each tick,
            matching ``WebsearchCluster.tick``'s use of ``time_s``).
        tails_ms / emus: (T, leaves) per-tick leaf telemetry in global
            leaf order.
        trace: the cluster's shared load trace (sampled at record
            ticks, exactly as the monolithic cluster samples it).
        root_slo_ms: the cluster root SLO the fractions normalize by.
        record_period_s / dt_s: record cadence and tick size — the
            record interval is tick-counted
            (``max(1, round(record_period_s / dt_s))``), the same
            derivation the cluster driver uses.

    Returns:
        A :class:`ClusterHistory` bit-identical to the one the scalar
        reference cluster records.
    """
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    root = RootAggregator()
    history = ClusterHistory()
    record_every = max(1, int(round(record_period_s / dt_s)))
    for k in range(len(times_s)):
        t = float(times_s[k])
        root.record(t, tails_ms[k].tolist())
        if k % record_every == 0:
            windowed = root.windowed_latency_ms()
            history.append(ClusterRecord(
                t_s=t,
                load=trace.clipped(t),
                root_latency_ms=windowed,
                root_slo_fraction=windowed / root_slo_ms,
                emu=float(np.mean(emus[k])),
            ))
    return history


class FleetTelemetry:
    """Fleet-level columns over the per-cluster record streams.

    One :class:`BatchColumnStore` with the fleet's clusters on the
    member axis: per-cluster columns ``load``, ``root_latency_ms``,
    ``root_slo_fraction`` and ``emu`` (each ``(T, C)``), the shared
    record clock ``t_s``, and two derived shared columns —
    ``fleet_emu`` (leaf-weighted mean EMU across clusters) and
    ``weighted_root_latency_ms`` (root latency weighted by each
    cluster's offered load x leaf count, i.e. by where the traffic
    actually is).  Aggregates route through the shared
    :class:`~repro.metrics.windows.WindowedMetrics` stack like every
    other history in the repo.
    """

    #: Per-cluster (member-axis) fields mirrored from ClusterHistory.
    CLUSTER_FIELDS = ("load", "root_latency_ms", "root_slo_fraction", "emu")
    #: Derived fleet-wide (shared-axis) fields.
    FLEET_FIELDS = ("fleet_emu", "weighted_root_latency_ms")

    def __init__(self, store: BatchColumnStore,
                 cluster_names: Sequence[str],
                 cluster_leaves: Sequence[int]):
        self._store = store
        self.cluster_names = list(cluster_names)
        self.cluster_leaves = list(cluster_leaves)
        self.metrics = WindowedMetrics(self.fleet_column, self.times)

    @property
    def store(self) -> BatchColumnStore:
        """The backing (T, C) column store."""
        return self._store

    def __len__(self) -> int:
        """Number of recorded fleet rows (record-cadence ticks)."""
        return len(self._store)

    def times(self) -> np.ndarray:
        """The shared record clock, shape (T,)."""
        return self._store.column("t_s")

    def column(self, name: str) -> np.ndarray:
        """One per-cluster field as a (T, C) float column."""
        return self._store.column(name)

    def fleet_column(self, name: str) -> np.ndarray:
        """One derived fleet-wide field as a (T,) float column."""
        if name not in self.FLEET_FIELDS:
            raise KeyError(f"not a fleet-wide field: {name!r} (choose "
                           f"from {', '.join(self.FLEET_FIELDS)})")
        return self._store.column(name)

    def mean_fleet_emu(self, skip_s: float = 0.0) -> float:
        """Mean leaf-weighted fleet EMU after ``skip_s`` seconds."""
        return self.metrics.mean("fleet_emu", skip_s=skip_s)

    def min_fleet_emu(self, skip_s: float = 0.0) -> float:
        """Minimum leaf-weighted fleet EMU after ``skip_s`` seconds."""
        return self.metrics.minimum("fleet_emu", skip_s=skip_s)

    def mean_weighted_root_latency_ms(self, skip_s: float = 0.0) -> float:
        """Mean load-weighted root latency (ms) after ``skip_s``."""
        return self.metrics.mean("weighted_root_latency_ms", skip_s=skip_s)


def fleet_emu_row(emus: np.ndarray, leaves: np.ndarray) -> np.ndarray:
    """Leaf-weighted fleet EMU per record tick.

    Args:
        emus: (T, C) per-cluster EMU.
        leaves: (C,) leaf counts.

    Returns:
        (T,) fleet EMU — each cluster's EMU weighted by its share of
        the fleet's leaves, so a 400-leaf cluster moves the fleet
        number four times as far as a 100-leaf one.
    """
    weights = np.asarray(leaves, dtype=float)
    return (np.asarray(emus, dtype=float) @ weights) / weights.sum()


def weighted_root_latency_row(latency_ms: np.ndarray,
                              loads: np.ndarray,
                              leaves: np.ndarray) -> np.ndarray:
    """Load-weighted fleet root latency per record tick.

    Each cluster's root latency is weighted by ``load x leaves`` — its
    instantaneous share of the fleet's offered traffic — so a cluster
    at its diurnal peak dominates the fleet latency figure while a
    trough cluster barely moves it.  Ticks where the whole fleet
    offers zero load fall back to the unweighted cluster mean.
    """
    latency = np.asarray(latency_ms, dtype=float)
    weights = np.asarray(loads, dtype=float) * np.asarray(leaves,
                                                          dtype=float)
    totals = weights.sum(axis=1)
    safe = np.where(totals > 0, totals, 1.0)
    weighted = (latency * weights).sum(axis=1) / safe
    fallback = latency.mean(axis=1)
    return np.where(totals > 0, weighted, fallback)


def build_fleet_telemetry(histories: Dict[str, ClusterHistory],
                          cluster_names: Sequence[str],
                          cluster_leaves: Sequence[int]) -> FleetTelemetry:
    """Stack per-cluster histories into the fleet column store.

    All clusters share one record cadence (the fleet runs them for the
    same duration at the same ``dt_s`` and record period), which is
    asserted rather than assumed.
    """
    names = list(cluster_names)
    lengths = {name: len(histories[name]) for name in names}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"clusters disagree on record count: {lengths}")
    t = histories[names[0]].times()
    for name in names[1:]:
        if not np.array_equal(histories[name].times(), t):
            raise ValueError(
                f"clusters {names[0]!r} and {name!r} disagree on the "
                f"record clock (mixed dt_s or record periods?)")
    per_cluster = {
        field: np.stack([histories[name].column(field) for name in names],
                        axis=1)
        for field in FleetTelemetry.CLUSTER_FIELDS
    }
    leaves = np.asarray(cluster_leaves, dtype=float)
    fleet_emu = fleet_emu_row(per_cluster["emu"], leaves)
    weighted = weighted_root_latency_row(
        per_cluster["root_latency_ms"], per_cluster["load"], leaves)

    fields = [("t_s", np.float64)]
    fields += [(name, np.float64) for name in FleetTelemetry.CLUSTER_FIELDS]
    fields += [(name, np.float64) for name in FleetTelemetry.FLEET_FIELDS]
    store = BatchColumnStore(
        fields, n=len(names),
        shared=("t_s",) + FleetTelemetry.FLEET_FIELDS)
    for k in range(len(t)):
        row = {field: per_cluster[field][k]
               for field in FleetTelemetry.CLUSTER_FIELDS}
        row["t_s"] = t[k]
        row["fleet_emu"] = fleet_emu[k]
        row["weighted_root_latency_ms"] = weighted[k]
        store.append_tick(row)
    return FleetTelemetry(store, names, cluster_leaves)
