"""Shards and units: how a fleet's leaves are cut and packed.

A *shard* is a contiguous range of one cluster's leaf population
(:func:`partition_leaves`), described by a :class:`ShardTask`.  The
fleet packs its shards, in order, into *units* of near-equal leaf
counts (:func:`pack_shards`); each unit runs as one
:class:`~repro.sim.megabatch.MegaFleetSim` array program, and units
fan out across the :func:`repro.sim.runner.run_sweep` worker pool.

:class:`ShardResult` is the fleet layer's one leaf-telemetry record: a
unit hands back one per shard it ran, each a column range of the
unit's ``(T, N)`` telemetry, and
:func:`~repro.fleet.aggregate.assemble_cluster` returns the same record
over a whole cluster's ``[0, leaves)``.

Equivalence contract
--------------------

A shard is a *bit-identical* slice of the monolithic cluster run it
partitions: leaf ``i`` of the cluster gets the same LC instance (same
uniform leaf-SLO target from
:func:`repro.cluster.cluster.cluster_slo_targets`), the same BE task
(``be_mix[i % len(be_mix)]``), the same tail-noise seed
(``seed * 1000 + i``) and the same shared trace — all keyed by the
leaf's *global* index, never its position within the shard or unit —
and the array physics and controller of a member do not depend on
which other members share its array.  ``tests/test_fleet.py``
enforces the contract against both the single-process batch cluster
and the scalar reference engine, for every packing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np


def overlapping_seed_ranges(clusters):
    """First pair of clusters whose leaf-seed ranges collide, if any.

    Leaf ``i`` of a cluster draws tail noise from ``seed * 1000 + i``
    (the :class:`~repro.cluster.cluster.WebsearchCluster` convention,
    pinned by the bit-identity contract), so two clusters whose
    ``[seed * 1000, seed * 1000 + leaves)`` ranges overlap would share
    noise streams leaf-for-leaf and silently correlate every
    cross-cluster aggregate.  This is the one definition of that
    collision; :meth:`repro.scenarios.spec.FleetSpec.validate_seeds`
    rejects it in fleet and schedule specs.  The engine itself accepts
    shared seeds: the arms of a ``cluster`` scenario run the same
    leaves, noise included, with and without Heracles.

    Args:
        clusters: iterable of ``(seed, leaves, name)`` tuples.

    Returns:
        The offending ``(name_a, name_b)`` pair, or ``None``.
    """
    ranges = sorted((seed * 1000, seed * 1000 + leaves, name)
                    for seed, leaves, name in clusters)
    for (_, hi_a, a), (lo_b, _, b) in zip(ranges, ranges[1:]):
        if lo_b < hi_a:
            return a, b
    return None


def partition_leaves(total: int, shard_leaves: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` leaf ranges of at most ``shard_leaves``.

    The population splits into ``ceil(total / shard_leaves)`` shards of
    near-equal size (the first ``total % shards`` shards take one extra
    leaf), so no worker inherits a pathologically small remainder
    shard.

    Raises:
        ValueError: for non-positive ``total`` or ``shard_leaves``.
    """
    if total <= 0:
        raise ValueError(
            f"cannot partition {total} leaves: leaf count must be positive")
    if shard_leaves <= 0:
        raise ValueError(
            f"shard_leaves={shard_leaves}: shard size must be positive "
            f"(got zero or negative)")
    shards = -(-total // shard_leaves)  # ceil division
    base, extra = divmod(total, shards)
    ranges = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def pack_shards(sizes: Sequence[int],
                units: int) -> List[Tuple[int, int]]:
    """Pack shards, in order, into contiguous units of near-equal size.

    Args:
        sizes: leaf count of every shard, in fleet order.
        units: how many units to pack them into (at most one per
            shard).

    Returns:
        ``units`` half-open ``[first, last)`` shard-index ranges that
        tile ``range(len(sizes))``.  Each cut falls where the running
        leaf total comes nearest its even share (the earlier shard
        boundary on a tie), and every unit holds at least one shard.

    >>> pack_shards([3, 3, 2, 4, 4], 2)
    [(0, 3), (3, 5)]
    >>> pack_shards([5, 5], 1)
    [(0, 2)]
    """
    if not 1 <= units <= len(sizes):
        raise ValueError(f"cannot pack {len(sizes)} shards into {units} "
                         f"units: need 1 <= units <= shards")
    done = list(accumulate(sizes))  # leaves in shards[:b] = done[b - 1]
    cuts = [0]
    for u in range(1, units):
        target = done[-1] * u / units
        cuts.append(min(range(cuts[-1] + 1, len(sizes) - units + u + 1),
                        key=lambda b: abs(done[b - 1] - target)))
    cuts.append(len(sizes))
    return list(zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class ShardTask:
    """One shard: the leaves ``[leaf_lo, leaf_hi)`` of one cluster plan.

    Args:
        plan: the owning :class:`~repro.fleet.simulator.ClusterPlan`
            (workloads, trace, seed, chaos events; leaf indices stay
            the plan's own, never shard-local).
        cluster_index: the plan's position in the fleet.
        leaf_lo / leaf_hi: cluster leaf index range ``[lo, hi)``.
        member_base: fleet-global index of the plan's leaf 0
            (cumulative leaf count of the preceding plans);
            decision-trace events report ``member_base + leaf_index``
            so merged traces are invariant under any packing.
    """

    plan: Any
    cluster_index: int
    leaf_lo: int
    leaf_hi: int
    member_base: int = 0

    @property
    def leaves(self) -> int:
        """Number of leaves in this shard."""
        return self.leaf_hi - self.leaf_lo


@dataclass
class ShardResult:
    """Per-tick telemetry of the leaves ``[leaf_lo, leaf_hi)`` of a cluster.

    ``tails_ms`` and ``emus`` are ``(T, leaves)`` float64 arrays in
    global leaf order; ``times_s`` is the shared ``(T,)`` tick clock.
    A unit's records are views into its telemetry buffers, not copies.

    ``be_norm`` and ``be_cores`` are the scheduler's slack signals —
    per-tick normalized BE throughput and Heracles-granted BE cores per
    leaf, also ``(T, leaves)``.  They are empty ``(0, 0)`` arrays
    unless the run collected them (``collect_be=True``).

    ``trace`` and ``profile`` carry a unit's decision-trace payload
    (:meth:`repro.obs.trace.TraceSink.payload` columns, fleet-global
    member indices) and tick-phase wall-clock breakdown, on the unit's
    first result only; both are ``None`` unless the run enabled the
    corresponding observability toggle.  The fleet layer merges them
    across units.
    """

    cluster: str
    leaf_lo: int
    leaf_hi: int
    times_s: np.ndarray
    tails_ms: np.ndarray
    emus: np.ndarray
    be_norm: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0)))
    be_cores: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0)))
    trace: Optional[Dict[str, np.ndarray]] = None
    profile: Optional[Dict[str, float]] = None
