"""Shared last-level cache with Intel CAT-style way partitioning.

Two models live here:

* :class:`CatController` — the *isolation mechanism*: way-partitioning of
  a highly associative LLC into named classes of service (COS), exactly
  like Intel Cache Allocation Technology.  Cores assigned to one subset
  can only *allocate* lines in their subset on refills but may hit
  anywhere (§2), which for a steady-state occupancy model means a COS
  bounds the occupancy of the tasks mapped to it.

* :func:`resolve_occupancy` — the *contention model*: given the cache
  demands of the tasks sharing one partition, compute each task's
  steady-state occupancy, hit fraction, and the DRAM traffic its misses
  generate.  Occupancy follows the classic result that, under
  (pseudo-)random replacement, a task's steady-state share of a shared
  cache is proportional to its miss rate — which itself depends on
  occupancy, so we solve the fixed point iteratively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass
class CacheDemand:
    """What one task asks of the LLC.

    Attributes:
        task: owner name, echoed into the resulting :class:`CacheShare`.
        hot_mb: the small, high-value working set (instructions + hot
            data).  Misses here are disproportionately expensive; the
            paper's websearch has a "small but significant working set of
            instructions and data in the hot path".
        bulk_mb: the per-request / streaming data footprint.
        access_gbps: rate at which the task touches the LLC.
        hot_access_fraction: fraction of accesses that go to the hot set.
        bulk_reuse: fraction of bulk accesses that *can* hit given full
            coverage (a pure streaming antagonist re-reads its array, so
            hits scale with coverage; set 1.0 for that, lower for data
            with little temporal locality).
    """

    task: str
    hot_mb: float = 0.0
    bulk_mb: float = 0.0
    access_gbps: float = 0.0
    hot_access_fraction: float = 0.0
    bulk_reuse: float = 1.0

    @property
    def footprint_mb(self) -> float:
        return self.hot_mb + self.bulk_mb

    def validate(self) -> None:
        if self.hot_mb < 0 or self.bulk_mb < 0:
            raise ValueError("footprints must be non-negative")
        if self.access_gbps < 0:
            raise ValueError("access bandwidth must be non-negative")
        if not 0.0 <= self.hot_access_fraction <= 1.0:
            raise ValueError("hot_access_fraction must be in [0, 1]")
        if not 0.0 <= self.bulk_reuse <= 1.0:
            raise ValueError("bulk_reuse must be in [0, 1]")


@dataclass
class CacheShare:
    """Resolved steady-state cache behaviour of one task."""

    task: str
    occupancy_mb: float
    hot_coverage: float   # fraction of the hot set resident
    bulk_coverage: float  # fraction of the bulk set resident
    hit_fraction: float   # fraction of LLC accesses that hit
    miss_gbps: float      # DRAM traffic generated by LLC misses


def _coverage(demand: CacheDemand, occupancy_mb: float) -> tuple:
    """Split an occupancy between hot (first) and bulk working sets.

    Tasks keep their hot set resident preferentially: it has the highest
    reuse, so under any reasonable replacement policy it is the last to
    be evicted.  Severe outside pressure (occupancy < hot_mb) eats into
    it, which is how the paper's "LLC (big) evicts the instruction
    working set" effect emerges.
    """
    hot = min(1.0, occupancy_mb / demand.hot_mb) if demand.hot_mb > 0 else 1.0
    left = max(0.0, occupancy_mb - demand.hot_mb)
    bulk = min(1.0, left / demand.bulk_mb) if demand.bulk_mb > 0 else 1.0
    return hot, bulk


def _hit_fraction(demand: CacheDemand, hot_cov: float, bulk_cov: float) -> float:
    hot_hits = demand.hot_access_fraction * hot_cov
    bulk_hits = (1.0 - demand.hot_access_fraction) * bulk_cov * demand.bulk_reuse
    return min(1.0, hot_hits + bulk_hits)


def resolve_occupancy(partition_mb: float,
                      demands: List[CacheDemand],
                      iterations: int = 8) -> List[CacheShare]:
    """Solve steady-state occupancy for tasks sharing one cache partition.

    Contested capacity is divided in proportion to each task's *access
    rate*, capped at the task's own footprint, with the surplus
    redistributed (water-filling).  Weighting by touch rate rather than
    miss rate models an LRU-like cache: lines that are re-referenced
    often stay resident, so a task defends exactly as much cache as it
    actively uses — and a task given more cores (higher access rate)
    defends more, which is how the paper's LC workloads "defend their
    share of resources better" at high load (§3.3).
    """
    if partition_mb < 0:
        raise ValueError("partition size must be non-negative")
    for d in demands:
        d.validate()
    if not demands:
        return []

    total_access = sum(d.access_gbps for d in demands)
    if total_access <= 0:
        # No pressure: everyone keeps their footprint up to capacity,
        # split evenly if oversubscribed.
        weights = {d.task: 1.0 / len(demands) for d in demands}
    else:
        weights = {d.task: (d.access_gbps + 1e-9) / (total_access + 1e-9 * len(demands))
                   for d in demands}
    occ = _waterfill(partition_mb, demands, weights)
    # `iterations` retained for API stability; the access-weighted
    # allocation has no occupancy feedback loop to iterate.
    del iterations

    shares = []
    for d in demands:
        hot_cov, bulk_cov = _coverage(d, occ[d.task])
        hit = _hit_fraction(d, hot_cov, bulk_cov)
        shares.append(CacheShare(
            task=d.task,
            occupancy_mb=occ[d.task],
            hot_coverage=hot_cov,
            bulk_coverage=bulk_cov,
            hit_fraction=hit,
            miss_gbps=d.access_gbps * (1.0 - hit),
        ))
    return shares


def _waterfill(capacity_mb: float,
               demands: List[CacheDemand],
               weights: Dict[str, float]) -> Dict[str, float]:
    """Weighted allocation capped at each task's footprint.

    Iteratively hands each unsatisfied task its weighted share of the
    remaining capacity, capping at its footprint; surplus flows to the
    remaining tasks.
    """
    alloc = {d.task: 0.0 for d in demands}
    remaining = {d.task: d.footprint_mb for d in demands}
    capacity = capacity_mb
    active = [d.task for d in demands if remaining[d.task] > 0]
    for _ in range(len(demands) + 1):
        if not active or capacity <= 1e-12:
            break
        wsum = sum(weights[t] for t in active)
        if wsum <= 0:
            break
        next_active = []
        spent = 0.0
        for t in active:
            grant = capacity * weights[t] / wsum
            take = min(grant, remaining[t])
            alloc[t] += take
            remaining[t] -= take
            spent += take
            if remaining[t] > 1e-12:
                next_active.append(t)
        capacity -= spent
        if not next_active or spent <= 1e-12:
            break
        active = next_active
    return alloc


class CatController:
    """Way-partitioning of one socket's LLC (Intel CAT).

    Partitions are named classes of service mapped to a number of ways.
    Heracles uses one partition for the LC workload and a second for all
    BE tasks (§4.1); partition sizes can be adjusted dynamically by
    writing MSRs, with changes taking effect in a few milliseconds.
    """

    def __init__(self, llc_mb: float, ways: int):
        if ways < 2:
            raise ValueError("need at least 2 ways to partition")
        if llc_mb <= 0:
            raise ValueError("LLC size must be positive")
        self.llc_mb = llc_mb
        self.ways = ways
        self._classes: Dict[str, int] = {}

    @property
    def mb_per_way(self) -> float:
        return self.llc_mb / self.ways

    def set_partition(self, cos: str, ways: int) -> None:
        """Assign ``ways`` ways to class-of-service ``cos``.

        Raises ValueError if the assignment would exceed the cache or
        starve any class of its minimum single way.
        """
        if ways < 0:
            raise ValueError("way count must be non-negative")
        other = sum(w for c, w in self._classes.items() if c != cos)
        if other + ways > self.ways:
            raise ValueError(
                f"partition overflow: {other} + {ways} > {self.ways} ways")
        if ways == 0:
            self._classes.pop(cos, None)
        else:
            self._classes[cos] = ways

    def partition_ways(self, cos: str) -> int:
        return self._classes.get(cos, 0)

    def partition_mb(self, cos: str) -> float:
        return self.partition_ways(cos) * self.mb_per_way

    def unallocated_ways(self) -> int:
        return self.ways - sum(self._classes.values())

    def classes(self) -> Dict[str, int]:
        return dict(self._classes)

