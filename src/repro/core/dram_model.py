"""Offline DRAM-bandwidth model of the LC workload.

The Intel chips of the paper cannot measure (or limit) DRAM bandwidth
per core, so Heracles needs "an offline model that describes the DRAM
bandwidth used by the latency-sensitive workloads at various loads,
core, and LLC allocations" (§4.2).  The model is regenerated only on
significant workload changes; small deviations are fine — §5.2 notes the
websearch binary and shard changed between profiling and evaluation and
Heracles still performed well.  We reproduce that robustness with an
optional staleness perturbation.

Profiling works exactly like the real thing: run the LC workload alone
at a grid of (load, LLC ways) points, record its DRAM traffic, and
interpolate bilinearly at prediction time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..hardware.cache import resolve_occupancy
from ..workloads.latency_critical import LatencyCriticalWorkload


@dataclass
class LcDramBandwidthModel:
    """Interpolating (load, llc_ways) -> DRAM bandwidth (GB/s) table."""

    loads: np.ndarray          # ascending load grid, shape (L,)
    ways: np.ndarray           # ascending LLC-way grid, shape (W,)
    bandwidth_gbps: np.ndarray  # shape (L, W)
    scale: float = 1.0         # staleness perturbation multiplier

    def __post_init__(self):
        if self.bandwidth_gbps.shape != (len(self.loads), len(self.ways)):
            raise ValueError("table shape mismatch")
        if np.any(np.diff(self.loads) <= 0) or np.any(np.diff(self.ways) <= 0):
            raise ValueError("grids must be strictly ascending")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        # Plain-float views of the grids: predict_gbps sits on the
        # controller's 2-second hot path (every leaf of a cluster polls
        # it), and scalar bisect + float arithmetic is ~20x cheaper than
        # numpy scalar dispatch while computing bit-identical values.
        self._load_grid = [float(x) for x in self.loads]
        self._way_grid = [float(x) for x in self.ways]
        self._table = [[float(v) for v in row] for row in self.bandwidth_gbps]

    def predict_gbps(self, load: float, llc_ways: int) -> float:
        """Bilinear interpolation, clamped to the profiled grid."""
        loads, ways = self._load_grid, self._way_grid
        load = min(loads[-1], max(loads[0], float(load)))
        w = min(ways[-1], max(ways[0], float(llc_ways)))
        li = max(0, min(bisect_left(loads, load) - 1, len(loads) - 2))
        wi = max(0, min(bisect_left(ways, w) - 1, len(ways) - 2))
        lf = (load - loads[li]) / (loads[li + 1] - loads[li])
        wf = (w - ways[wi]) / (ways[wi + 1] - ways[wi])
        t0, t1 = self._table[li], self._table[li + 1]
        value = ((1 - lf) * (1 - wf) * t0[wi]
                 + lf * (1 - wf) * t1[wi]
                 + (1 - lf) * wf * t0[wi + 1]
                 + lf * wf * t1[wi + 1])
        return value * self.scale

    def perturbed(self, scale: float) -> "LcDramBandwidthModel":
        """A stale copy of the model (binary/shard changed since
        profiling); used by the robustness ablation."""
        return LcDramBandwidthModel(loads=self.loads, ways=self.ways,
                                    bandwidth_gbps=self.bandwidth_gbps,
                                    scale=self.scale * scale)


def profile_lc_dram_model(lc: LatencyCriticalWorkload,
                          loads: Optional[Sequence[float]] = None,
                          way_points: Optional[Sequence[int]] = None
                          ) -> LcDramBandwidthModel:
    """Offline profiling run: LC alone at a grid of loads and LLC sizes.

    For each grid point we resolve the LC workload's steady-state cache
    occupancy inside a partition of the given size and add its uncached
    traffic — the same physics the simulator uses online, which is what
    profiling on the real machine measures too.
    """
    spec = lc.spec
    if loads is None:
        loads = [round(0.05 * i, 2) for i in range(1, 21)]  # 5%..100%
    if way_points is None:
        step = max(1, spec.socket.llc_ways // 10)
        way_points = list(range(2, spec.socket.llc_ways + 1, step))
        if way_points[-1] != spec.socket.llc_ways:
            way_points.append(spec.socket.llc_ways)

    loads = sorted(set(float(x) for x in loads))
    way_points = sorted(set(int(w) for w in way_points))
    table = np.zeros((len(loads), len(way_points)))
    mb_per_way = spec.socket.llc_mb / spec.socket.llc_ways

    for li, load in enumerate(loads):
        uncached = lc._uncached_share * lc.dram_target_gbps(load)
        access = lc._access_gbps(load)
        for wi, ways in enumerate(way_points):
            partition_mb = ways * mb_per_way * spec.sockets
            from ..hardware.cache import CacheDemand
            demand = CacheDemand(
                task=lc.name,
                hot_mb=lc.profile.hot_mb,
                bulk_mb=lc.bulk_mb(load),
                access_gbps=access,
                hot_access_fraction=lc.profile.hot_access_fraction,
                bulk_reuse=lc.profile.bulk_reuse,
            )
            shares = resolve_occupancy(partition_mb, [demand])
            miss = shares[0].miss_gbps if shares else 0.0
            table[li, wi] = uncached + miss

    return LcDramBandwidthModel(
        loads=np.array(loads), ways=np.array(way_points, dtype=float),
        bandwidth_gbps=table)
