"""Figure 3: websearch performance is convex in cores x LLC.

The paper characterizes websearch offline and finds that its maximum
load under the SLO is a convex function of the cores and cache it is
given — the property that guarantees the core & memory subcontroller's
one-dimension-at-a-time gradient descent converges to a global optimum
(§4.3).  This experiment regenerates the surface: for a grid of
(cores %, LLC %) allocations, the highest load at which tail latency
still meets the SLO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..hardware.server import Server
from ..hardware.spec import MachineSpec, default_machine_spec
from ..sim.actuators import LC_COS
from ..workloads.base import Allocation, spread_cores
from ..workloads.latency_critical import (LatencyCriticalWorkload,
                                          make_lc_workload)


@dataclass
class ConvexitySurface:
    """Max load under SLO over a (cores, ways) grid."""

    lc_name: str
    core_counts: List[int]
    way_counts: List[int]
    max_load: np.ndarray  # shape (len(core_counts), len(way_counts))

    def is_monotone_nondecreasing(self, tolerance: float = 1e-6) -> bool:
        """More resources never reduce the achievable load."""
        rows_ok = bool(np.all(np.diff(self.max_load, axis=0) >= -tolerance))
        cols_ok = bool(np.all(np.diff(self.max_load, axis=1) >= -tolerance))
        return rows_ok and cols_ok

def max_load_under_slo(lc: LatencyCriticalWorkload, cores: int, ways: int,
                       spec: Optional[MachineSpec] = None,
                       slo_fraction: float = 1.0,
                       tolerance: float = 1e-3) -> float:
    """Highest load with tail <= slo_fraction * SLO at this allocation."""
    spec = spec or lc.spec
    if not 1 <= cores <= spec.total_cores:
        raise ValueError("core count out of range")
    if not 1 <= ways <= spec.socket.llc_ways:
        raise ValueError("way count out of range")

    def tail_fraction(load: float) -> float:
        server = Server(spec)
        for cat in server.cat.values():
            cat.set_partition(LC_COS, ways)
        alloc = Allocation(cores_by_socket=spread_cores(cores, spec),
                           cache_cos=LC_COS)
        usages = server.resolve([lc.demand(load, alloc)])
        tail = lc.tail_latency_ms(
            load, usages[lc.name],
            link_utilization=server.telemetry.link_utilization)
        return lc.slo_fraction(tail)

    if tail_fraction(0.0) > slo_fraction:
        return 0.0
    lo, hi = 0.0, 1.0
    if tail_fraction(1.0) <= slo_fraction:
        return 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if tail_fraction(mid) > slo_fraction:
            hi = mid
        else:
            lo = mid
    return lo


def run_fig3(lc_name: str = "websearch",
             core_fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0),
             way_fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0),
             spec: Optional[MachineSpec] = None) -> ConvexitySurface:
    """Compute the Figure 3 surface."""
    spec = spec or default_machine_spec()
    lc = make_lc_workload(lc_name, spec)
    core_counts = sorted({max(1, round(f * spec.total_cores))
                          for f in core_fractions})
    way_counts = sorted({max(1, round(f * spec.socket.llc_ways))
                         for f in way_fractions})
    surface = np.zeros((len(core_counts), len(way_counts)))
    for i, cores in enumerate(core_counts):
        for j, ways in enumerate(way_counts):
            surface[i, j] = max_load_under_slo(lc, cores, ways, spec)
    return ConvexitySurface(lc_name=lc_name, core_counts=core_counts,
                            way_counts=way_counts, max_load=surface)


def main() -> None:
    surface = run_fig3()
    print(f"Max load under SLO — {surface.lc_name}")
    header = "cores\\ways " + " ".join(f"{w:>5d}" for w in surface.way_counts)
    print(header)
    for i, cores in enumerate(surface.core_counts):
        row = " ".join(f"{surface.max_load[i, j] * 100:>4.0f}%"
                       for j in range(len(surface.way_counts)))
        print(f"{cores:>10d} {row}")
    print("monotone:", surface.is_monotone_nondecreasing())


if __name__ == "__main__":
    main()
