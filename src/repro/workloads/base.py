"""Workload abstractions: allocations, profiles, and the demand protocol.

A workload is a pure model: given its offered load and the resources it
has been allocated, it reports (a) what it demands from the server this
tick (:class:`~repro.hardware.server.TaskTickDemand`) and (b) how it
performs given what the server actually granted (tail latency for LC
workloads, normalized throughput for BE tasks).

Placement decisions — which cores, which CAT partition, which DVFS cap,
which HTB class — live in :class:`Allocation`, owned by the engine and
mutated by whatever controller is in charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..hardware.cache import CacheDemand
from ..hardware.server import DEFAULT_COS
from ..hardware.spec import MachineSpec


@dataclass
class Allocation:
    """Resources currently granted to one task.

    Attributes:
        cores_by_socket: physical cores owned per socket.
        cache_cos: CAT class the task allocates into (partition sizes are
            configured on the server's :class:`CatController`).
        dvfs_cap_ghz: per-core frequency cap, None = uncapped.
        net_ceil_gbps: HTB ceiling, None = uncapped (the LC class).
        ht_share_fraction: fraction of the task's hardware threads whose
            sibling runs a foreign task.  Zero under Heracles (disjoint
            physical cores); nonzero for the HyperThread antagonist and
            the OS-isolation baseline.
        dram_throttle: MBA-style DRAM request-rate throttle in (0, 1].
    """

    cores_by_socket: Dict[int, int] = field(default_factory=dict)
    cache_cos: str = DEFAULT_COS
    dvfs_cap_ghz: Optional[float] = None
    net_ceil_gbps: Optional[float] = None
    ht_share_fraction: float = 0.0
    dram_throttle: float = 1.0

    @property
    def total_cores(self) -> int:
        return sum(self.cores_by_socket.values())

    def sockets_in_use(self):
        return sorted(s for s, n in self.cores_by_socket.items() if n > 0)


def split_across_sockets(total: float, alloc: Allocation) -> Dict[int, float]:
    """Split a machine-wide quantity across sockets, weighted by cores."""
    sockets = alloc.sockets_in_use()
    if not sockets:
        return {}
    weight = {s: alloc.cores_by_socket[s] for s in sockets}
    wsum = sum(weight.values())
    return {s: total * weight[s] / wsum for s in sockets}


def spread_cores(total_cores: int, spec: MachineSpec) -> Dict[int, int]:
    """Distribute ``total_cores`` across sockets as evenly as possible."""
    if total_cores < 0:
        raise ValueError("core count must be non-negative")
    if total_cores > spec.total_cores:
        raise ValueError(f"machine has only {spec.total_cores} cores")
    base = total_cores // spec.sockets
    extra = total_cores % spec.sockets
    return {s: base + (1 if s < extra else 0) for s in range(spec.sockets)}


def cache_demand_for(task: str, alloc: Allocation, spec: MachineSpec,
                     hot_mb: float, bulk_mb: float, access_gbps: float,
                     hot_access_fraction: float,
                     bulk_reuse: float) -> Dict[int, CacheDemand]:
    """Build per-socket cache demands for a task, split by core weight."""
    sockets = alloc.sockets_in_use()
    if not sockets:
        return {}
    wsum = sum(alloc.cores_by_socket[s] for s in sockets)
    out = {}
    for s in sockets:
        w = alloc.cores_by_socket[s] / wsum
        out[s] = CacheDemand(
            task=task,
            hot_mb=hot_mb * w,
            bulk_mb=bulk_mb * w,
            access_gbps=access_gbps * w,
            hot_access_fraction=hot_access_fraction,
            bulk_reuse=bulk_reuse,
        )
    return out
