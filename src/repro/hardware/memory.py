"""DRAM controllers: bandwidth accounting, saturation, and access latency.

There is no commercially available DRAM-bandwidth isolation mechanism
(§2), which is precisely why Heracles needs an offline bandwidth model
and core throttling.  What the hardware *does* provide is bandwidth
measurement: "the DRAM controllers provide registers that track bandwidth
usage, making it easy to detect when they reach 90% of peak streaming
DRAM bandwidth" (§4.3).  This module supplies both the measurable
counters and the contention physics.

The latency model is a standard open-queueing delay curve: memory access
time is roughly flat until channel utilization approaches saturation and
then grows as ``1/(1 - utilization)``.  That knee-then-cliff shape is the
empirical inflection the paper builds its whole design on (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class MemoryDemand:
    """DRAM bandwidth wanted by one task on one socket's controllers."""

    task: str
    demand_gbps: float

    def validate(self) -> None:
        if self.demand_gbps < 0:
            raise ValueError("bandwidth demand must be non-negative")


@dataclass
class MemoryGrant:
    """Resolved DRAM behaviour for one task."""

    task: str
    achieved_gbps: float
    # Multiplier on the task's memory access time relative to an idle
    # memory system (>= 1.0).
    access_delay_factor: float


@dataclass
class MemoryResolution:
    """Socket-wide outcome of one resolution round."""

    total_demand_gbps: float
    total_achieved_gbps: float
    utilization: float  # achieved / capacity, in [0, 1]
    grants: List[MemoryGrant]

    def grant_for(self, task: str) -> MemoryGrant:
        for g in self.grants:
            if g.task == task:
                return g
        raise KeyError(task)


class MemoryController:
    """One socket's DRAM channels.

    Args:
        capacity_gbps: peak streaming bandwidth of the local channels.
        delay_knee: utilization at which queueing delay starts to climb.
        delay_gain: scales how violently latency grows past the knee.
    """

    def __init__(self, capacity_gbps: float,
                 delay_knee: float = 0.88,
                 delay_gain: float = 0.10):
        if capacity_gbps <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < delay_knee < 1.0:
            raise ValueError("delay knee must be in (0, 1)")
        self.capacity_gbps = capacity_gbps
        self.delay_knee = delay_knee
        self.delay_gain = delay_gain

    def resolve(self, demands: List[MemoryDemand]) -> MemoryResolution:
        """Share the channels among ``demands`` and compute delay.

        Bandwidth is allocated proportionally to demand when the channels
        are oversubscribed (DRAM schedulers are roughly fair at saturation).
        The delay factor applies to *all* requestors: a controller near
        saturation slows every access, which is how a streaming antagonist
        overwhelms even memkeyval's few memory requests (§3.3).
        """
        for d in demands:
            d.validate()
        total_demand = sum(d.demand_gbps for d in demands)
        if total_demand <= self.capacity_gbps:
            scale = 1.0
            achieved_total = total_demand
        else:
            scale = self.capacity_gbps / total_demand
            achieved_total = self.capacity_gbps
        utilization = min(1.0, achieved_total / self.capacity_gbps)
        delay = self.delay_factor(utilization, total_demand)
        grants = [
            MemoryGrant(task=d.task,
                        achieved_gbps=d.demand_gbps * scale,
                        access_delay_factor=delay)
            for d in demands
        ]
        return MemoryResolution(
            total_demand_gbps=total_demand,
            total_achieved_gbps=achieved_total,
            utilization=utilization,
            grants=grants,
        )

    def delay_factor(self, utilization: float, demand_gbps: float) -> float:
        """Memory access delay multiplier at a given channel utilization.

        Below the knee the factor is ~1.  Past it, the factor follows a
        ``1/(1-rho)`` queueing curve calibrated so the paper's
        operating point is safe: ~1.2x at 90% of peak bandwidth (the
        DRAM_LIMIT Heracles enforces), ~2x at 95%, diverging beyond.  When demand exceeds capacity the
        queue is formally unstable; we extend the curve with a term
        proportional to the oversubscription so that heavier antagonists
        keep hurting more (matching the monotone ">300%" region of Fig.1).
        """
        rho = min(utilization, 0.995)
        if rho <= self.delay_knee:
            return 1.0 + 0.05 * (rho / self.delay_knee)
        excess = (rho - self.delay_knee) / (1.0 - self.delay_knee)
        # The stable-queue term is capped: a fully utilized DRAM system
        # settles at a loaded latency a handful of times its unloaded
        # latency (row buffers and bank parallelism bound the queueing),
        # so the divergence of 1/(1-rho) is not physical beyond ~5x.
        queueing = min(5.0, self.delay_gain * excess / (1.0 - rho))
        factor = 1.05 + queueing
        oversub = max(0.0, demand_gbps / self.capacity_gbps - 1.0)
        return factor + 6.0 * oversub
