"""NIC egress link: per-flow fair sharing with optional class ceilings.

Within a server, outgoing network interference happens when flows from a
BE task compete with the LC workload's responses on the transmit link.
Absent traffic control, the link is shared per-flow (TCP converges to
approximate per-flow fairness), which is why "many low-bandwidth mice
flows" from an antagonist can overwhelm an LC task even though each flow
is tiny (§3.2).  With Linux ``tc`` HTB classes, each class is limited to
its ``ceil`` rate (§4.1); this module resolves achieved bandwidth under
both regimes with weighted max-min fairness.

Latency effect: once an LC task's achieved egress bandwidth falls below
its demand, responses queue behind the link.  The resulting delay factor
is computed by the perf layer from the achieved/demanded ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class FlowDemand:
    """Egress traffic offered by one task.

    Attributes:
        task: owner name.
        demand_gbps: offered egress load.
        flows: number of concurrent TCP flows carrying that load.  Under
            per-flow fairness, a task's share of a congested link is
            proportional to its flow count — mice-flow antagonists exploit
            exactly that.
        ceil_gbps: HTB class ceiling applied to this task, or None.
    """

    task: str
    demand_gbps: float
    flows: int = 1
    ceil_gbps: Optional[float] = None

    def validate(self) -> None:
        if self.demand_gbps < 0:
            raise ValueError("demand must be non-negative")
        if self.flows < 1:
            raise ValueError("flow count must be >= 1")
        if self.ceil_gbps is not None and self.ceil_gbps < 0:
            raise ValueError("ceil must be non-negative")


@dataclass
class FlowGrant:
    """Achieved egress bandwidth for one task."""

    task: str
    achieved_gbps: float
    demand_gbps: float

    @property
    def satisfaction(self) -> float:
        """achieved/demand in [0, 1]; 1.0 when nothing was demanded."""
        if self.demand_gbps <= 0:
            return 1.0
        return min(1.0, self.achieved_gbps / self.demand_gbps)


@dataclass
class LinkResolution:
    """Result of sharing the egress link for one interval."""

    link_gbps: float
    total_demand_gbps: float
    total_achieved_gbps: float
    grants: List[FlowGrant]

    def grant_for(self, task: str) -> FlowGrant:
        for g in self.grants:
            if g.task == task:
                return g
        raise KeyError(task)

    @property
    def utilization(self) -> float:
        return min(1.0, self.total_achieved_gbps / self.link_gbps)


class EgressLink:
    """One NIC transmit link."""

    def __init__(self, link_gbps: float):
        if link_gbps <= 0:
            raise ValueError("link rate must be positive")
        self.link_gbps = link_gbps

    def resolve(self, demands: List[FlowDemand]) -> LinkResolution:
        """Weighted max-min fair allocation with per-task ceilings.

        Weights are flow counts (per-flow fairness).  Each task's
        allocation is bounded by min(demand, ceil); leftover capacity is
        redistributed among still-unsatisfied tasks until the link is full
        or every demand is met.
        """
        for d in demands:
            d.validate()
        limits = {}
        for d in demands:
            limit = d.demand_gbps
            if d.ceil_gbps is not None:
                limit = min(limit, d.ceil_gbps)
            limits[d.task] = limit

        alloc = {d.task: 0.0 for d in demands}
        capacity = self.link_gbps
        active = [d for d in demands if limits[d.task] > 0]
        for _ in range(len(demands) + 1):
            if not active or capacity <= 1e-12:
                break
            wsum = sum(d.flows for d in active)
            spent = 0.0
            next_active = []
            for d in active:
                grant = capacity * d.flows / wsum
                room = limits[d.task] - alloc[d.task]
                take = min(grant, room)
                alloc[d.task] += take
                spent += take
                if limits[d.task] - alloc[d.task] > 1e-12:
                    next_active.append(d)
            capacity -= spent
            if spent <= 1e-12:
                break
            active = next_active

        grants = [FlowGrant(task=d.task,
                            achieved_gbps=alloc[d.task],
                            demand_gbps=d.demand_gbps)
                  for d in demands]
        return LinkResolution(
            link_gbps=self.link_gbps,
            total_demand_gbps=sum(d.demand_gbps for d in demands),
            total_achieved_gbps=sum(alloc.values()),
            grants=grants,
        )
