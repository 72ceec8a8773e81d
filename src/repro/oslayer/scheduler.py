"""CFS time-sharing model for the OS-isolation baseline.

The paper's characterization (§3.2, the ``brain`` rows of Figure 1) runs
the LC workload and a BE task in separate containers with nothing but
CFS ``shares`` separating them: "the OS allows both workloads to run on
the same core and even the same HyperThread, further compounding the
interference".  Leverich & Kozyrakis [39] showed that CFS has structural
vulnerabilities that produce scheduling delays of tens of milliseconds
for latency-critical tasks colocated this way.

We model the tail *scheduling delay* an LC task experiences when it
shares cores with a BE task under CFS:

* CFS grants the BE task timeslices on any core; when a request arrives
  for the LC task on a core currently running BE, the request waits out
  the remainder of the slice (bounded by the minimum granularity) plus
  wakeup/migration costs.
* The probability a request finds its core occupied grows with the BE
  task's CPU demand and with total machine pressure; at even moderate BE
  demand the 99th percentile absorbs several such stalls.

The output is an *additive tail delay in milliseconds* — devastating for
microsecond-scale SLOs (memkeyval) and merely terrible for millisecond
ones (websearch), exactly the gradient Figure 1 shows.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CfsModelParams:
    """Tunables of the CFS tail-delay model.

    Attributes:
        sched_latency_ms: CFS targeted preemption latency (default 24 ms
            on the multi-core servers of the era at this core count).
        occupancy_floor: minimum probability an arriving request finds a
            BE thread occupying its core, however small the BE shares.
            CFS preempts at granularity boundaries, not instantly, and a
            saturating BE job keeps every run queue populated — low
            shares shrink the BE's *throughput*, not its *presence*.
        lc_pressure_gain: how quickly stalls compound as the LC task's
            own demand rises (more runnable LC threads means more
            wakeup conflicts and queue-imbalance pathologies [39]).
    """

    sched_latency_ms: float = 24.0
    occupancy_floor: float = 0.85
    lc_pressure_gain: float = 3.0


class CfsSharedCoreModel:
    """Tail scheduling delay for an LC task sharing cores under CFS."""

    def __init__(self, params: CfsModelParams = CfsModelParams()):
        self.params = params

    def tail_delay_ms(self, lc_cpu_demand: float, be_cpu_demand: float,
                      cores: int, lc_share: float) -> float:
        """99th-percentile extra delay from CFS time sharing.

        The 99%-ile request absorbs roughly a full scheduling-latency
        round whenever a BE thread occupies its core (the Leverich &
        Kozyrakis pathology), compounded as the LC task's own pressure
        grows and wakeup/migration conflicts stack.

        Args:
            lc_cpu_demand: LC CPU demand in cores (e.g. 7.2 of 36).
            be_cpu_demand: BE CPU demand in cores; BE batch jobs are
                work-conserving and will consume any share offered.
            cores: physical cores both groups may run on.
            lc_share: LC's fraction of CFS shares (near 1.0 when the BE
                task is given very few shares, as in the paper).

        Returns:
            Additive 99%-ile scheduling delay, milliseconds.
        """
        if cores <= 0:
            return 0.0
        if be_cpu_demand <= 0:
            return 0.0
        p = self.params
        be_pressure = min(1.0, be_cpu_demand / cores)
        occupancy = be_pressure * max(p.occupancy_floor, 1.0 - lc_share)
        lc_rho = min(1.0, lc_cpu_demand / cores)
        stacking = 1.0 + p.lc_pressure_gain * lc_rho ** 2
        return occupancy * p.sched_latency_ms * stacking
