"""Tail-latency queueing model (M/M/k flavoured).

Latency-critical services are, to first order, queueing systems: requests
arrive, wait for a worker thread, get served, and the SLO is written
against a high percentile of the total sojourn time.  We use the classic
M/M/k results:

* Erlang-C gives the probability an arriving request must wait,
  ``P_wait = ErlangC(k, a)`` with offered load ``a = k * rho``.
* The waiting time of delayed requests is exponential, so the p-th
  percentile of waiting time is
  ``W_p = S / (k (1 - rho)) * ln(P_wait / (1 - p))`` when
  ``P_wait > 1 - p`` and zero otherwise.
* Service time has its own tail: we model the p-th percentile of service
  as ``service_tail_mult * S`` (a workload-shape parameter; ~4.6 for an
  exponential distribution, lower for tighter production services).

Past saturation (rho >= 1) the system is formally unstable; the model
extends continuously with a term proportional to the overload so that
heavier overloads report monotonically worse latency (matching the
ever-red ">300%" cells of Figure 1 rather than returning infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


def erlang_c(servers: int, offered_erlangs: float) -> float:
    """Probability an arriving request waits (M/M/k).

    Computed with the numerically stable iterative form of the Erlang-B
    recurrence, then converted to Erlang-C.  Returns 1.0 at or beyond
    saturation.
    """
    if servers < 1:
        raise ValueError("need at least one server")
    if offered_erlangs < 0:
        raise ValueError("offered load must be non-negative")
    if offered_erlangs == 0:
        return 0.0
    rho = offered_erlangs / servers
    if rho >= 1.0:
        return 1.0
    # Erlang-B via recurrence: B(0) = 1; B(n) = a B(n-1) / (n + a B(n-1)).
    b = 1.0
    for n in range(1, servers + 1):
        b = offered_erlangs * b / (n + offered_erlangs * b)
    # Erlang-C from Erlang-B.
    c = b / (1.0 - rho + rho * b)
    return min(1.0, max(0.0, c))


@dataclass(frozen=True)
class QueueModel:
    """Tail latency of one service instance.

    Production leaf servers do not behave like one giant M/M/k: requests
    are hashed across *worker pools* (per-NUMA-node thread pools, shard
    partitions), so queueing happens at pool granularity.  With
    ``pool_size`` set, the cores are split into pools of roughly that
    size, arrivals divide evenly among pools, and the tail is computed
    per pool.  Smaller pools mean less statistical multiplexing and a
    steeper latency-vs-load curve — which is what real LC services show
    (tail grows by ~2-3x from idle to peak while CPU utilization stays
    high), in between the too-forgiving pooled M/M/k and the
    too-brutal per-core M/M/1.

    Attributes:
        servers: worker parallelism (number of cores serving requests).
        service_ms: mean service time per request on one worker.
        service_tail_mult: percentile-of-service / mean-of-service ratio.
        percentile: SLO percentile (0.99 for websearch/memkeyval, 0.95
            for ml_cluster).
        pool_size: target cores per queueing pool (None = fully pooled).
    """

    servers: int
    service_ms: float
    service_tail_mult: float = 3.0
    percentile: float = 0.99
    pool_size: Optional[int] = None

    def __post_init__(self):
        if self.servers < 1:
            raise ValueError("need at least one server")
        if self.service_ms <= 0:
            raise ValueError("service time must be positive")
        if not 0.5 <= self.percentile < 1.0:
            raise ValueError("percentile must be in [0.5, 1)")
        if self.service_tail_mult < 1.0:
            raise ValueError("service tail multiplier must be >= 1")
        if self.pool_size is not None and self.pool_size < 1:
            raise ValueError("pool size must be >= 1")

    @property
    def pools(self) -> int:
        if self.pool_size is None:
            return 1
        return max(1, round(self.servers / self.pool_size))

    @property
    def servers_per_pool(self) -> int:
        return max(1, round(self.servers / self.pools))

    def utilization(self, qps: float) -> float:
        """Offered per-server utilization rho."""
        if qps < 0:
            raise ValueError("qps must be non-negative")
        return qps * (self.service_ms / 1000.0) / self.servers

    #: Utilization at which the stable-queue formula is frozen; beyond
    #: it the (formally unstable) regime adds a linear growth term so
    #: tail latency is continuous and strictly increasing in load.
    RHO_CAP = 0.995

    def tail_latency_ms(self, qps: float) -> float:
        """p-th percentile total latency (wait + service) at ``qps``.

        Monotone non-decreasing in ``qps`` by construction: the stable
        M/M/k tail is evaluated at ``min(rho, RHO_CAP)`` and an overload
        term proportional to the excess takes over past the cap, so
        there is no discontinuity at saturation.
        """
        rho = self.utilization(qps)
        service_tail = self.service_tail_mult * self.service_ms
        if rho <= 0:
            return service_tail
        k = self.servers_per_pool
        stable_rho = min(rho, self.RHO_CAP)
        offered = stable_rho * k
        p_wait = erlang_c(k, offered)
        tail_mass = 1.0 - self.percentile
        if p_wait > tail_mass:
            wait = (self.service_ms / (k * (1.0 - stable_rho))
                    * math.log(p_wait / tail_mass))
        else:
            wait = 0.0
        overload_wait = 0.0
        if rho > self.RHO_CAP:
            # Queue grows without bound; latency rises with the excess
            # arrival rate (scaled steeply so overload reads as the
            # ">300%" regime of Fig. 1, monotone in the overload depth).
            overload_wait = (self.service_ms * k * 40.0
                             * (rho - self.RHO_CAP))
        return service_tail + wait + overload_wait

    def saturation_qps(self) -> float:
        """Arrival rate at which rho reaches 1.0."""
        return self.servers / (self.service_ms / 1000.0)


def solve_peak_qps(servers: int, service_ms: float, target_tail_ms: float,
                   service_tail_mult: float = 3.0,
                   percentile: float = 0.99,
                   pool_size: Optional[int] = None,
                   tol: float = 1e-9) -> float:
    """Find the arrival rate at which tail latency reaches the target.

    Self-calibration helper: "peak load" for an LC service is defined
    operationally as the load at which tail latency reaches (a safety
    fraction of) the SLO on the full machine.  Monotone in qps, so
    bisection.
    """
    if target_tail_ms <= 0 or service_ms <= 0:
        raise ValueError("target and service time must be positive")
    model = QueueModel(servers=servers, service_ms=service_ms,
                       service_tail_mult=service_tail_mult,
                       percentile=percentile, pool_size=pool_size)
    if model.tail_latency_ms(0.0) >= target_tail_ms:
        raise ValueError("unloaded tail already exceeds the target; "
                         "lower the unloaded fraction or tail multiplier")
    lo = 0.0
    hi = model.saturation_qps() * 0.999
    if model.tail_latency_ms(hi) < target_tail_ms:
        return hi
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if model.tail_latency_ms(mid) > target_tail_ms:
            hi = mid
        else:
            lo = mid
        if hi - lo < max(tol, 1e-12 * hi):
            break
    return (lo + hi) / 2.0
