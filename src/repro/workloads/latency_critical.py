"""Latency-critical workload models: websearch, ml_cluster, memkeyval.

The paper characterizes three Google production LC services (§3.1); these
models are calibrated against every quantitative statement made there:

* **websearch** — query serving leaf of web search.  99%-ile SLO in the
  tens of milliseconds; high memory footprint (in-DRAM index shards) with
  *moderate* DRAM bandwidth (40% of available at 100% load) because most
  index accesses miss the LLC; a small but significant hot working set of
  instructions and data; fairly compute-intensive (scoring/sorting); low
  network bandwidth.

* **ml_cluster** — real-time text clustering against an in-memory model.
  95%-ile SLO in the tens of milliseconds; *more* memory-bandwidth
  intensive (60% at peak) with super-linear DRAM growth vs load (small
  per-request cache footprints that add up and spill); slightly less
  compute-intensive than websearch; low network.

* **memkeyval** — in-memory key-value store (memcached-like).  99%-ile
  SLO of a few hundred *microseconds*; hundreds of thousands of QPS;
  network-bandwidth-limited at peak; compute-bound despite little work
  per request; low DRAM bandwidth (20% at max); both a static
  instruction working set and a per-request data working set.

Each model self-calibrates its mean service time so that, with the whole
machine at nominal frequency, tail latency reaches ~SLO exactly at peak
load — that is what "peak load" *means* operationally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..hardware.server import TaskTickDemand, TaskUsage
from ..hardware.spec import MachineSpec, default_machine_spec
from ..perf.interference import (InterferenceSensitivity,
                                 network_latency_factor, service_inflation)
from ..perf.queueing import QueueModel, solve_peak_qps
from .base import Allocation, cache_demand_for, split_across_sockets


@dataclass(frozen=True)
class LcWorkloadProfile:
    """Static description of one latency-critical service.

    Latency calibration is three-parameter: ``unloaded_tail_fraction``
    fixes where the latency curve starts (tail/SLO at zero load),
    ``calibration_fraction`` fixes where it ends (tail/SLO at peak load
    on the whole machine), and ``pool_size`` shapes how fast it rises in
    between.  Mean service time and peak QPS are *derived* from these,
    so "peak load" always means "the load at which the full machine
    reaches the SLO" — its operational definition.
    """

    name: str
    slo_latency_ms: float
    slo_percentile: float
    unloaded_tail_fraction: float
    service_tail_mult: float
    pool_size: int
    # Resource demand curves (fractions of machine capacity at peak load).
    dram_frac_at_peak: float
    dram_load_exponent: float
    net_frac_at_peak: float
    net_flows: int
    # Cache behaviour.
    hot_mb: float
    bulk_mb_at_peak: float
    bulk_reuse: float
    hot_access_fraction: float
    # Power behaviour.
    compute_activity: float
    # Interference response.
    sensitivity: InterferenceSensitivity
    # Tail noise (lognormal sigma); memkeyval's microsecond SLO makes its
    # measured tail far noisier (§5.2).
    noise_sigma: float = 0.05
    # Fraction of tail latency hit at peak load during calibration.
    calibration_fraction: float = 0.93

    def validate(self) -> None:
        if self.slo_latency_ms <= 0:
            raise ValueError("SLO must be positive")
        if not 0.0 < self.unloaded_tail_fraction < self.calibration_fraction:
            raise ValueError("unloaded tail fraction must be below the "
                             "calibration fraction")
        if self.pool_size < 1:
            raise ValueError("pool size must be >= 1")
        if not 0.5 <= self.slo_percentile < 1.0:
            raise ValueError("SLO percentile out of range")
        if not 0.0 <= self.dram_frac_at_peak <= 1.0:
            raise ValueError("dram fraction out of range")
        if self.dram_load_exponent < 0.5:
            raise ValueError("dram load exponent too small")
        if not 0.0 <= self.net_frac_at_peak <= 1.0:
            raise ValueError("net fraction out of range")
        self.sensitivity.validate()


class LatencyCriticalWorkload:
    """Executable model of one LC service on a given machine."""

    def __init__(self, profile: LcWorkloadProfile,
                 spec: Optional[MachineSpec] = None):
        profile.validate()
        self.profile = profile
        self.spec = spec or default_machine_spec()
        self.name = profile.name
        # Calibration step 1: the unloaded tail fraction pins the mean
        # service time (unloaded tail = service_tail_mult * service).
        self.base_service_ms = (profile.unloaded_tail_fraction
                                * profile.slo_latency_ms
                                / profile.service_tail_mult)
        # Calibration step 2: peak QPS is the arrival rate at which the
        # whole machine reaches calibration_fraction * SLO — at the
        # frequency the machine *actually* sustains at full load (turbo
        # minus any TDP throttling), found by a short fixed-point
        # iteration between load, activity, and frequency.
        from ..hardware.power import CorePowerRequest, SocketPowerModel
        power_model = SocketPowerModel(self.spec.socket)
        nominal = self.spec.socket.turbo.nominal_ghz
        # Cache inflation the workload experiences *alone* at peak: a
        # working set larger than the LLC costs bulk coverage even with
        # no antagonist (ml_cluster's case), and "peak load" must mean
        # "hits the SLO including that self-inflicted miss cost".
        hot_left_mb = max(0.0, self.spec.total_llc_mb - profile.hot_mb)
        bulk_cov = (min(1.0, hot_left_mb / profile.bulk_mb_at_peak)
                    if profile.bulk_mb_at_peak > 0 else 1.0)
        hot_loss = max(0.0, (profile.hot_mb - self.spec.total_llc_mb)
                       / max(1e-9, profile.hot_mb))
        cache_inflation = (1.0
                           + profile.sensitivity.hot_miss_weight * hot_loss
                           * (0.3 + 0.7 * hot_loss)
                           + profile.sensitivity.bulk_miss_weight
                           * (1.0 - bulk_cov))
        rho_guess = 0.85
        peak = 0.0
        for _ in range(3):
            activity = min(1.0, profile.compute_activity * rho_guess)
            resolution = power_model.resolve([CorePowerRequest(
                task=profile.name, cores=self.spec.socket.cores,
                activity=activity)])
            full_load_freq = resolution.freq_of(profile.name)
            service_at_full = (self.base_service_ms * cache_inflation
                               * (nominal / full_load_freq)
                               ** profile.sensitivity.freq_exponent)
            peak = solve_peak_qps(
                servers=self.spec.total_cores,
                service_ms=service_at_full,
                target_tail_ms=(profile.calibration_fraction
                                * profile.slo_latency_ms),
                service_tail_mult=profile.service_tail_mult,
                percentile=profile.slo_percentile,
                pool_size=profile.pool_size,
            )
            rho_guess = (peak * self.base_service_ms / 1000.0
                         / self.spec.total_cores)
        self.peak_qps = peak
        self.full_load_freq_ghz = full_load_freq
        # Baseline LLC hit fraction when the whole working set is resident.
        self._baseline_hit = (profile.hot_access_fraction
                              + (1.0 - profile.hot_access_fraction)
                              * profile.bulk_reuse)
        # Split the peak DRAM target between always-miss traffic and
        # LLC-miss traffic so that cache deprivation *raises* DRAM use.
        self._dram_peak_gbps = (profile.dram_frac_at_peak
                                * self.spec.total_dram_bw_gbps)
        self._uncached_share = 0.6

    # ------------------------------------------------------------------
    # Demand curves
    # ------------------------------------------------------------------

    def qps_at(self, load: float) -> float:
        return max(0.0, load) * self.peak_qps

    def dram_target_gbps(self, load: float) -> float:
        """Total DRAM bandwidth the service generates at ``load`` when its
        working set is cache-resident (the offline-model ground truth)."""
        load = max(0.0, load)
        return self._dram_peak_gbps * load ** self.profile.dram_load_exponent

    def _access_gbps(self, load: float) -> float:
        """LLC access bandwidth such that misses at baseline coverage
        account for the cached share of the DRAM target."""
        cached = (1.0 - self._uncached_share) * self.dram_target_gbps(load)
        miss_frac = max(1e-3, 1.0 - self._baseline_hit)
        return cached / miss_frac

    def net_demand_gbps(self, load: float) -> float:
        return (self.profile.net_frac_at_peak * self.spec.nic.link_gbps
                * max(0.0, load))

    def bulk_mb(self, load: float) -> float:
        return self.profile.bulk_mb_at_peak * max(0.0, load)

    def offered_rho(self, load: float, cores: int) -> float:
        """Per-core utilization at base service time."""
        if cores <= 0:
            return math.inf
        return (self.qps_at(load) * self.base_service_ms / 1000.0) / cores

    def required_cores(self, load: float,
                       target_fraction: float = 0.90) -> int:
        """Minimum cores at which predicted tail latency stays at or
        below ``target_fraction`` of the SLO — the paper's "enough cores
        to satisfy its SLO at this load" pinning rule (§3.2)."""
        if load <= 0:
            return 1
        target_ms = target_fraction * self.profile.slo_latency_ms
        qps = self.qps_at(load)
        for cores in range(1, self.spec.total_cores + 1):
            model = QueueModel(servers=cores,
                               service_ms=self.base_service_ms,
                               service_tail_mult=self.profile.service_tail_mult,
                               percentile=self.profile.slo_percentile,
                               pool_size=self.profile.pool_size)
            if model.tail_latency_ms(qps) <= target_ms:
                return cores
        return self.spec.total_cores

    # ------------------------------------------------------------------
    # Simulation protocol
    # ------------------------------------------------------------------

    def demand(self, load: float, alloc: Allocation) -> TaskTickDemand:
        """Hardware demand for one tick at ``load`` under ``alloc``."""
        cores = alloc.total_cores
        rho = min(1.0, self.offered_rho(load, cores)) if cores else 0.0
        activity = self.profile.compute_activity * rho
        uncached = self._uncached_share * self.dram_target_gbps(load)
        return TaskTickDemand(
            task=self.name,
            cores_by_socket=dict(alloc.cores_by_socket),
            activity=activity,
            dvfs_cap_ghz=alloc.dvfs_cap_ghz,
            cache_by_socket=cache_demand_for(
                self.name, alloc, self.spec,
                hot_mb=self.profile.hot_mb,
                bulk_mb=self.bulk_mb(load),
                access_gbps=self._access_gbps(load),
                hot_access_fraction=self.profile.hot_access_fraction,
                bulk_reuse=self.profile.bulk_reuse),
            cache_cos=alloc.cache_cos,
            uncached_dram_gbps_by_socket=split_across_sockets(uncached, alloc),
            net_demand_gbps=self.net_demand_gbps(load),
            net_flows=self.profile.net_flows,
            net_ceil_gbps=alloc.net_ceil_gbps,
            ht_share_fraction=alloc.ht_share_fraction,
            dram_throttle=alloc.dram_throttle,
        )

    def tail_latency_ms(self, load: float, usage: TaskUsage,
                        link_utilization: float = 0.0,
                        sched_delay_ms: float = 0.0,
                        rng: Optional[np.random.Generator] = None) -> float:
        """Tail latency given what the server actually granted.

        Args:
            load: offered load fraction of peak.
            usage: resolved hardware state for this task.
            link_utilization: NIC egress utilization (for serialization
                delay even when this task's own demand is satisfied).
            sched_delay_ms: additive CFS tail delay (OS-isolation
                baseline only; zero under Heracles pinning).
            rng: optional noise source.
        """
        cores = usage.cores
        if cores <= 0:
            raise ValueError("LC task has no cores")
        nominal = self.spec.socket.turbo.nominal_ghz
        rho_base = min(1.0, self.offered_rho(load, cores))
        inflation = service_inflation(usage, self.profile.sensitivity,
                                      reference_freq_ghz=nominal,
                                      core_utilization=rho_base)
        service_ms = self.base_service_ms * inflation
        model = QueueModel(servers=cores, service_ms=service_ms,
                           service_tail_mult=self.profile.service_tail_mult,
                           percentile=self.profile.slo_percentile,
                           pool_size=self.profile.pool_size)
        tail = model.tail_latency_ms(self.qps_at(load))
        tail *= network_latency_factor(usage, self.profile.sensitivity,
                                       link_utilization)
        tail += sched_delay_ms
        if rng is not None and self.profile.noise_sigma > 0:
            tail *= float(rng.lognormal(mean=0.0,
                                        sigma=self.profile.noise_sigma))
        return tail

    def slo_fraction(self, tail_ms: float) -> float:
        """Tail latency normalized to the SLO target (Fig. 1's metric)."""
        return tail_ms / self.profile.slo_latency_ms


# ----------------------------------------------------------------------
# The three production workloads
# ----------------------------------------------------------------------

WEBSEARCH = LcWorkloadProfile(
    name="websearch",
    slo_latency_ms=25.0,
    slo_percentile=0.99,
    unloaded_tail_fraction=0.35,
    service_tail_mult=3.0,
    pool_size=6,
    calibration_fraction=0.82,
    dram_frac_at_peak=0.40,
    dram_load_exponent=1.0,
    net_frac_at_peak=0.12,
    net_flows=256,
    hot_mb=24.0,
    bulk_mb_at_peak=160.0,
    bulk_reuse=0.12,
    hot_access_fraction=0.40,
    compute_activity=0.90,
    sensitivity=InterferenceSensitivity(
        freq_exponent=1.0,
        hot_miss_weight=1.6,
        bulk_miss_weight=0.10,
        mem_time_fraction=0.35,
        ht_slowdown=0.12,
        ht_base_fraction=0.50,
        ht_load_exponent=4.0,
        net_tail_gain=4.0,
    ),
    noise_sigma=0.04,
)

ML_CLUSTER = LcWorkloadProfile(
    name="ml_cluster",
    slo_latency_ms=18.0,
    slo_percentile=0.95,
    unloaded_tail_fraction=0.55,
    service_tail_mult=2.4,
    pool_size=6,
    dram_frac_at_peak=0.60,
    dram_load_exponent=1.7,
    net_frac_at_peak=0.06,
    net_flows=128,
    hot_mb=10.0,
    bulk_mb_at_peak=100.0,
    bulk_reuse=0.75,
    hot_access_fraction=0.25,
    compute_activity=0.55,
    sensitivity=InterferenceSensitivity(
        freq_exponent=0.55,
        hot_miss_weight=1.0,
        bulk_miss_weight=0.9,
        mem_time_fraction=0.40,
        ht_slowdown=0.10,
        ht_base_fraction=0.60,
        ht_load_exponent=4.0,
        net_tail_gain=4.0,
    ),
    noise_sigma=0.04,
)

MEMKEYVAL = LcWorkloadProfile(
    name="memkeyval",
    slo_latency_ms=0.30,
    slo_percentile=0.99,
    unloaded_tail_fraction=0.22,
    service_tail_mult=1.6,
    pool_size=4,
    dram_frac_at_peak=0.20,
    dram_load_exponent=1.0,
    net_frac_at_peak=0.88,
    net_flows=320,
    hot_mb=16.0,
    bulk_mb_at_peak=30.0,
    bulk_reuse=0.50,
    hot_access_fraction=0.55,
    compute_activity=0.95,
    sensitivity=InterferenceSensitivity(
        freq_exponent=1.0,
        hot_miss_weight=1.3,
        bulk_miss_weight=0.45,
        mem_time_fraction=0.25,
        ht_slowdown=0.12,
        ht_base_fraction=0.30,
        ht_load_exponent=3.0,
        net_tail_gain=6.0,
    ),
    noise_sigma=0.10,
)

LC_PROFILES: Dict[str, LcWorkloadProfile] = {
    p.name: p for p in (WEBSEARCH, ML_CLUSTER, MEMKEYVAL)
}


def make_lc_workload(name: str,
                     spec: Optional[MachineSpec] = None) -> LatencyCriticalWorkload:
    """Factory: build one of the paper's LC workloads by name."""
    try:
        profile = LC_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown LC workload {name!r}; "
                       f"choose from {sorted(LC_PROFILES)}") from None
    return LatencyCriticalWorkload(profile, spec)
