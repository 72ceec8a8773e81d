"""Composition of shared-resource contention into latency effects.

This is where a task's resolved hardware state (:class:`TaskUsage`) turns
into the two quantities performance models consume:

* a **service-time inflation factor** — frequency loss, cache misses,
  DRAM queueing, and HyperThread contention all make each request take
  longer to process; and
* a **network latency factor** — when egress bandwidth is unsatisfied,
  responses queue behind the link.

Each LC workload carries an :class:`InterferenceSensitivity` describing
how much it cares about each resource; the paper's §3.3 establishes that
these sensitivities are non-uniform and workload-dependent (memkeyval is
network- and power-sensitive, websearch is DRAM-sensitive, ...), which
is the whole reason static partitioning loses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.server import TaskUsage


@dataclass(frozen=True)
class InterferenceSensitivity:
    """How one workload's request service time responds to contention.

    All weights are calibrated so that a task running alone with ample
    resources has every factor equal to 1.0.

    Attributes:
        freq_exponent: service time scales as (f_ref / f) ** exponent;
            1.0 for compute-bound code, lower when memory-bound phases
            hide frequency loss.
        hot_miss_weight: inflation per unit of lost *hot* working-set
            coverage (instructions + hot data — expensive to lose).
        bulk_miss_weight: inflation per unit of lost bulk coverage.
        mem_time_fraction: fraction of service time spent waiting on
            DRAM; scales the memory access-delay factor into service
            inflation.
        ht_slowdown: service inflation when the sibling HyperThread runs
            a foreign task and the core is fully busy.  SMT halves many
            core resources, so values near 1.0 (2x service time) are
            realistic for issue-bound code.
        ht_base_fraction: fraction of the HT penalty that applies even
            at low utilization (fetch/decode sharing is always on); the
            remainder scales with the task's own per-core utilization.
        ht_load_exponent: how steeply the load-dependent part of the HT
            penalty grows with utilization.
        net_tail_gain: latency blowup scale once egress is unsatisfied.
    """

    freq_exponent: float = 1.0
    hot_miss_weight: float = 1.0
    bulk_miss_weight: float = 0.3
    mem_time_fraction: float = 0.2
    ht_slowdown: float = 1.0
    ht_base_fraction: float = 0.7
    ht_load_exponent: float = 3.0
    net_tail_gain: float = 4.0

    def validate(self) -> None:
        if not 0.0 <= self.freq_exponent <= 2.0:
            raise ValueError("freq_exponent out of range")
        if self.hot_miss_weight < 0 or self.bulk_miss_weight < 0:
            raise ValueError("miss weights must be non-negative")
        if not 0.0 <= self.mem_time_fraction <= 1.0:
            raise ValueError("mem_time_fraction must be in [0, 1]")
        if self.ht_slowdown < 0 or self.net_tail_gain < 0:
            raise ValueError("slowdown/gain must be non-negative")
        if not 0.0 <= self.ht_base_fraction <= 1.0:
            raise ValueError("ht_base_fraction must be in [0, 1]")


def service_inflation(usage: TaskUsage,
                      sensitivity: InterferenceSensitivity,
                      reference_freq_ghz: float,
                      core_utilization: float) -> float:
    """Multiplier on mean request service time due to contention.

    Args:
        usage: resolved hardware state for this task this tick.
        sensitivity: the workload's interference profile.
        reference_freq_ghz: frequency the workload was calibrated at
            (nominal); running above it (Turbo) *shrinks* service time.
        core_utilization: the task's own per-core utilization (rho),
            needed because HT contention only matters on busy pipelines.

    Returns:
        Factor >= some small positive value; 1.0 means "as calibrated".
    """
    sensitivity.validate()
    if usage.freq_ghz <= 0:
        raise ValueError("frequency must be positive")
    rho = min(1.0, max(0.0, core_utilization))

    freq_factor = (reference_freq_ghz / usage.freq_ghz) ** sensitivity.freq_exponent

    # Hot-set loss is convex: the most-reused lines (inner-loop
    # instructions, root index nodes) are the last evicted and the most
    # expensive to lose, so shaving the first slice of the hot set is
    # mild while deep eviction is brutal.  Bulk loss stays linear.
    hot_loss = 1.0 - usage.hot_coverage
    cache_factor = (1.0
                    + sensitivity.hot_miss_weight * hot_loss
                    * (0.3 + 0.7 * hot_loss)
                    + sensitivity.bulk_miss_weight * (1.0 - usage.bulk_coverage))

    mem_factor = 1.0 + sensitivity.mem_time_fraction * (usage.mem_delay_factor - 1.0)

    ht_shape = (sensitivity.ht_base_fraction
                + (1.0 - sensitivity.ht_base_fraction)
                * rho ** sensitivity.ht_load_exponent)
    ht_factor = 1.0 + (sensitivity.ht_slowdown * usage.ht_share_fraction
                       * ht_shape)

    return freq_factor * cache_factor * mem_factor * ht_factor


def network_latency_factor(usage: TaskUsage,
                           sensitivity: InterferenceSensitivity,
                           link_utilization: float) -> float:
    """Latency multiplier from egress-bandwidth contention.

    Only *unsatisfied demand* matters: a task whose offered egress load
    is fully delivered sees no response queueing, no matter how busy the
    link is (this is why websearch and ml_cluster, with their low
    bandwidth needs, are untouched by the network antagonist in Fig. 1).
    Once achieved bandwidth falls below offered load, responses queue
    behind the NIC and TCP backoff compounds the damage; the quadratic
    term makes the transition knee-then-cliff, matching memkeyval's jump
    from fine to ">300%" within one load step.

    ``link_utilization`` is accepted for API completeness and future
    serialization-delay modelling; per the above it does not contribute.
    """
    del link_utilization
    if usage.net_demand_gbps <= 0:
        return 1.0
    shortfall = 1.0 - usage.net_satisfaction
    if shortfall <= 1e-9:
        return 1.0
    ratio = 1.0 / max(1e-3, usage.net_satisfaction)
    factor = (1.0 + sensitivity.net_tail_gain * (ratio - 1.0)
              + 25.0 * (ratio - 1.0) ** 2)
    return min(factor, 60.0)


def be_throughput_efficiency(usage: TaskUsage,
                             reference_freq_ghz: float,
                             mem_bound_fraction: float = 0.3,
                             cache_benefit: float = 0.3) -> float:
    """Per-core efficiency of a best-effort task relative to calibration.

    BE throughput = cores x frequency-scaling x memory/cache efficiency.
    A BE task starved of DRAM bandwidth or cache runs its cores at lower
    IPC; one capped by DVFS runs them slower outright.

    Args:
        usage: resolved hardware state.
        reference_freq_ghz: frequency at which "1.0 efficiency" holds.
        mem_bound_fraction: fraction of BE runtime stalled on memory.
        cache_benefit: throughput uplift available from full LLC coverage.

    Returns:
        Efficiency in (0, ~1.3] per core relative to calibration.
    """
    if usage.freq_ghz <= 0:
        raise ValueError("frequency must be positive")
    freq_scale = usage.freq_ghz / reference_freq_ghz
    # Achieved/demanded DRAM bandwidth throttles memory-bound progress.
    # (Bandwidth starvation is the throughput effect; queueing *delay*
    # additionally hurts latency but its throughput cost is already
    # captured by the achieved-bandwidth ratio.)
    if usage.dram_demand_gbps > 1e-9:
        mem_satisfaction = min(1.0, usage.dram_achieved_gbps / usage.dram_demand_gbps)
    else:
        mem_satisfaction = 1.0
    mem_scale = (1.0 - mem_bound_fraction) + mem_bound_fraction * mem_satisfaction
    cache_scale = 1.0 + cache_benefit * (usage.cache_hit_fraction - 1.0)
    ht_scale = 1.0 - 0.25 * usage.ht_share_fraction
    return max(1e-3, freq_scale * mem_scale * cache_scale * ht_scale)
