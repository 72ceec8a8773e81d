"""Configuration constants of the Heracles controller.

Most numbers here come from §4.3 of the paper ("The constants used here
were determined through empirical tuning"):

* top-level poll period 15 s (enough queries for a meaningful tail);
* BE execution disabled above 85% load, re-enabled below 80% (hysteresis);
* a cooldown (~5 minutes) after an SLO violation before retrying
  colocation;
* slack bands: growth disallowed below 10% slack, BE cores cut to at
  most 2 below 5% slack;
* DRAM limit at 90% of peak streaming bandwidth;
* power action threshold at 90% of TDP;
* subcontroller periods: cores & memory 2 s, power 2 s, network 1 s;
* network headroom max(5% of link, 10% of LC bandwidth).

This repo adds ``growth_guard`` (its reading of §5.2's guard band) and
``be_benefit_epsilon`` (the gain that counts as BeBenefit()).  Its other
Algorithm-2 numbers are named constants of :mod:`repro.core.core_memory`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HeraclesConfig:
    """All tunables of the controller, defaulting to the paper's values."""

    # Top-level controller (Algorithm 1).
    poll_period_s: float = 15.0
    load_disable_threshold: float = 0.85
    load_enable_threshold: float = 0.80
    cooldown_s: float = 300.0
    slack_no_growth: float = 0.10
    slack_cut_cores: float = 0.05
    be_cores_floor: int = 2  # "be_cores.Remove(be_cores.Size()-2)"

    # Core & memory subcontroller (Algorithm 2).
    core_mem_period_s: float = 2.0
    dram_limit_fraction: float = 0.90
    be_benefit_epsilon: float = 0.01  # min relative gain to count as benefit
    # Extra slack required before *growing* BE, on top of the no-growth
    # band: "Heracles maintains a small latency slack as a guard band to
    # avoid spikes and control instability" (§5.2).  Growth stops at
    # slack_no_growth + growth_guard so that measurement noise around
    # the equilibrium cannot push the tail across the SLO.
    growth_guard: float = 0.15

    # Power subcontroller (Algorithm 3).
    power_period_s: float = 2.0
    power_tdp_threshold: float = 0.90

    # Network subcontroller (Algorithm 4).
    network_period_s: float = 1.0
    net_link_headroom: float = 0.05
    net_lc_headroom: float = 0.10

    def validate(self) -> None:
        if self.poll_period_s <= 0:
            raise ValueError("poll period must be positive")
        if not (0.0 < self.load_enable_threshold
                <= self.load_disable_threshold <= 1.0):
            raise ValueError("need 0 < enable <= disable <= 1 for load "
                             "hysteresis")
        if self.cooldown_s < 0:
            raise ValueError("cooldown cannot be negative")
        if not (0.0 <= self.slack_cut_cores
                <= self.slack_no_growth <= 1.0):
            raise ValueError("slack bands must satisfy 0 <= cut <= "
                             "no-growth <= 1")
        if self.be_cores_floor < 0:
            raise ValueError("BE core floor cannot be negative")
        if self.growth_guard < 0:
            raise ValueError("growth guard cannot be negative")
        if not 0.0 < self.dram_limit_fraction <= 1.0:
            raise ValueError("DRAM limit must be a fraction of peak")
        if not 0.0 < self.power_tdp_threshold <= 1.0:
            raise ValueError("power threshold must be a fraction of TDP")
        for period in (self.core_mem_period_s, self.power_period_s,
                       self.network_period_s):
            if period <= 0:
                raise ValueError("subcontroller periods must be positive")
        if self.net_link_headroom < 0 or self.net_lc_headroom < 0:
            raise ValueError("network headroom must be non-negative")
