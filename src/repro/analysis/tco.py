"""Total cost of ownership model (§5.3).

Reimplements the TCO arithmetic of the paper's case study, which uses
the calculator of Barroso et al. with the low-per-server-cost
parameters: $2000 servers, PUE of 2.0, peak server power of 500 W,
electricity at $0.10/kWh, and a 10,000-server cluster.  Facility
capital expenses are provisioned per watt of peak power (the dominant
fixed cost in that model), which is why raising utilization is so much
more valuable than shaving power: the building and the servers are paid
for whether or not they do work.

The paper's headline numbers, reproduced by this module:

* a cluster at 75% average utilization raised to 90% by Heracles gains
  ~15% throughput/TCO;
* a cluster at 20% raised to 90% gains ~306%;
* an energy-proportionality controller alone gains ~3% and ~7%
  respectively.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TcoParameters:
    """Inputs to the datacenter cost model."""

    server_cost_usd: float = 2000.0
    facility_capex_per_watt: float = 10.0
    server_peak_watts: float = 500.0
    idle_power_fraction: float = 0.50  # idle power / peak power
    pue: float = 2.0
    electricity_usd_per_kwh: float = 0.10
    amortization_years: float = 3.0

    def validate(self) -> None:
        if min(self.server_cost_usd, self.server_peak_watts,
               self.electricity_usd_per_kwh, self.amortization_years) <= 0:
            raise ValueError("cost-model parameters must be positive")
        if not 0.0 <= self.idle_power_fraction < 1.0:
            raise ValueError("idle fraction must be in [0, 1)")
        if self.pue < 1.0:
            raise ValueError("PUE cannot be below 1.0")
        if self.facility_capex_per_watt < 0:
            raise ValueError("facility capex cannot be negative")


class TcoModel:
    """Throughput/TCO arithmetic for one cluster."""

    def __init__(self, params: TcoParameters = TcoParameters()):
        params.validate()
        self.params = params

    # ------------------------------------------------------------------

    def server_power_watts(self, utilization: float) -> float:
        """Wall power of one server at a given utilization (linear
        idle-to-peak model)."""
        if not 0.0 <= utilization <= 1.2:
            raise ValueError("utilization out of modeled range")
        p = self.params
        idle = p.idle_power_fraction * p.server_peak_watts
        span = p.server_peak_watts - idle
        return idle + span * min(1.0, utilization)

    def energy_cost_usd(self, watts: float) -> float:
        """Electricity cost of a constant load over the amortization
        period, including PUE overhead."""
        p = self.params
        hours = p.amortization_years * 365.0 * 24.0
        return watts * p.pue / 1000.0 * hours * p.electricity_usd_per_kwh

    def tco_per_server_usd(self, utilization: float) -> float:
        """Capex (server + facility provisioning) + energy over the
        amortization period."""
        p = self.params
        capex = (p.server_cost_usd
                 + p.facility_capex_per_watt * p.server_peak_watts)
        return capex + self.energy_cost_usd(
            self.server_power_watts(utilization))

    # ------------------------------------------------------------------

    def throughput_per_tco_gain(self, baseline_utilization: float,
                                heracles_utilization: float) -> float:
        """Relative throughput/TCO improvement from raising utilization.

        "This improvement includes the cost of the additional power
        consumption at higher utilization" (§5.3).
        """
        if baseline_utilization <= 0:
            raise ValueError("baseline utilization must be positive")
        base = baseline_utilization / self.tco_per_server_usd(
            baseline_utilization)
        new = heracles_utilization / self.tco_per_server_usd(
            heracles_utilization)
        return new / base - 1.0

    def harvest_gain(self, lc_utilization: float,
                     harvested_utilization: float) -> float:
        """Throughput/TCO gain from scheduler-harvested BE utilization.

        The fleet scheduler's feed into the cost model: a cluster
        whose LC work alone keeps servers at ``lc_utilization`` and
        whose scheduled best-effort jobs add ``harvested_utilization``
        (credited BE core-hours over total core-hours) is compared
        against the LC-only cluster, power cost of the extra
        utilization included — the §5.3 argument, with the harvested
        fraction measured instead of assumed.
        """
        if harvested_utilization < 0:
            raise ValueError("harvested utilization cannot be negative")
        return self.throughput_per_tco_gain(
            lc_utilization, lc_utilization + harvested_utilization)

    def energy_proportionality_gain(self, utilization: float,
                                    idle_savings_fraction: float = 0.5
                                    ) -> float:
        """Throughput/TCO gain from an energy-proportionality controller
        (PEGASUS-like) that recovers a fraction of the idle-power waste
        at the same utilization — the paper's comparison point.
        """
        if not 0.0 <= idle_savings_fraction <= 1.0:
            raise ValueError("savings fraction must be in [0, 1]")
        actual = self.server_power_watts(utilization)
        proportional = utilization * self.params.server_peak_watts
        saved_watts = idle_savings_fraction * max(0.0, actual - proportional)
        base_tco = self.tco_per_server_usd(utilization)
        new_tco = base_tco - self.energy_cost_usd(saved_watts)
        return base_tco / new_tco - 1.0
