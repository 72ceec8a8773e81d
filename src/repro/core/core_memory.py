"""Core & memory subcontroller — Algorithm 2 of the paper.

One subcontroller manages both cores and cache "due to the strong
coupling between core count, LLC needs, and memory bandwidth needs"
(§4.3).  Its hard constraint is DRAM bandwidth: whenever measured
traffic exceeds ``DRAM_LIMIT`` (90% of peak), it removes BE cores
immediately.  Otherwise, when the top level allows growth, it runs a
one-dimension-at-a-time gradient descent over (BE cores, BE LLC ways):

* ``GROW_LLC`` — grow the BE cache partition while the *predicted* total
  bandwidth (offline LC model + measured BE traffic + derivative) stays
  under the limit, the measured bandwidth actually decreases (more cache
  should mean fewer misses — if not, roll back), and the BE task
  benefits.
* ``GROW_CORES`` — predict the bandwidth of one more BE core; if it fits
  and latency slack is above 10%, move one core from LC to BE.

Offline analysis (Fig. 3) shows LC performance is convex in cores x
cache, so this per-dimension descent converges to the global optimum,
typically in ~30 seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..hardware.counters import CounterBank
from ..sim.monitors import LatencyMonitor
from ..sim.actuators import Actuators
from .config import HeraclesConfig
from .dram_model import LcDramBandwidthModel
from .state import ControlState, GrowthPhase

# This repo's Algorithm-2 constants (the paper's are HeraclesConfig's),
# and the formulas over scalars or member arrays that both this module's
# controller and the vector one in repro.sim.batch evaluate.

#: LC core floor = ceil(load x cores x margin) + spare.  Near the
#: minimum viable core count LC tail latency is flat up to a one-step
#: queueing cliff no slack gradient can predict, so the LC workload
#: keeps 8% more cores than its load needs, plus one.
LC_FLOOR_MARGIN = 1.08
LC_FLOOR_SPARE_CORES = 1
#: Per-step decay of the slack cost last observed for a core or cache
#: grant: a drop seen during an unrelated transient (load spike, noise
#: burst) must not freeze growth permanently.
SLACK_DROP_DECAY = 0.8
#: Latency-vs-cores is convex (Fig. 3) and steepens super-linearly near
#: saturation, so the next grant is assumed to cost up to this many
#: times the slack the last one did.
PRE_VIOLATION_FACTOR = 3.0
#: Floor on BE traffic per core (GB/s), so a near-idle BE task still
#: predicts some bandwidth for one more core.
BE_BW_PER_CORE_FLOOR_GBPS = 0.1


def be_core_budget(load, total_cores):
    """Maximum BE cores left above the load-proportional LC floor."""
    lc_floor = (np.ceil(load * total_cores * LC_FLOOR_MARGIN)
                + LC_FLOOR_SPARE_CORES)
    return np.maximum(0, total_cores - lc_floor)


def be_bw_per_core_gbps(be_dram_gbps, be_cores):
    """BeBwPerCore(): BE traffic over its cores; 1.0 (a conservative
    non-zero divisor) while BE holds no core."""
    per_core = np.maximum(BE_BW_PER_CORE_FLOOR_GBPS,
                          be_dram_gbps / np.maximum(be_cores, 1))
    return np.where(be_cores > 0, per_core, 1.0)


def overage_cores(bw_gbps, limit_gbps, per_core_gbps):
    """BE cores to remove so traffic drops back under the DRAM limit."""
    return np.maximum(1, np.ceil((bw_gbps - limit_gbps) / per_core_gbps))


def growth_threshold(config: HeraclesConfig) -> float:
    """Slack a BE grant needs: the no-growth band plus the guard band."""
    return config.slack_no_growth + config.growth_guard


def pre_violation(slack, slack_drop, config: HeraclesConfig):
    """Whether one more grant is predicted to land in the red band."""
    return (slack - PRE_VIOLATION_FACTOR * slack_drop
            <= config.slack_cut_cores)


@dataclass
class _PendingLlcCheck:
    """Bookkeeping for the grow-then-measure-then-maybe-rollback step."""

    previous_ways: int
    bw_before_gbps: float
    be_throughput_before: float
    slack_before: float


class CoreMemoryController:
    """Algorithm 2: DRAM-bandwidth-guarded gradient descent."""

    def __init__(self, config: HeraclesConfig, state: ControlState,
                 actuators: Actuators, counters: CounterBank,
                 dram_model: LcDramBandwidthModel,
                 lc_task: str, be_task: str,
                 be_throughput_fn: Callable[[], float],
                 monitor: Optional["LatencyMonitor"] = None,
                 slo_target_ms: Optional[float] = None):
        config.validate()
        self.config = config
        self.state = state
        self.actuators = actuators
        self.counters = counters
        self.dram_model = dram_model
        self.lc_task = lc_task
        self.be_task = be_task
        self.be_throughput_fn = be_throughput_fn
        # "Heracles will reassign cores one at a time, each time checking
        # for DRAM bandwidth saturation and SLO violations" (§4.3): the
        # 2-second growth loop refreshes latency slack itself instead of
        # trusting the 15-second-old top-level value.
        self.monitor = monitor
        self.slo_target_ms = slo_target_ms
        self._last_step_s: Optional[float] = None
        self._last_bw_gbps: Optional[float] = None
        self._bw_derivative: float = 0.0
        self._pending: Optional[_PendingLlcCheck] = None
        self._now_s: float = 0.0
        # Slack trajectory for the pre-violation estimate (§4.3: "the
        # subcontroller must avoid trying suboptimal allocations that
        # will either trigger DRAM bandwidth saturation or a signal from
        # the top-level controller to disable BE tasks ... Heracles
        # estimates whether it is close to an SLO violation for the LC
        # task based on the amount of latency slack").
        self._slack_before_grant: Optional[float] = None
        self._last_slack_drop: float = 0.0
        self._llc_slack_drop: float = 0.0

    # ------------------------------------------------------------------
    # Measurements and estimates
    # ------------------------------------------------------------------

    @property
    def dram_limit_gbps(self) -> float:
        """DRAM_LIMIT: 90% of one socket's peak streaming bandwidth.

        Saturation is per memory controller, and Heracles packs BE tasks
        onto a single socket (§4.3), so the binding constraint is the
        busiest socket, not the machine-wide sum.
        """
        return (self.config.dram_limit_fraction
                * self.counters.socket_dram_capacity_gbps())

    def measure_dram_bw(self) -> float:
        """MeasureDRAMBw(): busiest-socket traffic + derivative."""
        bw = self.counters.worst_socket_dram_bw_gbps()
        if self._last_bw_gbps is not None:
            self._bw_derivative = bw - self._last_bw_gbps
        self._last_bw_gbps = bw
        return bw

    def lc_bw_model_gbps(self) -> float:
        """LcBwModel(): offline model at current load and LC LLC ways,
        scaled to the LC traffic landing on the BE socket (the LC
        workload spreads its traffic across all sockets)."""
        total = self.dram_model.predict_gbps(self.state.load,
                                             self.actuators.lc_llc_ways)
        sockets = self.actuators.spec.sockets
        return total / max(1, sockets)

    def be_bw_gbps(self) -> float:
        """BeBw(): BE traffic landing on one socket's controllers.

        BE copies are spread one per socket, so each socket sees an even
        share of the total BE traffic (NUMA-local counter estimate)."""
        total = self.counters.dram_bw_of(self.be_task)
        return total / max(1, self.actuators.spec.sockets)

    def be_bw_per_core_gbps(self) -> float:
        """BeBwPerCore() from the machine-wide per-task counter (adding
        one core to a socket adds one core's worth of traffic there)."""
        return float(be_bw_per_core_gbps(
            self.counters.dram_bw_of(self.be_task), self.actuators.be_cores))

    def predicted_total_bw_gbps(self) -> float:
        """PredictedTotalBW() = LcBwModel() + BeBw() + bw_derivative."""
        return self.lc_bw_model_gbps() + self.be_bw_gbps() + self._bw_derivative

    def be_core_budget(self) -> int:
        """Maximum BE cores permitted by the load-proportional LC floor
        (see ``LC_FLOOR_MARGIN``), at the load Algorithm 1 polled."""
        return int(be_core_budget(self.state.load,
                                  self.actuators.spec.total_cores))

    def current_slack(self) -> float:
        """Freshest latency slack available to the 2-second loop.

        Uses the short-window latency estimate when a monitor is wired
        in; otherwise falls back to the top-level's 15-second value.
        """
        if self.monitor is not None and self.slo_target_ms is not None:
            latency = self.monitor.recent_latency_ms(
                self._now_s, span_s=self.config.core_mem_period_s)
            if latency is not None:
                return (self.slo_target_ms - latency) / self.slo_target_ms
        return self.state.slack

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------

    def due(self, now_s: float) -> bool:
        return (self._last_step_s is None
                or now_s - self._last_step_s >= self.config.core_mem_period_s)

    def step(self, now_s: float) -> None:
        if not self.due(now_s):
            return
        total_bw = self._start_step(now_s)
        if self._shed_dram_overage(total_bw) or self._shed_core_budget():
            return
        self._settle_llc_check()
        self._grow(now_s)

    def _start_step(self, now_s: float) -> float:
        self._last_step_s = now_s
        self._now_s = now_s
        return self.measure_dram_bw()

    def _shed_dram_overage(self, total_bw: float) -> bool:
        """Hard constraint: never saturate DRAM."""
        if not (total_bw > self.dram_limit_gbps
                and self.actuators.be_cores > 0):
            return False
        self._on_dram_overage(total_bw)
        self._pending = None
        return True

    def _on_dram_overage(self, total_bw: float) -> None:
        """Hook: traffic is over the limit; the 2015 response removes
        enough BE cores to drop back under it."""
        self.actuators.remove_be_cores(int(overage_cores(
            total_bw, self.dram_limit_gbps, self.be_bw_per_core_gbps())))

    def _shed_core_budget(self) -> bool:
        """Hard constraint: rising load reclaims LC cores immediately,
        without waiting for latency slack to collapse first."""
        over_budget = self.actuators.be_cores - self.be_core_budget()
        if over_budget <= 0:
            return False
        self.actuators.remove_be_cores(over_budget)
        self._pending = None
        return True

    def _settle_llc_check(self) -> None:
        """Complete a pending grow-LLC check, or else decay the stale
        slack-cost estimates so the descent re-probes."""
        if self._pending is not None:
            self._finish_llc_check()
        else:
            self._last_slack_drop *= SLACK_DROP_DECAY
            self._llc_slack_drop *= SLACK_DROP_DECAY

    def _grow(self, now_s: float) -> None:
        if not self.state.can_grow_be(now_s, self.actuators.be_enabled):
            return
        if self.state.phase is GrowthPhase.GROW_LLC:
            self._grow_llc_step()
        else:
            self._grow_cores_step()

    def _grow_llc_step(self) -> None:
        slack = min(self.state.slack, self.current_slack())
        if slack < growth_threshold(self.config):
            return
        # Pre-violation estimate, as for cores: don't try a cache size
        # predicted to squeeze the LC workload into the red band.
        if pre_violation(slack, self._llc_slack_drop, self.config):
            self.state.phase = GrowthPhase.GROW_CORES
            return
        if self.predicted_total_bw_gbps() > self.dram_limit_gbps:
            self.state.phase = GrowthPhase.GROW_CORES
            return
        previous = self.actuators.be_llc_ways
        if not self.actuators.grow_be_llc(1):
            self.state.phase = GrowthPhase.GROW_CORES
            return
        self._pending = _PendingLlcCheck(
            previous_ways=previous,
            bw_before_gbps=self._last_bw_gbps or 0.0,
            be_throughput_before=self.be_throughput_fn(),
            slack_before=slack,
        )

    def _finish_llc_check(self) -> None:
        """After a cache grant: verify bandwidth fell, the LC workload
        kept its slack, and the BE task benefited; otherwise roll back."""
        pending, self._pending = self._pending, None
        slack_now = self.current_slack()
        self._llc_slack_drop = max(0.0, pending.slack_before - slack_now)
        # Latency check: the grant stole cache the LC workload needed.
        if slack_now < self.config.slack_no_growth:
            self.actuators.set_llc_split(pending.previous_ways)
            self.state.phase = GrowthPhase.GROW_CORES
            return
        # bw_derivative >= 0: growing the BE cache did not reduce traffic
        # (the BE task does not fit or does not reuse) -> roll back.
        if self._bw_derivative >= 0:
            self.actuators.set_llc_split(pending.previous_ways)
            self.state.phase = GrowthPhase.GROW_CORES
            return
        # BeBenefit(): did BE throughput improve measurably?
        gain = self.be_throughput_fn() - pending.be_throughput_before
        if gain <= self.config.be_benefit_epsilon * max(
                1e-9, pending.be_throughput_before):
            self.state.phase = GrowthPhase.GROW_CORES

    def _grow_cores_step(self) -> None:
        needed = (self.lc_bw_model_gbps() + self.be_bw_gbps()
                  + self.be_bw_per_core_gbps())
        if needed > self.dram_limit_gbps:
            self._on_core_growth_dram_blocked()
            return
        self._try_grant_core()

    def _on_core_growth_dram_blocked(self) -> None:
        """Hook: core growth refused because bandwidth would saturate.

        The base controller (2015 hardware) can only fall back to
        growing the cache; the MBA variant overrides this to tighten the
        BE bandwidth throttle instead."""
        self.state.phase = GrowthPhase.GROW_LLC

    def _try_grant_core(self) -> None:
        """Slack-gated, budget-gated single-core grant."""
        slack = min(self.state.slack, self.current_slack())
        # Update the per-core slack cost observed from the last grant.
        if self._slack_before_grant is not None:
            self._last_slack_drop = max(
                0.0, self._slack_before_grant - self.current_slack())
            self._slack_before_grant = None
        if slack <= growth_threshold(self.config):
            return
        if self.be_core_budget() - self.actuators.be_cores <= 0:
            # Cores exhausted by the LC floor: hand the round to the
            # cache dimension ("switching between increasing the cores
            # and increasing the cache", §4.3).
            self.state.phase = GrowthPhase.GROW_LLC
            return
        # Pre-violation estimate (see PRE_VIOLATION_FACTOR): do not try
        # an allocation predicted to land inside the red band.
        if pre_violation(slack, self._last_slack_drop, self.config):
            return
        if self.actuators.add_be_core():
            self._slack_before_grant = self.current_slack()
