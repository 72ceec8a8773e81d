"""Top-level Heracles controller — Algorithm 1 of the paper.

Polls the LC application's tail latency and load every 15 seconds and
digests them into coarse signals::

    while True:
        latency = PollLCAppLatency()
        load = PollLCAppLoad()
        slack = (target - latency) / target
        if slack < 0:
            DisableBE(); EnterCooldown()
        elif load > 0.85:
            DisableBE()
        elif load < 0.80:
            EnableBE()
        elif slack < 0.10:
            DisallowBEGrowth()
            if slack < 0.05:
                be_cores.Remove(be_cores.Size() - 2)
        sleep(15)

Faithfulness note: in the pseudo-code the slack guards live on the
``elif`` chain and therefore only execute when load sits inside the
[80%, 85%] hysteresis band.  Read literally, a colocation running at 60%
load with 6% slack would keep growing until it violates.  We interpret
the slack guards as applying whenever BE execution is (or has just been)
enabled — the reading consistent with the paper's results (no violations
at any load) and with the stated intent that "if slack is less than 10%,
the subcontrollers are instructed to disallow growth ... If slack drops
below 5%, the subcontroller for cores is instructed to switch cores from
BE tasks to the LC workload" (§4.3, unconditional on load).
"""

from __future__ import annotations

from typing import Optional

from ..sim.actuators import Actuators
from ..sim.monitors import LatencyMonitor
from .config import HeraclesConfig
from .state import ControlState


class TopLevelController:
    """Algorithm 1: slack/load state machine."""

    def __init__(self, config: HeraclesConfig, state: ControlState,
                 actuators: Actuators, monitor: LatencyMonitor,
                 slo_target_ms: float):
        config.validate()
        if slo_target_ms <= 0:
            raise ValueError("SLO target must be positive")
        self.config = config
        self.state = state
        self.actuators = actuators
        self.monitor = monitor
        self.slo_target_ms = slo_target_ms
        self._last_poll_s: Optional[float] = None

    def due(self, now_s: float) -> bool:
        return (self._last_poll_s is None
                or now_s - self._last_poll_s >= self.config.poll_period_s)

    def step(self, now_s: float) -> None:
        if not self.due(now_s):
            return
        self._last_poll_s = now_s

        latency = self.monitor.poll_latency_ms(now_s)
        load = self.monitor.poll_load(now_s)
        if latency is None or load is None:
            return  # not enough samples yet

        slack = (self.slo_target_ms - latency) / self.slo_target_ms
        self.state.slack = slack
        self.state.load = load
        self.state.last_latency_ms = latency

        cfg = self.config
        if slack < 0:
            self._disable_be()
            self.state.enter_cooldown(now_s, cfg.cooldown_s)
            return
        if load > cfg.load_disable_threshold:
            self._disable_be()
            return
        if load < cfg.load_enable_threshold:
            if not self.state.in_cooldown(now_s):
                self.actuators.enable_be()
        # Slack guards (see faithfulness note in the module docstring).
        if slack < cfg.slack_no_growth:
            self.state.growth_allowed = False
            if slack < cfg.slack_cut_cores and self.actuators.be_enabled:
                excess = self.actuators.be_cores - cfg.be_cores_floor
                if excess > 0:
                    self.actuators.remove_be_cores(excess)
        else:
            self.state.growth_allowed = True

    def _disable_be(self) -> None:
        self.actuators.disable_be()
        self.state.growth_allowed = False
