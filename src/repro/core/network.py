"""Network subcontroller — Algorithm 4 of the paper.

Prevents saturation of transmit bandwidth::

    while True:
        ls_bw = GetLCTxBandwidth()
        be_bw = LINK_RATE - ls_bw - max(0.05 * LINK_RATE, 0.10 * ls_bw)
        SetBETxBandwidth(be_bw)
        sleep(1)

A headroom of 10% of the current LC bandwidth or 5% of the link rate
(whichever is larger) is reserved for the LC workload to absorb spikes;
the remainder is offered to BE flows via the HTB ``ceil``.  The LC class
itself is never limited.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hardware.counters import CounterBank
from ..sim.actuators import Actuators
from .config import HeraclesConfig


def be_net_budget_gbps(link_gbps, lc_bw_gbps, config: HeraclesConfig):
    """The Algorithm 4 BE transmit budget, for scalars or member arrays
    (may be negative; HTB clamps to 0)."""
    headroom = np.maximum(config.net_link_headroom * link_gbps,
                          config.net_lc_headroom * lc_bw_gbps)
    return (link_gbps - lc_bw_gbps) - headroom


class NetworkController:
    """Algorithm 4: egress bandwidth partitioning via HTB."""

    def __init__(self, config: HeraclesConfig, actuators: Actuators,
                 counters: CounterBank, lc_task: str):
        config.validate()
        self.config = config
        self.actuators = actuators
        self.counters = counters
        self.lc_task = lc_task
        self._last_step_s: Optional[float] = None

    def due(self, now_s: float) -> bool:
        return (self._last_step_s is None
                or now_s - self._last_step_s >= self.config.network_period_s)

    def be_budget_gbps(self, lc_bw_gbps: float) -> float:
        """The Algorithm 4 formula (may be negative; HTB clamps to 0)."""
        return float(be_net_budget_gbps(self.counters.link_rate_gbps(),
                                        lc_bw_gbps, self.config))

    def step(self, now_s: float) -> None:
        if not self.due(now_s):
            return
        self._last_step_s = now_s
        lc_bw = self.counters.tx_gbps_of(self.lc_task)
        self.actuators.set_be_net_ceil(max(0.0, self.be_budget_gbps(lc_bw)))
