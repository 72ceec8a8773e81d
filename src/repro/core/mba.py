"""DRAM bandwidth *isolation* — the hardware the paper asks for.

The paper's final contribution is to "establish the need for hardware
mechanisms to monitor and isolate DRAM bandwidth, which can improve
Heracles' accuracy and eliminate the need for offline information"
(§1), and §2 notes that "the lack of hardware support for memory
bandwidth isolation complicates and constrains the efficiency of any
system that dynamically manages workload colocation".  Intel later
shipped exactly this as Memory Bandwidth Allocation (MBA): per-core
request-rate throttles that cap a task's DRAM traffic.

This module adds the mechanism to the simulated hardware (a per-task
``dram_throttle`` fraction, applied to the task's channel demand) and a
core & memory subcontroller variant that uses it: when DRAM nears
saturation it *throttles BE bandwidth* instead of *removing BE cores*,
so compute-bound phases of the BE task keep running.  When headroom
returns, the throttle relaxes before any core is granted.

The bench (`benchmarks/test_bench_mba.py`) quantifies the paper's
claim: against a DRAM-heavy BE task, bandwidth isolation preserves more
BE cores — and therefore more EMU — than core removal, at equal safety.
"""

from __future__ import annotations

from typing import Optional

from ..sim.actuators import MBA_THROTTLE_FLOOR
from ..sim.engine import ColocationSim
from .config import HeraclesConfig
from .hw_dram import HardwareCountedCoreMemoryController, _attach_counted

#: The throttle relaxes only while one more BE core's traffic still fits
#: under this fraction of DRAM_LIMIT, so a relax cannot itself trigger
#: the next overage.
MBA_RELAX_FRACTION = 0.9


class MbaCoreMemoryController(HardwareCountedCoreMemoryController):
    """Algorithm 2 with bandwidth throttling in both directions.

    * **Saturation response**: tighten the BE throttle (cheap,
      reversible, leaves cores running); only when the throttle is
      exhausted fall back to removing cores, as the paper's controller
      must on 2015 hardware.
    * **Growth**: when one more BE core would saturate the channels,
      tighten the throttle and grant the core anyway — for BE tasks with
      any compute component, more cores at lower per-core bandwidth is
      strictly more progress at the same channel load.

    The LC bandwidth comes from the per-task counters (MBM), as in
    :class:`~repro.core.hw_dram.HardwareCountedCoreMemoryController`.
    """

    def _on_core_growth_dram_blocked(self) -> None:
        if self.actuators.be_dram_throttle > MBA_THROTTLE_FLOOR:
            # Tighten-for-core is an atomic trade: if the slack/budget
            # gates refuse the core anyway, restore the throttle —
            # otherwise a compute-bound BE task pays bandwidth for
            # nothing.
            before = self.actuators.be_dram_throttle
            cores_before = self.actuators.be_cores
            self.actuators.lower_be_dram_throttle()
            self._try_grant_core()
            if self.actuators.be_cores == cores_before:
                # The slack/budget gates refused the core: undo the
                # throttle and hand the round to cache growth instead,
                # exactly as the 2015 controller would.
                self.actuators.set_be_dram_throttle(before)
                super()._on_core_growth_dram_blocked()
        else:
            super()._on_core_growth_dram_blocked()

    def _on_dram_overage(self, total_bw: float) -> None:
        """Tighten the throttle; once it is exhausted, the 2015 core
        removal."""
        if self.actuators.be_dram_throttle > MBA_THROTTLE_FLOOR:
            self.actuators.lower_be_dram_throttle()
        else:
            super()._on_dram_overage(total_bw)

    def step(self, now_s: float) -> None:
        if not self.due(now_s):
            return
        # Relax the throttle before anything else when there is clear
        # headroom; the control loop then handles growth normally.
        bw = self.counters.worst_socket_dram_bw_gbps()
        if (self.actuators.be_dram_throttle < 1.0
                and bw + self.be_bw_per_core_gbps()
                < MBA_RELAX_FRACTION * self.dram_limit_gbps):
            self.actuators.raise_be_dram_throttle()
        total_bw = self._start_step(now_s)
        if self._shed_dram_overage(total_bw):
            return
        # Unlike the parent, MBA settles a pending cache grant *before*
        # the core-budget check.  The order is load-bearing: on a
        # diurnal trace the parent's order changes every run's history
        # (at constant load the two orders agree).
        self._settle_llc_check()
        if self._shed_core_budget():
            return
        self._grow(now_s)


def attach_mba_heracles(sim: ColocationSim,
                        config: Optional[HeraclesConfig] = None):
    """Heracles with MBA-style DRAM bandwidth isolation.

    Combines the per-core counters of :mod:`repro.core.hw_dram` (MBM)
    with the bandwidth throttle (MBA) — the full RDT feature set the
    paper anticipates.
    """
    return _attach_counted(sim, config, MbaCoreMemoryController)
