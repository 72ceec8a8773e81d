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

from ..sim.engine import ColocationSim
from .config import HeraclesConfig
from .core_memory import CoreMemoryController

#: Lowest throttle MBA can apply (Intel MBA bottoms out around 10-20%).
MIN_THROTTLE = 0.10
#: Multiplicative step per 2-second control action.
THROTTLE_STEP = 0.85


class MbaCoreMemoryController(CoreMemoryController):
    """Algorithm 2 with bandwidth throttling in both directions.

    * **Saturation response**: tighten the BE throttle (cheap,
      reversible, leaves cores running); only when the throttle is
      exhausted fall back to removing cores, as the paper's controller
      must on 2015 hardware.
    * **Growth**: when one more BE core would saturate the channels,
      tighten the throttle and grant the core anyway — for BE tasks with
      any compute component, more cores at lower per-core bandwidth is
      strictly more progress at the same channel load.
    """

    def _on_core_growth_dram_blocked(self) -> None:
        if self.actuators.be_dram_throttle > MIN_THROTTLE:
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

    def step(self, now_s: float) -> None:
        if not self.due(now_s):
            return
        # Relax the throttle before anything else when there is clear
        # headroom; the control loop then handles growth normally.
        bw = self.counters.worst_socket_dram_bw_gbps()
        throttle = self.actuators.be_dram_throttle
        if (throttle < 1.0
                and bw + self.be_bw_per_core_gbps() < 0.9 * self.dram_limit_gbps):
            self.actuators.raise_be_dram_throttle()
        self._mba_step(now_s)

    def _mba_step(self, now_s: float) -> None:
        """Parent control loop with the overage branch replaced."""
        self._last_step_s = now_s
        self._now_s = now_s
        total_bw = self.measure_dram_bw()

        if total_bw > self.dram_limit_gbps and self.actuators.be_cores > 0:
            if self.actuators.be_dram_throttle > MIN_THROTTLE:
                self.actuators.lower_be_dram_throttle()
            else:
                # Throttle exhausted: the 2015 fallback.
                import math
                overage = total_bw - self.dram_limit_gbps
                to_remove = max(1, math.ceil(
                    overage / self.be_bw_per_core_gbps()))
                self.actuators.remove_be_cores(to_remove)
            self._pending = None
            return

        if self._pending is not None:
            self._finish_llc_check()
        else:
            self._last_slack_drop *= 0.8
            self._llc_slack_drop *= 0.8

        over_budget = self.actuators.be_cores - self.be_core_budget()
        if over_budget > 0:
            self.actuators.remove_be_cores(over_budget)
            self._pending = None
            return

        if not self.state.can_grow_be(now_s, self.actuators.be_enabled):
            return
        from .state import GrowthPhase
        if self.state.phase is GrowthPhase.GROW_LLC:
            self._grow_llc_step()
        else:
            self._grow_cores_step()


def attach_mba_heracles(sim: ColocationSim,
                        config: Optional[HeraclesConfig] = None):
    """Heracles with MBA-style DRAM bandwidth isolation.

    Combines the per-core counters of :mod:`repro.core.hw_dram` (MBM)
    with the bandwidth throttle (MBA) — the full RDT feature set the
    paper anticipates.
    """
    from .hw_dram import attach_hardware_counted_heracles
    controller = attach_hardware_counted_heracles(sim, config=config)
    base = controller.core_memory
    controller.core_memory = MbaCoreMemoryController(
        base.config, controller.state, sim.actuators, sim.counters,
        dram_model=None,  # type: ignore[arg-type]
        lc_task=sim.lc.name, be_task=sim.be.name,
        be_throughput_fn=base.be_throughput_fn,
        monitor=sim.latency_monitor,
        slo_target_ms=sim.lc.profile.slo_latency_ms)
    # Reuse the counter-based LC bandwidth estimate.
    controller.core_memory.lc_bw_model_gbps = base.lc_bw_model_gbps
    return controller
