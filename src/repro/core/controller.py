"""The Heracles controller facade.

Wires the top-level controller (Algorithm 1) and the three
subcontrollers (Algorithms 2-4) to one server's monitors and actuators,
exactly as Figure 2 of the paper draws it:

* latency readings feed the top-level controller;
* "can BE grow?" flows from the top level to the subcontrollers via the
  shared :class:`~repro.core.state.ControlState`;
* each subcontroller owns its actuation mechanism — cores & LLC (cpuset
  + CAT), CPU power (DVFS), and network (HTB) — and runs on its own
  period with internal feedback loops.

``HeraclesController.for_sim`` builds the whole stack for a
:class:`~repro.sim.engine.ColocationSim`, including the one-off offline
steps: profiling the LC DRAM-bandwidth model and measuring the
guaranteed frequency.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hardware.counters import CounterBank
from ..sim.actuators import Actuators
from ..sim.engine import ColocationSim
from ..sim.monitors import LatencyMonitor
from ..workloads.latency_critical import LatencyCriticalWorkload
from .config import HeraclesConfig
from .core_memory import CoreMemoryController
from .dram_model import LcDramBandwidthModel, profile_lc_dram_model
from .network import NetworkController
from .power import PowerController, guaranteed_frequency_ghz
from .state import ControlState
from .top_level import TopLevelController


def lc_way_floor(lc: LatencyCriticalWorkload) -> int:
    """The LC cache partition's floor, in ways.

    Offline profiling tells Heracles the LC hot working set; the LC
    partition never shrinks below the ways that keep it resident (plus
    one way of headroom).
    """
    spec = lc.spec
    mb_per_way = spec.socket.llc_mb / spec.socket.llc_ways
    hot_per_socket = lc.profile.hot_mb / spec.sockets
    return max(1, min(spec.socket.llc_ways - 1,
                      int(hot_per_socket / mb_per_way) + 2))


class SimBeThroughputProbe:
    """Picklable BE-throughput probe bound to one colocation sim.

    The checkpoint layer (:mod:`repro.sim.checkpoint`) pickles whole
    engines, controllers included; a local closure over ``sim`` would
    break that, so the probe is a module-level callable instead.
    """

    def __init__(self, sim: ColocationSim):
        self._sim = sim

    def __call__(self) -> float:
        monitor = self._sim.be_monitor
        return monitor.last_normalized if monitor is not None else 0.0


class HeraclesController:
    """Coordinated dynamic management of four isolation mechanisms."""

    def __init__(self,
                 config: HeraclesConfig,
                 actuators: Actuators,
                 counters: CounterBank,
                 monitor: LatencyMonitor,
                 slo_target_ms: float,
                 dram_model: LcDramBandwidthModel,
                 guaranteed_freq_ghz: float,
                 lc_task: str,
                 be_task: str,
                 be_throughput_fn: Callable[[], float]):
        config.validate()
        self.config = config
        self.state = ControlState()
        self.top_level = TopLevelController(
            config, self.state, actuators, monitor, slo_target_ms)
        self.core_memory = CoreMemoryController(
            config, self.state, actuators, counters, dram_model,
            lc_task=lc_task, be_task=be_task,
            be_throughput_fn=be_throughput_fn,
            monitor=monitor, slo_target_ms=slo_target_ms)
        self.power = PowerController(
            config, actuators, counters, lc_task=lc_task,
            guaranteed_ghz=guaranteed_freq_ghz)
        self.network = NetworkController(
            config, actuators, counters, lc_task=lc_task)

    def step(self, now_s: float) -> None:
        """One engine tick: run whichever loops are due.

        Order matters the way it does on the real system: the top level
        digests the freshest latency sample first, then the
        subcontrollers act on the updated signals.
        """
        self.top_level.step(now_s)
        self.core_memory.step(now_s)
        self.power.step(now_s)
        self.network.step(now_s)

    # ------------------------------------------------------------------

    @classmethod
    def for_sim(cls, sim: ColocationSim,
                config: Optional[HeraclesConfig] = None,
                dram_model: Optional[LcDramBandwidthModel] = None
                ) -> "HeraclesController":
        """Build and attach a Heracles instance to a colocation sim.

        Performs the offline steps the paper requires: DRAM model
        profiling for the LC workload (unless a — possibly stale — model
        is supplied) and the guaranteed-frequency measurement.
        """
        if sim.be is None:
            raise ValueError("Heracles manages a colocation; the sim has "
                             "no BE task")
        config = config or HeraclesConfig()
        lc: LatencyCriticalWorkload = sim.lc
        model = dram_model or profile_lc_dram_model(lc)
        guaranteed = guaranteed_frequency_ghz(lc)

        sim.actuators.min_lc_llc_ways = lc_way_floor(lc)

        controller = cls(
            config=config,
            actuators=sim.actuators,
            counters=sim.counters,
            monitor=sim.latency_monitor,
            slo_target_ms=lc.profile.slo_latency_ms,
            dram_model=model,
            guaranteed_freq_ghz=guaranteed,
            lc_task=lc.name,
            be_task=sim.be.name,
            be_throughput_fn=SimBeThroughputProbe(sim),
        )
        sim.attach_controller(controller)
        return controller
