"""Per-core DRAM bandwidth accounting — the paper's wished-for hardware.

§4.2: "Ideally, Heracles should require no offline information other
than SLO targets.  Unfortunately, one shortcoming of current hardware
makes this difficult": the Intel chips of 2015 could not attribute DRAM
traffic to cores, hence the offline LC bandwidth model.  "Once we have
hardware support for per-core DRAM bandwidth accounting [30], we can
eliminate this offline model."

That hardware eventually shipped (Intel Memory Bandwidth Monitoring).
This module implements the variant the paper anticipates: a core &
memory subcontroller that reads the LC workload's bandwidth directly
from per-task counters instead of predicting it from an offline
(load, LLC ways) table.  A small multiplicative margin stands in for
the measurement being a snapshot rather than a forecast.

The ablation bench (``benchmarks/test_bench_extensions.py``) compares the
two designs: the counter-based controller needs no profiling step and
is immune to model staleness, at the cost of reacting to bandwidth
changes instead of anticipating them.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..hardware.counters import CounterBank
from ..sim.actuators import Actuators
from ..sim.engine import ColocationSim
from ..sim.monitors import LatencyMonitor
from .config import HeraclesConfig
from .core_memory import CoreMemoryController
from .state import ControlState


class HardwareCountedCoreMemoryController(CoreMemoryController):
    """Algorithm 2 with LcBwModel() replaced by a live counter read."""

    def __init__(self, config: HeraclesConfig, state: ControlState,
                 actuators: Actuators, counters: CounterBank,
                 lc_task: str, be_task: str,
                 be_throughput_fn: Callable[[], float],
                 monitor: Optional[LatencyMonitor] = None,
                 slo_target_ms: Optional[float] = None,
                 measurement_margin: float = 1.10):
        if measurement_margin < 1.0:
            raise ValueError("measurement margin must be >= 1.0")
        super().__init__(config, state, actuators, counters,
                         dram_model=None,  # type: ignore[arg-type]
                         lc_task=lc_task, be_task=be_task,
                         be_throughput_fn=be_throughput_fn,
                         monitor=monitor, slo_target_ms=slo_target_ms)
        self.measurement_margin = measurement_margin

    def lc_bw_model_gbps(self) -> float:
        """LcBw per socket, *measured* rather than modelled.

        The margin covers the forecast gap: a measurement says what the
        LC workload used last interval, not what it will use after the
        next actuation, so the controller leaves a little room.
        """
        measured = self.counters.dram_bw_of(self.lc_task)
        sockets = self.actuators.spec.sockets
        return measured * self.measurement_margin / max(1, sockets)


def attach_hardware_counted_heracles(sim: ColocationSim,
                                     config: Optional[HeraclesConfig] = None):
    """Build a Heracles whose core & memory loop uses per-core DRAM
    counters — no offline profiling step at all.

    Returns the assembled :class:`~repro.core.controller.
    HeraclesController` with its ``core_memory`` member swapped for the
    hardware-counted variant.
    """
    from .controller import HeraclesController
    from .dram_model import LcDramBandwidthModel
    import numpy as np

    if sim.be is None:
        raise ValueError("Heracles manages a colocation; the sim has no "
                         "BE task")
    config = config or HeraclesConfig()
    # A trivial placeholder model satisfies the constructor; the
    # subcontroller that would use it is replaced below.
    placeholder = LcDramBandwidthModel(
        loads=np.array([0.0, 1.0]), ways=np.array([1.0, 2.0]),
        bandwidth_gbps=np.zeros((2, 2)))
    controller = HeraclesController.for_sim(sim, config=config,
                                            dram_model=placeholder)
    controller.core_memory = HardwareCountedCoreMemoryController(
        config, controller.state, sim.actuators, sim.counters,
        lc_task=sim.lc.name, be_task=sim.be.name,
        be_throughput_fn=controller.core_memory.be_throughput_fn,
        monitor=sim.latency_monitor,
        slo_target_ms=sim.lc.profile.slo_latency_ms)
    return controller
