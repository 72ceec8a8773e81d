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

from typing import Optional

from ..sim.engine import ColocationSim
from .config import HeraclesConfig
from .core_memory import CoreMemoryController

#: The counted LC bandwidth is scaled up by this margin.  A measurement
#: says what the LC workload used last interval, not what it will use
#: after the next actuation, so the controller leaves a little room.
MEASUREMENT_MARGIN = 1.10


class HardwareCountedCoreMemoryController(CoreMemoryController):
    """Algorithm 2 with LcBwModel() replaced by a live counter read
    (its ``dram_model`` is never read)."""

    def lc_bw_model_gbps(self) -> float:
        """LcBw per socket, *measured* (plus ``MEASUREMENT_MARGIN``)
        rather than modelled."""
        measured = self.counters.dram_bw_of(self.lc_task)
        sockets = self.actuators.spec.sockets
        return measured * MEASUREMENT_MARGIN / max(1, sockets)


def attach_hardware_counted_heracles(sim: ColocationSim,
                                     config: Optional[HeraclesConfig] = None):
    """Build a Heracles whose core & memory loop uses per-core DRAM
    counters — no offline profiling step at all.

    Returns the assembled :class:`~repro.core.controller.
    HeraclesController` with its ``core_memory`` member swapped for the
    hardware-counted variant.
    """
    return _attach_counted(sim, config, HardwareCountedCoreMemoryController)


def _attach_counted(sim: ColocationSim, config: Optional[HeraclesConfig],
                    core_memory_cls):
    """A Heracles on ``sim`` whose core & memory subcontroller is a
    ``core_memory_cls`` (a counter-reading variant)."""
    from .controller import HeraclesController
    from .dram_model import LcDramBandwidthModel
    import numpy as np

    # A trivial placeholder model stands in for the offline profile:
    # the counted variants never read it.
    placeholder = LcDramBandwidthModel(
        loads=np.array([0.0, 1.0]), ways=np.array([1.0, 2.0]),
        bandwidth_gbps=np.zeros((2, 2)))
    controller = HeraclesController.for_sim(sim, config=config,
                                            dram_model=placeholder)
    base = controller.core_memory
    controller.core_memory = core_memory_cls(
        base.config, base.state, base.actuators, base.counters, placeholder,
        lc_task=base.lc_task, be_task=base.be_task,
        be_throughput_fn=base.be_throughput_fn, monitor=base.monitor,
        slo_target_ms=base.slo_target_ms)
    return controller
