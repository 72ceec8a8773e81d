"""Simulation engine: monitors, actuators, and the colocation loop.

Two execution backends share one physics model: the scalar
:class:`ColocationSim` (one server, reference implementation) and the
vectorized :class:`~repro.sim.batch.BatchColocationSim` (N servers per
tick as array math).  :mod:`repro.sim.runner` fans independent fleet
units across a process pool.
"""

from .actuators import Actuators, BE_COS, LC_COS
from .batch import (BatchColocationSim, BatchHistory, BatchMember,
                    BatchMemberHistory, BatchTickResult)
from .engine import ColocationSim, Controller, SimHistory, TickRecord
from .monitors import LatencyMonitor, ThroughputMonitor
from .runner import memoized_dram_model, run_sweep

__all__ = [
    "Actuators", "BE_COS", "LC_COS",
    "BatchColocationSim", "BatchHistory", "BatchMember",
    "BatchMemberHistory", "BatchTickResult",
    "ColocationSim", "Controller", "SimHistory", "TickRecord",
    "LatencyMonitor", "ThroughputMonitor",
    "memoized_dram_model", "run_sweep",
]
