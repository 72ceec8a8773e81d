"""Simulated server hardware: CPU, LLC/CAT, DRAM, power, and NIC.

This subpackage stands in for the production Google servers of the paper
(dual-socket Haswell Xeons with Cache Allocation Technology).  It exposes
the same observable counters and actuation knobs the real hardware does,
with the contention physics needed to reproduce the paper's interference
behaviour.
"""

from .cache import CacheDemand, CacheShare, CatController, resolve_occupancy
from .counters import CounterBank
from .memory import MemoryController, MemoryDemand, MemoryGrant, MemoryResolution
from .network import EgressLink, FlowDemand, FlowGrant, LinkResolution
from .power import CorePowerRequest, PowerResolution, RaplMeter, SocketPowerModel
from .server import (DEFAULT_COS, Server, ServerTelemetry, SocketTelemetry,
                     TaskTickDemand, TaskUsage)
from .spec import MachineSpec, NicSpec, SocketSpec, TurboSpec, default_machine_spec

__all__ = [
    "CacheDemand", "CacheShare", "CatController", "resolve_occupancy",
    "CounterBank",
    "MemoryController", "MemoryDemand", "MemoryGrant", "MemoryResolution",
    "EgressLink", "FlowDemand", "FlowGrant", "LinkResolution",
    "CorePowerRequest", "PowerResolution", "RaplMeter", "SocketPowerModel",
    "DEFAULT_COS", "Server", "ServerTelemetry", "SocketTelemetry",
    "TaskTickDemand", "TaskUsage",
    "MachineSpec", "NicSpec", "SocketSpec", "TurboSpec",
    "default_machine_spec",
]
