"""Simulated OS mechanisms: HTB traffic control and the CFS model.

HTB network shaping is the *software* isolation mechanism Heracles
coordinates (cpuset core placement is modelled as core counts in
:class:`~repro.sim.actuators.Actuators`); the CFS time-sharing model
serves the OS-isolation baseline the paper measures against.
"""

from .scheduler import CfsModelParams, CfsSharedCoreModel
from .traffic_control import HtbClass, HtbQdisc

__all__ = [
    "CfsModelParams", "CfsSharedCoreModel",
    "HtbClass", "HtbQdisc",
]
