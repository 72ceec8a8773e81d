"""Static partitioning baselines.

§3.3 concludes that "any static policy would be either too conservative
(missing opportunities for colocation) or overly optimistic (leading to
SLO violations)".  These baselines make that argument quantitative:
they configure the same four isolation mechanisms Heracles manages, but
once, at startup, and never react to load or slack.  A static baseline
is therefore its grant alone, run as start-up actuator events
(:mod:`repro.sim.chaos`) on any engine.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..hardware.spec import MachineSpec
from ..sim.chaos import ChaosEvent


class StaticPartitionController:
    """Fixed resource split between LC and BE, configured once.

    :meth:`events` is the whole policy: the grant as actuator events at
    ``t=0``, for an engine's ``set_chaos_events``.
    """

    def __init__(self, spec: MachineSpec,
                 be_cores: int,
                 be_llc_ways: int,
                 be_dvfs_cap_ghz: Optional[float] = None,
                 be_net_ceil_gbps: Optional[float] = None):
        if be_cores < 0 or be_llc_ways < 0:
            raise ValueError("static grants must be non-negative")
        self.spec = spec
        self.be_cores = be_cores
        self.be_llc_ways = be_llc_ways
        self.be_dvfs_cap_ghz = be_dvfs_cap_ghz
        self.be_net_ceil_gbps = be_net_ceil_gbps

    def events(self, members: Optional[Tuple[int, ...]] = None
               ) -> Tuple[ChaosEvent, ...]:
        """The grant as start-up events aimed at ``members``.

        Admit BE, set its cores and LLC ways, step its DVFS cap down
        from max turbo to the requested value, and cap its egress; a
        cap left at None is not set.  ``members`` are engine-local
        indices (None: every member).
        """
        grant = [("enable_be", None), ("set_be_cores", self.be_cores),
                 ("set_llc_split", self.be_llc_ways)]
        if self.be_dvfs_cap_ghz is not None:
            turbo = self.spec.socket.turbo
            steps = max(0, round((turbo.max_turbo_ghz
                                  - self.be_dvfs_cap_ghz)
                                 / turbo.step_ghz))
            if steps:
                grant.append(("lower_be_frequency", steps))
        if self.be_net_ceil_gbps is not None:
            grant.append(("set_be_net_ceil", self.be_net_ceil_gbps))
        return tuple(ChaosEvent(0.0, action, value, members)
                     for action, value in grant)


def conservative_static(spec: MachineSpec) -> StaticPartitionController:
    """A split safe at *any* LC load: BE gets the scraps.

    Two cores, two LLC ways, minimum frequency, 5% of the link — safe
    everywhere, and therefore leaves most of the machine idle at low
    load (the "too conservative" arm of the paper's argument).
    """
    return StaticPartitionController(
        spec,
        be_cores=2,
        be_llc_ways=2,
        be_dvfs_cap_ghz=spec.socket.turbo.min_ghz,
        be_net_ceil_gbps=0.05 * spec.nic.link_gbps,
    )


def optimistic_static(spec: MachineSpec) -> StaticPartitionController:
    """A split sized for *low* LC load: BE gets half the machine.

    Great EMU while load is low; violates the SLO as soon as load rises
    (the "overly optimistic" arm).
    """
    return StaticPartitionController(
        spec,
        be_cores=spec.total_cores // 2,
        be_llc_ways=spec.socket.llc_ways // 2,
        be_dvfs_cap_ghz=None,
        be_net_ceil_gbps=0.5 * spec.nic.link_gbps,
    )
