"""Linux traffic control: HTB qdisc classes for egress shaping.

Heracles' network-isolation mechanism is the ``qdisc`` scheduler with
hierarchical token bucket (HTB) queueing: bandwidth limits for outgoing
BE traffic are set through the ``ceil`` parameter, the LC job gets no
limit, and updates take effect in under hundreds of milliseconds (§4.1).

:class:`HtbQdisc` keeps the class configuration and translates it into
the per-task ceilings consumed by :class:`~repro.hardware.network.EgressLink`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class HtbClass:
    """One HTB class.

    Attributes:
        name: class label (one per task group).
        rate_gbps: guaranteed rate (informational in this model).
        ceil_gbps: maximum burst rate; None means uncapped (LC class).
    """

    name: str
    rate_gbps: float = 0.0
    ceil_gbps: Optional[float] = None

    def validate(self, link_gbps: float) -> None:
        if self.rate_gbps < 0:
            raise ValueError("rate must be non-negative")
        if self.ceil_gbps is not None:
            if self.ceil_gbps < 0:
                raise ValueError("ceil must be non-negative")
            if self.rate_gbps > self.ceil_gbps:
                raise ValueError("rate cannot exceed ceil")
            if self.ceil_gbps > link_gbps + 1e-9:
                raise ValueError("ceil cannot exceed the link rate")


class HtbQdisc:
    """Egress qdisc for one NIC."""

    def __init__(self, link_gbps: float):
        if link_gbps <= 0:
            raise ValueError("link rate must be positive")
        self.link_gbps = link_gbps
        self._classes: Dict[str, HtbClass] = {}

    def add_class(self, name: str, rate_gbps: float = 0.0,
                  ceil_gbps: Optional[float] = None) -> HtbClass:
        cls = HtbClass(name=name, rate_gbps=rate_gbps, ceil_gbps=ceil_gbps)
        cls.validate(self.link_gbps)
        self._classes[name] = cls
        return cls

    def set_ceil(self, name: str, ceil_gbps: Optional[float]) -> None:
        """Update a class ceiling (a ``tc class change`` in the real OS).

        Negative requests are clamped to zero: Algorithm 4 can compute a
        negative BE budget when the LC workload is consuming nearly the
        whole link, which in practice means "BE gets nothing".
        """
        if name not in self._classes:
            raise KeyError(name)
        if ceil_gbps is not None:
            ceil_gbps = min(max(0.0, ceil_gbps), self.link_gbps)
        old = self._classes[name]
        if ceil_gbps == old.ceil_gbps:
            return  # no-op change; skip the class rebuild
        rate = min(old.rate_gbps, ceil_gbps) if ceil_gbps is not None else old.rate_gbps
        self._classes[name] = HtbClass(name=name, rate_gbps=rate,
                                       ceil_gbps=ceil_gbps)

    def ceil_of(self, name: str) -> Optional[float]:
        """Ceiling applied to ``name``; None when unknown or uncapped."""
        cls = self._classes.get(name)
        return None if cls is None else cls.ceil_gbps

    def classes(self) -> Dict[str, HtbClass]:
        return dict(self._classes)
