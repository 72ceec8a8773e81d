"""Shared control state between the top-level controller and the
subcontrollers.

The top-level loop digests latency/load into *signals* — BE enabled or
not, growth allowed or not, cooldown in effect — and the subcontrollers
"operate fairly independently of each other" (§4.3), consulting these
signals plus their own resource measurements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class GrowthPhase(enum.Enum):
    """Gradient-descent phase of the core & memory subcontroller."""

    GROW_LLC = "grow_llc"
    GROW_CORES = "grow_cores"


@dataclass
class ControlState:
    """Mutable blackboard shared by the Heracles control loops."""

    # Written by the top-level controller.
    slack: float = 1.0
    load: float = 0.0
    growth_allowed: bool = True
    cooldown_until_s: float = 0.0
    last_latency_ms: Optional[float] = None

    # Written by the core & memory subcontroller.
    phase: GrowthPhase = GrowthPhase.GROW_LLC

    def in_cooldown(self, now_s: float) -> bool:
        return now_s < self.cooldown_until_s

    def enter_cooldown(self, now_s: float, duration_s: float) -> None:
        if duration_s < 0:
            raise ValueError("cooldown duration cannot be negative")
        self.cooldown_until_s = max(self.cooldown_until_s,
                                    now_s + duration_s)

    def can_grow_be(self, now_s: float, be_enabled: bool) -> bool:
        """Algorithm 2's CanGrowBE(): BE running, growth permitted, and
        no post-violation cooldown in effect."""
        return be_enabled and self.growth_allowed and not self.in_cooldown(now_s)
