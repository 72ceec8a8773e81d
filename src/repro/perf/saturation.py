"""Knee-shaped saturation penalty curves.

The central empirical observation of the paper (§4.2): "the antagonists
do not cause significant SLO violations until an inflection point, at
which point the tail latency degrades extremely rapidly".  Heracles'
whole decomposition strategy rests on shared resources having this
knee-then-cliff response.  This module provides the reusable curve shape
the resource models build that behaviour from.
"""

from __future__ import annotations


def knee_penalty(utilization: float, knee: float = 0.8,
                 gain: float = 1.0, exponent: float = 2.0,
                 ceiling: float = 50.0) -> float:
    """Multiplicative penalty that is ~1 below ``knee`` and grows
    super-linearly past it, diverging as utilization approaches 1.

    Args:
        utilization: resource utilization in [0, inf); values above 1
            indicate oversubscription and keep increasing the penalty.
        knee: utilization at which the penalty starts to climb.
        gain: scale of the penalty past the knee.
        exponent: sharpness of the climb.
        ceiling: cap to keep overloaded systems comparable and finite.

    Returns:
        Penalty factor >= 1.
    """
    if utilization < 0:
        raise ValueError("utilization must be non-negative")
    if not 0.0 < knee < 1.0:
        raise ValueError("knee must be in (0, 1)")
    if utilization <= knee:
        return 1.0
    capped = min(utilization, 0.999)
    progress = (capped - knee) / (1.0 - knee)
    penalty = min(ceiling, 1.0 + gain * progress ** exponent / (1.0 - capped))
    if utilization > 1.0:
        # Oversubscription term applied outside the ceiling so heavier
        # overloads always read as strictly worse.
        penalty += gain * 8.0 * (utilization - 1.0)
    return penalty
