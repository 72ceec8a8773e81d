"""Root of the websearch fan-out tree.

"The cluster root fans out each user request to all leaf servers and
combines their replies" (§5.3), so a request completes when its
*slowest* leaf replies: with tens of leaves, the mean request latency at
the root tracks a high percentile of the per-leaf latency distribution.
The root's SLO is defined on mean latency over 30-second windows
(µ/30s), with the target set at the baseline's latency when serving 90%
load without colocation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Sequence


@dataclass
class RootSample:
    """Root-level latency at one instant."""

    t_s: float
    latency_ms: float


class RootAggregator:
    """Combines per-leaf tail estimates into root latency."""

    def __init__(self, window_s: float = 30.0,
                 straggler_weight: float = 0.85):
        """
        Args:
            window_s: SLO averaging window (30 s in the paper).
            straggler_weight: how strongly the root latency tracks the
                worst leaf: ``latency = w * max(leaf tails) + (1 - w) *
                mean(leaf tails)``.  With full fan-out every request
                waits for its slowest leaf, but reply combination starts
                early, so the root sits slightly below the strict max.
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        if not 0.0 <= straggler_weight <= 1.0:
            raise ValueError("straggler weight must be in [0, 1]")
        self.window_s = window_s
        self.straggler_weight = straggler_weight
        self._samples: Deque[RootSample] = deque()

    def combine(self, leaf_tails_ms: Sequence[float]) -> float:
        """Root request latency given each leaf's current tail."""
        if not leaf_tails_ms:
            raise ValueError("need at least one leaf")
        worst = max(leaf_tails_ms)
        mean = sum(leaf_tails_ms) / len(leaf_tails_ms)
        return (self.straggler_weight * worst
                + (1.0 - self.straggler_weight) * mean)

    def record(self, t_s: float, leaf_tails_ms: Sequence[float]) -> float:
        latency = self.combine(leaf_tails_ms)
        self._samples.append(RootSample(t_s=t_s, latency_ms=latency))
        while self._samples and self._samples[0].t_s < t_s - self.window_s:
            self._samples.popleft()
        return latency

    def windowed_latency_ms(self) -> float:
        """µ/30s: mean root latency over the SLO window."""
        if not self._samples:
            raise ValueError("no samples recorded yet")
        return sum(s.latency_ms for s in self._samples) / len(self._samples)
