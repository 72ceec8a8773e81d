"""Application-level monitors: latency, load, and throughput telemetry.

Heracles "continuously monitors latency and latency slack and uses both
as key inputs in its decisions" (§4.2), polling the LC application's tail
latency and load every 15 seconds — long enough to gather statistically
meaningful tails.  These monitors provide the windowed views the
controller polls and the 60-second worst-case windows the evaluation
reports ("Since the SLO is defined over 60-second windows, we report the
worst-case latency that was seen during experiments", §5.1).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..metrics.windows import sample_mean


class LatencyMonitor:
    """Sliding-window view of an LC service's tail latency and load."""

    #: The window estimate: a plain sequential mean (the batch engine's
    #: vector monitor swaps in the same mean over per-member rows).
    _mean = staticmethod(sample_mean)

    def __init__(self, window_s: float = 15.0, slo_window_s: float = 60.0):
        if window_s <= 0 or slo_window_s <= 0:
            raise ValueError("windows must be positive")
        self.window_s = window_s
        self.slo_window_s = slo_window_s
        self._samples: Deque[Tuple[float, float, float]] = deque()

    def record(self, t_s: float, tail_ms: float, load: float) -> None:
        if tail_ms < 0 or load < 0:
            raise ValueError("samples must be non-negative")
        if self._samples and t_s < self._samples[-1][0]:
            raise ValueError("samples must arrive in time order")
        self._samples.append((t_s, tail_ms, load))
        horizon = max(self.window_s, self.slo_window_s) + 1.0
        while self._samples and self._samples[0][0] < t_s - horizon:
            self._samples.popleft()

    def _window(self, now_s: float, span_s: float):
        # Samples arrive in time order, so scan from the newest end and
        # stop at the cutoff instead of filtering the whole deque (the
        # deque holds the long SLO window; polls want a short suffix).
        cutoff = now_s - span_s
        out = []
        for sample in reversed(self._samples):
            if sample[0] <= cutoff:
                break
            out.append(sample)
        out.reverse()
        return out

    def observed_spacing_s(self) -> Optional[float]:
        """Spacing of the two freshest samples (the effective tick)."""
        if len(self._samples) < 2:
            return None
        spacing = self._samples[-1][0] - self._samples[-2][0]
        return spacing if spacing > 0 else None

    def poll_latency_ms(self, now_s: float) -> Optional[float]:
        """Tail latency over the control window (what PollLCAppLatency
        returns): the mean of per-interval tail estimates."""
        window = self._window(now_s, self.window_s)
        if not window:
            return None
        return self._mean([s[1] for s in window])

    def recent_latency_ms(self, now_s: float,
                          span_s: float = 2.0) -> Optional[float]:
        """Freshest tail estimate over a short span.

        Used by the 2-second subcontroller loop, which must see the
        effect of its own last actuation before taking the next step
        (§4.3's per-step SLO check) — the 15-second control window would
        lag it into oscillation.

        The requested span is a *time* span, so its sample coverage
        depends on the tick: when samples arrive more than ``span_s``
        apart (coarse ``dt_s``), a literal cut would degenerate to the
        single latest sample and defeat the per-step averaging.  The
        effective span therefore stretches to cover at least one full
        observed sample interval — the last two samples — which is
        exactly the coverage the 2-second span gives at the historical
        1-second tick.
        """
        window = self._window(now_s, span_s)
        spacing = self.observed_spacing_s()
        if (len(window) < 2 and spacing is not None and spacing > span_s
                and now_s - self._samples[-1][0] <= spacing):
            # Coarse tick: one full interval is the freshest view that
            # still averages (the 2-sample window of the 1 s tick).
            # The freshness guard keeps the stretch out of stale polls
            # (latest sample older than one interval), which retain the
            # historical single-latest-sample fallback below.
            window = [self._samples[-2], self._samples[-1]]
        if not window:
            window = list(self._samples)[-1:]
        if not window:
            return None
        return self._mean([s[1] for s in window])

    def poll_load(self, now_s: float) -> Optional[float]:
        """Offered load averaged over the control window."""
        window = self._window(now_s, self.window_s)
        if not window:
            return None
        return self._mean([s[2] for s in window])

    def worst_window_ms(self, now_s: float) -> Optional[float]:
        """Worst tail estimate inside the SLO reporting window."""
        window = self._window(now_s, self.slo_window_s)
        if not window:
            return None
        return max(s[1] for s in window)


class ThroughputMonitor:
    """Normalizes each tick's BE throughput against a reference.

    Normalized throughput is the EMU ingredient: BE units per second
    divided by the units/second the task achieves alone on the server.
    """

    def __init__(self, reference_units_per_s: float):
        if reference_units_per_s <= 0:
            raise ValueError("reference throughput must be positive")
        self.reference_units_per_s = reference_units_per_s
        self._last_normalized = 0.0

    def record(self, units: float, dt_s: float) -> None:
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        if units < 0:
            raise ValueError("units must be non-negative")
        self._last_normalized = (units / dt_s) / self.reference_units_per_s

    @property
    def last_normalized(self) -> float:
        """Most recent normalized throughput (instantaneous)."""
        return self._last_normalized
