"""Windowed telemetry metrics over explicit per-sample timestamps.

This module is the *single* implementation of the paper's reporting
aggregates — the 60-second worst-case SLO window of §5.1, mean EMU of
§5.3, and per-field steady-state means — shared by the scalar, batched,
and cluster histories plus the analysis layer.  Before it existed the
repo carried three divergent copies, two of which silently assumed a
1-second tick; every helper here takes the sample timestamps
explicitly and derives the tick size from them, so the metrics stay
correct for any ``dt_s``.

Semantics are pinned by the golden regression tests: each function
evaluates the exact NumPy expression the original per-history code
used (same filtering, same cumulative-sum windowing, same reduction
order), so refactoring a history onto this module is bit-identical.

The :class:`WindowedMetrics` helper binds the functions to one
column-oriented history and memoizes each summary result against the
history length and last timestamp at computation time: repeated
queries over a finished
(no longer growing) run are answered from the cache, while any append
invalidates and the next query recomputes from the columns.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np


def sample_mean(values: Sequence[float]) -> float:
    """Plain sequential mean of already-materialized samples.

    The monitor layer's window estimates (15-second latency poll,
    2-second subcontroller view) are tiny suffixes of a deque; they use
    this one helper so the estimate's float semantics (left-to-right
    Python summation) are defined in exactly one place.

    An empty sequence reports the metric layer's nothing-recorded value
    (0.0, like :func:`mean_after` and friends) instead of raising a
    bare ``ZeroDivisionError`` at the call site.
    """
    if not len(values):
        return 0.0
    return sum(values) / len(values)


def derive_dt_s(t: np.ndarray, default: float = 1.0) -> float:
    """Tick interval of a recorded run, derived from its timestamps.

    Records are appended once per engine tick, so the mean spacing of
    consecutive timestamps *is* the tick size; falls back to
    ``default`` when the series is too short to tell.
    """
    t = np.asarray(t, dtype=float)
    if len(t) >= 2:
        span = float(t[-1] - t[0])
        if span > 0:
            return span / (len(t) - 1)
    return default


def mean_after(values: np.ndarray, t: np.ndarray,
               skip_s: float = 0.0) -> float:
    """Mean of ``values`` at timestamps ``>= skip_s``; 0.0 when empty."""
    vals = np.asarray(values, dtype=float)[np.asarray(t) >= skip_s]
    return float(np.mean(vals)) if vals.size else 0.0


def max_after(values: np.ndarray, t: np.ndarray,
              skip_s: float = 0.0) -> float:
    """Max of ``values`` at timestamps ``>= skip_s``; 0.0 when empty."""
    vals = np.asarray(values, dtype=float)[np.asarray(t) >= skip_s]
    return float(vals.max()) if vals.size else 0.0


def min_after(values: np.ndarray, t: np.ndarray,
              skip_s: float = 0.0) -> float:
    """Min of ``values`` at timestamps ``>= skip_s``; 0.0 when empty."""
    vals = np.asarray(values, dtype=float)[np.asarray(t) >= skip_s]
    return float(vals.min()) if vals.size else 0.0


def window_width(window_s: float, dt_s: float) -> int:
    """Window width in samples for a ``window_s``-second window."""
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    return max(1, int(round(window_s / dt_s)))


def worst_window_mean(values: np.ndarray, t: np.ndarray,
                      window_s: float = 60.0,
                      skip_s: float = 0.0,
                      dt_s: Optional[float] = None) -> float:
    """Worst mean over any ``window_s``-second window — §5.1's metric.

    "Since the SLO is defined over 60-second windows, we report the
    worst-case latency that was seen during experiments": the tail over
    a window is estimated from all of that window's samples, so the
    per-window value is the mean of the per-tick tail estimates, and
    the reported figure is the max across windows.

    The window width in samples is derived from the actual tick size
    (``window_s / dt_s``) so the metric stays a true ``window_s``-second
    window for any tick size; pass ``dt_s`` to override the spacing
    derived from ``t``.  Runs shorter than one window report the mean
    of what they have.
    """
    t = np.asarray(t, dtype=float)
    vals = np.asarray(values, dtype=float)[t >= skip_s]
    if not vals.size:
        return 0.0
    if dt_s is None:
        dt_s = derive_dt_s(t)
    width = window_width(window_s, dt_s)
    if len(vals) < width:
        return float(np.mean(vals))
    csum = np.cumsum(np.insert(vals, 0, 0.0))
    windows = (csum[width:] - csum[:-width]) / width
    return float(windows.max())


class WindowedMetrics:
    """Windowed summaries bound to one columnar history.

    Args:
        column: callable returning a field's (T,) float column.
        times: callable returning the (T,) timestamp column.

    Every method filters by explicit timestamps (never an assumed
    uniform tick) and delegates to the module-level functions, so all
    histories report through one implementation.  Summary results are
    memoized against the history length and last timestamp: after a
    run finishes, each (metric, column, skip) query is computed once
    and served from the cache thereafter; an append (or a same-length
    history with a different clock) invalidates, and the next query
    recomputes from the columns (one O(T) vectorized pass).
    """

    def __init__(self, column: Callable[[str], np.ndarray],
                 times: Callable[[], np.ndarray]):
        self._column = column
        self._times = times
        self._cache: Dict[Tuple, Tuple[int, object]] = {}

    def _memo(self, key: Tuple, build: Callable[[], object]):
        """Value of ``build()`` memoized until the history changes.

        The staleness check covers both the history *length* and its
        last timestamp: a same-length history with different contents
        (a reset-and-refilled store, a restored snapshot) restarts its
        clock, so keying on length alone would serve stale aggregates.
        """
        times = self._times()
        length = len(times)
        last_t = float(times[-1]) if length else None
        stamp = (length, last_t)
        hit = self._cache.get(key)
        if hit is not None and hit[0] == stamp:
            return hit[1]
        value = build()
        self._cache[key] = (stamp, value)
        return value

    def dt_s(self, default: float = 1.0) -> float:
        """Tick interval derived from the recorded timestamps."""
        return derive_dt_s(self._times(), default=default)

    def mean(self, name: str, skip_s: float = 0.0) -> float:
        """Mean of one column after ``skip_s`` seconds."""
        return self._memo(
            ("mean", name, skip_s),
            lambda: mean_after(self._column(name), self._times(), skip_s))

    def maximum(self, name: str, skip_s: float = 0.0) -> float:
        """Max of one column after ``skip_s`` seconds."""
        return self._memo(
            ("max", name, skip_s),
            lambda: max_after(self._column(name), self._times(), skip_s))

    def minimum(self, name: str, skip_s: float = 0.0) -> float:
        """Min of one column after ``skip_s`` seconds."""
        return self._memo(
            ("min", name, skip_s),
            lambda: min_after(self._column(name), self._times(), skip_s))

    def means(self, names: Iterable[str],
              skip_s: float = 0.0) -> Dict[str, float]:
        """Means of several columns sharing one timestamp filter pass."""
        t = self._times()
        mask = np.asarray(t) >= skip_s
        out = {}
        for name in names:
            vals = np.asarray(self._column(name), dtype=float)[mask]
            out[name] = float(np.mean(vals)) if vals.size else 0.0
        return out

    def worst_window(self, name: str, window_s: float = 60.0,
                     skip_s: float = 0.0,
                     dt_s: Optional[float] = None) -> float:
        """Worst ``window_s``-second windowed mean of one column."""
        return self._memo(
            ("worst", name, window_s, skip_s, dt_s),
            lambda: worst_window_mean(self._column(name), self._times(),
                                      window_s=window_s, skip_s=skip_s,
                                      dt_s=dt_s))
