"""Load traces: the time-varying demand offered to LC services.

The paper drives its workloads with anonymized production traces; those
are not available, so we generate synthetic traces with the properties
the paper states: pronounced diurnal swings (websearch load varies
between 20% and 90% in the 12-hour cluster trace of §5.3) plus short-term
noise and occasional spikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


class LoadTrace:
    """Base class: a deterministic mapping from time to offered load."""

    def load_at(self, t_s: float) -> float:
        raise NotImplementedError

    def clipped(self, t_s: float) -> float:
        return min(1.0, max(0.0, self.load_at(t_s)))


@dataclass
class ConstantLoad(LoadTrace):
    """Fixed load fraction (single-server experiments, Figs. 4-7)."""

    load: float

    def __post_init__(self):
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("load must be in [0, 1]")

    def load_at(self, t_s: float) -> float:
        return self.load


@dataclass
class StepLoad(LoadTrace):
    """Load that steps between levels at given times (spike testing)."""

    times_s: Sequence[float]
    loads: Sequence[float]

    def __post_init__(self):
        if len(self.times_s) != len(self.loads):
            raise ValueError("times and loads must have equal length")
        if not self.times_s:
            raise ValueError("need at least one step")
        if list(self.times_s) != sorted(self.times_s):
            raise ValueError("step times must be non-decreasing")
        for load in self.loads:
            if not 0.0 <= load <= 1.0:
                raise ValueError("loads must be in [0, 1]")

    def load_at(self, t_s: float) -> float:
        current = self.loads[0]
        for time, load in zip(self.times_s, self.loads):
            if t_s >= time:
                current = load
            else:
                break
        return current


@dataclass
class DiurnalTrace(LoadTrace):
    """Smooth diurnal swing with optional noise.

    ``load(t) = low + (high - low) * (1 - cos(2 pi t / period)) / 2``
    starting at ``low``, peaking at ``period/2``.  A 12-hour window of a
    daily pattern (trough to peak and back) matches the §5.3 trace shape.
    """

    low: float = 0.20
    high: float = 0.90
    period_s: float = 12 * 3600.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError("need 0 <= low <= high <= 1")
        if self.period_s <= 0:
            raise ValueError("period must be positive")
        self._rng = np.random.default_rng(self.seed)
        self._noise_cache = {}

    def load_at(self, t_s: float) -> float:
        phase = 2.0 * math.pi * (t_s / self.period_s)
        base = self.low + (self.high - self.low) * (1.0 - math.cos(phase)) / 2.0
        if self.noise_sigma <= 0:
            return min(self.high, max(0.0, base))
        # Deterministic per-minute AR(1) noise: real traffic noise is
        # autocorrelated (users arrive and leave over minutes, not in
        # one-minute i.i.d. jumps), so each minute's deviation decays
        # from the previous one with a small innovation.  Computed
        # recursively and cached so the trace is reproducible regardless
        # of query order.
        bucket = int(t_s // 60)
        noise = self._noise_for_bucket(bucket)
        # `high` is the observed peak of the trace, noise included: the
        # cluster SLO is defined at that load, so by construction the
        # trace never exceeds it.
        return min(self.high, max(0.0, base + noise))

    _AR_COEFF = 0.9

    def _noise_for_bucket(self, bucket: int) -> float:
        if bucket <= 0:
            return 0.0
        if bucket in self._noise_cache:
            return self._noise_cache[bucket]
        # Innovation variance chosen so the stationary std is noise_sigma.
        innovation = self.noise_sigma * math.sqrt(1.0 - self._AR_COEFF ** 2)
        start = bucket
        while start > 1 and (start - 1) not in self._noise_cache:
            start -= 1
        value = self._noise_cache.get(start - 1, 0.0)
        for b in range(start, bucket + 1):
            rng = np.random.default_rng((self.seed, b))
            value = self._AR_COEFF * value + float(
                rng.normal(0.0, innovation))
            self._noise_cache[b] = value
        return value


@dataclass
class ReplayTrace(LoadTrace):
    """Replay an explicit sequence of load samples at a fixed interval.

    Holds the last value beyond the end — useful for feeding recorded or
    externally generated traces into the simulator.
    """

    samples: Sequence[float]
    interval_s: float = 1.0

    def __post_init__(self):
        if not self.samples:
            raise ValueError("need at least one sample")
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        for s in self.samples:
            if not 0.0 <= s <= 1.0:
                raise ValueError("samples must be in [0, 1]")

    def load_at(self, t_s: float) -> float:
        idx = int(max(0.0, t_s) / self.interval_s)
        idx = min(idx, len(self.samples) - 1)
        return self.samples[idx]


@dataclass(frozen=True)
class LoadSpike:
    """One injected load spike: hold ``load`` for ``duration_s`` seconds.

    Args:
        at_s: spike start time (simulated seconds).
        duration_s: how long the spike holds.
        load: offered load during the spike, in [0, 1].
    """

    at_s: float
    duration_s: float
    load: float

    def __post_init__(self):
        if self.at_s < 0:
            raise ValueError("spike start must be >= 0")
        if self.duration_s <= 0:
            raise ValueError("spike duration must be positive")
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("spike load must be in [0, 1]")

    def active(self, t_s: float) -> bool:
        """True while the spike holds at time ``t_s``."""
        return self.at_s <= t_s < self.at_s + self.duration_s


@dataclass
class PhasedTrace(LoadTrace):
    """A base trace evaluated with a fixed time offset.

    ``load(t) = base.load(t + phase_s)`` — the trace's own clock runs
    ``phase_s`` seconds ahead of the simulation clock.  This is the
    fleet layer's follow-the-sun primitive: clusters in different
    regions share one diurnal shape but peak at different simulated
    times (a cluster with ``phase_s = period / 3`` is eight hours ahead
    of an unshifted one on a 24-hour trace).  Negative offsets delay
    the trace instead.
    """

    base: LoadTrace
    phase_s: float

    def load_at(self, t_s: float) -> float:
        """Base load at the phase-shifted time ``t_s + phase_s``."""
        return self.base.load_at(t_s + self.phase_s)


@dataclass
class SpikeOverlay(LoadTrace):
    """A base trace with load spikes injected at fixed timestamps.

    During a spike the offered load is ``max(base, spike.load)`` — a
    traffic surge lifts demand, it never sheds it.  Overlapping spikes
    take the highest spike load.  This is the scenario layer's
    load-spike injection primitive; any :class:`LoadTrace` can be the
    base.
    """

    base: LoadTrace
    spikes: Sequence[LoadSpike]

    def __post_init__(self):
        if not self.spikes:
            raise ValueError("need at least one spike (or drop the overlay)")
        self.spikes = tuple(self.spikes)

    def load_at(self, t_s: float) -> float:
        """Base load lifted to the highest spike active at ``t_s``."""
        load = self.base.load_at(t_s)
        for spike in self.spikes:
            if spike.active(t_s):
                load = max(load, spike.load)
        return load


def websearch_cluster_trace(seed: int = 7,
                            noise_sigma: float = 0.02) -> DiurnalTrace:
    """The §5.3 12-hour cluster trace: diurnal 20%-90% swing."""
    return DiurnalTrace(low=0.20, high=0.90, period_s=12 * 3600.0,
                        noise_sigma=noise_sigma, seed=seed)


def load_sweep(points: int = 19, low: float = 0.05,
               high: float = 0.95) -> List[float]:
    """The 19-point load axis used throughout the evaluation (5%..95%)."""
    if points < 2:
        raise ValueError("need at least two points")
    step = (high - low) / (points - 1)
    return [round(low + i * step, 10) for i in range(points)]
