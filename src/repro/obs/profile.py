"""Tick-phase profiling: where does a fleet tick's wall-clock go?

A :class:`PhaseProfiler` is a dict of wall-clock accumulators keyed by
phase name.  Engines consult theirs with one ``is None`` check per
tick; when enabled they bracket the tick's phases with
``perf_counter`` reads.  Fleet units ship their totals back through
:class:`~repro.fleet.shard.ShardResult`; the fleet layer sums them and
adds its own ``setup`` or ``ipc`` (dispatch residual) and ``rollup``
(telemetry re-assembly) phases, so ``--profile`` can print
one fleet-wide breakdown that tells the next perf PR exactly where
1000-leaf tick time goes.

The phase set is fixed (:data:`PHASES`) so breakdowns from different
shards and runs merge by plain key-wise addition:

* ``chaos`` — resolving injected fault/actuator events at tick start;
* ``physics`` — load evaluation + the server physics (scalar engine);
* ``power``, ``cache``, ``dram``, ``network``, ``tail`` — the batch
  engine's physics, one phase per layer: offered load, core placement
  and demands with the power/DVFS equilibrium; the CAT partitions; the
  DRAM channels; the egress link; the M/M/k tail, noise and BE
  throughput;
* ``telemetry`` — appending the tick's rows into the column stores;
* ``controllers`` — stepping Heracles/baseline controllers;
* ``setup`` — fleet wall-clock outside every unit's tick phases when
  the units ran in-process (unit construction, resume loading);
* ``rollup`` — fleet-level history re-assembly and stacking;
* ``ipc`` — the same residual when the units ran on a process pool,
  where it also covers dispatch, pickling and result transport; unit
  time overlaps there, so it is clamped at zero and only a hint.
* ``sched`` — the best-effort scheduler's replay over the slack view
  (``run_schedule`` of a ``schedule`` scenario), after the fleet run.

Wall-clock is inherently nondeterministic, so profiling carries no
bit-identity contract of its own — the contract is that *enabling it
never changes a simulated number* (``tests/test_obs.py``).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, Mapping, Optional

#: Environment toggle: any non-empty value other than ``"0"`` enables
#: phase profiling process-wide (pool workers inherit it).
PROFILE_ENV = "REPRO_PROFILE"

#: The fixed phase vocabulary; merges are key-wise sums over this set.
PHASES = ("chaos", "physics", "power", "cache", "dram", "network", "tail",
          "telemetry", "controllers", "setup", "rollup", "ipc", "sched")


def profile_enabled() -> bool:
    """True when :data:`PROFILE_ENV` requests tick-phase profiling."""
    return os.environ.get(PROFILE_ENV, "") not in ("", "0")


def make_profiler() -> Optional["PhaseProfiler"]:
    """A fresh :class:`PhaseProfiler` when enabled, else None."""
    return PhaseProfiler() if profile_enabled() else None


class PhaseProfiler:
    """Wall-clock accumulators for the fixed tick-phase vocabulary."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}

    def add(self, phase: str, dt: float) -> None:
        """Accumulate ``dt`` wall-clock seconds into ``phase``.

        Unknown phases raise ``KeyError`` eagerly — a typo'd phase
        would silently vanish from every merged breakdown.
        """
        self.seconds[phase] += dt

    def lap(self, phase: str, mark: float) -> float:
        """Accumulate the time since ``mark`` into ``phase``; returns
        the new mark (``perf_counter()`` now)."""
        now = perf_counter()
        self.seconds[phase] += now - mark
        return now

    def merge(self, other: Optional[Mapping[str, float]]) -> None:
        """Key-wise add another breakdown (dict or profiler ``seconds``)."""
        if other is None:
            return
        if isinstance(other, PhaseProfiler):
            other = other.seconds
        for phase, value in other.items():
            self.seconds[phase] = self.seconds.get(phase, 0.0) + value

    def as_dict(self) -> Dict[str, float]:
        """A plain ``{phase: seconds}`` copy (pool/pickle friendly)."""
        return dict(self.seconds)


def merge_profiles(profiles) -> Dict[str, float]:
    """Sum an iterable of breakdown dicts (Nones skipped)."""
    total = PhaseProfiler()
    for profile in profiles:
        total.merge(profile)
    return total.as_dict()


def render_profile(totals: Mapping[str, float]) -> str:
    """A phase-breakdown table: seconds and share per phase.

    >>> print(render_profile({"physics": 3.0, "controllers": 1.0}),
    ...       end="")
    phase          seconds   share
    physics          3.000  75.0%
    controllers      1.000  25.0%
    total            4.000 100.0%
    """
    rows = [(phase, totals[phase]) for phase in PHASES
            if totals.get(phase, 0.0) > 0.0]
    for phase in sorted(set(totals) - set(PHASES)):
        if totals[phase] > 0.0:
            rows.append((phase, totals[phase]))
    grand = sum(seconds for _, seconds in rows)
    lines = [f"{'phase':<12} {'seconds':>9} {'share':>7}"]
    for phase, seconds in rows:
        share = seconds / grand if grand > 0 else 0.0
        lines.append(f"{phase:<12} {seconds:>9.3f} {share:>6.1%}")
    lines.append(f"{'total':<12} {grand:>9.3f} {1.0 if grand else 0.0:>6.1%}")
    return "".join(line + "\n" for line in lines)
