"""Chaos events: engine-level fault injection shared by all engines.

Heracles must defend latency SLOs under *adverse* conditions — crashed
leaves, stragglers, power emergencies, network partitions — not just
the healthy fleets the registered scenarios simulate.  This module
defines the one event type every engine consumes:
:class:`ChaosEvent`, a timed, optionally member-targeted fault.

The contract mirrors the rest of the simulation stack: the scalar
:class:`~repro.sim.engine.ColocationSim` and the batched
:class:`~repro.sim.batch.BatchColocationSim` (which the fleet engine
runs too) resolve the same event schedule to bit-identical histories.  To make that possible the
semantics are defined once, here:

* Events fire at the **start** of the tick whose time satisfies
  ``at_s <= time_s`` (before load evaluation), in ``(at_s, order)``
  order, where ``order`` is the event's position in the schedule —
  ties are resolved by schedule order, identically in every engine.
* ``leaf_crash`` removes the member from physics and telemetry: its
  offered load and tail latency read as zero, its BE task is forced
  off every tick while down (so a ``leaf_restart`` rejoins *cold* —
  the controller re-enables BE from scratch), and its tail-noise
  stream still advances so the other members' draws are unaffected.
* ``straggler`` multiplies the member's achieved core frequency and
  DRAM bandwidth by ``value`` (a derate in (0, 1]); ``value=1.0``
  restores full speed.  Healthy members multiply by exactly 1.0 —
  a bitwise identity — so their physics is untouched.
* ``power_cap`` scales the member's TDP limit to ``value`` x stock.
  Telemetry and controllers keep reading power as a fraction of the
  *stock* TDP (RAPL reports the design power, not the cap).
* ``partition`` blacks out the root↔leaf link for ``value`` seconds:
  offered load is held at the root (reads as zero at the leaf) and
  the member's tail latency is pinned at 10x its SLO for the
  blackout.  BE work keeps running — only the LC path is cut.
* The actuator actions (``enable_be`` … ``set_be_net_ceil``) are the
  :class:`~repro.sim.actuators.Actuators` methods of the same name,
  called with ``value`` as their argument: the scalar engine calls
  the methods, the batch applies their masked transcriptions to its
  actuator columns.  Scenario injections and the static baselines'
  start-up grants (events at ``at_s=0``) are actuator events, so every
  timed actuation fires at this one phase on every engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Multiplier applied to a partitioned member's SLO to produce its
#: pinned tail latency (requests time out far beyond the SLO).
PARTITION_TAIL_SLO_MULT = 10.0

#: Actions resolved as engine-level state (masked physics columns).
CHAOS_STATE_ACTIONS = ("leaf_crash", "leaf_restart", "straggler",
                       "power_cap", "partition")

#: Actions that call the :class:`~repro.sim.actuators.Actuators` method
#: of the same name (``lower_be_frequency`` takes a step count).
CHAOS_ACTUATOR_ACTIONS = ("enable_be", "disable_be", "set_be_cores",
                          "set_llc_split", "lower_be_frequency",
                          "set_be_net_ceil")

CHAOS_EVENT_ACTIONS = CHAOS_ACTUATOR_ACTIONS + CHAOS_STATE_ACTIONS

#: Actions that take no ``value``; every other action requires one.
CHAOS_VALUELESS_ACTIONS = ("enable_be", "disable_be", "leaf_crash",
                           "leaf_restart")


@dataclass(frozen=True)
class ChaosEvent:
    """One timed fault, targeted at engine-local member indices.

    Args:
        at_s: simulated time the event fires (start of the first tick
            with ``time_s >= at_s``).
        action: one of :data:`CHAOS_EVENT_ACTIONS`.
        value: action parameter (derate fraction, TDP fraction,
            blackout seconds, or the actuator argument); None for
            valueless actions.
        members: tuple of member indices the event targets, or None
            for every member of the engine it is attached to.  Indices
            are *local* to the receiving engine — the fleet layer
            translates cluster-global leaf indices before dispatch.
    """

    at_s: float
    action: str
    value: Optional[float] = None
    members: Optional[Tuple[int, ...]] = None

    def validate(self) -> None:
        """Check the action name and basic parameter sanity."""
        if self.action not in CHAOS_EVENT_ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}; "
                             f"choose from {', '.join(CHAOS_EVENT_ACTIONS)}")
        if self.at_s < 0:
            raise ValueError("chaos events cannot fire before t=0")
        if self.action not in CHAOS_VALUELESS_ACTIONS and self.value is None:
            raise ValueError(f"chaos action {self.action!r} requires a "
                             f"value")

    def retarget(self, members: Optional[Tuple[int, ...]]) -> "ChaosEvent":
        """A copy of this event aimed at a different member set."""
        return ChaosEvent(at_s=self.at_s, action=self.action,
                          value=self.value, members=members)


def sort_events(events) -> Tuple[ChaosEvent, ...]:
    """Validate and order a schedule by ``(at_s, schedule position)``.

    The stable sort keeps same-timestamp events in schedule order,
    which is the tie-break every engine replays identically.
    """
    for event in events:
        event.validate()
    return tuple(sorted(events, key=lambda e: e.at_s))


def trace_chaos_event(sink, t_s: float, event: ChaosEvent,
                      members) -> None:
    """Record one fired event into a decision-trace sink.

    ``members`` are the *global* (fleet-wide) indices the event
    resolved against — one trace row per affected member, so the
    merged trace is invariant under any shard partition (each shard
    traces exactly the members it owns).  ``a`` carries the event
    value (NaN for valueless actions) and ``b`` the scheduled
    ``at_s``; ``t_s`` is the tick the event actually resolved on.
    """
    kind = "chaos_" + event.action
    value = None if event.value is None else float(event.value)
    sink.emit_block(float(t_s), np.asarray(members, dtype=np.int64),
                    "chaos", kind, a=value, b=float(event.at_s))
