"""Placement policies: which leaves get which best-effort jobs.

A policy sees one :class:`PlacementContext` per decision epoch — the
previous epoch's per-leaf slack signals (per-slot harvest rate, the
Heracles BE-core grant, the SLO latch) plus the runnable queue in
priority order, as ``max_cores`` / ``pinned_leaf`` arrays — and
returns one :class:`Placement`: the int64 triple ``(job, leaf,
cores)``, one entry per (job, leaf) pair holding slots, with ``job``
indexing the context's queue.  Policies are *pure*: same context,
same placement, which is what makes scheduling runs bit-reproducible
across shard counts and worker pools.

Three policies ship, mirroring the evaluation axes of the paper's
cluster study:

* ``slack-greedy`` — the Heracles-driven scheduler: pack the queue
  onto the leaves with the highest per-slot harvest rate, skipping
  leaves that latched their SLO last epoch.  Closed form: the slot
  supply (leaves in rate order) and the queue's wants (jobs in
  priority order) are laid on one line of slots, and each job takes
  the overlap of its want interval with each leaf's supply interval;
* ``round-robin`` — slack-blind spreading: cycle the leaf list,
  placing one slot at a time wherever Heracles granted cores;
* ``static`` — static provisioning, the paper's baseline: each job is
  pinned to one leaf at admission and never migrates, whatever the
  leaf's slack does.  Closed form: a segmented cumulative want over
  the jobs pinned to each leaf.

Every policy honours the same hard constraint: a leaf is never
assigned more slots than its (previous-epoch) Heracles grant, which
itself never exceeds the machine's core count — the capacity
invariant ``tests/test_sched_properties.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

import numpy as np

#: Registered policy names, in the order the docs list them.
POLICIES = ("slack-greedy", "round-robin", "static")


@dataclass
class PlacementContext:
    """Everything a policy may consult for one epoch's decision.

    ``rate_per_core`` (N,) is the previous epoch's harvested
    core-seconds per granted BE core slot per second — the policy's
    estimate of what one slot on each leaf will earn; ``cap`` (N,) is
    the previous epoch's Heracles BE-core grant (the slot supply);
    ``latched`` (N,) flags leaves that hit their SLO last epoch.
    ``max_cores`` (J,) and ``pinned_leaf`` (J,) describe the runnable
    queue in priority order: each job's parallelism limit and the
    leaf it was pinned to at admission.
    """

    epoch: int
    epoch_len_s: float
    rate_per_core: np.ndarray
    cap: np.ndarray
    latched: np.ndarray
    max_cores: np.ndarray
    pinned_leaf: np.ndarray

    @property
    def leaves(self) -> int:
        """Fleet leaf population."""
        return len(self.cap)


class Placement:
    """One epoch's placement, the int64 triple ``(job, leaf, cores)``.

    Three aligned arrays, one entry per (job, leaf) pair: ``cores[k]``
    slots of queue job ``job[k]`` on leaf ``leaf[k]``.  Iterating
    yields each pair as a one-entry ``{leaf: cores}`` mapping, which
    is how ``perfbench/tracer.py`` counts placements.
    """

    __slots__ = ("job", "leaf", "cores")

    def __init__(self, job, leaf, cores):
        self.job, self.leaf, self.cores = (
            np.asarray(a, dtype=np.int64) for a in (job, leaf, cores))

    def __iter__(self) -> Iterator[Dict[int, int]]:
        """Each pair as ``{leaf: cores}``."""
        return ({leaf: cores} for leaf, cores
                in zip(self.leaf.tolist(), self.cores.tolist()))


class Policy:
    """Interface: a named, pure placement function."""

    #: Registry name (also what scenario specs select by).
    name = "abstract"

    def place(self, ctx: PlacementContext) -> Placement:
        """Return the epoch's ``(job, leaf, cores)`` triple."""
        raise NotImplementedError


class SlackGreedyPolicy(Policy):
    """Pack jobs onto the highest-harvest leaves first.

    Leaves are ranked by predicted per-slot harvest rate (descending,
    leaf index breaking ties); leaves with no predicted harvest and
    leaves that latched their SLO last epoch are excluded outright —
    the scheduler reads the latch exactly as Borg would read a
    Heracles "DISABLED" signal.  Jobs take slots in priority order, up
    to their parallelism limit, until the queue or the slot supply is
    exhausted (the work-conservation property).
    """

    name = "slack-greedy"

    def place(self, ctx: PlacementContext) -> Placement:
        """Greedy descending-rate packing (see class docstring)."""
        usable = (ctx.rate_per_core > 0) & ~ctx.latched
        free = np.where(usable, ctx.cap, 0).astype(np.int64)
        # Stable sort on negated rate: equal-rate leaves stay in leaf
        # order, so the packing is one deterministic sequence.
        order = np.argsort(-ctx.rate_per_core, kind="stable")
        order = order[free[order] > 0]
        if not len(order) or not len(ctx.max_cores):
            return Placement((), (), ())
        # Slots consumed front to back: job j owns [want[j-1], want[j])
        # of the supply line, leaf order[i] owns [supply[i-1],
        # supply[i]).  Every cut ends one overlap, i.e. one pair.
        supply = np.cumsum(free[order])
        want = np.cumsum(ctx.max_cores)
        # Sorted distinct cut points (what np.union1d returns, without
        # np.unique importing numpy.ma).
        ends = np.sort(np.concatenate((supply, want)))
        ends = ends[np.concatenate(([True], ends[1:] != ends[:-1]))]
        ends = ends[ends <= min(supply[-1], want[-1])]
        starts = np.concatenate(([0], ends[:-1]))
        return Placement(np.searchsorted(want, starts, side="right"),
                         order[np.searchsorted(supply, starts,
                                               side="right")],
                         ends - starts)


class RoundRobinPolicy(Policy):
    """Spread slots across the leaf list, blind to slack.

    Cycles the leaf population (rotating the starting leaf by epoch so
    no prefix of the fleet is structurally favoured), handing each job
    one slot at a time wherever a grant exists.  Uses the same grant
    caps as every policy but ignores harvest rates and latches — the
    "spread for balance" strawman between static pinning and
    slack-driven packing.
    """

    name = "round-robin"

    def place(self, ctx: PlacementContext) -> Placement:
        """One-slot-at-a-time rotation over the granted leaves."""
        free = np.maximum(ctx.cap, 0).astype(np.int64)
        ring = np.flatnonzero(free > 0).tolist()
        left = int(free.sum())
        free = free.tolist()
        job, leaf, cores = [], [], []
        cursor = ctx.epoch % len(ring) if ring else 0
        for j, width in enumerate(ctx.max_cores.tolist()):
            if not left:
                break  # every granted slot is taken
            # Walk the ring from the job's cursor, one slot per free
            # leaf per visit: jobs wider than the ring wrap around it
            # until satisfied or the supply runs out.
            out: Dict[int, int] = {}
            take = min(width, left)
            left -= take
            step = cursor
            while take:
                i = ring[step % len(ring)]
                step += 1
                if free[i] > 0:
                    free[i] -= 1
                    out[i] = out.get(i, 0) + 1
                    take -= 1
            cursor = (cursor + 1) % len(ring)
            for i, n in out.items():
                job.append(j)
                leaf.append(i)
                cores.append(n)
        return Placement(job, leaf, cores)


class StaticPolicy(Policy):
    """Static provisioning: jobs are pinned at admission, forever.

    Each job holds slots only on its pinned leaf (assigned by the
    scheduler at admission time, round-robin over the population), up
    to that leaf's grant.  No migration, no reaction to latches — this
    is the baseline the paper's TCO argument measures Heracles-driven
    scheduling against.
    """

    name = "static"

    def place(self, ctx: PlacementContext) -> Placement:
        """Slots on the pinned leaf only, capped by its grant."""
        free = np.maximum(ctx.cap, 0).astype(np.int64)
        # Jobs pinned to one leaf take its grant in queue order: each
        # gets what is left after the wants queued before it there.
        job = np.argsort(ctx.pinned_leaf, kind="stable")
        leaf = ctx.pinned_leaf[job]
        want = ctx.max_cores[job]
        before = np.cumsum(want) - want
        first = np.diff(leaf, prepend=-1) != 0
        before -= before[first][np.cumsum(first) - 1]
        grab = np.clip(free[leaf] - before, 0, want)
        held = grab > 0
        return Placement(job[held], leaf[held], grab[held])


_POLICY_TYPES = {cls.name: cls for cls in (SlackGreedyPolicy,
                                           RoundRobinPolicy, StaticPolicy)}
assert set(_POLICY_TYPES) == set(POLICIES)


def make_policy(policy: "str | Policy") -> Policy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, Policy):
        return policy
    try:
        return _POLICY_TYPES[policy]()
    except KeyError:
        raise ValueError(f"unknown scheduling policy {policy!r}; choose "
                         f"from {', '.join(POLICIES)}") from None
