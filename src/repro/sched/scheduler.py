"""The decision-epoch scheduling engine ("Borg-lite").

:func:`run_schedule` replays a fleet run's per-leaf slack signals
(:class:`~repro.fleet.aggregate.FleetSlackView`) epoch by epoch and
manages a queue of typed :class:`~repro.sched.jobs.BeJob` work:
admission control, policy-driven placement, SLO-latch eviction, and
per-job completion/goodput accounting.

Decision loop (one iteration per epoch ``e``)::

    signals  <- slack view of epoch e-1        (reactive, like Borg:
                                                decisions see only
                                                observed telemetry)
    admit    <- arrivals with arrival_s <= t_e (queue_limit bounces)
    place    <- policy(signals, queue)         (caps: Heracles grant)
    credit   <- epoch e's actual harvest, split over placed slots
    evict    <- leaves that latched the SLO in epoch e forfeit the
                epoch's credit (jobs on them count an eviction)
    complete <- jobs whose credited progress covers their demand

Scheduling is a *metering* layer: leaf-local isolation (how many
cores BE may hold, when BE must be disabled) remains entirely
Heracles' job, exactly as in the paper's deployment where Heracles
runs under an unmodified cluster scheduler.  Placement therefore
decides which jobs the harvested headroom is credited to — and how
much of it is wasted for want of placed work — never the physics of
the leaves themselves.  That separation is what makes a scheduled run
with an empty queue *bit-identical* to the plain fleet run (the PR-5
differential gate), and every decision a pure function of the slack
view, so results are reproducible across shard counts and worker
pools.

Job state lives in columns on the queue-order job axis (demand,
``max_cores``, arrival, a state code, progress, evictions, pinned leaf,
completion time), and a placement is the int64 triple ``(job, leaf,
cores)``, so one epoch is a few array operations: admission is a mask
with ``queue_limit`` as a count, and crediting, eviction and the
store row run over the placed (job, leaf) pairs at once.  Every float
is summed in the order the per-job loop it replaced summed it — each
job banks its leaves in ascending order, and the epoch's credit is
folded left to right, leaf by leaf — so the accounting is exact to
the bit (``tests/test_sched_golden.py``).  ``outcome.jobs`` is
materialized once, after the last epoch.

Accounting lands in a jobs-on-the-member-axis
:class:`~repro.metrics.columns.BatchColumnStore`: per-epoch assigned
slots and credited core-seconds per job, plus shared fleet-level
columns (queue length, placed slots, harvested/credited/wasted
core-seconds, evictions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..fleet.aggregate import FleetSlackView
from ..metrics.columns import BatchColumnStore
from ..obs.trace import concat_payloads, make_sink
from .jobs import BeJob, JobRecord, JobState, expand_jobs
from .policies import PlacementContext, Policy, make_policy

#: Numerical slop when deciding a job's demand is fully retired.
_COMPLETION_EPS = 1e-9

#: Job state codes of the scheduler's state column.
_STATES = (JobState.PENDING, JobState.QUEUED, JobState.COMPLETED,
           JobState.REJECTED)
_PENDING, _QUEUED, _COMPLETED, _REJECTED = range(len(_STATES))


@dataclass
class ScheduleOutcome:
    """Everything one scheduling run produced.

    ``jobs`` holds the per-job records in queue (accounting) order —
    the same order as the job axis of ``store``.  ``store`` is the
    epoch-by-epoch accounting column store (``None`` when the job list
    was empty: nothing to account).  The scalar totals are the
    headline numbers the benchmark gates.

    ``trace`` is the run's decision-trace payload (``place``/``evict``
    events: ``member`` = fleet-global leaf, ``a`` = slot cores, ``b`` =
    job index on the ``jobs`` axis), populated only under
    ``REPRO_TRACE`` — the scheduler is a pure function of the slack
    view, so the trace is identical across shard plans and pools.
    """

    policy: str
    epoch_s: float
    jobs: List[JobRecord]
    store: Optional[BatchColumnStore]
    trace: Optional[Dict[str, np.ndarray]] = None
    goodput_core_s: float = 0.0
    credited_core_s: float = 0.0
    harvested_core_s: float = 0.0
    wasted_core_s: float = 0.0
    evictions: int = 0
    rejected: int = 0

    @property
    def completed(self) -> int:
        """Number of jobs that retired their full demand."""
        return sum(1 for r in self.jobs if r.state == JobState.COMPLETED)

    @property
    def goodput_core_h(self) -> float:
        """Completed-job demand in core-hours (the TCO currency)."""
        return self.goodput_core_s / 3600.0

    def job(self, name: str) -> JobRecord:
        """Look up one job's record by name."""
        for record in self.jobs:
            if record.job.name == name:
                return record
        raise KeyError(f"no job named {name!r} in this schedule")

    def summary(self) -> Dict[str, float]:
        """Deterministic plain-float summary (the comparison contract)."""
        return {
            "policy": self.policy,
            "jobs": len(self.jobs),
            "completed": self.completed,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "goodput_core_h": self.goodput_core_s / 3600.0,
            "credited_core_h": self.credited_core_s / 3600.0,
            "harvested_core_h": self.harvested_core_s / 3600.0,
            "wasted_core_h": self.wasted_core_s / 3600.0,
        }


def _check_placement(placement, ctx, records, queue, policy_name):
    """Enforce the placement invariants whatever the policy did.

    Slots must be non-negative, slots per job within its parallelism
    limit and slots per leaf within the Heracles grant — a buggy
    policy fails loudly here, naming the first job or leaf at fault,
    instead of silently over-crediting.  Returns the triple sorted by
    (job, leaf) with empty pairs dropped.
    """
    job, leaf, cores = placement.job, placement.leaf, placement.cores
    if not job.ndim == 1 or not job.shape == leaf.shape == cores.shape:
        raise ValueError(f"policy {policy_name!r} returned unaligned "
                         f"job/leaf/cores arrays")
    if ((job < 0) | (job >= len(queue)) | (leaf < 0)
            | (leaf >= ctx.leaves)).any():
        raise ValueError(f"policy {policy_name!r} placed a job index "
                         f"outside the queue or a leaf outside the fleet")
    negative = np.flatnonzero(cores < 0)
    if len(negative):
        raise ValueError(f"policy {policy_name!r} assigned negative "
                         f"cores to leaf {leaf[negative[0]]}")
    order = np.lexsort((leaf, job))
    job, leaf, cores = job[order], leaf[order], cores[order]
    twice = np.flatnonzero((job[1:] == job[:-1]) & (leaf[1:] == leaf[:-1]))
    if len(twice):
        raise ValueError(
            f"policy {policy_name!r} placed job "
            f"{records[queue[job[twice[0]]]].job.name!r} on leaf "
            f"{leaf[twice[0]]} twice")
    per_job = np.bincount(job, weights=cores, minlength=len(queue))
    over = np.flatnonzero(per_job > ctx.max_cores)
    if len(over):
        j = over[0]
        raise ValueError(
            f"policy {policy_name!r} gave job "
            f"{records[queue[j]].job.name!r} {int(per_job[j])} slots, "
            f"over its max_cores={ctx.max_cores[j]}")
    per_leaf = np.bincount(leaf, weights=cores, minlength=ctx.leaves)
    over = np.flatnonzero(per_leaf > ctx.cap)
    if len(over):
        i = over[0]
        raise ValueError(
            f"policy {policy_name!r} packed {int(per_leaf[i])} slots onto "
            f"leaf {i}, over its grant of {int(ctx.cap[i])}")
    held = cores > 0
    return job[held], leaf[held], cores[held]


def _fold(values: np.ndarray) -> float:
    """Left-to-right float sum (``np.sum`` would sum pairwise)."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def run_schedule(slack: FleetSlackView, jobs: Sequence[BeJob],
                 policy: Union[str, Policy] = "slack-greedy",
                 queue_limit: int = 0) -> ScheduleOutcome:
    """Schedule a job list over a fleet run's slack view.

    Args:
        slack: the per-epoch per-leaf slack signals of a fleet run
            (``ShardedFleetSim.run(..., slack_epoch_s=...)``).
        jobs: the typed BE jobs to place (unique names).
        policy: a :data:`~repro.sched.policies.POLICIES` name or a
            :class:`Policy` instance.
        queue_limit: admission control — arrivals that would push the
            number of waiting-or-running jobs past this bound are
            rejected (0 = unlimited).

    Returns:
        The populated :class:`ScheduleOutcome`.  Replaying different
        policies over the *same* slack view is how policies are
        compared: the fleet is simulated once, the scheduler is pure
        accounting over its signals.
    """
    if queue_limit < 0:
        raise ValueError("queue_limit must be >= 0 (0 = unlimited)")
    chosen = make_policy(policy)
    records = expand_jobs(jobs)
    epochs = slack.epochs
    epoch_s = float(slack.epoch_len_s[0]) if epochs else 0.0
    outcome = ScheduleOutcome(policy=chosen.name, epoch_s=epoch_s,
                              jobs=records, store=None)
    outcome.harvested_core_s = float(slack.harvest_core_s.sum())
    sink = make_sink()
    if not records or not epochs:
        # Nothing to place (or nothing to place on): all harvest that
        # existed went unmetered.
        outcome.wasted_core_s = outcome.harvested_core_s
        if sink is not None:
            outcome.trace = concat_payloads([sink.payload()])
        return outcome

    n = len(records)
    store = BatchColumnStore(
        [("t_s", np.float64), ("assigned_cores", np.float64),
         ("credit_core_s", np.float64), ("queued_jobs", np.int64),
         ("running_jobs", np.int64), ("placed_cores", np.int64),
         ("harvest_core_s", np.float64), ("credited_core_s", np.float64),
         ("wasted_core_s", np.float64), ("evictions", np.int64)],
        n=n,
        shared=("t_s", "queued_jobs", "running_jobs", "placed_cores",
                "harvest_core_s", "credited_core_s", "wasted_core_s",
                "evictions"))
    outcome.store = store

    # Job columns, in queue (accounting) order.
    demand = np.array([r.job.demand_core_s for r in records])
    max_cores = np.array([r.job.max_cores for r in records], dtype=np.int64)
    arrival = np.array([r.job.arrival_s for r in records])
    state = np.full(n, _PENDING, dtype=np.int8)
    progress = np.zeros(n)
    evictions = np.zeros(n, dtype=np.int64)
    pinned = np.full(n, -1, dtype=np.int64)
    completed_at = np.zeros(n)
    admitted = queued = 0
    for e in range(epochs):
        t = float(slack.epoch_t_s[e])
        length = float(slack.epoch_len_s[e])

        # -- admission: arrivals whose time has come, in queue order;
        # past queue_limit waiting-or-running jobs, the rest bounce --
        arriving = np.flatnonzero((state == _PENDING) & (arrival <= t))
        room = max(0, queue_limit - queued) if queue_limit \
            else len(arriving)
        admit, bounce = arriving[:room], arriving[room:]
        state[admit] = _QUEUED
        state[bounce] = _REJECTED
        pinned[admit] = (admitted + np.arange(len(admit))) % slack.leaves
        admitted += len(admit)
        queued += len(admit)
        outcome.rejected += len(bounce)

        # -- placement: previous epoch's signals, current queue -------
        queue = np.flatnonzero(state == _QUEUED)
        if e > 0:
            cap = slack.grant_cores[e - 1]
            rate = slack.harvest_core_s[e - 1] \
                / (np.maximum(cap, 1.0) * float(slack.epoch_len_s[e - 1]))
            latched = slack.latched[e - 1]
        else:
            # No telemetry yet: every policy sees an empty fleet.
            rate = cap = np.zeros(slack.leaves)
            latched = np.zeros(slack.leaves, dtype=bool)
        ctx = PlacementContext(
            epoch=e, epoch_len_s=length, rate_per_core=rate, cap=cap,
            latched=latched, max_cores=max_cores[queue],
            pinned_leaf=pinned[queue])
        job, leaf, cores = _check_placement(chosen.place(ctx), ctx,
                                            records, queue, chosen.name)
        job = queue[job]

        # -- eviction: a leaf that hit its SLO this epoch latched; the
        # epoch's work on it is forfeited and every occupant counts an
        # eviction ---------------------------------------------------
        hit = slack.latched[e][leaf]
        evicted = int(hit.sum())
        evictions += np.bincount(job[hit], minlength=n)
        if sink is not None:
            sink.emit_block(t, leaf, "sched", "place", a=cores, b=job)
            sink.emit_block(t, leaf[hit], "sched", "evict", a=cores[hit],
                            b=job[hit])

        # -- crediting: epoch e's actual harvest over placed slots.
        # Each job banks its leaves in ascending order (the k-th leaf
        # of every job at once), capped by its remaining demand ------
        placed = np.bincount(leaf, weights=cores, minlength=slack.leaves)
        unit = slack.harvest_core_s[e] / np.maximum(
            np.maximum(placed, slack.grant_cores[e]), 1.0)
        kept = ~hit
        paid, paid_leaf = job[kept], leaf[kept]
        gain = cores[kept] * unit[paid_leaf]
        remaining = demand - progress
        remaining = np.where(remaining > 0.0, remaining, 0.0)
        credit = np.zeros(n)
        earn = np.zeros(len(paid))
        first = np.diff(paid, prepend=-1) != 0
        rank = np.arange(len(paid))
        rank -= rank[first][np.cumsum(first) - 1]
        for k in range(int(rank.max(initial=-1)) + 1):
            pairs = np.flatnonzero(rank == k)
            owner = paid[pairs]
            headroom = remaining[owner] - credit[owner]
            got = np.where(headroom < gain[pairs], headroom, gain[pairs])
            got = np.where(got > 0.0, got, 0.0)
            credit[owner] += got
            earn[pairs] = got
        # Leaf by leaf, occupants in queue order, folded left to right.
        credited = _fold(earn[np.lexsort((paid, paid_leaf))])

        # -- completion + accounting ----------------------------------
        progress += credit
        done = queue[demand[queue] - progress[queue] <= _COMPLETION_EPS]
        state[done] = _COMPLETED
        completed_at[done] = t + length
        queued -= len(done)
        harvested = float(slack.harvest_core_s[e].sum())
        outcome.credited_core_s += credited
        outcome.wasted_core_s += harvested - credited
        outcome.evictions += evicted
        assigned = np.bincount(job, weights=cores, minlength=n)
        store.append_tick({
            "t_s": t,
            "assigned_cores": assigned,
            "credit_core_s": credit,
            "queued_jobs": queued,
            "running_jobs": int(np.count_nonzero(assigned)),
            "placed_cores": int(cores.sum()),
            "harvest_core_s": harvested,
            "credited_core_s": credited,
            "wasted_core_s": harvested - credited,
            "evictions": evicted,
        })

    finished = state == _COMPLETED
    outcome.goodput_core_s = _fold(demand[finished])
    for record, code, at, done, count, pin in zip(
            records, state.tolist(), completed_at.tolist(),
            progress.tolist(), evictions.tolist(), pinned.tolist()):
        record.state = _STATES[code]
        record.progress_core_s = done
        record.completed_at_s = at if code == _COMPLETED else None
        record.evictions = count
        record.pinned_leaf = pin if pin >= 0 else None
    if sink is not None:
        outcome.trace = concat_payloads([sink.payload()])
    return outcome
