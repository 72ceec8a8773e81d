"""Typed best-effort jobs: the unit of work the fleet scheduler places.

The paper's cluster-wide payoff (§5.3, §6) assumes a Borg-like
scheduler that launches *best-effort tasks* onto latency-critical
machines whenever Heracles reports slack.  :class:`BeJob` is that
task, typed the way a batch scheduler types it: total demand in
core-seconds of normalized throughput, a parallelism limit, a
priority, and an arrival time.

Demand is denominated in the EMU currency the whole repo uses: one
core-second of demand is one second of one core's worth of
*normalized* BE throughput (throughput relative to the batch workload
running alone on a whole server, §5.1) — so a leaf whose Heracles
instance harvests 0.3 normalized throughput on an 8-core machine
retires 2.4 core-seconds of job demand per second.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class BeJob:
    """One typed best-effort job in the fleet queue.

    Args:
        name: unique job name (the accounting key).
        demand_core_s: total work, in core-seconds of normalized BE
            throughput.  Must be positive.
        max_cores: parallelism limit — the job never holds more than
            this many BE core slots fleet-wide in one epoch.
        priority: higher runs first; ties break by arrival time, then
            name, so placement is invariant to submission order.
        arrival_s: simulated time the job enters the queue.
    """

    name: str
    demand_core_s: float
    max_cores: int = 8
    priority: int = 0
    arrival_s: float = 0.0

    def validate(self) -> None:
        """Check the job's fields (positive demand, sane limits)."""
        if not self.name:
            raise ValueError("a job needs a non-empty name")
        if not self.demand_core_s > 0:
            raise ValueError(f"job {self.name!r}: demand_core_s must be "
                             f"positive, got {self.demand_core_s!r}")
        if self.max_cores < 1:
            raise ValueError(f"job {self.name!r}: max_cores must be >= 1, "
                             f"got {self.max_cores!r}")
        if self.arrival_s < 0:
            raise ValueError(f"job {self.name!r}: arrival_s must be >= 0, "
                             f"got {self.arrival_s!r}")

    def order_key(self) -> Tuple[int, float, str]:
        """Queue ordering: priority desc, then arrival, then name.

        Every scheduler decision sorts jobs through this one key, which
        is what makes placement invariant to the order jobs were
        submitted in (the determinism property the hypothesis suite
        pins).
        """
        return (-self.priority, self.arrival_s, self.name)


class JobState(enum.Enum):
    """Lifecycle of a job inside one scheduling run."""

    PENDING = "pending"        # submitted, arrival time not reached
    QUEUED = "queued"          # admitted, waiting for (more) slack
    COMPLETED = "completed"    # full demand retired
    REJECTED = "rejected"      # bounced by admission control


@dataclass
class JobRecord:
    """One job's accounting at the end of a scheduling run.

    ``progress_core_s`` only ever counts *credited* work: harvest
    earned during an epoch in which the hosting leaf latched its SLO
    is forfeited (the eviction penalty), not banked.
    """

    job: BeJob
    state: JobState = JobState.PENDING
    progress_core_s: float = 0.0
    completed_at_s: Optional[float] = None
    evictions: int = 0
    pinned_leaf: Optional[int] = None


def expand_jobs(jobs: Sequence[BeJob]) -> List[JobRecord]:
    """Validate a job list and build its runtime records, queue-ordered.

    Rejects duplicate names (the accounting key) and returns records
    sorted by :meth:`BeJob.order_key`, which fixes the job axis of the
    scheduler's accounting columns independently of submission order.
    """
    seen = set()
    for job in jobs:
        job.validate()
        if job.name in seen:
            raise ValueError(f"duplicate job name {job.name!r}: job names "
                             f"are the accounting key and must be unique")
        seen.add(job.name)
    ordered = sorted(jobs, key=BeJob.order_key)
    return [JobRecord(job=job) for job in ordered]
