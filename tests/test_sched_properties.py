"""Property-based invariants (hypothesis) for the fleet scheduler.

The PR-5 issue names three invariants; all are checked here over
randomized slack views and job queues:

* **capacity** — no leaf is ever assigned more BE core slots than its
  (previous-epoch) Heracles grant, and no job ever holds more slots
  than its parallelism limit, under *every* policy;
* **work conservation** — under ``slack-greedy``, no usable slot
  (positive predicted harvest, not latched) stays free while some
  queued job could still take one;
* **determinism** — placement and accounting are invariant to the
  order jobs are submitted in (shard-count invariance is covered by
  the real-simulation differential in ``tests/test_sched.py``; the
  scheduler itself only ever sees the slack view, which that harness
  pins bit-identical across plans).

Plus the accounting sanity the benchmark leans on: credited work never
exceeds harvested work, and goodput never exceeds credited work; and
each policy's closed-form placement equals a per-slot oracle that
hands out one slot at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.aggregate import FleetSlackView, LeafSlackView
from repro.sched import BeJob, run_schedule
from repro.sched.policies import (POLICIES, PlacementContext, Policy,
                                  make_policy)

EPOCH_S = 60.0


@st.composite
def slack_views(draw, max_epochs=5, max_leaves=6):
    """A random synthetic single-cluster fleet slack view."""
    epochs = draw(st.integers(min_value=1, max_value=max_epochs))
    leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    harvest = draw(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=500.0,
                           allow_nan=False, allow_infinity=False),
                 min_size=leaves, max_size=leaves),
        min_size=epochs, max_size=epochs))
    grant = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=36),
                 min_size=leaves, max_size=leaves),
        min_size=epochs, max_size=epochs))
    latched = draw(st.lists(
        st.lists(st.booleans(), min_size=leaves, max_size=leaves),
        min_size=epochs, max_size=epochs))
    view = LeafSlackView(
        cluster="prop", total_cores=36,
        epoch_t_s=np.arange(epochs) * EPOCH_S,
        epoch_len_s=np.full(epochs, EPOCH_S),
        harvest_core_s=np.asarray(harvest, dtype=float),
        grant_cores=np.asarray(grant, dtype=float),
        latched=np.asarray(latched, dtype=bool))
    return FleetSlackView([view])


@st.composite
def job_lists(draw, max_jobs=6):
    """A random queue of typed BE jobs with unique names."""
    count = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(count):
        jobs.append(BeJob(
            name=f"job-{i}",
            demand_core_s=draw(st.floats(min_value=1.0, max_value=5000.0,
                                         allow_nan=False)),
            max_cores=draw(st.integers(min_value=1, max_value=12)),
            priority=draw(st.integers(min_value=-2, max_value=2)),
            arrival_s=draw(st.floats(min_value=0.0, max_value=200.0,
                                     allow_nan=False))))
    return jobs


class SpyPolicy(Policy):
    """Wrap a policy and record every (context, placement) pair.

    The recorded placement is the policy's ``(job, leaf, cores)``
    triple; ``job`` indexes the context's queue.
    """

    def __init__(self, inner):
        self.inner = make_policy(inner)
        self.name = self.inner.name
        self.calls = []

    def place(self, ctx):
        """Delegate, recording the decision for later assertions."""
        placement = self.inner.place(ctx)
        self.calls.append((ctx, placement))
        return placement


class TestCapacityInvariant:
    @given(slack_views(), job_lists(),
           st.sampled_from(["slack-greedy", "round-robin", "static"]))
    @settings(max_examples=80, deadline=None)
    def test_no_leaf_over_grant_no_job_over_parallelism(self, slack, jobs,
                                                        policy):
        spy = SpyPolicy(policy)
        run_schedule(slack, jobs, policy=spy)
        for ctx, placement in spy.calls:
            per_leaf = np.zeros(ctx.leaves)
            per_job = np.zeros(len(ctx.max_cores))
            for job, leaf, cores in zip(placement.job, placement.leaf,
                                        placement.cores):
                assert cores >= 0
                per_job[job] += cores
                per_leaf[leaf] += cores
            assert (per_job <= ctx.max_cores).all()
            # The grant itself never exceeds the machine's cores, so
            # staying under the grant is staying under capacity.
            assert (per_leaf <= ctx.cap + 1e-9).all()
            assert (per_leaf <= 36 + 1e-9).all()


class TestWorkConservation:
    @given(slack_views(), job_lists())
    @settings(max_examples=80, deadline=None)
    def test_greedy_leaves_no_usable_slot_idle(self, slack, jobs):
        spy = SpyPolicy("slack-greedy")
        run_schedule(slack, jobs, policy=spy)
        for ctx, placement in spy.calls:
            usable = (ctx.rate_per_core > 0) & ~ctx.latched
            free = np.where(usable, ctx.cap, 0).astype(float)
            per_job = np.zeros(len(ctx.max_cores))
            for job, leaf, cores in zip(placement.job, placement.leaf,
                                        placement.cores):
                free[leaf] -= cores
                per_job[job] += cores
            unsatisfied = per_job < ctx.max_cores
            if unsatisfied.any():
                assert free.sum() == 0, (
                    "queued jobs below their parallelism limit while "
                    "usable slots stayed free")


class TestDeterminism:
    @given(slack_views(), job_lists(),
           st.sampled_from(["slack-greedy", "round-robin", "static"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_submission_order_is_irrelevant(self, slack, jobs, policy, rng):
        shuffled = list(jobs)
        rng.shuffle(shuffled)
        a = run_schedule(slack, jobs, policy=policy)
        b = run_schedule(slack, shuffled, policy=policy)
        assert a.summary() == b.summary()
        for ra, rb in zip(a.jobs, b.jobs):
            assert ra.job == rb.job
            assert ra.state == rb.state
            assert ra.progress_core_s == rb.progress_core_s
            assert ra.completed_at_s == rb.completed_at_s
            assert ra.evictions == rb.evictions

    @given(slack_views(), job_lists(),
           st.sampled_from(["slack-greedy", "round-robin", "static"]))
    @settings(max_examples=40, deadline=None)
    def test_reruns_are_bit_identical(self, slack, jobs, policy):
        a = run_schedule(slack, jobs, policy=policy)
        b = run_schedule(slack, jobs, policy=policy)
        assert a.summary() == b.summary()
        if a.store is not None:
            for field in a.store.fields:
                assert np.array_equal(a.store.column(field),
                                      b.store.column(field))


class TestAccountingBounds:
    @given(slack_views(), job_lists(),
           st.sampled_from(["slack-greedy", "round-robin", "static"]))
    @settings(max_examples=80, deadline=None)
    def test_goodput_credit_harvest_ordering(self, slack, jobs, policy):
        outcome = run_schedule(slack, jobs, policy=policy)
        assert outcome.goodput_core_s <= outcome.credited_core_s + 1e-6
        assert outcome.credited_core_s <= outcome.harvested_core_s + 1e-6
        assert outcome.wasted_core_s >= -1e-6
        # Same quantity accumulated per epoch vs reduced in one sum:
        # equal up to float summation order.
        np.testing.assert_allclose(
            outcome.wasted_core_s + outcome.credited_core_s,
            outcome.harvested_core_s, rtol=1e-9, atol=1e-9)

    @given(slack_views(), job_lists())
    @settings(max_examples=60, deadline=None)
    def test_progress_never_exceeds_demand(self, slack, jobs):
        outcome = run_schedule(slack, jobs)
        for record in outcome.jobs:
            assert record.progress_core_s <= \
                record.job.demand_core_s + 1e-6


@st.composite
def placement_contexts(draw, max_leaves=8, max_jobs=8):
    """A random one-epoch placement context (leaf signals + queue)."""
    leaves = draw(st.integers(min_value=1, max_value=max_leaves))
    jobs = draw(st.integers(min_value=0, max_value=max_jobs))

    def column(elements, size):
        return draw(st.lists(elements, min_size=size, max_size=size))

    return PlacementContext(
        epoch=draw(st.integers(min_value=0, max_value=50)),
        epoch_len_s=EPOCH_S,
        rate_per_core=np.array(column(st.sampled_from(
            [0.0, 0.1, 0.25, 0.5, 0.9]), leaves)),
        cap=np.array(column(st.integers(0, 12), leaves), dtype=float),
        latched=np.array(column(st.booleans(), leaves), dtype=bool),
        max_cores=np.array(column(st.integers(1, 12), jobs),
                           dtype=np.int64),
        pinned_leaf=np.array(column(st.integers(0, leaves - 1), jobs),
                             dtype=np.int64))


def oracle(policy, ctx):
    """Per-slot reference placement: each job takes one slot at a time
    from the first leaf with a free slot in the policy's leaf order."""
    free = np.maximum(ctx.cap, 0).astype(int)
    if policy == "slack-greedy":
        free[(ctx.rate_per_core <= 0) | ctx.latched] = 0
    rank = np.argsort(-ctx.rate_per_core, kind="stable") \
        if policy == "slack-greedy" else range(ctx.leaves)
    ring = [int(i) for i in rank if free[i] > 0]
    held = {}
    for j, width in enumerate(ctx.max_cores):
        pos = (ctx.epoch + j) % len(ring) if ring else 0
        for _ in range(width):
            order = {"slack-greedy": ring,
                     "round-robin": ring[pos:] + ring[:pos],
                     "static": [int(ctx.pinned_leaf[j])]}[policy]
            leaf = next((i for i in order if free[i] > 0), None)
            if leaf is None:
                break
            free[leaf] -= 1
            held[j, leaf] = held.get((j, leaf), 0) + 1
            if policy == "round-robin":
                pos = (ring.index(leaf) + 1) % len(ring)
    return sorted((j, leaf, cores) for (j, leaf), cores in held.items())


class TestPolicyOracle:
    @given(placement_contexts(), st.sampled_from(POLICIES))
    @settings(max_examples=300, deadline=None)
    def test_triples_equal_the_per_slot_oracle(self, ctx, policy):
        placement = make_policy(policy).place(ctx)
        for array in (placement.job, placement.leaf, placement.cores):
            assert array.dtype == np.int64
        got = sorted(zip(placement.job.tolist(), placement.leaf.tolist(),
                         placement.cores.tolist()))
        assert got == oracle(policy, ctx)
