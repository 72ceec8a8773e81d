"""Exact scheduler golden: one seeded replay, pinned bit for bit.

A synthetic fleet slack view (three clusters, 100 leaves, 60 epochs,
grants of 0-12 cores, scattered SLO latches, two zero-harvest leaves
per cluster) and 400 jobs (mixed priority, ``max_cores`` 1-12,
staggered arrivals) are replayed under every policy with and without
admission control.  For each run three things are pinned exactly:
``summary()`` as ``repr`` floats, a SHA-256 over the accounting
store's column bytes, and a SHA-256 over every job record's
(state, progress, completed_at, evictions, pinned_leaf).  The
decision trace of each policy's replay is pinned as the SHA-256 of
its canonical JSONL.

The benchmark's output digest rounds floats to ten digits; this test
is what holds the scheduler's accounting to the last bit.
"""

import hashlib

import numpy as np
import pytest

from repro.fleet.aggregate import FleetSlackView, LeafSlackView
from repro.obs.trace import TRACE_ENV, events_to_jsonl
from repro.sched import POLICIES, BeJob, run_schedule

EPOCHS = 60
EPOCH_S = 60.0
CLUSTER_LEAVES = (40, 35, 25)
QUEUE_LIMITS = (0, 150)


def golden_slack() -> FleetSlackView:
    """The seeded three-cluster, 100-leaf, 60-epoch slack view."""
    rng = np.random.default_rng(20150613)
    views = []
    for c, leaves in enumerate(CLUSTER_LEAVES):
        grant = rng.integers(0, 13, size=(EPOCHS, leaves)).astype(float)
        rate = rng.uniform(0.02, 0.45, size=(EPOCHS, leaves))
        harvest = grant * EPOCH_S * rate
        # Two unmanaged machines per cluster: grants but no harvest.
        harvest[:, :2] = 0.0
        latched = rng.random((EPOCHS, leaves)) < 0.05
        views.append(LeafSlackView(
            cluster=f"c{c}", total_cores=36,
            epoch_t_s=np.arange(EPOCHS) * EPOCH_S,
            epoch_len_s=np.full(EPOCHS, EPOCH_S),
            harvest_core_s=harvest, grant_cores=grant, latched=latched))
    return FleetSlackView(views)


def golden_jobs():
    """400 seeded jobs: mixed priority, width and arrival time."""
    rng = np.random.default_rng(1506)
    return [BeJob(name=f"job-{i:03d}",
                  demand_core_s=float(rng.uniform(50.0, 4000.0)),
                  max_cores=int(rng.integers(1, 13)),
                  priority=int(rng.integers(-1, 3)),
                  arrival_s=float(rng.choice([0.0, 0.0, 1.0])
                                  * rng.uniform(0.0, 3000.0)))
            for i in range(400)]


def store_digest(outcome) -> str:
    """SHA-256 over every accounting column's name and bytes."""
    digest = hashlib.sha256()
    for name in outcome.store.fields:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(outcome.store.column(name))
                      .tobytes())
    return digest.hexdigest()


def records_digest(outcome) -> str:
    """SHA-256 over every job record's exact accounting fields."""
    digest = hashlib.sha256()
    for record in outcome.jobs:
        digest.update(repr((record.job.name, record.state.value,
                            record.progress_core_s, record.completed_at_s,
                            record.evictions, record.pinned_leaf))
                      .encode())
    return digest.hexdigest()


def trace_digest(outcome) -> str:
    """SHA-256 of the run's canonical decision-trace JSONL."""
    return hashlib.sha256(events_to_jsonl(outcome.trace).encode()) \
        .hexdigest()


GOLDEN = {
    ("slack-greedy", 0): (
        {"policy": "slack-greedy",
         "jobs": 400,
         "completed": 101,
         "rejected": 0,
         "evictions": 410,
         "goodput_core_h": 41.26346980074753,
         "credited_core_h": 75.43464394967148,
         "harvested_core_h": 133.84235140421143,
         "wasted_core_h": 58.40770745453993},
        "1714df364de1ba68b7748ae8ecbcac4d7e1fc21405705e0cf789ffaa7b47578e",
        "38a07fc0b13962dcd5358ac4c26f5239e1600c400d4b14c5bc921614ae6ac66a"),
    ("slack-greedy", 150): (
        {"policy": "slack-greedy",
         "jobs": 400,
         "completed": 109,
         "rejected": 166,
         "evictions": 425,
         "goodput_core_h": 44.291256781926656,
         "credited_core_h": 75.33896614611781,
         "harvested_core_h": 133.84235140421143,
         "wasted_core_h": 58.50338525809359},
        "82d0ce3798cd911692a59f2deb293c969cb1801d0fc52a8bf3b9ad24e67203f8",
        "2485aa1ad6eac3bc08e01300c74c971dfaa788794ebe8d99aba1dba382b56b3a"),
    ("round-robin", 0): (
        {"policy": "round-robin",
         "jobs": 400,
         "completed": 109,
         "rejected": 0,
         "evictions": 1544,
         "goodput_core_h": 44.73863204284963,
         "credited_core_h": 79.3081777953899,
         "harvested_core_h": 133.84235140421143,
         "wasted_core_h": 54.534173608821526},
        "2619e13e06c7c29dc75f701c3b7323fd929100cf54054ac593e671855df9796f",
        "d5bf56b5d92d98c82b6dd4a2c172bb251c34e9fcd96e6e06f702d4c60ae54b3b"),
    ("round-robin", 150): (
        {"policy": "round-robin",
         "jobs": 400,
         "completed": 110,
         "rejected": 165,
         "evictions": 1550,
         "goodput_core_h": 44.783516087831835,
         "credited_core_h": 79.30680478167591,
         "harvested_core_h": 133.84235140421143,
         "wasted_core_h": 54.53554662253553},
        "2ea00cf596dfc0ddf143c9d57d299c881cef7b53e864b7c8bcbd7f8848723cd1",
        "e74e85d6e3072be4b878969a8156540f256a30de0bf38a030b13907428502568"),
    ("static", 0): (
        {"policy": "static",
         "jobs": 400,
         "completed": 90,
         "rejected": 0,
         "evictions": 394,
         "goodput_core_h": 26.187327894840635,
         "credited_core_h": 78.27020718024184,
         "harvested_core_h": 133.84235140421143,
         "wasted_core_h": 55.572144223969566},
        "b88280287b675c08918083ee8dbc560ddf0d65d1353aab994db2965314df67eb",
        "c9a7bc86271cf9727a68460e45d0a2bf81f60bfb2641ee44ab0b3997fead741a"),
    ("static", 150): (
        {"policy": "static",
         "jobs": 400,
         "completed": 81,
         "rejected": 183,
         "evictions": 299,
         "goodput_core_h": 25.322326911309137,
         "credited_core_h": 64.5223155287944,
         "harvested_core_h": 133.84235140421143,
         "wasted_core_h": 69.32003587541703},
        "eeae5229befb9cff8fc11863b305f693b12031a3abec4d8731f05af83262effb",
        "4a9d90b9b50afa4636ae383ee9bf9892cb2ea5fa980a10b5fce357b5c4b9ebe3"),
}

TRACE_GOLDEN = {
    "slack-greedy":
        "4eebe38e83ced58e68d3b62d50c92fc97c37b1e2626573156bd968de5723ba48",
    "round-robin":
        "18bb42b1406457f3283da582773be57b2510525a78b8fb292f653d6eb6aad176",
    "static":
        "a0969d6a45a97f8786f8ec3e974659d64fac8c93b1a32b7c1725910ad950b9fd",
}


@pytest.fixture(scope="module")
def inputs():
    return golden_slack(), golden_jobs()


@pytest.mark.parametrize("queue_limit", QUEUE_LIMITS)
@pytest.mark.parametrize("policy", POLICIES)
def test_replay_is_bit_identical(inputs, policy, queue_limit):
    slack, jobs = inputs
    outcome = run_schedule(slack, jobs, policy=policy,
                           queue_limit=queue_limit)
    summary, store, records = GOLDEN[policy, queue_limit]
    assert outcome.summary() == summary
    assert store_digest(outcome) == store
    assert records_digest(outcome) == records


@pytest.mark.parametrize("policy", POLICIES)
def test_traced_replay_jsonl_is_byte_identical(inputs, monkeypatch,
                                               policy):
    slack, jobs = inputs
    monkeypatch.setenv(TRACE_ENV, "1")
    outcome = run_schedule(slack, jobs, policy=policy)
    assert trace_digest(outcome) == TRACE_GOLDEN[policy]
    assert outcome.summary() == GOLDEN[policy, 0][0]
