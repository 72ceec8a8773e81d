"""One control surface: the vector controller plus the event schedule.

A batch's members are array state; Heracles runs over them as the
batch's vector controller, and every other actuation — a static
baseline's start-up grant, an injection — is an event on the batch's
schedule.  One batch here mixes every kind a scenario can assign —
vector Heracles, a static baseline, vector Heracles under an injection,
and no controller — and every member must match its scalar
``ColocationSim`` twin bit for bit, through chaos events, decision
tracing and a mid-run checkpoint.  The batch runs one vector controller
at most, over members that have a BE task.
"""

import json

import numpy as np
import pytest

from repro.baselines import conservative_static
from repro.core.controller import HeraclesController
from repro.hardware.spec import default_machine_spec
from repro.obs.trace import TRACE_ENV
from repro.sim.batch import BatchColocationSim
from repro.sim.chaos import ChaosEvent
from repro.sim.checkpoint import (CheckpointError, load_engine, run_ticks,
                                  save_engine)
from repro.sim.engine import ColocationSim, SimHistory
from repro.sim.runner import memoized_dram_model
from repro.workloads.best_effort import make_be_workload
from repro.workloads.latency_critical import make_lc_workload
from repro.workloads.traces import DiurnalTrace

SPEC = default_machine_spec()
DURATION = 240
SNAPSHOT = 130
SEEDS = (61, 62, 63, 64)
BES = ("brain", "streetview", "brain", "streetview")
#: member -> its controller kind.
KINDS = ("heracles", "static", "heracles+injection", "none")
INJECTION = ChaosEvent(100.0, "set_be_cores", 10.0)
CHAOS = (ChaosEvent(40.0, "leaf_crash"), ChaosEvent(90.0, "leaf_restart"),
         ChaosEvent(120.0, "set_llc_split", 4),
         ChaosEvent(150.0, "set_be_net_ceil", 1.5))


def make_trace(seed):
    return DiurnalTrace(low=0.15, high=0.90, period_s=300.0,
                        noise_sigma=0.03, seed=seed)


def model():
    return memoized_dram_model("websearch", SPEC)


def scalar_twin(i):
    """Member ``i`` as its own scalar engine, its controller attached."""
    sim = ColocationSim(lc=make_lc_workload("websearch", SPEC),
                        trace=make_trace(SEEDS[i]),
                        be=make_be_workload(BES[i], SPEC), spec=SPEC,
                        seed=SEEDS[i])
    events = CHAOS
    if KINDS[i].startswith("heracles"):
        HeraclesController.for_sim(sim, dram_model=model())
    elif KINDS[i] == "static":
        events = conservative_static(SPEC).events() + events
    if KINDS[i] == "heracles+injection":
        events = events + (INJECTION,)
    sim.set_chaos_events(events)
    sim.run(DURATION)
    return sim.history


def mixed_batch():
    """All four controller kinds in one batch."""
    batch = BatchColocationSim(
        lc=make_lc_workload("websearch", SPEC),
        trace=[make_trace(seed) for seed in SEEDS],
        bes=[make_be_workload(name, SPEC) for name in BES], spec=SPEC,
        seeds=SEEDS)
    managed = np.array([kind.startswith("heracles") for kind in KINDS])
    batch.attach_vec_heracles(dram_model=model(), managed=managed)
    batch.set_chaos_events(conservative_static(SPEC).events(members=(1,))
                           + CHAOS + (INJECTION.retarget((2,)),))
    return batch


#: On a TDP-throttled socket the batch's recorded power fraction can
#: sit a couple of ulp from the scalar engine's (the batch engine has
#: always differed there); every other column is exact.
ULP_FIELDS = ("power_fraction_of_tdp",)


def assert_identical(got, want, what):
    """Bitwise equality across the full TickRecord field set."""
    assert len(got) == len(want), f"{what}: lengths differ"
    for name in SimHistory.field_names():
        a, b = got.column(name), want.column(name)
        if name in ULP_FIELDS and not np.array_equal(a, b):
            np.testing.assert_array_max_ulp(a, b, maxulp=2)
            continue
        assert np.array_equal(a, b, equal_nan=True), (
            f"{what}: {name!r} diverged")


@pytest.fixture(scope="module")
def twins():
    return [scalar_twin(i) for i in range(len(KINDS))]


class TestMixedControllers:
    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
    def test_every_member_matches_its_scalar_twin(self, twins, trace,
                                                  monkeypatch):
        if trace:
            monkeypatch.setenv(TRACE_ENV, "1")
        else:
            monkeypatch.delenv(TRACE_ENV, raising=False)
        batch = mixed_batch()
        batch.run(DURATION)
        assert (batch._obs_trace is not None) == trace
        for i, kind in enumerate(KINDS):
            assert_identical(batch.members[i].history, twins[i], kind)

    def test_controllers_actually_acted(self, twins):
        """Guard against a vacuous match: each kind leaves its mark."""
        heracles, static, injected, idle = (
            np.asarray(h.column("be_cores")) for h in twins)
        assert heracles.max() > 0 and idle.max() == 0
        # The grant holds from start-up until the crash at t=40.
        assert static[0] == 2 and set(static[static > 0]) == {2}
        # The injected grant lands at the start of its tick, mid-growth;
        # Heracles keeps growing.
        assert injected[99] < 10 <= injected[100]

    def test_checkpoint_resume_matches_straight_run(self, tmp_path):
        straight = mixed_batch()
        straight.run(DURATION)
        saver = mixed_batch()
        run_ticks(saver, SNAPSHOT, 1.0)
        path = save_engine(saver, str(tmp_path / "mixed"), kind="batch")
        resumed = load_engine(path, expect_kind="batch").sim
        run_ticks(resumed, DURATION - SNAPSHOT, 1.0)
        for i, kind in enumerate(KINDS):
            assert_identical(resumed.members[i].history,
                             straight.members[i].history, kind)


def test_version_1_archive_is_rejected(tmp_path):
    """Batch members pickle as array state (version 2), a batch
    carries no object controllers (version 3) and its per-socket
    arrays are socket-major (version 4): older archives fail with a
    clear error before unpickling, never restore transposed."""
    for version in (1, 2, 3):
        path = str(tmp_path / f"v{version}.npz")
        meta = json.dumps({"version": version, "kind": "batch",
                           "time_s": 0.0}).encode("utf-8")
        np.savez(path, __meta__=np.frombuffer(meta, dtype=np.uint8),
                 __pickle__=np.zeros(4, dtype=np.uint8))
        with pytest.raises(CheckpointError,
                           match=f"checkpoint version {version}, this "
                                 f"build reads version 4"):
            load_engine(path)


def test_member_specs_vary_only_in_capacities():
    """Per-member specs become (N,) capacity columns; any structural
    difference is refused, whichever spec object carries it."""
    import dataclasses
    rich = dataclasses.replace(SPEC, socket=dataclasses.replace(
        SPEC.socket, dram_bw_gbps=80.0))
    batch = BatchColocationSim(
        lc=make_lc_workload("websearch", SPEC), trace=make_trace(1),
        bes=make_be_workload("brain", SPEC), spec=SPEC, seeds=[1, 2, 3],
        specs=[SPEC, rich, rich])
    assert np.array_equal(batch._dram_cap, [60.0, 80.0, 80.0])
    assert batch._nic_link == SPEC.nic.link_gbps
    odd = dataclasses.replace(SPEC, socket=dataclasses.replace(
        SPEC.socket, tdp_watts=100.0))
    with pytest.raises(ValueError, match="may differ only in DRAM"):
        BatchColocationSim(
            lc=make_lc_workload("websearch", SPEC), trace=make_trace(1),
            spec=SPEC, seeds=[1, 2, 3], specs=[SPEC, rich, odd])


def two_member_batch(bes=("brain", "streetview")):
    return BatchColocationSim(
        lc=make_lc_workload("websearch", SPEC), trace=make_trace(1),
        bes=[make_be_workload(name, SPEC) if name else None
             for name in bes],
        spec=SPEC, seeds=[1, 2])


def vec(batch, managed=None):
    batch.attach_vec_heracles(dram_model=model(), managed=managed)


def static(batch, i=0):
    batch.set_chaos_events(conservative_static(SPEC).events(members=(i,)))


def injections(batch, i=0):
    batch.set_chaos_events([INJECTION.retarget((i,))])


#: (case, setup steps, raises).  One vector controller per batch, over
#: members with a BE task; events share any member with it.
DOUBLE_CONTROL = [
    ("second vector controller", [vec, vec], True),
    ("vector over a member without BE",
     [lambda b: b.attach_vec_heracles(dram_model=model())], True),
    ("bare injections on a vector-managed member", [vec, injections],
     False),
    ("vector over bare injections", [injections, vec], False),
    ("baseline on an unmanaged member",
     [lambda b: vec(b, managed=[True, False]), lambda b: static(b, 1)],
     False),
    ("vector over a baseline on an unmanaged member",
     [lambda b: static(b, 1), lambda b: vec(b, managed=[True, False])],
     False),
]


@pytest.mark.parametrize("case,steps,raises", DOUBLE_CONTROL,
                         ids=[row[0] for row in DOUBLE_CONTROL])
def test_double_control_fails_loud(case, steps, raises):
    batch = two_member_batch(
        ("brain", None) if "without BE" in case else ("brain", "brain"))
    *setup, last = steps
    for step in setup:
        step(batch)
    if raises:
        with pytest.raises(ValueError):
            last(batch)
    else:
        last(batch)
        batch.run(5)
