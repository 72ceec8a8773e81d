"""Batched-backend equivalence: BatchColocationSim(N=1) vs ColocationSim.

The batch backend promises to be a numerical replica of the scalar
engine, not an approximation: same formulas, same operation ordering,
same per-server seeded noise streams.  These tests enforce the promise
tick-for-tick, to a relative 1e-9 (array math and libm round a few
expressions differently in the last bits), across the three controller
regimes the cluster and the figures exercise — managed (Heracles:
``HeraclesController`` on the scalar engine, the vector controller on
the batch), static partitioning (the grant as start-up events on
both), and no BE at all — on 1-, 2- and 3-socket machines, plus a
mixed heterogeneous batch where every member must match its scalar
twin simultaneously.  The tick's array kernels are held bitwise to
their plain references.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.static import conservative_static, optimistic_static
from repro.core.controller import HeraclesController
from repro.hardware.spec import default_machine_spec
from repro.sim.batch import BatchColocationSim, _socket_fold
from repro.sim.chaos import ChaosEvent
from repro.sim.engine import ColocationSim
from repro.workloads.best_effort import make_be_workload
from repro.workloads.latency_critical import make_lc_workload
from repro.workloads.traces import ConstantLoad, DiurnalTrace

FLOAT_FIELDS = (
    "t_s", "load", "tail_latency_ms", "slo_fraction", "be_throughput_norm",
    "emu", "dram_bw_gbps", "dram_utilization", "cpu_utilization",
    "power_fraction_of_tdp", "lc_net_gbps", "be_net_gbps",
    "link_utilization",
)
EXACT_FIELDS = ("be_cores", "be_llc_ways", "be_enabled", "be_dvfs_cap_ghz",
                "be_net_ceil_gbps")


def make_trace(seed=5):
    """A wiggly trace that sweeps the controller through its regimes."""
    return DiurnalTrace(low=0.15, high=0.90, period_s=600.0,
                        noise_sigma=0.03, seed=seed)


def assert_histories_match(scalar_history, batch_history, rtol=1e-9):
    assert len(scalar_history) == len(batch_history)
    for name in FLOAT_FIELDS:
        a = scalar_history.column(name)
        b = batch_history.column(name)
        np.testing.assert_allclose(
            a, b, rtol=rtol, atol=1e-12,
            err_msg=f"TickRecord field {name!r} diverged")
    for name in EXACT_FIELDS:
        a = [getattr(r, name) for r in scalar_history.records]
        b = [getattr(r, name) for r in batch_history.records]
        assert a == b, f"TickRecord field {name!r} diverged"


def scalar_run(lc_name, be_name, trace, seed, controller_factory,
               duration_s, spec=None):
    spec = spec or default_machine_spec()
    lc = make_lc_workload(lc_name, spec)
    be = make_be_workload(be_name, spec) if be_name else None
    sim = ColocationSim(lc=lc, trace=trace, be=be, spec=spec, seed=seed)
    if controller_factory is not None:
        controller_factory(sim)
    sim.run(duration_s)
    return sim.history


def batch_run(lc_name, be_name, trace, seed, controller_factory,
              duration_s, spec=None):
    spec = spec or default_machine_spec()
    lc = make_lc_workload(lc_name, spec)
    be = make_be_workload(be_name, spec) if be_name else None
    batch = BatchColocationSim(lc=lc, trace=trace, bes=be, spec=spec,
                               seeds=[seed])
    if controller_factory is not None:
        controller_factory(batch)
    batch.run(duration_s)
    return batch.members[0].history


def heracles(sim):
    """Heracles on either engine: the object controller on a scalar
    sim, the vector controller on a batch."""
    if isinstance(sim, BatchColocationSim):
        sim.attach_vec_heracles()
    else:
        HeraclesController.for_sim(sim)


def static(baseline):
    """A static baseline's grant as start-up events, on either engine."""
    def attach(sim):
        sim.set_chaos_events(baseline(default_machine_spec()).events())
    return attach


class TestSingleServerEquivalence:
    DURATION = 420.0

    def test_managed_heracles(self):
        a = scalar_run("websearch", "brain", make_trace(), 11, heracles,
                       self.DURATION)
        b = batch_run("websearch", "brain", make_trace(), 11, heracles,
                      self.DURATION)
        assert_histories_match(a, b)

    def test_static_partitioning(self):
        factory = static(optimistic_static)
        a = scalar_run("websearch", "streetview", make_trace(3), 4, factory,
                       self.DURATION)
        b = batch_run("websearch", "streetview", make_trace(3), 4, factory,
                      self.DURATION)
        assert_histories_match(a, b)

    def test_conservative_static(self):
        factory = static(conservative_static)
        a = scalar_run("ml_cluster", "stream-DRAM", make_trace(9), 2,
                       factory, self.DURATION)
        b = batch_run("ml_cluster", "stream-DRAM", make_trace(9), 2,
                      factory, self.DURATION)
        assert_histories_match(a, b)

    def test_no_be(self):
        a = scalar_run("websearch", None, make_trace(7), 5, None,
                       self.DURATION)
        b = batch_run("websearch", None, make_trace(7), 5, None,
                      self.DURATION)
        assert_histories_match(a, b)

    def test_memkeyval_network_bound(self):
        """iperf drives the egress max-min and net-latency paths."""
        a = scalar_run("memkeyval", "iperf", make_trace(13), 8, heracles,
                       self.DURATION)
        b = batch_run("memkeyval", "iperf", make_trace(13), 8, heracles,
                      self.DURATION)
        assert_histories_match(a, b)


#: One full-lifecycle event schedule per chaos action, shared with the
#: dt-invariance suite (event times sit on the coarsest tick grid).
CHAOS_EVENT_SETS = {
    "leaf_crash": ((50.0, "leaf_crash", None), (120.0, "leaf_restart", None)),
    "straggler": ((40.0, "straggler", 0.55), (150.0, "straggler", 1.0)),
    "power_cap": ((30.0, "power_cap", 0.6), (140.0, "power_cap", 1.0)),
    "partition": ((60.0, "partition", 45.0),),
    "actuator": ((20.0, "disable_be", None), (80.0, "enable_be", None),
                 (100.0, "set_be_cores", 2), (130.0, "set_llc_split", 3),
                 (145.0, "lower_be_frequency", 3),
                 (160.0, "set_be_net_ceil", 2.5)),
}


def chaos_events(action):
    return [ChaosEvent(at_s, name, value)
            for at_s, name, value in CHAOS_EVENT_SETS[action]]


class TestChaosEquivalence:
    """Chaos actions under the scalar-vs-batch equivalence contract.

    Every engine-level fault action — crash/restart, straggler, power
    cap, partition, and the actuator actions — must degrade the batched
    member exactly as it degrades the scalar engine, through a Heracles
    controller reacting to the fault in both.
    """

    DURATION = 220.0

    @pytest.mark.parametrize("action", sorted(CHAOS_EVENT_SETS))
    def test_action_matches_scalar(self, action):
        def attach(sim):
            heracles(sim)
            # Member 0 targeted explicitly on both engines.
            sim.set_chaos_events(
                [e.retarget((0,)) for e in chaos_events(action)])

        a = scalar_run("websearch", "brain", make_trace(), 11, attach,
                       self.DURATION)
        b = batch_run("websearch", "brain", make_trace(), 11, attach,
                      self.DURATION)
        assert_histories_match(a, b)

    @pytest.mark.parametrize("action", sorted(CHAOS_EVENT_SETS))
    def test_action_changes_the_run(self, action):
        """Every schedule must observably perturb the history (guards
        against events silently never firing)."""
        plain = scalar_run("websearch", "brain", make_trace(), 11,
                           HeraclesController.for_sim, self.DURATION)

        def attach(sim):
            HeraclesController.for_sim(sim)
            sim.set_chaos_events(chaos_events(action))

        chaos = scalar_run("websearch", "brain", make_trace(), 11,
                           attach, self.DURATION)
        a = np.asarray(plain.column("tail_latency_ms"))
        b = np.asarray(chaos.column("tail_latency_ms"))
        assert not np.array_equal(a, b), (
            f"chaos[{action}] left the run untouched")

    def test_untargeted_member_is_bit_identical(self):
        """A chaos schedule aimed at member 0 must leave member 1's
        history bitwise equal to a chaos-free twin (the x1.0-identity
        contract for healthy members)."""
        spec = default_machine_spec()

        def run(with_chaos):
            lc = make_lc_workload("websearch", spec)
            bes = [make_be_workload("brain", spec),
                   make_be_workload("streetview", spec)]
            batch = BatchColocationSim(lc=lc, trace=make_trace(17),
                                       bes=bes, spec=spec, seeds=[41, 42])
            batch.attach_vec_heracles()
            if with_chaos:
                batch.set_chaos_events(
                    [ChaosEvent(30.0, "leaf_crash", members=(0,)),
                     ChaosEvent(70.0, "straggler", 0.5, members=(0,)),
                     ChaosEvent(110.0, "leaf_restart", members=(0,))])
            batch.run(180.0)
            return batch

        plain, chaos = run(False), run(True)
        for name in FLOAT_FIELDS:
            a = np.asarray(plain.members[1].history.column(name))
            b = np.asarray(chaos.members[1].history.column(name))
            assert np.array_equal(a, b, equal_nan=True), (
                f"member 1 field {name!r} perturbed by member 0's chaos")
        # ... while member 0 itself was visibly degraded.
        a = np.asarray(plain.members[0].history.column("tail_latency_ms"))
        b = np.asarray(chaos.members[0].history.column("tail_latency_ms"))
        assert not np.array_equal(a, b)

    def test_rejects_bad_targets_and_values(self):
        spec = default_machine_spec()
        lc = make_lc_workload("websearch", spec)
        batch = BatchColocationSim(lc=lc, trace=ConstantLoad(0.5),
                                   bes=make_be_workload("brain", spec),
                                   spec=spec, seeds=[1, 2])
        with pytest.raises(ValueError, match="member"):
            batch.set_chaos_events(
                [ChaosEvent(10.0, "leaf_crash", members=(5,))])
        with pytest.raises(ValueError, match="value"):
            batch.set_chaos_events([ChaosEvent(10.0, "straggler")])
        sim = ColocationSim(lc=make_lc_workload("websearch", spec),
                            trace=ConstantLoad(0.5), spec=spec, seed=1)
        with pytest.raises(ValueError, match="member"):
            sim.set_chaos_events(
                [ChaosEvent(10.0, "leaf_crash", members=(1,))])


class TestControlConstantsNamedOnce:
    """Each Algorithm-2 constant of ``repro.core.core_memory`` is read,
    at call time, by the scalar ``HeraclesController`` and the vector
    controller alike: perturbing the one name moves both engines the
    same way.  A batch-side copy of a constant fails this test."""

    DURATION = 600.0
    #: name -> perturbed value (each one moves this run).
    PERTURBED = {
        "LC_FLOOR_MARGIN": 1.3,
        "LC_FLOOR_SPARE_CORES": 4,
        "SLACK_DROP_DECAY": 1.0,
        "PRE_VIOLATION_FACTOR": 6.0,
        "BE_BW_PER_CORE_FLOOR_GBPS": 8.0,
    }

    def run(self, engine):
        return engine("websearch", "brain", make_trace(3), 3, heracles,
                      self.DURATION)

    @pytest.fixture(scope="class")
    def unpatched(self):
        return self.run(scalar_run)

    @pytest.mark.parametrize("name", sorted(PERTURBED))
    def test_one_name_moves_both_engines(self, monkeypatch, unpatched,
                                         name):
        from repro.core import core_memory
        monkeypatch.setattr(core_memory, name, self.PERTURBED[name])
        scalar = self.run(scalar_run)
        assert_histories_match(scalar, self.run(batch_run))
        assert any(
            not np.array_equal(scalar.column(f), unpatched.column(f))
            for f in FLOAT_FIELDS + EXACT_FIELDS), f"{name} moved no run"


class TestSocketCounts:
    """Machines with 1 and 3 sockets: the batch's generic socket folds
    and cache merge (every other test runs the 2-socket default), with
    a timed power cap so the throttle runs against a per-member TDP
    column."""

    DURATION = 300.0
    CAP = 0.6

    @pytest.mark.parametrize("sockets", [1, 3])
    @pytest.mark.parametrize("lc_name, be_name, seed", [
        ("websearch", "brain", 11),
        ("ml_cluster", "stream-DRAM", 2),
        ("memkeyval", "iperf", 8),
    ])
    def test_matches_scalar(self, sockets, lc_name, be_name, seed):
        spec = dataclasses.replace(default_machine_spec(), sockets=sockets)

        def attach(sim):
            heracles(sim)
            sim.set_chaos_events([ChaosEvent(60.0, "power_cap", self.CAP),
                                  ChaosEvent(160.0, "power_cap", 1.0)])

        a = scalar_run(lc_name, be_name, make_trace(seed), seed, attach,
                       self.DURATION, spec=spec)
        b = batch_run(lc_name, be_name, make_trace(seed), seed, attach,
                      self.DURATION, spec=spec)
        assert_histories_match(a, b)
        # The cap bound: throttled below it while it held.
        power = np.asarray(b.column("power_fraction_of_tdp"))
        assert power[60:160].max() <= self.CAP + 1e-9


class TestVectorKernels:
    """The tick's array kernels against their plain references."""

    @pytest.mark.parametrize("sockets", range(1, 11))
    def test_socket_fold_is_numpys_reduction(self, sockets):
        """Folding socket rows, (S, N) or class-stacked (2, S, N),
        equals NumPy's reduction of each member's (N, S) socket row."""
        x = np.random.default_rng(sockets).lognormal(0.0, 3.0,
                                                     (500, sockets))
        rows = np.ascontiguousarray(x.T)
        assert np.array_equal(_socket_fold(np.add, rows), x.sum(axis=1))
        assert np.array_equal(_socket_fold(np.maximum, rows),
                              x.max(axis=1))
        pair = np.random.default_rng(sockets + 100).lognormal(
            0.0, 3.0, (2, 500, sockets))
        stacked = np.ascontiguousarray(pair.transpose(0, 2, 1))
        for op, ref in ((np.add, np.sum), (np.maximum, np.max)):
            fold = _socket_fold(op, stacked)
            assert fold.shape == (2, 500)
            for c in range(2):
                assert np.array_equal(fold[c], ref(pair[c], axis=1))

    @pytest.mark.parametrize("skew", [1.0, 1 + 3e-13, 1 - 3e-13, 1.01])
    def test_throttle_is_the_literal_bisection(self, monkeypatch, skew):
        """Skewing the analytic root estimate drives every probe
        branch, down to the bisection fallback."""
        spec = default_machine_spec()
        socket, turbo = spec.socket, spec.socket.turbo
        nominal, floor, idle = (turbo.nominal_ghz, turbo.min_ghz,
                                socket.idle_watts)
        rng = np.random.default_rng(3)
        T = rng.uniform(floor, turbo.max_turbo_ghz, (2, 800))
        C = rng.uniform(0.0, 3 * socket.cores * socket.core_dynamic_watts,
                        (2, 800))
        tdp = socket.tdp_watts * rng.choice([1.0, 0.6, 0.3], 800)
        # Only sockets over TDP at their targets reach the throttle.
        over = idle + (C[0] * (T[0] / nominal) ** 3
                       + C[1] * (T[1] / nominal) ** 3) > tdp
        T, C, tdp = T[:, over], C[:, over], tdp[over]
        batch = BatchColocationSim(lc=make_lc_workload("websearch", spec),
                                   trace=ConstantLoad(0.5), spec=spec)
        cbrt = np.cbrt
        monkeypatch.setattr(np, "cbrt", lambda x: cbrt(x) * skew)
        with np.errstate(all="ignore"):
            f, p = batch._throttle(T, C, C * (T / nominal) ** 3, idle, tdp,
                                   nominal, floor)
        lo = (batch._bisect_scale_exact(T, C, idle, tdp, nominal, floor)
              / batch._BISECT_SCALE)
        f_ref = np.maximum(floor, T * lo)
        assert np.array_equal(f, f_ref)
        assert np.array_equal(p, idle + (C[0] * (f_ref[0] / nominal) ** 3
                                         + C[1] * (f_ref[1] / nominal) ** 3))


class TestHeterogeneousBatch:
    def test_mixed_members_match_scalar_twins(self):
        """brain + streetview + no-BE members in one batch, all exact."""
        spec = default_machine_spec()
        lc = make_lc_workload("websearch", spec)
        trace = make_trace(21)
        bes = [make_be_workload("brain", spec),
               make_be_workload("streetview", spec),
               None]
        seeds = [31, 32, 33]
        batch = BatchColocationSim(lc=lc, trace=trace, bes=bes, spec=spec,
                                   seeds=seeds)
        batch.attach_vec_heracles(managed=[True, True, False])
        batch.run(240.0)

        for i, (be, seed) in enumerate(zip(bes, seeds)):
            sim = ColocationSim(lc=make_lc_workload("websearch", spec),
                                trace=make_trace(21), be=be, spec=spec,
                                seed=seed)
            if be is not None:
                HeraclesController.for_sim(sim)
            sim.run(240.0)
            assert_histories_match(sim.history, batch.members[i].history)

    def test_batch_history_columns(self):
        spec = default_machine_spec()
        lc = make_lc_workload("websearch", spec)
        batch = BatchColocationSim(lc=lc, trace=ConstantLoad(0.5),
                                   bes=make_be_workload("brain", spec),
                                   spec=spec, seeds=[1, 2])
        batch.run(30.0)
        col = batch.history.column("tail_latency_ms")
        assert col.shape == (30, 2)
        assert (col > 0).all()
        assert len(batch.history.times()) == 30

    def test_seed_validation_and_shapes(self):
        spec = default_machine_spec()
        lc = make_lc_workload("websearch", spec)
        with pytest.raises(ValueError):
            BatchColocationSim(lc=lc, trace=ConstantLoad(0.5),
                               bes=[None, None], spec=spec, seeds=[1])
        with pytest.raises(ValueError):
            BatchColocationSim(lc=lc, trace=ConstantLoad(0.5),
                               spec=spec).tick(0.0)
        with pytest.raises(ValueError, match="nothing to spill"):
            BatchColocationSim(lc=lc, trace=ConstantLoad(0.5), spec=spec,
                               record_history=False, spill_dir="spill")
