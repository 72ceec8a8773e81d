"""Property-based tests (hypothesis) on core data structures/invariants."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware.cache import CacheDemand, CatController, resolve_occupancy
from repro.hardware.memory import MemoryController, MemoryDemand
from repro.hardware.network import EgressLink, FlowDemand
from repro.hardware.power import CorePowerRequest, SocketPowerModel
from repro.hardware.spec import SocketSpec
from repro.perf.queueing import QueueModel, erlang_c
from repro.perf.saturation import knee_penalty

positive_bw = st.floats(min_value=0.0, max_value=500.0,
                        allow_nan=False, allow_infinity=False)


class TestCacheProperties:
    @given(st.lists(
        st.tuples(positive_bw, positive_bw, positive_bw,
                  st.floats(0, 1), st.floats(0, 1)),
        min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_conserved_and_bounded(self, raw, partition):
        demands = [CacheDemand(task=f"t{i}", hot_mb=h, bulk_mb=b,
                               access_gbps=a, hot_access_fraction=f,
                               bulk_reuse=r)
                   for i, (h, b, a, f, r) in enumerate(raw)]
        shares = resolve_occupancy(partition, demands)
        total = sum(s.occupancy_mb for s in shares)
        assert total <= partition + 1e-6
        for share, demand in zip(shares, demands):
            assert -1e-9 <= share.occupancy_mb <= demand.footprint_mb + 1e-6
            assert 0.0 <= share.hit_fraction <= 1.0
            assert 0.0 <= share.hot_coverage <= 1.0
            assert 0.0 <= share.bulk_coverage <= 1.0
            assert share.miss_gbps <= demand.access_gbps + 1e-9

    @given(st.integers(min_value=2, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_cat_ways_never_oversubscribed(self, ways):
        cat = CatController(45.0, ways)
        cat.set_partition("lc", ways // 2)
        cat.set_partition("be", ways - ways // 2)
        assert cat.unallocated_ways() == 0
        with pytest.raises(ValueError):
            cat.set_partition("lc", ways // 2 + 1)


class TestMemoryProperties:
    @given(st.lists(positive_bw, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_fair_scaling(self, demands_gbps):
        controller = MemoryController(60.0)
        demands = [MemoryDemand(f"t{i}", d)
                   for i, d in enumerate(demands_gbps)]
        res = controller.resolve(demands)
        assert res.total_achieved_gbps <= 60.0 + 1e-6
        assert res.total_achieved_gbps <= res.total_demand_gbps + 1e-6
        for grant, demand in zip(res.grants, demands):
            assert grant.achieved_gbps <= demand.demand_gbps + 1e-9
            assert grant.access_delay_factor >= 1.0

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_delay_monotone_in_demand(self, a, b):
        assume(a <= b)
        controller = MemoryController(60.0)
        da = controller.delay_factor(min(1.0, a), a * 60.0)
        db = controller.delay_factor(min(1.0, b), b * 60.0)
        assert db >= da - 1e-9


class TestNetworkProperties:
    @given(st.lists(
        st.tuples(positive_bw, st.integers(1, 1000),
                  st.one_of(st.none(), st.floats(0, 12))),
        min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_ceilings(self, raw):
        link = EgressLink(10.0)
        demands = [FlowDemand(f"t{i}", d, flows=f, ceil_gbps=c)
                   for i, (d, f, c) in enumerate(raw)]
        res = link.resolve(demands)
        assert res.total_achieved_gbps <= 10.0 + 1e-6
        for grant, demand in zip(res.grants, demands):
            assert grant.achieved_gbps <= grant.demand_gbps + 1e-9
            if demand.ceil_gbps is not None:
                assert grant.achieved_gbps <= demand.ceil_gbps + 1e-9

    @given(st.floats(min_value=0.01, max_value=9.0))
    @settings(max_examples=40, deadline=None)
    def test_single_flow_gets_whole_link(self, demand):
        link = EgressLink(10.0)
        res = link.resolve([FlowDemand("only", demand)])
        assert res.grant_for("only").satisfaction == pytest.approx(1.0)


class TestPowerProperties:
    @given(st.integers(0, 18), st.floats(0.0, 2.5))
    @settings(max_examples=60, deadline=None)
    def test_power_never_exceeds_tdp_when_throttled(self, cores, activity):
        model = SocketPowerModel(SocketSpec())
        res = model.resolve([CorePowerRequest("t", cores, activity)])
        spec = SocketSpec()
        assert res.socket_power_watts <= spec.tdp_watts + 0.5
        for grant in res.grants:
            assert (spec.turbo.min_ghz - 1e-9 <= grant.freq_ghz
                    <= spec.turbo.max_turbo_ghz + 1e-9)

    @given(st.floats(0.1, 2.5), st.floats(0.1, 2.5))
    @settings(max_examples=40, deadline=None)
    def test_more_activity_never_more_frequency(self, a, b):
        assume(a < b)
        model = SocketPowerModel(SocketSpec())
        fa = model.resolve([CorePowerRequest("t", 18, min(a, 2.5))])
        fb = model.resolve([CorePowerRequest("t", 18, min(b, 2.5))])
        assert fb.freq_of("t") <= fa.freq_of("t") + 1e-9


class TestQueueingProperties:
    @given(st.integers(1, 64), st.floats(0.0, 60.0))
    @settings(max_examples=60, deadline=None)
    def test_erlang_c_is_probability(self, servers, offered):
        value = erlang_c(servers, offered)
        assert 0.0 <= value <= 1.0

    @given(st.integers(1, 48), st.floats(0.1, 20.0),
           st.one_of(st.none(), st.integers(1, 12)),
           st.lists(st.floats(0.0, 3.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_tail_monotone_in_load(self, servers, service, pool, rhos):
        model = QueueModel(servers=servers, service_ms=service,
                           pool_size=pool)
        sat = model.saturation_qps()
        qps = sorted(r * sat for r in rhos)
        tails = [model.tail_latency_ms(q) for q in qps]
        for a, b in zip(tails, tails[1:]):
            assert b >= a - 1e-9
        assert all(math.isfinite(t) and t > 0 for t in tails)

    @given(st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_knee_penalty_at_least_one(self, util):
        assert knee_penalty(util) >= 1.0
