"""Tests for repro.hardware.network: per-flow fairness and ceilings."""

import pytest

from repro.hardware.network import EgressLink, FlowDemand


@pytest.fixture
def link():
    return EgressLink(10.0)


class TestFairSharing:
    def test_undersubscribed_all_satisfied(self, link):
        res = link.resolve([FlowDemand("a", 2.0, flows=10),
                            FlowDemand("b", 3.0, flows=1)])
        assert res.grant_for("a").achieved_gbps == pytest.approx(2.0)
        assert res.grant_for("b").achieved_gbps == pytest.approx(3.0)
        assert res.utilization == pytest.approx(0.5)

    def test_flow_count_wins_contention(self, link):
        # The mice-flow effect: many small flows crowd out few big ones.
        res = link.resolve([FlowDemand("mice", 10.0, flows=800),
                            FlowDemand("victim", 10.0, flows=200)])
        assert res.grant_for("mice").achieved_gbps == pytest.approx(8.0)
        assert res.grant_for("victim").achieved_gbps == pytest.approx(2.0)

    def test_small_demand_satisfied_despite_mice(self, link):
        # A task with low demand keeps its share under contention —
        # why websearch ignores the network antagonist (§3.3).
        res = link.resolve([FlowDemand("mice", 10.0, flows=800),
                            FlowDemand("ws", 1.0, flows=256)])
        assert res.grant_for("ws").satisfaction == pytest.approx(1.0)

    def test_leftover_redistribution(self, link):
        res = link.resolve([FlowDemand("a", 1.0, flows=100),
                            FlowDemand("b", 20.0, flows=1)])
        assert res.grant_for("a").achieved_gbps == pytest.approx(1.0)
        assert res.grant_for("b").achieved_gbps == pytest.approx(9.0)

    def test_link_never_oversubscribed(self, link):
        res = link.resolve([FlowDemand("a", 50.0, flows=3),
                            FlowDemand("b", 50.0, flows=7)])
        assert res.total_achieved_gbps <= 10.0 + 1e-9


class TestCeilings:
    def test_ceil_caps_task(self, link):
        res = link.resolve([FlowDemand("be", 10.0, flows=800,
                                       ceil_gbps=3.0),
                            FlowDemand("lc", 6.0, flows=10)])
        assert res.grant_for("be").achieved_gbps == pytest.approx(3.0)
        assert res.grant_for("lc").achieved_gbps == pytest.approx(6.0)

    def test_zero_ceil_starves_task(self, link):
        res = link.resolve([FlowDemand("be", 5.0, flows=10, ceil_gbps=0.0)])
        assert res.grant_for("be").achieved_gbps == pytest.approx(0.0)

    def test_satisfaction_metric(self, link):
        res = link.resolve([FlowDemand("be", 8.0, flows=1, ceil_gbps=2.0)])
        assert res.grant_for("be").satisfaction == pytest.approx(0.25)

    def test_satisfaction_with_zero_demand(self, link):
        res = link.resolve([FlowDemand("idle", 0.0)])
        assert res.grant_for("idle").satisfaction == pytest.approx(1.0)


class TestValidation:
    def test_bad_link_rate(self):
        with pytest.raises(ValueError):
            EgressLink(0.0)

    def test_bad_demand(self, link):
        with pytest.raises(ValueError):
            link.resolve([FlowDemand("a", -1.0)])

    def test_bad_flow_count(self, link):
        with pytest.raises(ValueError):
            link.resolve([FlowDemand("a", 1.0, flows=0)])

    def test_counters(self, link):
        res = link.resolve([FlowDemand("a", 4.0), FlowDemand("b", 2.0)])
        assert res.total_achieved_gbps == pytest.approx(6.0)
        assert res.grant_for("a").achieved_gbps == pytest.approx(4.0)
