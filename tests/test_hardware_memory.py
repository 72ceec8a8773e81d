"""Tests for repro.hardware.memory: DRAM sharing and saturation."""

import pytest

from repro.hardware.memory import MemoryController, MemoryDemand


@pytest.fixture
def controller():
    return MemoryController(capacity_gbps=60.0)


class TestResolution:
    def test_undersubscribed_everyone_satisfied(self, controller):
        res = controller.resolve([MemoryDemand("a", 10.0),
                                  MemoryDemand("b", 20.0)])
        assert res.total_achieved_gbps == pytest.approx(30.0)
        assert res.grant_for("a").achieved_gbps == pytest.approx(10.0)
        assert res.utilization == pytest.approx(0.5)

    def test_oversubscribed_proportional_scaling(self, controller):
        res = controller.resolve([MemoryDemand("a", 60.0),
                                  MemoryDemand("b", 60.0)])
        assert res.total_achieved_gbps == pytest.approx(60.0)
        assert res.grant_for("a").achieved_gbps == pytest.approx(30.0)
        assert res.grant_for("b").achieved_gbps == pytest.approx(30.0)

    def test_unknown_task_raises(self, controller):
        res = controller.resolve([MemoryDemand("a", 1.0)])
        with pytest.raises(KeyError):
            res.grant_for("nope")

    def test_negative_demand_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.resolve([MemoryDemand("a", -1.0)])

    def test_empty_demands(self, controller):
        res = controller.resolve([])
        assert res.total_achieved_gbps == pytest.approx(0.0)
        assert res.utilization == pytest.approx(0.0)


class TestDelayCurve:
    def test_flat_below_knee(self, controller):
        assert controller.delay_factor(0.3, 18.0) < 1.05
        assert controller.delay_factor(0.7, 42.0) < 1.06

    def test_knee_then_cliff(self, controller):
        # The paper's central empirical shape: mild until the knee,
        # rapid degradation past it.
        d90 = controller.delay_factor(0.90, 54.0)
        d95 = controller.delay_factor(0.95, 57.0)
        d99 = controller.delay_factor(0.99, 59.4)
        assert 1.05 < d90 < 1.5
        assert d90 < d95 < d99
        assert d99 > 2.0

    def test_safe_at_heracles_dram_limit(self, controller):
        # Heracles holds DRAM at <= 90% of peak; the substrate must keep
        # latency tolerable there or the paper's operating point would
        # be unreachable.
        assert controller.delay_factor(0.90, 54.0) < 1.35

    def test_oversubscription_keeps_growing(self, controller):
        mild = controller.delay_factor(1.0, 70.0)
        severe = controller.delay_factor(1.0, 200.0)
        assert severe > mild

    def test_monotone_in_utilization(self, controller):
        utils = [0.1 * i for i in range(1, 11)]
        factors = [controller.delay_factor(u, u * 60.0) for u in utils]
        assert factors == sorted(factors)

    def test_delay_applies_to_all_requestors(self, controller):
        # A streaming antagonist slows even tasks with tiny demands
        # (how memkeyval gets hurt by DRAM interference, §3.3).
        res = controller.resolve([MemoryDemand("hog", 100.0),
                                  MemoryDemand("memkeyval", 2.0)])
        assert res.grant_for("memkeyval").access_delay_factor > 2.0


class TestCounters:
    def test_measured_bw(self, controller):
        res = controller.resolve([MemoryDemand("a", 25.0)])
        assert res.total_achieved_gbps == pytest.approx(25.0)
        assert res.utilization == pytest.approx(25.0 / 60.0)

    def test_per_task_bw(self, controller):
        res = controller.resolve([MemoryDemand("a", 25.0),
                                  MemoryDemand("b", 5.0)])
        per_task = {g.task: g.achieved_gbps for g in res.grants}
        assert per_task == {"a": pytest.approx(25.0), "b": pytest.approx(5.0)}


class TestValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemoryController(0.0)

    def test_rejects_bad_knee(self):
        with pytest.raises(ValueError):
            MemoryController(60.0, delay_knee=1.5)
