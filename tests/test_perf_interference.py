"""Tests for repro.perf.interference and repro.perf.saturation."""

import pytest

from repro.hardware.server import TaskUsage
from repro.perf.interference import (InterferenceSensitivity,
                                     be_throughput_efficiency,
                                     network_latency_factor,
                                     service_inflation)
from repro.perf.saturation import knee_penalty


def usage(freq=2.3, hit=1.0, hot=1.0, bulk=1.0, occ=20.0, mem_delay=1.0,
          net_demand=0.0, net_achieved=0.0, ht=0.0, dram_demand=0.0,
          dram_achieved=0.0, cores=8):
    sat = 1.0 if net_demand <= 0 else min(1.0, net_achieved / net_demand)
    return TaskUsage(
        task="t", cores=cores, freq_ghz=freq, cache_hit_fraction=hit,
        hot_coverage=hot, bulk_coverage=bulk, cache_occupancy_mb=occ,
        dram_demand_gbps=dram_demand, dram_achieved_gbps=dram_achieved,
        mem_delay_factor=mem_delay, net_demand_gbps=net_demand,
        net_achieved_gbps=net_achieved, net_satisfaction=sat,
        ht_share_fraction=ht)


SENS = InterferenceSensitivity()


class TestServiceInflation:
    def test_neutral_at_calibration_point(self):
        factor = service_inflation(usage(), SENS, 2.3, 0.5)
        assert factor == pytest.approx(1.0)

    def test_turbo_speeds_up(self):
        factor = service_inflation(usage(freq=3.0), SENS, 2.3, 0.5)
        assert factor < 1.0

    def test_throttle_slows_down(self):
        factor = service_inflation(usage(freq=1.5), SENS, 2.3, 0.5)
        assert factor > 1.4

    def test_freq_exponent_zero_ignores_frequency(self):
        sens = InterferenceSensitivity(freq_exponent=0.0)
        factor = service_inflation(usage(freq=1.2), sens, 2.3, 0.0)
        assert factor == pytest.approx(1.0)

    def test_hot_loss_is_convex(self):
        mild = service_inflation(usage(hot=0.9), SENS, 2.3, 0.5) - 1.0
        deep = service_inflation(usage(hot=0.1), SENS, 2.3, 0.5) - 1.0
        # Deep loss is much more than 9x the mild loss.
        assert deep > 5.0 * (mild * 9.0) / 9.0
        assert deep / max(mild, 1e-12) > 9.0

    def test_bulk_loss_linear(self):
        sens = InterferenceSensitivity(hot_miss_weight=0.0,
                                       bulk_miss_weight=1.0)
        half = service_inflation(usage(bulk=0.5), sens, 2.3, 0.5) - 1.0
        full = service_inflation(usage(bulk=0.0), sens, 2.3, 0.5) - 1.0
        assert full == pytest.approx(2.0 * half)

    def test_memory_delay_scaled_by_fraction(self):
        sens = InterferenceSensitivity(mem_time_fraction=0.5)
        factor = service_inflation(usage(mem_delay=3.0), sens, 2.3, 0.5)
        assert factor == pytest.approx(2.0)

    def test_ht_penalty_grows_with_utilization(self):
        low = service_inflation(usage(ht=1.0), SENS, 2.3, 0.1)
        high = service_inflation(usage(ht=1.0), SENS, 2.3, 0.95)
        assert high > low > 1.0

    def test_ht_base_fraction_applies_at_idle(self):
        sens = InterferenceSensitivity(ht_slowdown=1.0, ht_base_fraction=0.6)
        factor = service_inflation(usage(ht=1.0), sens, 2.3, 0.0)
        assert factor == pytest.approx(1.6)

    def test_factors_compose_multiplicatively(self):
        sens = InterferenceSensitivity(mem_time_fraction=0.5,
                                       hot_miss_weight=0.0,
                                       bulk_miss_weight=1.0)
        combined = service_inflation(usage(mem_delay=3.0, bulk=0.0),
                                     sens, 2.3, 0.5)
        assert combined == pytest.approx(2.0 * 2.0)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            service_inflation(usage(freq=0.0), SENS, 2.3, 0.5)

    def test_sensitivity_validation(self):
        with pytest.raises(ValueError):
            InterferenceSensitivity(freq_exponent=5.0).validate()
        with pytest.raises(ValueError):
            InterferenceSensitivity(mem_time_fraction=2.0).validate()
        with pytest.raises(ValueError):
            InterferenceSensitivity(hot_miss_weight=-1.0).validate()
        with pytest.raises(ValueError):
            InterferenceSensitivity(ht_base_fraction=1.5).validate()


class TestNetworkLatencyFactor:
    def test_no_demand_no_effect(self):
        assert network_latency_factor(usage(), SENS, 0.99) == 1.0

    def test_satisfied_demand_no_effect(self):
        u = usage(net_demand=2.0, net_achieved=2.0)
        assert network_latency_factor(u, SENS, 0.99) == pytest.approx(1.0)

    def test_shortfall_blows_up(self):
        u = usage(net_demand=4.0, net_achieved=2.0)
        assert network_latency_factor(u, SENS, 0.9) > 5.0

    def test_blowup_grows_with_shortfall(self):
        mild = network_latency_factor(
            usage(net_demand=2.2, net_achieved=2.0), SENS, 0.9)
        severe = network_latency_factor(
            usage(net_demand=8.0, net_achieved=2.0), SENS, 0.9)
        assert severe > mild > 1.0

    def test_capped(self):
        u = usage(net_demand=100.0, net_achieved=0.1)
        assert network_latency_factor(u, SENS, 1.0) <= 60.0


class TestBeThroughputEfficiency:
    def test_reference_conditions(self):
        eff = be_throughput_efficiency(usage(freq=2.3), 2.3)
        assert eff == pytest.approx(1.0)

    def test_frequency_scales_throughput(self):
        eff = be_throughput_efficiency(usage(freq=1.15), 2.3)
        assert eff == pytest.approx(0.5, rel=0.01)

    def test_memory_starvation(self):
        u = usage(dram_demand=10.0, dram_achieved=5.0)
        eff = be_throughput_efficiency(u, 2.3, mem_bound_fraction=1.0)
        assert eff == pytest.approx(0.5, rel=0.01)

    def test_cache_benefit(self):
        full = be_throughput_efficiency(usage(hit=1.0), 2.3,
                                        cache_benefit=0.5)
        none = be_throughput_efficiency(usage(hit=0.0), 2.3,
                                        cache_benefit=0.5)
        assert full / none == pytest.approx(2.0, rel=0.01)

    def test_ht_sharing_penalty(self):
        shared = be_throughput_efficiency(usage(ht=1.0), 2.3)
        alone = be_throughput_efficiency(usage(ht=0.0), 2.3)
        assert shared < alone

    def test_never_nonpositive(self):
        u = usage(freq=1.2, hit=0.0, dram_demand=100, dram_achieved=1)
        assert be_throughput_efficiency(u, 2.3, mem_bound_fraction=1.0,
                                        cache_benefit=1.0) > 0.0


class TestSaturationCurves:
    def test_knee_flat_below(self):
        assert knee_penalty(0.5, knee=0.8) == 1.0
        assert knee_penalty(0.8, knee=0.8) == 1.0

    def test_knee_grows_past(self):
        assert knee_penalty(0.9, knee=0.8) > 1.0
        assert knee_penalty(0.99, knee=0.8) > knee_penalty(0.9, knee=0.8)

    def test_oversubscription_monotone(self):
        assert knee_penalty(1.5, knee=0.8) > knee_penalty(1.1, knee=0.8)

    def test_ceiling(self):
        assert knee_penalty(0.999, knee=0.5, gain=100.0, ceiling=10.0) == 10.0

    def test_knee_validation(self):
        with pytest.raises(ValueError):
            knee_penalty(-0.1)
        with pytest.raises(ValueError):
            knee_penalty(0.5, knee=1.5)

