"""Tests for repro.perf.queueing: Erlang-C and the pooled tail model."""


import pytest

from repro.perf.queueing import QueueModel, erlang_c, solve_peak_qps


class TestErlangC:
    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_saturated(self):
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 10.0) == 1.0

    def test_single_server_equals_rho(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.3) == pytest.approx(0.3, rel=1e-9)
        assert erlang_c(1, 0.8) == pytest.approx(0.8, rel=1e-9)

    def test_known_value(self):
        # Classic tabulated value: k=2, a=1 -> C = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_monotone_in_load(self):
        values = [erlang_c(8, a) for a in (1.0, 3.0, 5.0, 7.0, 7.9)]
        assert values == sorted(values)

    def test_pooling_reduces_waiting(self):
        # Same rho, more servers -> less waiting (statistical multiplexing).
        assert erlang_c(16, 12.8) < erlang_c(4, 3.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(4, -1.0)


class TestQueueModel:
    def test_unloaded_tail_is_service_tail(self):
        m = QueueModel(servers=36, service_ms=2.0, service_tail_mult=3.0)
        assert m.tail_latency_ms(0.0) == pytest.approx(6.0)

    def test_monotone_in_qps(self):
        m = QueueModel(servers=36, service_ms=2.0, pool_size=6)
        qps_values = [i * 400.0 for i in range(1, 50)]
        tails = [m.tail_latency_ms(q) for q in qps_values]
        assert all(b >= a - 1e-9 for a, b in zip(tails, tails[1:]))

    def test_continuous_at_saturation(self):
        # The overload branch must not undercut the stable branch.
        m = QueueModel(servers=12, service_ms=2.0, pool_size=6)
        sat = m.saturation_qps()
        below = m.tail_latency_ms(sat * 0.994)
        above = m.tail_latency_ms(sat * 1.01)
        assert above >= below

    def test_deep_overload_is_enormous(self):
        m = QueueModel(servers=12, service_ms=2.0)
        sat = m.saturation_qps()
        assert m.tail_latency_ms(2 * sat) > 20 * m.tail_latency_ms(0.0)

    def test_pool_structure(self):
        m = QueueModel(servers=36, service_ms=2.0, pool_size=6)
        assert m.pools == 6
        assert m.servers_per_pool == 6

    def test_no_pooling_default(self):
        m = QueueModel(servers=36, service_ms=2.0)
        assert m.pools == 1
        assert m.servers_per_pool == 36

    def test_small_server_counts(self):
        m = QueueModel(servers=2, service_ms=2.0, pool_size=6)
        assert m.pools == 1
        assert m.servers_per_pool == 2

    def test_smaller_pools_steeper_curve(self):
        pooled = QueueModel(servers=36, service_ms=2.0, pool_size=None)
        sharded = QueueModel(servers=36, service_ms=2.0, pool_size=4)
        qps = 0.9 * pooled.saturation_qps()
        assert sharded.tail_latency_ms(qps) > pooled.tail_latency_ms(qps)

    def test_utilization(self):
        m = QueueModel(servers=10, service_ms=5.0)
        assert m.utilization(1000.0) == pytest.approx(0.5)

    def test_percentile_affects_tail(self):
        hi = QueueModel(servers=8, service_ms=2.0, percentile=0.99)
        lo = QueueModel(servers=8, service_ms=2.0, percentile=0.95)
        qps = 0.85 * hi.saturation_qps()
        assert hi.tail_latency_ms(qps) > lo.tail_latency_ms(qps)

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueModel(servers=0, service_ms=1.0)
        with pytest.raises(ValueError):
            QueueModel(servers=1, service_ms=0.0)
        with pytest.raises(ValueError):
            QueueModel(servers=1, service_ms=1.0, percentile=0.3)
        with pytest.raises(ValueError):
            QueueModel(servers=1, service_ms=1.0, service_tail_mult=0.5)
        with pytest.raises(ValueError):
            QueueModel(servers=1, service_ms=1.0, pool_size=0)
        m = QueueModel(servers=1, service_ms=1.0)
        with pytest.raises(ValueError):
            m.utilization(-1.0)


class TestSolvers:
    def test_solve_peak_qps_hits_target(self):
        target = 20.0
        peak = solve_peak_qps(servers=36, service_ms=2.0,
                              target_tail_ms=target, pool_size=6)
        m = QueueModel(servers=36, service_ms=2.0, pool_size=6)
        assert m.tail_latency_ms(peak) == pytest.approx(target, rel=1e-3)

    def test_solve_peak_rejects_infeasible(self):
        # Unloaded tail already exceeds the target.
        with pytest.raises(ValueError):
            solve_peak_qps(servers=4, service_ms=10.0, target_tail_ms=5.0)

    def test_solver_validation(self):
        with pytest.raises(ValueError):
            solve_peak_qps(4, 1.0, -1.0)
