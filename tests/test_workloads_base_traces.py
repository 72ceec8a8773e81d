"""Tests for repro.workloads.base helpers and load traces."""

import pytest

from repro.hardware.spec import default_machine_spec
from repro.workloads.base import (Allocation, cache_demand_for,
                                  split_across_sockets, spread_cores)
from repro.workloads.traces import (ConstantLoad, DiurnalTrace, ReplayTrace,
                                    StepLoad, load_sweep,
                                    websearch_cluster_trace)


@pytest.fixture(scope="module")
def spec():
    return default_machine_spec()


class TestAllocation:
    def test_totals(self):
        alloc = Allocation(cores_by_socket={0: 4, 1: 6})
        assert alloc.total_cores == 10
        assert alloc.sockets_in_use() == [0, 1]

    def test_empty_sockets_skipped(self):
        alloc = Allocation(cores_by_socket={0: 0, 1: 3})
        assert alloc.sockets_in_use() == [1]


class TestCoreSplitting:
    def test_spread_even(self, spec):
        assert spread_cores(10, spec) == {0: 5, 1: 5}

    def test_spread_odd(self, spec):
        assert spread_cores(9, spec) == {0: 5, 1: 4}

    def test_spread_bounds(self, spec):
        with pytest.raises(ValueError):
            spread_cores(-1, spec)
        with pytest.raises(ValueError):
            spread_cores(37, spec)

    def test_split_across_sockets_weighted(self):
        alloc = Allocation(cores_by_socket={0: 3, 1: 1})
        split = split_across_sockets(8.0, alloc)
        assert split == {0: pytest.approx(6.0), 1: pytest.approx(2.0)}

    def test_split_empty_alloc(self):
        assert split_across_sockets(8.0, Allocation()) == {}

    def test_cache_demand_split(self, spec):
        alloc = Allocation(cores_by_socket={0: 2, 1: 2})
        demands = cache_demand_for("t", alloc, spec, hot_mb=8.0,
                                   bulk_mb=16.0, access_gbps=10.0,
                                   hot_access_fraction=0.5, bulk_reuse=0.8)
        assert demands[0].hot_mb == pytest.approx(4.0)
        assert demands[1].bulk_mb == pytest.approx(8.0)
        assert demands[0].access_gbps == pytest.approx(5.0)


class TestConstantLoad:
    def test_value(self):
        assert ConstantLoad(0.4).load_at(999) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantLoad(1.5)


class TestStepLoad:
    def test_steps(self):
        trace = StepLoad(times_s=[0, 100, 200], loads=[0.2, 0.8, 0.4])
        assert trace.load_at(50) == pytest.approx(0.2)
        assert trace.load_at(150) == pytest.approx(0.8)
        assert trace.load_at(500) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepLoad(times_s=[0], loads=[0.2, 0.3])
        with pytest.raises(ValueError):
            StepLoad(times_s=[], loads=[])
        with pytest.raises(ValueError):
            StepLoad(times_s=[100, 0], loads=[0.2, 0.3])
        with pytest.raises(ValueError):
            StepLoad(times_s=[0], loads=[1.5])


class TestDiurnalTrace:
    def test_starts_at_trough(self):
        trace = DiurnalTrace(low=0.2, high=0.9, period_s=1000)
        assert trace.load_at(0) == pytest.approx(0.2)

    def test_peaks_at_half_period(self):
        trace = DiurnalTrace(low=0.2, high=0.9, period_s=1000)
        assert trace.load_at(500) == pytest.approx(0.9)

    def test_never_exceeds_high(self):
        trace = DiurnalTrace(low=0.2, high=0.9, period_s=1000,
                             noise_sigma=0.1, seed=3)
        loads = [trace.clipped(t) for t in range(0, 1000, 7)]
        assert max(loads) <= 0.9 + 1e-9
        assert min(loads) >= 0.0

    def test_noise_is_deterministic(self):
        a = DiurnalTrace(noise_sigma=0.05, seed=5)
        b = DiurnalTrace(noise_sigma=0.05, seed=5)
        assert a.load_at(12345) == pytest.approx(b.load_at(12345))

    def test_noise_is_deterministic_out_of_order(self):
        a = DiurnalTrace(noise_sigma=0.05, seed=5)
        late = a.load_at(5000)
        a.load_at(100)
        assert a.load_at(5000) == pytest.approx(late)

    def test_noise_is_autocorrelated(self):
        # Adjacent minutes must not jump several sigma at once.
        trace = DiurnalTrace(low=0.5, high=0.5, period_s=1e9,
                             noise_sigma=0.02, seed=9)
        noises = [trace.load_at(60.0 * b) - 0.5 for b in range(1, 200)]
        jumps = [abs(b - a) for a, b in zip(noises, noises[1:])]
        assert max(jumps) < 0.04  # << 4 sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalTrace(low=0.9, high=0.2)
        with pytest.raises(ValueError):
            DiurnalTrace(period_s=0)


class TestReplayTrace:
    def test_replay_and_hold(self):
        trace = ReplayTrace(samples=[0.1, 0.5, 0.9], interval_s=10)
        assert trace.load_at(0) == pytest.approx(0.1)
        assert trace.load_at(15) == pytest.approx(0.5)
        assert trace.load_at(1000) == pytest.approx(0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayTrace(samples=[])
        with pytest.raises(ValueError):
            ReplayTrace(samples=[2.0])
        with pytest.raises(ValueError):
            ReplayTrace(samples=[0.5], interval_s=0)


class TestHelpers:
    def test_load_sweep_default_is_papers_axis(self):
        sweep = load_sweep()
        assert len(sweep) == 19
        assert sweep[0] == pytest.approx(0.05)
        assert sweep[-1] == pytest.approx(0.95)

    def test_load_sweep_validation(self):
        with pytest.raises(ValueError):
            load_sweep(points=1)

    def test_cluster_trace_bounds(self):
        trace = websearch_cluster_trace()
        assert trace.low == pytest.approx(0.20)
        assert trace.high == pytest.approx(0.90)
        assert trace.period_s == pytest.approx(12 * 3600)


class TestSpikeOverlay:
    def test_spike_lifts_but_never_sheds(self):
        from repro.workloads.traces import LoadSpike, SpikeOverlay
        trace = SpikeOverlay(ConstantLoad(0.6),
                             [LoadSpike(at_s=10, duration_s=5, load=0.9),
                              LoadSpike(at_s=12, duration_s=1, load=0.3)])
        assert trace.load_at(5) == pytest.approx(0.6)
        assert trace.load_at(10) == pytest.approx(0.9)
        assert trace.load_at(12) == pytest.approx(0.9)  # max wins
        assert trace.load_at(14.999) == pytest.approx(0.9)
        assert trace.load_at(15) == pytest.approx(0.6)

    def test_overlay_wraps_any_base(self):
        from repro.workloads.traces import LoadSpike, SpikeOverlay
        base = StepLoad(times_s=[0, 20], loads=[0.2, 0.8])
        trace = SpikeOverlay(base, [LoadSpike(5, 10, 0.5)])
        assert trace.load_at(0) == pytest.approx(0.2)
        assert trace.load_at(7) == pytest.approx(0.5)
        assert trace.load_at(25) == pytest.approx(0.8)  # base above spike

    def test_validation(self):
        from repro.workloads.traces import LoadSpike, SpikeOverlay
        with pytest.raises(ValueError):
            LoadSpike(at_s=-1, duration_s=5, load=0.5)
        with pytest.raises(ValueError):
            LoadSpike(at_s=0, duration_s=0, load=0.5)
        with pytest.raises(ValueError):
            LoadSpike(at_s=0, duration_s=5, load=1.5)
        with pytest.raises(ValueError):
            SpikeOverlay(ConstantLoad(0.5), [])
