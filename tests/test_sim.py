"""Tests for repro.sim: monitors, actuators, and the engine."""

import pytest

from repro.hardware.server import Server
from repro.hardware.spec import default_machine_spec
from repro.sim.actuators import BE_COS, LC_COS, Actuators
from repro.sim.engine import ColocationSim
from repro.sim.monitors import LatencyMonitor, ThroughputMonitor
from repro.workloads.best_effort import make_be_workload
from repro.workloads.latency_critical import make_lc_workload
from repro.workloads.traces import ConstantLoad


class TestLatencyMonitor:
    def test_empty_polls_none(self):
        m = LatencyMonitor()
        assert m.poll_latency_ms(0.0) is None
        assert m.poll_load(0.0) is None
        assert m.worst_window_ms(0.0) is None

    def test_windowed_mean(self):
        m = LatencyMonitor(window_s=10)
        for t in range(20):
            m.record(float(t), 10.0 if t < 15 else 20.0, 0.5)
        # Window (9, 19]: five samples at 20, five at 10.
        assert m.poll_latency_ms(19.0) == pytest.approx(15.0)

    def test_load_poll(self):
        m = LatencyMonitor(window_s=10)
        for t in range(10):
            m.record(float(t), 5.0, 0.25)
        assert m.poll_load(9.0) == pytest.approx(0.25)

    def test_worst_window(self):
        m = LatencyMonitor(window_s=15, slo_window_s=60)
        for t in range(60):
            m.record(float(t), 30.0 if t == 30 else 5.0, 0.5)
        assert m.worst_window_ms(59.0) == pytest.approx(30.0)

    def test_recent_latency_short_span(self):
        m = LatencyMonitor()
        m.record(0.0, 10.0, 0.5)
        m.record(1.0, 30.0, 0.5)
        assert m.recent_latency_ms(1.0, span_s=1.0) == pytest.approx(30.0)

    def test_recent_latency_falls_back_to_last(self):
        m = LatencyMonitor()
        m.record(0.0, 12.0, 0.5)
        assert m.recent_latency_ms(100.0, span_s=2.0) == pytest.approx(12.0)

    def test_recent_latency_coarse_tick_averages_full_interval(self):
        """dt_s=5 regression: the 2 s subcontroller span must average
        one full sample interval, not degenerate to the latest sample."""
        m = LatencyMonitor()
        for t, tail in ((0.0, 10.0), (5.0, 20.0), (10.0, 40.0)):
            m.record(t, tail, 0.5)
        assert m.observed_spacing_s() == pytest.approx(5.0)
        # span (2 s) < tick (5 s): the last two samples are averaged.
        assert m.recent_latency_ms(10.0, span_s=2.0) == pytest.approx(30.0)

    def test_recent_latency_stale_poll_keeps_latest_fallback(self):
        """The coarse-tick stretch must not fire for stale polls: a
        poll long after the last sample still returns the freshest
        sample, not an average reaching further into the past."""
        m = LatencyMonitor()
        m.record(0.0, 10.0, 0.5)
        m.record(5.0, 40.0, 0.5)
        assert m.recent_latency_ms(100.0, span_s=2.0) == pytest.approx(40.0)

    def test_recent_latency_fine_tick_unchanged(self):
        """At the historical 1 s tick the 2 s span behaviour is pinned:
        exactly the two freshest samples are averaged."""
        m = LatencyMonitor()
        for t in range(5):
            m.record(float(t), 10.0 * (t + 1), 0.5)
        assert m.recent_latency_ms(4.0, span_s=2.0) == pytest.approx(45.0)

    def test_time_ordering_enforced(self):
        m = LatencyMonitor()
        m.record(10.0, 5.0, 0.5)
        with pytest.raises(ValueError):
            m.record(5.0, 5.0, 0.5)

    def test_old_samples_evicted(self):
        m = LatencyMonitor(window_s=5, slo_window_s=10)
        for t in range(100):
            m.record(float(t), 1.0, 0.5)
        assert len(m._samples) <= 12


class TestThroughputMonitor:
    def test_normalization(self):
        m = ThroughputMonitor(reference_units_per_s=20.0)
        m.record(units=10.0, dt_s=1.0)
        assert m.last_normalized == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputMonitor(0.0)
        m = ThroughputMonitor(1.0)
        with pytest.raises(ValueError):
            m.record(1.0, 0.0)
        with pytest.raises(ValueError):
            m.record(-1.0, 1.0)


@pytest.fixture
def actuators():
    return Actuators(Server(default_machine_spec()))


class TestActuatorsCores:
    def test_initial_state(self, actuators):
        assert actuators.be_cores == 0
        assert not actuators.be_enabled
        assert actuators.lc_cores == 36

    def test_enable_grants_one_core_and_cache(self, actuators):
        actuators.enable_be()
        assert actuators.be_enabled
        assert actuators.be_cores == 1
        assert actuators.be_llc_ways == 2  # 10% of 20 ways

    def test_enable_is_idempotent(self, actuators):
        actuators.enable_be()
        actuators.set_be_cores(5)
        actuators.enable_be()
        assert actuators.be_cores == 5

    def test_add_remove(self, actuators):
        actuators.enable_be()
        assert actuators.add_be_core()
        assert actuators.be_cores == 2
        assert actuators.remove_be_cores(1) == 1
        assert actuators.be_cores == 1

    def test_lc_minimum_respected(self, actuators):
        actuators.enable_be()
        actuators.set_be_cores(99)
        assert actuators.lc_cores >= 1
        assert not actuators.add_be_core()

    def test_disable_returns_everything(self, actuators):
        actuators.enable_be()
        actuators.set_be_cores(10)
        actuators.lower_be_frequency()
        actuators.set_be_net_ceil(1.0)
        actuators.disable_be()
        assert actuators.be_cores == 0
        assert actuators.be_llc_ways == 0
        assert actuators.be_dvfs_cap_ghz is None
        assert actuators.be_net_ceil_gbps is None

    def test_core_split_disjoint_and_spread(self, actuators):
        actuators.enable_be()
        actuators.set_be_cores(7)
        lc_alloc = actuators.lc_allocation()
        be_alloc = actuators.be_allocation()
        spec = actuators.spec
        for s in range(spec.sockets):
            total = (lc_alloc.cores_by_socket.get(s, 0)
                     + be_alloc.cores_by_socket.get(s, 0))
            assert total == spec.socket.cores
        # BE spreads across sockets, one job per socket.
        counts = sorted(be_alloc.cores_by_socket.values())
        assert counts == [3, 4]


class TestActuatorsLlc:
    def test_split_updates_cat(self, actuators):
        actuators.enable_be()
        actuators.set_llc_split(5)
        for cat in actuators.server.cat.values():
            assert cat.partition_ways(BE_COS) == 5
            assert cat.partition_ways(LC_COS) == 15

    def test_grow_shrink(self, actuators):
        actuators.enable_be()
        before = actuators.be_llc_ways
        assert actuators.grow_be_llc()
        assert actuators.be_llc_ways == before + 1
        assert actuators.shrink_be_llc()
        assert actuators.be_llc_ways == before

    def test_lc_way_floor(self, actuators):
        actuators.min_lc_llc_ways = 6
        actuators.enable_be()
        actuators.set_llc_split(19)
        assert actuators.lc_llc_ways >= 6

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            Actuators(Server(default_machine_spec()), min_lc_llc_ways=25)


class TestActuatorsDvfsAndNet:
    def test_frequency_steps(self, actuators):
        turbo = actuators.spec.socket.turbo
        cap = actuators.lower_be_frequency()
        assert cap == pytest.approx(turbo.max_turbo_ghz - turbo.step_ghz)
        assert actuators.raise_be_frequency() is None  # back to uncapped

    def test_frequency_floor(self, actuators):
        actuators.lower_be_frequency(steps=100)
        assert actuators.be_dvfs_cap_ghz == pytest.approx(
            actuators.spec.socket.turbo.min_ghz)

    def test_net_ceil(self, actuators):
        actuators.set_be_net_ceil(3.0)
        assert actuators.be_net_ceil_gbps == pytest.approx(3.0)
        assert actuators.be_allocation().net_ceil_gbps is None  # BE off
        actuators.enable_be()
        assert actuators.be_allocation().net_ceil_gbps == pytest.approx(3.0)


class TestColocationSim:
    def test_tick_records(self):
        sim = ColocationSim(lc=make_lc_workload("websearch"),
                            trace=ConstantLoad(0.3),
                            be=make_be_workload("brain"), seed=1)
        record = sim.tick()
        assert record.t_s == 0.0
        assert record.load == pytest.approx(0.3)
        assert record.tail_latency_ms > 0
        assert record.emu == pytest.approx(0.3)  # BE not enabled

    def test_run_length(self):
        sim = ColocationSim(lc=make_lc_workload("websearch"),
                            trace=ConstantLoad(0.3), seed=1)
        history = sim.run(30)
        assert len(history) == 30
        assert history.last().t_s == pytest.approx(29.0)

    def test_no_be_sim(self):
        sim = ColocationSim(lc=make_lc_workload("memkeyval"),
                            trace=ConstantLoad(0.5), seed=1)
        history = sim.run(10)
        assert all(r.be_throughput_norm == 0.0 for r in history.records)

    def test_history_columns(self):
        sim = ColocationSim(lc=make_lc_workload("websearch"),
                            trace=ConstantLoad(0.3), seed=1)
        history = sim.run(10)
        col = history.column("slo_fraction")
        assert len(col) == 10
        assert history.max_slo_fraction() == pytest.approx(col.max())

    def test_worst_window_slo(self):
        sim = ColocationSim(lc=make_lc_workload("websearch"),
                            trace=ConstantLoad(0.3), seed=1)
        history = sim.run(120)
        worst = history.worst_window_slo(window_s=60)
        assert worst <= history.max_slo_fraction()
        assert worst >= history.mean("slo_fraction") - 1e-9

    def test_controller_hook_called(self):
        calls = []

        class Probe:
            def step(self, now_s):
                calls.append(now_s)

        sim = ColocationSim(lc=make_lc_workload("websearch"),
                            trace=ConstantLoad(0.3), seed=1)
        sim.attach_controller(Probe())
        sim.run(5)
        assert calls == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_determinism(self):
        def run():
            sim = ColocationSim(lc=make_lc_workload("websearch"),
                                trace=ConstantLoad(0.4),
                                be=make_be_workload("brain"), seed=9)
            from repro.core import HeraclesController
            HeraclesController.for_sim(sim)
            return sim.run(120).column("slo_fraction")

        a, b = run(), run()
        assert a.tolist() == b.tolist()

    def test_bad_durations(self):
        sim = ColocationSim(lc=make_lc_workload("websearch"),
                            trace=ConstantLoad(0.3), seed=1)
        with pytest.raises(ValueError):
            sim.tick(dt_s=0.0)
        with pytest.raises(ValueError):
            sim.run(0.0)
