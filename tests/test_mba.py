"""Tests for the MBA-style DRAM bandwidth isolation extension."""

import pytest

import repro
from repro.core.mba import MbaCoreMemoryController, attach_mba_heracles
from repro.hardware.server import Server, TaskTickDemand
from repro.hardware.spec import default_machine_spec
from repro.sim.actuators import Actuators


class TestThrottleMechanism:
    def test_throttle_scales_channel_demand(self):
        server = Server(default_machine_spec())
        demand = TaskTickDemand(task="be", cores_by_socket={0: 4},
                                activity=0.5,
                                uncached_dram_gbps_by_socket={0: 40.0},
                                dram_throttle=0.5)
        server.resolve([demand])
        assert server.telemetry.total_dram_gbps == pytest.approx(20.0)

    def test_throttled_task_reads_as_starved(self):
        server = Server(default_machine_spec())
        demand = TaskTickDemand(task="be", cores_by_socket={0: 4},
                                activity=0.5,
                                uncached_dram_gbps_by_socket={0: 40.0},
                                dram_throttle=0.25)
        usages = server.resolve([demand])
        usage = usages["be"]
        assert usage.dram_demand_gbps == pytest.approx(40.0)
        assert usage.dram_achieved_gbps == pytest.approx(10.0)

    def test_throttle_validation(self):
        demand = TaskTickDemand(task="x", cores_by_socket={0: 1},
                                activity=0.5, dram_throttle=0.0)
        with pytest.raises(ValueError):
            demand.validate(default_machine_spec())

    def test_actuator_ladder(self):
        actuators = Actuators(Server(default_machine_spec()))
        assert actuators.be_dram_throttle == pytest.approx(1.0)
        actuators.lower_be_dram_throttle()
        assert actuators.be_dram_throttle == pytest.approx(0.85)
        for _ in range(50):
            actuators.lower_be_dram_throttle()
        assert actuators.be_dram_throttle == pytest.approx(0.10)
        for _ in range(50):
            actuators.raise_be_dram_throttle()
        assert actuators.be_dram_throttle == pytest.approx(1.0)

    def test_disable_resets_throttle(self):
        actuators = Actuators(Server(default_machine_spec()))
        actuators.enable_be()
        actuators.lower_be_dram_throttle()
        actuators.disable_be()
        assert actuators.be_dram_throttle == pytest.approx(1.0)

    def test_throttle_flows_into_be_allocation(self):
        actuators = Actuators(Server(default_machine_spec()))
        actuators.enable_be()
        actuators.lower_be_dram_throttle()
        assert actuators.be_allocation().dram_throttle == pytest.approx(0.85)


class TestMbaController:
    def test_attach_builds_mba_variant(self):
        sim = repro.build_colocation("websearch", "stream-DRAM", load=0.4,
                                     seed=3)
        controller = attach_mba_heracles(sim)
        assert isinstance(controller.core_memory, MbaCoreMemoryController)

    def test_safe_against_stream_dram(self):
        sim = repro.build_colocation("websearch", "stream-DRAM", load=0.4,
                                     seed=3)
        attach_mba_heracles(sim)
        history = sim.run(700)
        assert history.worst_window_slo(skip_s=240) <= 1.0

    def test_throttles_before_removing_cores(self):
        sim = repro.build_colocation("websearch", "stream-DRAM", load=0.4,
                                     seed=3)
        attach_mba_heracles(sim)
        history = sim.run(700)
        throttles = [r for r in history.records
                     if r.be_enabled and sim.actuators.be_dram_throttle < 1.0]
        # The throttle was actually exercised at some point, or the run
        # ended throttled.
        assert throttles or sim.actuators.be_dram_throttle < 1.0

    def test_keeps_more_cores_than_core_removal(self):
        from repro.core import HeraclesController
        base_sim = repro.build_colocation("websearch", "stream-DRAM",
                                          load=0.4, seed=3)
        HeraclesController.for_sim(base_sim)
        base = base_sim.run(700)

        mba_sim = repro.build_colocation("websearch", "stream-DRAM",
                                         load=0.4, seed=3)
        attach_mba_heracles(mba_sim)
        mba = mba_sim.run(700)

        assert (mba.mean("be_cores", skip_s=300)
                >= base.mean("be_cores", skip_s=300))
        assert mba.worst_window_slo(skip_s=240) <= 1.0
