"""Tests for repro.hardware.counters: the controller's observation API."""

import pytest

from repro.hardware.counters import CounterBank
from repro.hardware.server import Server, TaskTickDemand
from repro.hardware.spec import default_machine_spec


@pytest.fixture
def server():
    return Server(default_machine_spec())


@pytest.fixture
def counters(server):
    return CounterBank(server)


def resolve_two_tasks(server):
    lc = TaskTickDemand(task="lc", cores_by_socket={0: 9, 1: 9},
                        activity=0.6,
                        uncached_dram_gbps_by_socket={0: 10.0, 1: 10.0},
                        net_demand_gbps=2.0)
    be = TaskTickDemand(task="be", cores_by_socket={0: 4, 1: 4},
                        activity=0.9,
                        uncached_dram_gbps_by_socket={0: 8.0, 1: 4.0},
                        net_demand_gbps=1.0)
    return server.resolve([lc, be])


class TestDramCounters:
    def test_total_bw(self, server):
        resolve_two_tasks(server)
        assert server.telemetry.total_dram_gbps == pytest.approx(32.0)

    def test_capacities(self, counters):
        assert counters.socket_dram_capacity_gbps() == pytest.approx(60.0)

    def test_worst_socket(self, server, counters):
        resolve_two_tasks(server)
        assert counters.worst_socket_dram_bw_gbps() == pytest.approx(18.0)

    def test_per_task_bw(self, server, counters):
        resolve_two_tasks(server)
        assert counters.dram_bw_of("be") == pytest.approx(12.0)
        assert counters.dram_bw_of("missing") == 0.0

    def test_utilization(self, server, counters):
        resolve_two_tasks(server)
        assert counters.dram_utilization() == pytest.approx(18.0 / 60.0)


class TestPowerCounters:
    def test_socket_power_positive(self, server, counters):
        resolve_two_tasks(server)
        assert counters.socket_power_watts(0) > 0
        assert 0 < counters.power_fraction_of_tdp(0) <= 1.0

    def test_max_fraction(self, server, counters):
        resolve_two_tasks(server)
        per_socket = [counters.power_fraction_of_tdp(s) for s in (0, 1)]
        assert counters.max_power_fraction_of_tdp() == pytest.approx(
            max(per_socket))

    def test_freq_of(self, server, counters):
        resolve_two_tasks(server)
        assert counters.freq_of("lc") > 1.0
        assert counters.freq_of("missing") is None


class TestNetworkCounters:
    def test_link_rate(self, counters):
        assert counters.link_rate_gbps() == pytest.approx(10.0)

    def test_tx_per_task(self, server, counters):
        resolve_two_tasks(server)
        assert counters.tx_gbps_of("lc") == pytest.approx(2.0)
        assert counters.tx_gbps_of("missing") == 0.0

    def test_total_tx(self, server, counters):
        resolve_two_tasks(server)
        assert counters.link_tx_gbps() == pytest.approx(3.0)


class TestCpuCounters:
    def test_utilization(self, server, counters):
        resolve_two_tasks(server)
        assert counters.cpu_utilization() == pytest.approx(26 / 36)

    def test_per_task_dram_map(self, server, counters):
        usages = resolve_two_tasks(server)
        assert set(usages) == {"lc", "be"}
        for name, usage in usages.items():
            assert counters.dram_bw_of(name) == usage.dram_achieved_gbps
