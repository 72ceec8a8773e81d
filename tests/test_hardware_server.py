"""Tests for repro.hardware.server: whole-server contention resolution."""

import pytest

from repro.hardware.cache import CacheDemand
from repro.hardware.server import Server, TaskTickDemand
from repro.hardware.spec import default_machine_spec


@pytest.fixture
def server():
    return Server(default_machine_spec())


def lc_demand(name="lc", cores=9, activity=0.5, **kwargs):
    return TaskTickDemand(
        task=name,
        cores_by_socket={0: cores, 1: cores},
        activity=activity,
        **kwargs,
    )


class TestResolveBasics:
    def test_single_task(self, server):
        usages = server.resolve([lc_demand()])
        usage = usages["lc"]
        assert usage.cores == 18
        assert usage.freq_ghz > 2.0
        assert usage.mem_delay_factor >= 1.0
        assert usage.net_satisfaction == pytest.approx(1.0)

    def test_duplicate_names_rejected(self, server):
        with pytest.raises(ValueError):
            server.resolve([lc_demand(), lc_demand()])

    def test_invalid_socket_rejected(self, server):
        demand = TaskTickDemand(task="x", cores_by_socket={7: 1},
                                activity=0.5)
        with pytest.raises(ValueError):
            server.resolve([demand])

    def test_too_many_cores_rejected(self, server):
        demand = TaskTickDemand(task="x", cores_by_socket={0: 99},
                                activity=0.5)
        with pytest.raises(ValueError):
            server.resolve([demand])

    def test_usage_lookup(self, server):
        server.resolve([lc_demand()])
        assert server.usage_of("lc").task == "lc"
        with pytest.raises(KeyError):
            server.usage_of("ghost")


class TestCacheIntegration:
    def test_default_cos_shares_whole_llc(self, server):
        demand = lc_demand(cache_by_socket={
            0: CacheDemand("lc", hot_mb=10, access_gbps=5,
                           hot_access_fraction=1.0),
        })
        usages = server.resolve([demand])
        assert usages["lc"].hot_coverage == pytest.approx(1.0)

    def test_partition_bounds_occupancy(self, server):
        server.cat[0].set_partition("small", 2)  # 4.5 MB
        demand = TaskTickDemand(
            task="lc", cores_by_socket={0: 9}, activity=0.5,
            cache_by_socket={0: CacheDemand("lc", hot_mb=20, access_gbps=5,
                                            hot_access_fraction=1.0)},
            cache_cos="small")
        usages = server.resolve([demand])
        assert usages["lc"].hot_coverage == pytest.approx(4.5 / 20.0)

    def test_misses_feed_dram(self, server):
        # A task whose working set exceeds its partition generates DRAM
        # traffic from the misses.
        server.cat[0].set_partition("tiny", 2)
        demand = TaskTickDemand(
            task="x", cores_by_socket={0: 9}, activity=0.5,
            cache_by_socket={0: CacheDemand("x", bulk_mb=100, access_gbps=30,
                                            bulk_reuse=1.0)},
            cache_cos="tiny")
        usages = server.resolve([demand])
        assert usages["x"].dram_demand_gbps > 20.0


class TestMemoryIntegration:
    def test_uncached_traffic_counted(self, server):
        demand = lc_demand(uncached_dram_gbps_by_socket={0: 30.0, 1: 30.0})
        server.resolve([demand])
        assert server.telemetry.total_dram_gbps == pytest.approx(60.0)

    def test_socket_saturation_visible_in_telemetry(self, server):
        demand = TaskTickDemand(task="hog", cores_by_socket={0: 18},
                                activity=0.5,
                                uncached_dram_gbps_by_socket={0: 100.0})
        server.resolve([demand])
        assert server.telemetry.max_dram_utilization == pytest.approx(1.0)
        assert server.telemetry.sockets[1].dram_utilization < 0.01

    def test_delay_factor_propagates(self, server):
        hog = TaskTickDemand(task="hog", cores_by_socket={0: 17},
                             activity=0.5,
                             uncached_dram_gbps_by_socket={0: 100.0})
        victim = TaskTickDemand(task="victim", cores_by_socket={0: 1},
                                activity=0.5,
                                uncached_dram_gbps_by_socket={0: 1.0})
        usages = server.resolve([hog, victim])
        assert usages["victim"].mem_delay_factor > 1.5


class TestPowerIntegration:
    def test_rapl_meter_updates(self, server):
        server.resolve([lc_demand(activity=1.0, cores=18)])
        assert server.rapl[0].read_watts() > 50.0

    def test_turbo_drops_with_contention(self, server):
        alone = Server(default_machine_spec())
        u1 = alone.resolve([lc_demand(cores=4, activity=0.5)])
        contended = Server(default_machine_spec())
        virus = TaskTickDemand(task="virus",
                               cores_by_socket={0: 14, 1: 14},
                               activity=2.2)
        u2 = contended.resolve([lc_demand(cores=4, activity=0.5), virus])
        assert u2["lc"].freq_ghz < u1["lc"].freq_ghz

    def test_dvfs_cap_passes_through(self, server):
        demand = lc_demand(dvfs_cap_ghz=1.5)
        usages = server.resolve([demand])
        assert usages["lc"].freq_ghz == pytest.approx(1.5)


class TestNetworkIntegration:
    def test_ceil_passes_through(self, server):
        demand = lc_demand(net_demand_gbps=8.0, net_ceil_gbps=2.0)
        usages = server.resolve([demand])
        assert usages["lc"].net_achieved_gbps == pytest.approx(2.0)
        assert usages["lc"].net_satisfaction == pytest.approx(0.25)

    def test_link_telemetry(self, server):
        server.resolve([lc_demand(net_demand_gbps=5.0)])
        assert server.telemetry.link_tx_gbps == pytest.approx(5.0)
        assert server.telemetry.link_utilization == pytest.approx(0.5)


class TestTelemetry:
    def test_cpu_utilization(self, server):
        server.resolve([lc_demand(cores=9)])  # 18 of 36 cores
        assert server.telemetry.cpu_utilization == pytest.approx(0.5)

    def test_power_fraction(self, server):
        server.resolve([lc_demand(cores=18, activity=1.0)])
        assert 0.2 < server.telemetry.power_fraction_of_tdp <= 1.0

    def test_ht_share_passthrough(self, server):
        usages = server.resolve([lc_demand(ht_share_fraction=0.5)])
        assert usages["lc"].ht_share_fraction == pytest.approx(0.5)
