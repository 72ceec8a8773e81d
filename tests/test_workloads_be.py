"""Tests for repro.workloads.best_effort and antagonists."""

import pytest

from repro.hardware.server import Server
from repro.hardware.spec import default_machine_spec
from repro.workloads.antagonists import (Placement, figure1_antagonists,
                                         make_antagonist)
from repro.workloads.base import Allocation
from repro.workloads.best_effort import (BE_PROFILES, BestEffortWorkload,
                                         BeWorkloadProfile, make_be_workload,
                                         reference_throughput_units)


@pytest.fixture(scope="module")
def spec():
    return default_machine_spec()


class TestProfiles:
    def test_all_paper_tasks_present(self):
        assert set(BE_PROFILES) == {"brain", "streetview", "stream-LLC",
                                    "stream-DRAM", "cpu_pwr", "iperf"}

    def test_brain_is_compute_and_cache_hungry(self):
        brain = BE_PROFILES["brain"]
        assert brain.activity > 0.8
        assert brain.cache_benefit > 0.2

    def test_streetview_is_dram_heavy(self):
        sv = BE_PROFILES["streetview"]
        assert sv.uncached_dram_gbps_per_core >= 2.0
        assert sv.mem_bound_fraction >= 0.5

    def test_cpu_pwr_is_a_power_virus(self):
        virus = BE_PROFILES["cpu_pwr"]
        assert virus.activity == pytest.approx(1.0)
        assert virus.power_weight > 1.5

    def test_iperf_saturates_link(self, spec):
        iperf = BE_PROFILES["iperf"]
        assert iperf.net_demand_gbps >= spec.nic.link_gbps
        assert iperf.net_flows > 100  # many mice flows

    def test_stream_llc_sized_to_half_llc(self, spec):
        assert BE_PROFILES["stream-LLC"].bulk_mb == pytest.approx(
            0.5 * spec.total_llc_mb)

    def test_stream_dram_never_fits(self, spec):
        assert BE_PROFILES["stream-DRAM"].bulk_mb > 10 * spec.total_llc_mb

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_be_workload("nope")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BeWorkloadProfile(name="x", activity=2.0).validate()
        with pytest.raises(ValueError):
            BeWorkloadProfile(name="x", activity=1.0,
                              power_weight=5.0).validate()
        with pytest.raises(ValueError):
            BeWorkloadProfile(name="x", activity=0.5,
                              bulk_mb=-1.0).validate()


class TestDemand:
    def test_elastic_cores(self, spec):
        be = make_be_workload("brain", spec)
        demand = be.demand(Allocation(cores_by_socket={0: 4, 1: 4}))
        assert demand.total_cores() == 8
        assert demand.activity > 1.0  # brain's power weight

    def test_no_cores_no_network(self, spec):
        be = make_be_workload("iperf", spec)
        demand = be.demand(Allocation(cores_by_socket={}))
        assert demand.net_demand_gbps == 0.0

    def test_dram_scales_with_cores(self, spec):
        be = make_be_workload("streetview", spec)
        small = be.demand(Allocation(cores_by_socket={0: 2}))
        large = be.demand(Allocation(cores_by_socket={0: 8}))
        assert (sum(large.uncached_dram_gbps_by_socket.values())
                == pytest.approx(
                    4 * sum(small.uncached_dram_gbps_by_socket.values())))


class TestThroughput:
    def test_zero_without_cores(self, spec):
        be = make_be_workload("brain", spec)
        server = Server(spec)
        alloc = Allocation(cores_by_socket={0: 4})
        usages = server.resolve([be.demand(alloc)])
        import dataclasses
        no_cores = dataclasses.replace(usages["brain"], cores=0)
        assert be.throughput_units(no_cores) == 0.0

    def test_scales_with_cores_when_unconstrained(self, spec):
        be = make_be_workload("cpu_pwr", spec)
        server = Server(spec)
        u4 = server.resolve([be.demand(
            Allocation(cores_by_socket={0: 2, 1: 2}))])["cpu_pwr"]
        server2 = Server(spec)
        u8 = server2.resolve([be.demand(
            Allocation(cores_by_socket={0: 4, 1: 4}))])["cpu_pwr"]
        ratio = be.throughput_units(u8) / be.throughput_units(u4)
        assert 1.6 < ratio <= 2.1

    def test_reference_throughput_positive(self, spec):
        for name in BE_PROFILES:
            be = make_be_workload(name, spec)
            assert reference_throughput_units(be) > 0

    def test_dram_bound_reference_is_starved(self, spec):
        # stream-DRAM alone on the whole machine oversubscribes DRAM, so
        # its per-core efficiency at full allocation is well below 1.
        be = make_be_workload("stream-DRAM", spec)
        reference = reference_throughput_units(be)
        assert reference < 0.8 * spec.total_cores

    def test_network_bound_throughput(self, spec):
        be = make_be_workload("iperf", spec)
        server = Server(spec)
        alloc = Allocation(cores_by_socket={0: 2}, net_ceil_gbps=1.0)
        usages = server.resolve([be.demand(alloc)])
        capped = be.throughput_units(usages["iperf"])
        server2 = Server(spec)
        alloc2 = Allocation(cores_by_socket={0: 2})
        usages2 = server2.resolve([be.demand(alloc2)])
        uncapped = be.throughput_units(usages2["iperf"])
        assert capped < 0.2 * uncapped


class TestAntagonists:
    def test_eight_rows(self, spec):
        rows = figure1_antagonists(spec)
        assert len(rows) == 8
        labels = [r.label for r in rows]
        assert labels == ["LLC (small)", "LLC (med)", "LLC (big)", "DRAM",
                          "HyperThread", "CPU power", "Network", "brain"]

    def test_llc_footprints_ordered(self, spec):
        rows = {r.label: r for r in figure1_antagonists(spec)}
        assert (rows["LLC (small)"].profile.bulk_mb
                < rows["LLC (med)"].profile.bulk_mb
                < rows["LLC (big)"].profile.bulk_mb)
        assert rows["LLC (small)"].profile.bulk_mb == pytest.approx(
            0.25 * spec.total_llc_mb)

    def test_placements(self, spec):
        rows = {r.label: r for r in figure1_antagonists(spec)}
        assert rows["HyperThread"].placement is Placement.SIBLING_THREADS
        assert rows["Network"].placement is Placement.ONE_CORE
        assert rows["brain"].placement is Placement.SHARED_CORES
        assert rows["DRAM"].placement is Placement.REMAINING_CORES

    def test_spinloop_touches_no_memory(self, spec):
        row = {r.label: r for r in figure1_antagonists(spec)}["HyperThread"]
        assert row.profile.access_gbps_per_core == 0.0
        assert row.profile.bulk_mb == 0.0

    def test_make_antagonist(self, spec):
        row = {r.label: r for r in figure1_antagonists(spec)}["CPU power"]
        workload = make_antagonist(row, spec)
        assert isinstance(workload, BestEffortWorkload)
        assert workload.profile.power_weight > 1.5
