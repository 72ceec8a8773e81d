"""Tests for repro.baselines: OS isolation, static splits."""

import pytest

import repro
from repro.baselines.os_isolation import (os_isolation_sweep,
                                          violates_everywhere)
from repro.baselines.static import (StaticPartitionController,
                                    conservative_static, optimistic_static)


class TestOsIsolation:
    @pytest.fixture(scope="class")
    def sweep(self):
        return os_isolation_sweep("websearch", loads=[0.1, 0.3, 0.5, 0.7])

    def test_violates_at_every_load(self, sweep):
        # Figure 1's brain rows: OS isolation is never enough.
        assert violates_everywhere(sweep)

    def test_be_throughput_is_nonzero(self, sweep):
        # CFS is work-conserving: the BE task gets the idle cycles.
        assert all(p.be_throughput > 0.3 for p in sweep)

    def test_memkeyval_is_worst(self):
        ws = os_isolation_sweep("websearch", loads=[0.3])
        kv = os_isolation_sweep("memkeyval", loads=[0.3])
        assert kv[0].slo_fraction > ws[0].slo_fraction

    def test_unknown_be_rejected(self):
        with pytest.raises(KeyError):
            os_isolation_sweep("websearch", be_name="nope")

    def test_violates_everywhere_validation(self):
        with pytest.raises(ValueError):
            violates_everywhere([])


class TestStaticPartition:
    def run_static(self, factory, load, seed=0):
        sim = repro.build_colocation("websearch", "brain", load=load,
                                     seed=seed)
        sim.set_chaos_events(factory(sim.server.spec).events())
        return sim.run(600)

    def test_conservative_is_safe_everywhere(self):
        for load in (0.2, 0.6, 0.8):
            history = self.run_static(conservative_static, load)
            assert history.worst_window_slo(skip_s=120) <= 1.0

    def test_conservative_leaves_emu_on_the_table(self):
        history = self.run_static(conservative_static, 0.2)
        from repro.experiments.common import run_colocation
        heracles = run_colocation("websearch", "brain", 0.2,
                                  duration_s=600)
        assert (history.mean("be_throughput_norm", skip_s=120)
                < heracles.mean_be_throughput)

    def test_optimistic_violates_at_high_load(self):
        history = self.run_static(optimistic_static, 0.75)
        assert history.worst_window_slo(skip_s=120) > 1.0

    def test_optimistic_fine_at_low_load(self):
        history = self.run_static(optimistic_static, 0.15)
        assert history.worst_window_slo(skip_s=120) <= 1.0

    def test_static_configures_once(self):
        sim = repro.build_colocation("websearch", "brain", load=0.3)
        grant = StaticPartitionController(sim.server.spec, be_cores=4,
                                          be_llc_ways=4)
        sim.set_chaos_events(grant.events())
        sim.run(30)
        assert sim.actuators.be_cores == 4
        assert sim.actuators.be_llc_ways == 4
        # Granted at start-up and held: every recorded tick shows it.
        assert set(sim.history.column("be_cores")) == {4}

    def test_validation(self):
        sim = repro.build_colocation("websearch", "brain", load=0.3)
        with pytest.raises(ValueError):
            StaticPartitionController(sim.server.spec, be_cores=-1,
                                      be_llc_ways=0)
