"""Tests for repro.baselines: static splits."""

import pytest

import repro
from repro.baselines.static import (StaticPartitionController,
                                    conservative_static, optimistic_static)


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
