"""Tests for the parallel sweep runner and profiling memoization."""

import os

import pytest

from repro.hardware.spec import default_machine_spec
from repro.sim import runner
from repro.sim.runner import (clear_model_cache, default_jobs,
                              memoized_dram_model, run_sweep)


def _square(x):
    return x * x


def _add(a, b=0):
    return a + b


class TestRunSweep:
    def test_serial_results_in_order(self):
        assert run_sweep(_square, [1, 2, 3, 4], processes=1) == [1, 4, 9, 16]

    def test_star_points(self):
        points = [((1,), {"b": 10}), ((2,), {}), ((), {"a": 3, "b": 4})]
        assert run_sweep(_add, points, processes=1, star=True) == [11, 2, 7]

    def test_empty_points(self):
        assert run_sweep(_square, [], processes=8) == []

    def test_parallel_matches_serial(self):
        points = list(range(8))
        serial = run_sweep(_square, points, processes=1)
        parallel = run_sweep(_square, points, processes=2)
        assert parallel == serial

    def test_worker_count_never_exceeds_points(self, monkeypatch):
        monkeypatch.setenv(runner.JOBS_ENV, "64")
        assert default_jobs(3) == 64  # env pin wins...
        monkeypatch.delenv(runner.JOBS_ENV)
        assert default_jobs(3) <= max(3, os.cpu_count() or 1)

    def test_jobs_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv(runner.JOBS_ENV, "not-a-number")
        assert default_jobs(4) >= 1

    def test_jobs_env_zero_means_auto(self, monkeypatch):
        """REPRO_JOBS=0 is the documented 'auto', not forced-serial."""
        monkeypatch.delenv(runner.JOBS_ENV, raising=False)
        auto = default_jobs(3)
        monkeypatch.setenv(runner.JOBS_ENV, "0")
        assert default_jobs(3) == auto

    def test_jobs_env_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(runner.JOBS_ENV, "-2")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs(3)


class TestMemoizedModel:
    def test_same_object_returned(self):
        clear_model_cache()
        spec = default_machine_spec()
        a = memoized_dram_model("websearch", spec)
        b = memoized_dram_model("websearch", spec)
        assert a is b

    def test_distinct_per_workload(self):
        clear_model_cache()
        a = memoized_dram_model("websearch")
        b = memoized_dram_model("ml_cluster")
        assert a is not b
        clear_model_cache()
        assert memoized_dram_model("websearch") is not a

    def test_matches_fresh_profile(self):
        import numpy as np

        from repro.core.dram_model import profile_lc_dram_model
        from repro.workloads.latency_critical import make_lc_workload
        clear_model_cache()
        cached = memoized_dram_model("websearch")
        fresh = profile_lc_dram_model(make_lc_workload("websearch"))
        np.testing.assert_allclose(cached.bandwidth_gbps,
                                   fresh.bandwidth_gbps)
