"""Tests for repro.hardware.cache: CAT partitioning and occupancy."""

import pytest

from repro.hardware.cache import (CacheDemand, CatController,
                                  resolve_occupancy)


def demand(task, hot=0.0, bulk=0.0, access=1.0, haf=0.0, reuse=1.0):
    return CacheDemand(task=task, hot_mb=hot, bulk_mb=bulk,
                       access_gbps=access, hot_access_fraction=haf,
                       bulk_reuse=reuse)


class TestCacheDemand:
    def test_footprint(self):
        d = demand("t", hot=4.0, bulk=6.0)
        assert d.footprint_mb == pytest.approx(10.0)

    def test_rejects_negative_footprint(self):
        with pytest.raises(ValueError):
            demand("t", hot=-1.0).validate()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            demand("t", haf=1.5).validate()

    def test_rejects_bad_reuse(self):
        with pytest.raises(ValueError):
            demand("t", reuse=-0.1).validate()


class TestResolveOccupancySingleTask:
    def test_fits_entirely(self):
        shares = resolve_occupancy(45.0, [demand("t", hot=5, bulk=10,
                                                 access=10, haf=0.5)])
        share = shares[0]
        assert share.occupancy_mb == pytest.approx(15.0)
        assert share.hot_coverage == pytest.approx(1.0)
        assert share.bulk_coverage == pytest.approx(1.0)

    def test_partition_smaller_than_hot_set(self):
        shares = resolve_occupancy(2.0, [demand("t", hot=8, bulk=0,
                                                access=10, haf=1.0)])
        share = shares[0]
        assert share.hot_coverage == pytest.approx(0.25)
        assert share.hit_fraction == pytest.approx(0.25)

    def test_hot_fills_before_bulk(self):
        shares = resolve_occupancy(10.0, [demand("t", hot=8, bulk=20,
                                                 access=10, haf=0.5)])
        share = shares[0]
        assert share.hot_coverage == pytest.approx(1.0)
        assert share.bulk_coverage == pytest.approx(0.1)

    def test_miss_bandwidth_tracks_hit_fraction(self):
        d = demand("t", hot=4, bulk=100, access=20, haf=0.2, reuse=1.0)
        shares = resolve_occupancy(14.0, [d])
        share = shares[0]
        expected_hit = 0.2 * 1.0 + 0.8 * 0.1 * 1.0
        assert share.hit_fraction == pytest.approx(expected_hit)
        assert share.miss_gbps == pytest.approx(20 * (1 - expected_hit))

    def test_zero_partition(self):
        shares = resolve_occupancy(0.0, [demand("t", hot=4, access=5,
                                                haf=1.0)])
        assert shares[0].occupancy_mb == pytest.approx(0.0)
        assert shares[0].miss_gbps == pytest.approx(5.0)

    def test_empty_demands(self):
        assert resolve_occupancy(45.0, []) == []

    def test_negative_partition_rejected(self):
        with pytest.raises(ValueError):
            resolve_occupancy(-1.0, [demand("t")])


class TestResolveOccupancyContention:
    def test_capacity_is_conserved(self):
        demands = [demand("a", bulk=40, access=10),
                   demand("b", bulk=40, access=10)]
        shares = resolve_occupancy(45.0, demands)
        total = sum(s.occupancy_mb for s in shares)
        assert total <= 45.0 + 1e-9

    def test_no_contention_when_everything_fits(self):
        demands = [demand("a", bulk=10, access=10),
                   demand("b", bulk=10, access=1)]
        shares = resolve_occupancy(45.0, demands)
        assert all(s.bulk_coverage == pytest.approx(1.0) for s in shares)

    def test_higher_access_rate_defends_more_cache(self):
        demands = [demand("hog", bulk=40, access=100),
                   demand("meek", bulk=40, access=10)]
        shares = {s.task: s for s in resolve_occupancy(45.0, demands)}
        assert shares["hog"].occupancy_mb > shares["meek"].occupancy_mb

    def test_occupancy_capped_at_footprint(self):
        # A small streaming task cannot occupy more than its array, no
        # matter how hard it streams (the LLC-small antagonist property).
        demands = [demand("small", bulk=11.0, access=300),
                   demand("victim", hot=20.0, bulk=0, access=5, haf=1.0)]
        shares = {s.task: s for s in resolve_occupancy(45.0, demands)}
        assert shares["small"].occupancy_mb <= 11.0 + 1e-9
        # Victim keeps its hot set: 45 - 11 = 34 > 20.
        assert shares["victim"].hot_coverage == pytest.approx(1.0)

    def test_big_antagonist_evicts_victim_hot_set(self):
        demands = [demand("big", bulk=40.0, access=300),
                   demand("victim", hot=20.0, bulk=0, access=5, haf=1.0)]
        shares = {s.task: s for s in resolve_occupancy(45.0, demands)}
        assert shares["victim"].hot_coverage < 1.0

    def test_victim_defends_better_with_more_access(self):
        def victim_coverage(victim_access):
            demands = [demand("big", bulk=40.0, access=100),
                       demand("victim", hot=20.0, access=victim_access,
                              haf=1.0)]
            shares = {s.task: s for s in resolve_occupancy(45.0, demands)}
            return shares["victim"].hot_coverage

        assert victim_coverage(50) > victim_coverage(5)

    def test_zero_access_everyone(self):
        demands = [demand("a", bulk=100, access=0),
                   demand("b", bulk=100, access=0)]
        shares = resolve_occupancy(45.0, demands)
        total = sum(s.occupancy_mb for s in shares)
        assert total <= 45.0 + 1e-9


class TestCatController:
    def test_partition_sizing(self):
        cat = CatController(llc_mb=45.0, ways=20)
        assert cat.mb_per_way == pytest.approx(2.25)
        cat.set_partition("lc", 16)
        assert cat.partition_mb("lc") == pytest.approx(36.0)

    def test_overflow_rejected(self):
        cat = CatController(45.0, 20)
        cat.set_partition("lc", 16)
        with pytest.raises(ValueError):
            cat.set_partition("be", 5)

    def test_resize_within_budget(self):
        cat = CatController(45.0, 20)
        cat.set_partition("lc", 16)
        cat.set_partition("lc", 18)
        assert cat.partition_ways("lc") == 18

    def test_zero_ways_removes_class(self):
        cat = CatController(45.0, 20)
        cat.set_partition("lc", 4)
        cat.set_partition("lc", 0)
        assert cat.classes() == {}

    def test_unallocated(self):
        cat = CatController(45.0, 20)
        cat.set_partition("lc", 12)
        assert cat.unallocated_ways() == 8

    def test_needs_two_ways(self):
        with pytest.raises(ValueError):
            CatController(45.0, 1)
