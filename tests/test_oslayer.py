"""Tests for repro.oslayer: CFS model, traffic control."""

import pytest

from repro.oslayer.scheduler import CfsSharedCoreModel
from repro.oslayer.traffic_control import HtbQdisc


class TestCfsModel:
    def test_no_be_no_delay(self):
        cfs = CfsSharedCoreModel()
        assert cfs.tail_delay_ms(10, 0, 36, 0.98) == 0.0

    def test_delay_grows_with_lc_pressure(self):
        cfs = CfsSharedCoreModel()
        low = cfs.tail_delay_ms(4, 36, 36, 0.98)
        high = cfs.tail_delay_ms(30, 36, 36, 0.98)
        assert high > low

    def test_delay_is_milliseconds_scale(self):
        # The Leverich pathology: tens of milliseconds at the tail.
        cfs = CfsSharedCoreModel()
        delay = cfs.tail_delay_ms(18, 36, 36, 0.98)
        assert 5.0 < delay < 100.0

    def test_low_shares_do_not_eliminate_delay(self):
        cfs = CfsSharedCoreModel()
        tiny_shares = cfs.tail_delay_ms(10, 36, 36, lc_share=0.999)
        assert tiny_shares > 1.0

    def test_zero_cores(self):
        cfs = CfsSharedCoreModel()
        assert cfs.tail_delay_ms(1, 1, 0, 0.5) == 0.0


class TestHtbQdisc:
    def test_add_and_read(self):
        htb = HtbQdisc(10.0)
        htb.add_class("be", ceil_gbps=3.0)
        assert htb.ceil_of("be") == pytest.approx(3.0)

    def test_uncapped_class(self):
        htb = HtbQdisc(10.0)
        htb.add_class("lc")
        assert htb.ceil_of("lc") is None

    def test_unknown_class(self):
        htb = HtbQdisc(10.0)
        assert htb.ceil_of("ghost") is None
        with pytest.raises(KeyError):
            htb.set_ceil("ghost", 1.0)

    def test_negative_ceil_clamped_to_zero(self):
        # Algorithm 4 can compute a negative BE budget.
        htb = HtbQdisc(10.0)
        htb.add_class("be")
        htb.set_ceil("be", -5.0)
        assert htb.ceil_of("be") == pytest.approx(0.0)

    def test_ceil_clamped_to_link(self):
        htb = HtbQdisc(10.0)
        htb.add_class("be")
        htb.set_ceil("be", 50.0)
        assert htb.ceil_of("be") == pytest.approx(10.0)

    def test_rate_cannot_exceed_ceil(self):
        htb = HtbQdisc(10.0)
        with pytest.raises(ValueError):
            htb.add_class("bad", rate_gbps=5.0, ceil_gbps=2.0)

    def test_bad_link(self):
        with pytest.raises(ValueError):
            HtbQdisc(0.0)
