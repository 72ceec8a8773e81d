"""Unit tests for the columnar telemetry subsystem (repro.metrics)."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.metrics import (BatchColumnStore, ColumnStore, WindowedMetrics,
                           derive_dt_s, max_after, mean_after, min_after,
                           sample_mean, window_width, worst_window_mean)
from repro.metrics.columns import SPILL_DIR_ENV
from repro.metrics.history import BatchMemberSeries, ColumnarHistory


@pytest.fixture
def in_ram(monkeypatch):
    """Force the in-RAM layout even under the CI spill env toggle.

    A handful of tests assert layout-specific facts (zero-copy views,
    geometric capacity growth, allocated bytes) that the spilling
    layout legitimately changes; they pin the in-RAM behaviour.
    """
    monkeypatch.delenv(SPILL_DIR_ENV, raising=False)


class TestColumnStore:
    def test_append_and_views(self):
        store = ColumnStore({"t_s": np.float64, "x": np.float64},
                            capacity=2)
        for i in range(5):
            store.append_row({"t_s": float(i), "x": i * 10.0})
        assert len(store) == 5
        np.testing.assert_array_equal(store.column("t_s"),
                                      [0.0, 1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(store.column("x"),
                                      [0.0, 10.0, 20.0, 30.0, 40.0])

    def test_geometric_growth(self, in_ram):
        store = ColumnStore({"x": np.float64}, capacity=1)
        for i in range(100):
            store.append_row({"x": float(i)})
        assert store.capacity >= 100
        assert store.capacity < 400  # geometric, not unbounded
        assert store.column("x")[99] == 99.0

    def test_float_column_is_zero_copy(self, in_ram):
        store = ColumnStore({"x": np.float64})
        store.append_row({"x": 1.0})
        view = store.column("x")
        assert np.shares_memory(view, store.raw_column("x"))

    def test_column_views_are_read_only(self):
        """Zero-copy views must not let callers rewrite history."""
        store = ColumnStore({"x": np.float64})
        store.append_row({"x": 1.0})
        with pytest.raises(ValueError):
            store.column("x")[0] = 99.0
        batch = BatchColumnStore({"t_s": np.float64, "x": np.float64},
                                 n=2, shared=("t_s",))
        batch.append_tick({"t_s": 0.0, "x": np.array([1.0, 2.0])})
        with pytest.raises(ValueError):
            batch.member_column("x", 0)[0] = 99.0
        assert store.column("x")[0] == 1.0  # storage unharmed

    def test_narrow_column_upcasts_on_read(self):
        store = ColumnStore({"n": np.int32, "b": np.bool_})
        store.append_row({"n": 7, "b": True})
        assert store.column("n").dtype == np.float64
        assert store.column("b").dtype == np.float64
        assert store.column("b")[0] == 1.0

    def test_none_encodes_as_nan(self):
        store = ColumnStore({"x": np.float64})
        store.append_row({"x": None})
        store.append_row({"x": 2.5})
        col = store.column("x")
        assert np.isnan(col[0]) and col[1] == 2.5

    def test_nbytes_tracks_rows_not_capacity(self, in_ram):
        store = ColumnStore({"x": np.float64}, capacity=1024)
        assert store.nbytes() == 0
        assert store.nbytes(allocated=True) == 1024 * 8
        for i in range(10):
            store.append_row({"x": float(i)})
        assert store.nbytes() == pytest.approx(10 * 8, abs=8)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ColumnStore({})
        with pytest.raises(ValueError):
            ColumnStore([("x", np.float64), ("x", np.float64)])

    def test_contains_and_fields(self):
        store = ColumnStore({"a": np.float64, "b": np.float64})
        assert "a" in store and "z" not in store
        assert store.fields == ("a", "b")


class TestNoneRejection:
    """Regression: None headed for a narrow column fails loudly.

    ``append_row`` encodes None as NaN, which only exists for float
    dtypes; assigning NaN into an int32/bool column used to surface as
    an opaque NumPy cast error mid-run.  The store now rejects it
    eagerly with a TypeError naming the field.
    """

    def test_none_into_int_column_names_the_field(self):
        store = ColumnStore({"x": np.float64, "count": np.int32})
        with pytest.raises(TypeError, match="count"):
            store.append_row({"x": 1.0, "count": None})

    def test_none_into_bool_column_names_the_field(self):
        store = ColumnStore({"flag": np.bool_})
        with pytest.raises(TypeError, match="flag"):
            store.append_row({"flag": None})

    def test_none_into_float_column_still_encodes_nan(self):
        store = ColumnStore({"x": np.float64, "count": np.int32})
        store.append_row({"x": None, "count": 3})
        assert np.isnan(store.value("x", 0))
        assert store.value("count", 0) == 3


class TestViewGenerations:
    """Regression: growth invalidates zero-copy views detectably.

    ``_grow_to`` reallocates the backing buffer, so a view fetched
    before an append that triggers growth silently freezes — it keeps
    the old buffer alive and never sees new rows.  The ``generation``
    counter makes that detectable: compare and re-fetch.
    """

    def test_growth_while_viewing(self, in_ram):
        store = ColumnStore({"x": np.float64}, capacity=2)
        store.append_row({"x": 1.0})
        view = store.raw_column("x")
        generation = store.generation
        store.append_row({"x": 2.0})       # fits: no realloc
        assert store.generation == generation
        store.append_row({"x": 3.0})       # grows: view now stale
        assert store.generation > generation
        assert len(view) == 1              # the stale view froze
        refetched = store.raw_column("x")
        np.testing.assert_array_equal(refetched, [1.0, 2.0, 3.0])

    def test_no_growth_no_bump(self, in_ram):
        store = ColumnStore({"x": np.float64}, capacity=16)
        generation = store.generation
        for i in range(10):
            store.append_row({"x": float(i)})
        assert store.generation == generation

    def test_spill_flush_bumps_generation(self, tmp_path):
        store = ColumnStore({"x": np.float64}, spill_dir=str(tmp_path),
                            spill_chunk_rows=4)
        generation = store.generation
        for i in range(4):
            store.append_row({"x": float(i)})
        assert store.generation > generation


class TestSpill:
    """Chunked spill-to-disk keeps resident memory bounded by chunk."""

    FIELDS = {"t_s": np.float64, "x": np.float64, "n": np.int32}

    def make(self, tmp_path, rows=11, chunk=4):
        store = ColumnStore(self.FIELDS, spill_dir=str(tmp_path),
                            spill_chunk_rows=chunk)
        for i in range(rows):
            store.append_row({"t_s": float(i), "x": i * 0.5, "n": i})
        return store

    def test_reads_match_in_ram(self, tmp_path, in_ram):
        spilled = self.make(tmp_path)
        plain = ColumnStore(self.FIELDS)
        for i in range(11):
            plain.append_row({"t_s": float(i), "x": i * 0.5, "n": i})
        for name in self.FIELDS:
            np.testing.assert_array_equal(spilled.raw_column(name),
                                          plain.raw_column(name))
            np.testing.assert_array_equal(spilled.column(name),
                                          plain.column(name))
        assert spilled.column("n").dtype == np.float64

    def test_chunk_files_and_counters(self, tmp_path):
        store = self.make(tmp_path, rows=11, chunk=4)
        assert len(store) == 11
        assert store.spilled_rows == 8       # two full chunks flushed
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "chunk_000000_x.npy" in files
        assert "chunk_000001_t_s.npy" in files
        # The resident tail is 3 rows, never the full 11.
        assert store.nbytes() == 3 * (8 + 8 + 4)

    def test_value_reads_through_chunks(self, tmp_path):
        store = self.make(tmp_path, rows=11, chunk=4)
        assert store.value("x", 0) == 0.0    # in chunk 0
        assert store.value("x", 6) == 3.0    # in chunk 1
        assert store.value("x", 10) == 5.0   # in the tail
        assert store.value("x", -1) == 5.0

    def test_batch_spill_member_reads(self, tmp_path):
        store = BatchColumnStore({"t_s": np.float64, "x": np.float64},
                                 n=3, shared=("t_s",),
                                 spill_dir=str(tmp_path),
                                 spill_chunk_rows=4)
        for t in range(10):
            store.append_tick({"t_s": float(t),
                               "x": np.array([t, 2.0 * t, -t],
                                             dtype=float)})
        np.testing.assert_array_equal(store.member_column("x", 1),
                                      2.0 * np.arange(10.0))
        np.testing.assert_array_equal(store.member_column("x", 2),
                                      -np.arange(10.0))
        np.testing.assert_array_equal(store.member_column("t_s", 0),
                                      np.arange(10.0))
        assert store.column("x").shape == (10, 3)

    def test_env_toggle_spills(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        monkeypatch.setenv("REPRO_SPILL_CHUNK", "4")
        store = ColumnStore({"x": np.float64})
        for i in range(9):
            store.append_row({"x": float(i)})
        assert store.spilled_rows == 8
        assert store.spill_dir is not None
        assert str(tmp_path) in store.spill_dir
        np.testing.assert_array_equal(store.column("x"), np.arange(9.0))

    def test_bad_chunk_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ColumnStore({"x": np.float64}, spill_dir=str(tmp_path),
                        spill_chunk_rows=0)


class TestBatchColumnStore:
    def test_tick_append_shapes(self):
        store = BatchColumnStore({"t_s": np.float64, "x": np.float64},
                                 n=3, shared=("t_s",))
        for t in range(4):
            store.append_tick({"t_s": float(t),
                               "x": np.array([1.0, 2.0, 3.0]) * t})
        assert store.column("x").shape == (4, 3)
        assert store.column("t_s").shape == (4,)
        np.testing.assert_array_equal(store.member_column("x", 1),
                                      [0.0, 2.0, 4.0, 6.0])
        np.testing.assert_array_equal(store.member_column("t_s", 1),
                                      [0.0, 1.0, 2.0, 3.0])

    def test_member_column_is_zero_copy(self, in_ram):
        store = BatchColumnStore({"t_s": np.float64, "x": np.float64},
                                 n=2, shared=("t_s",))
        store.append_tick({"t_s": 0.0, "x": np.array([1.0, 2.0])})
        assert np.shares_memory(store.member_column("x", 0),
                                store.raw_column("x"))

    def test_growth_preserves_layout(self):
        store = BatchColumnStore({"t_s": np.float64, "x": np.float64},
                                 n=2, shared=("t_s",), capacity=1)
        for t in range(9):
            store.append_tick({"t_s": float(t),
                               "x": np.array([t, -t], dtype=float)})
        assert store.column("x").shape == (9, 2)
        np.testing.assert_array_equal(store.member_column("x", 1),
                                      -np.arange(9.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchColumnStore({"t_s": np.float64}, n=0)
        with pytest.raises(ValueError):
            BatchColumnStore({"x": np.float64}, n=2, shared=("t_s",))


class TestWindowFunctions:
    def test_sample_mean(self):
        assert sample_mean([1.0, 2.0, 6.0]) == pytest.approx(3.0)

    def test_derive_dt(self):
        assert derive_dt_s(np.array([0.0, 0.5, 1.0])) == pytest.approx(0.5)
        assert derive_dt_s(np.array([4.0])) == 1.0
        assert derive_dt_s(np.array([]), default=2.0) == 2.0

    def test_window_width(self):
        assert window_width(60.0, 0.5) == 120
        assert window_width(60.0, 5.0) == 12
        assert window_width(1.0, 30.0) == 1  # never below one sample
        with pytest.raises(ValueError):
            window_width(60.0, 0.0)

    def test_filters_against_naive_reference(self):
        rng = np.random.default_rng(0)
        t = np.arange(50.0) * 2.0
        v = rng.uniform(0.0, 2.0, size=50)
        skip = 31.0
        keep = [float(x) for x, ts in zip(v, t) if ts >= skip]
        assert mean_after(v, t, skip) == pytest.approx(np.mean(keep))
        assert max_after(v, t, skip) == pytest.approx(max(keep))
        assert min_after(v, t, skip) == pytest.approx(min(keep))

    def test_empty_filters_are_zero(self):
        t = np.array([0.0, 1.0])
        v = np.array([5.0, 6.0])
        assert mean_after(v, t, skip_s=10.0) == 0.0
        assert max_after(v, t, skip_s=10.0) == 0.0
        assert min_after(v, t, skip_s=10.0) == 0.0

    def test_worst_window_matches_naive_sliding_mean(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0.0, 1.0, size=240)
        t = np.arange(240.0) * 0.5  # dt = 0.5 -> 120-sample windows
        width = 120
        naive = max(np.mean(v[i:i + width])
                    for i in range(len(v) - width + 1))
        assert worst_window_mean(v, t, window_s=60.0) == pytest.approx(
            float(naive), rel=1e-12)

    def test_worst_window_short_run_reports_mean(self):
        v = np.array([1.0, 3.0])
        t = np.array([0.0, 1.0])
        assert worst_window_mean(v, t, window_s=60.0) == pytest.approx(2.0)

    def test_worst_window_rejects_bad_dt(self):
        v, t = np.ones(5), np.arange(5.0)
        with pytest.raises(ValueError):
            worst_window_mean(v, t, dt_s=-1.0)
        assert worst_window_mean(np.ones(0), np.ones(0), dt_s=-1.0) == 0.0


@dataclass
class _Rec:
    """Tiny record type exercising every decode path."""

    t_s: float
    value: float
    count: int
    flag: bool
    cap: Optional[float]


class _RecHistory(ColumnarHistory):
    """Columnar history of :class:`_Rec` rows (test fixture)."""

    RECORD_TYPE = _Rec
    INT_FIELDS = frozenset({"count"})
    BOOL_FIELDS = frozenset({"flag"})
    OPTIONAL_FIELDS = frozenset({"cap"})


class TestColumnarHistory:
    def make(self, rows=5):
        history = _RecHistory()
        for i in range(rows):
            history.append(_Rec(t_s=float(i), value=i * 1.5, count=i,
                                flag=bool(i % 2), cap=None if i == 0
                                else float(i)))
        return history

    def test_round_trip(self):
        history = self.make()
        records = history.records
        assert len(records) == len(history) == 5
        assert records[0] == _Rec(0.0, 0.0, 0, False, None)
        assert records[3] == _Rec(3.0, 4.5, 3, True, 3.0)
        assert history.last() == records[-1]
        assert isinstance(records[2].count, int)
        assert isinstance(records[2].flag, bool)

    def test_records_list_is_a_snapshot(self):
        history = self.make()
        history.records.append("garbage")
        assert len(history) == 5  # storage untouched

    def test_columns_and_metrics(self):
        history = self.make()
        np.testing.assert_array_equal(history.column("value"),
                                      [0.0, 1.5, 3.0, 4.5, 6.0])
        assert history.column("count").dtype == np.float64
        assert history.metrics.mean("value", skip_s=3.0) == pytest.approx(
            5.25)
        assert history.metrics.maximum("value") == 6.0
        assert history.metrics.minimum("value") == 0.0

    def test_metric_memoization_tracks_appends(self):
        history = self.make()
        assert history.metrics.maximum("value") == 6.0
        history.append(_Rec(5.0, 99.0, 5, False, None))
        assert history.metrics.maximum("value") == 99.0


class _RecView(BatchMemberSeries):
    """Member view over a batch store of :class:`_Rec` fields."""

    RECORD_TYPE = _Rec
    INT_FIELDS = _RecHistory.INT_FIELDS
    BOOL_FIELDS = _RecHistory.BOOL_FIELDS
    OPTIONAL_FIELDS = _RecHistory.OPTIONAL_FIELDS


class TestBatchMemberSeries:
    def test_member_slices_share_storage(self):
        store = BatchColumnStore(_RecView.field_dtypes(), n=2,
                                 shared=("t_s",))
        for t in range(3):
            store.append_tick({
                "t_s": float(t),
                "value": np.array([t * 1.0, t * 10.0]),
                "count": np.array([t, t + 1]),
                "flag": np.array([True, False]),
                "cap": np.array([np.nan, 1.5]),
            })
        a, b = _RecView(store, 0), _RecView(store, 1)
        assert len(a) == len(b) == 3
        np.testing.assert_array_equal(a.column("value"), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(b.column("value"), [0.0, 10.0, 20.0])
        np.testing.assert_array_equal(a.times(), b.times())
        assert a.last() == _Rec(2.0, 2.0, 2, True, None)
        assert b.last() == _Rec(2.0, 20.0, 3, False, 1.5)
        assert np.shares_memory(a.column("value"), store.raw_column("value"))


class TestSimHistoryIntegration:
    """The engine history reports through the shared implementation."""

    def make_history(self):
        from repro.sim.engine import SimHistory, TickRecord
        history = SimHistory()
        rng = np.random.default_rng(3)
        for i in range(180):
            history.append(TickRecord(
                t_s=i * 0.5, load=0.5, tail_latency_ms=5.0,
                slo_fraction=float(rng.uniform(0.2, 1.1)),
                be_throughput_norm=0.3, be_cores=2, be_llc_ways=3,
                be_dvfs_cap_ghz=None, be_net_ceil_gbps=None,
                be_enabled=True, emu=float(rng.uniform(0.5, 1.2)),
                dram_bw_gbps=40.0, dram_utilization=0.5,
                cpu_utilization=0.6, power_fraction_of_tdp=0.7,
                lc_net_gbps=1.0, be_net_gbps=0.5, link_utilization=0.2))
        return history

    def test_metrics_match_naive_records_scan(self):
        history = self.make_history()
        records = history.records
        skip = 30.0
        kept = [r.slo_fraction for r in records if r.t_s >= skip]
        assert history.max_slo_fraction(skip_s=skip) == max(kept)
        assert history.mean("slo_fraction", skip_s=skip) == pytest.approx(
            float(np.mean(kept)), rel=1e-12)
        assert history.dt_s() == pytest.approx(0.5)
        assert history.worst_window_slo(
            window_s=30.0, skip_s=skip) == pytest.approx(
            worst_window_mean(history.column("slo_fraction"),
                              history.times(), 30.0, skip), rel=1e-15)

    def test_means_batch_query(self):
        history = self.make_history()
        out = history.means(("emu", "load"), skip_s=10.0)
        assert out["emu"] == pytest.approx(history.mean_emu(skip_s=10.0))
        assert out["load"] == pytest.approx(0.5)

    def test_store_memory_is_columnar(self):
        history = self.make_history()
        # 18 fields, mostly float64: far below the ~700 B/record the
        # list-of-dataclass layout used to cost.
        assert history.store.nbytes() < len(history) * 200


class TestWindowedMetricsClass:
    def test_bound_helper_equals_functions(self):
        t = np.arange(40.0)
        v = np.sin(t / 7.0) + 1.0
        metrics = WindowedMetrics(lambda name: v, lambda: t)
        assert metrics.mean("v", 5.0) == mean_after(v, t, 5.0)
        assert metrics.worst_window("v", 10.0, 3.0) == worst_window_mean(
            v, t, 10.0, 3.0)
        assert metrics.dt_s() == 1.0
