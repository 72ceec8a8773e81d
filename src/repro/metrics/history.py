"""Record-oriented facades over columnar telemetry storage.

The engines' public history types (``SimHistory``, ``BatchHistory``,
``ClusterHistory``) predate the columnar subsystem and expose a
list-of-dataclass surface: ``history.records``, ``history.last()``,
per-record attribute access.  These adapters keep that surface intact
— the 676-test suite and every experiment consumer run unchanged —
while the actual storage is a :class:`~repro.metrics.columns.
ColumnStore` (or a member slice of a :class:`~repro.metrics.columns.
BatchColumnStore`), and every aggregate metric routes through
:class:`~repro.metrics.windows.WindowedMetrics`.

Records are *materialized on demand*: ``history.records`` builds the
dataclass list from the columns when asked (an O(T) convenience for
tests and notebooks), it is not the storage.  Appending to the
returned list does not record anything — use ``history.append``.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Tuple, Type

import numpy as np

from .columns import BatchColumnStore, ColumnStore
from .windows import WindowedMetrics


class RecordSeries:
    """Read API of one record stream stored as columns.

    Subclasses declare the record dataclass and field coercions as
    class attributes and implement the two storage hooks
    (:meth:`_raw_column`, :meth:`__len__`).  Everything else — float
    column views, record materialization, windowed metrics — is shared.

    Class attributes:
        RECORD_TYPE: the dataclass materialized records are built from.
        INT_FIELDS / BOOL_FIELDS: decoded to ``int`` / ``bool``.
        OPTIONAL_FIELDS: float fields where NaN decodes to ``None``.
        TIME_FIELD: the per-sample timestamp column.
    """

    RECORD_TYPE: Type = None
    INT_FIELDS: FrozenSet[str] = frozenset()
    BOOL_FIELDS: FrozenSet[str] = frozenset()
    OPTIONAL_FIELDS: FrozenSet[str] = frozenset()
    TIME_FIELD: str = "t_s"

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        """The record dataclass's field names, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(cls.RECORD_TYPE))

    @classmethod
    def field_dtypes(cls) -> List[Tuple[str, object]]:
        """Storage dtypes for each field (narrow ints/bools, float64)."""
        out = []
        for name in cls.field_names():
            if name in cls.INT_FIELDS:
                out.append((name, np.int32))
            elif name in cls.BOOL_FIELDS:
                out.append((name, np.bool_))
            else:
                out.append((name, np.float64))
        return out

    # -- storage hooks --------------------------------------------------

    def _raw_column(self, name: str) -> np.ndarray:
        """(T,) view of one field in its storage dtype."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of recorded ticks."""
        raise NotImplementedError

    # -- columnar reads -------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """One field over the whole run as ``float64``, shape (T,).

        Zero-copy for float fields; int/bool fields up-cast on read
        (the dtype this API always returned).
        """
        raw = self._raw_column(name)
        if raw.dtype == np.float64:
            return raw
        return raw.astype(np.float64)

    def times(self) -> np.ndarray:
        """Per-sample timestamps of the recorded run, shape (T,)."""
        return self.column(self.TIME_FIELD)

    # -- record materialization -----------------------------------------

    def _decode(self, name: str, value):
        """One stored cell back to its record-field Python type."""
        if name in self.INT_FIELDS:
            return int(value)
        if name in self.BOOL_FIELDS:
            return bool(value)
        value = float(value)
        if name in self.OPTIONAL_FIELDS and np.isnan(value):
            return None
        return value

    def _record(self, index: int):
        """Materialize the record at ``index`` (negative ok)."""
        return self.RECORD_TYPE(**{
            name: self._decode(name, self._raw_column(name)[index])
            for name in self.field_names()
        })

    @property
    def records(self) -> list:
        """The run as a list of records (materialized on demand).

        A snapshot for iteration and inspection; mutating the returned
        list does not modify the history.  Each column is fetched once
        for the whole list — per-index fetches would re-materialize
        spilled columns from their chunk files O(T) times.
        """
        names = self.field_names()
        columns = {name: self._raw_column(name) for name in names}
        return [self.RECORD_TYPE(**{
            name: self._decode(name, columns[name][i]) for name in names})
            for i in range(len(self))]

    def last(self):
        """The most recent tick's record."""
        return self._record(-1)

    # -- metrics --------------------------------------------------------

    @property
    def metrics(self) -> WindowedMetrics:
        """The windowed-metric helper bound to this history."""
        cached = self.__dict__.get("_metrics")
        if cached is None:
            cached = WindowedMetrics(self.column, self.times)
            self.__dict__["_metrics"] = cached
        return cached


class ColumnarHistory(RecordSeries):
    """A :class:`RecordSeries` that owns its :class:`ColumnStore`.

    ``spill_dir`` / ``spill_chunk_rows`` pass straight through to the
    store (see :class:`~repro.metrics.columns.ColumnStore`): when set,
    full chunks of history flush to disk and resident memory stays
    bounded by the chunk size.
    """

    def __init__(self, spill_dir=None, spill_chunk_rows=None):
        self._store = ColumnStore(self.field_dtypes(),
                                  spill_dir=spill_dir,
                                  spill_chunk_rows=spill_chunk_rows)

    @property
    def store(self) -> ColumnStore:
        """The backing column store (benchmarks read its ``nbytes``)."""
        return self._store

    def append(self, record) -> None:
        """Record one tick from a record dataclass instance."""
        self._store.append_row({
            name: getattr(record, name) for name in self.field_names()})

    def _raw_column(self, name: str) -> np.ndarray:
        """(T,) view straight from the owned store."""
        return self._store.raw_column(name)

    def __len__(self) -> int:
        """Number of recorded ticks."""
        return len(self._store)


class BatchMemberSeries(RecordSeries):
    """One member's slice of a shared :class:`BatchColumnStore`.

    The batched engine records whole ticks as (N,)-vector writes; this
    view presents member ``index``'s slice with the full scalar-history
    surface (records, columns, windowed metrics) at zero storage cost.
    """

    def __init__(self, store: BatchColumnStore, index: int):
        self._batch_store = store
        self._index = index

    @property
    def store(self) -> BatchColumnStore:
        """The shared batch store this view reads."""
        return self._batch_store

    def _raw_column(self, name: str) -> np.ndarray:
        """(T,) member slice (shared columns come back as-is)."""
        return self._batch_store.member_column(name, self._index)

    def __len__(self) -> int:
        """Number of recorded ticks."""
        return len(self._batch_store)
