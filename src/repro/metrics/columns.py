"""Columnar tick storage: preallocated, geometrically-grown arrays.

The recording layer used to keep one Python object per tick (lists of
dataclasses), which costs ~700 bytes per record and forces every
aggregate metric to rebuild a NumPy array with an O(T) attribute scan.
:class:`ColumnStore` inverts the layout: one preallocated NumPy array
per field, doubled in place when full, so appends are O(1) amortized
and :meth:`ColumnStore.column` hands back a zero-copy view that
vectorized metrics consume directly.

:class:`BatchColumnStore` extends the layout to batched engines: every
per-member field is a ``(capacity, N)`` member-major array, so a batch
of N servers records a whole tick with one vectorized row write instead
of N dataclass constructions.  Time is stored once (all members share
the batch clock), as an ordinary ``(capacity,)`` column.

Dtype policy: float-valued fields are stored as ``float64`` exactly as
produced (summaries stay bit-identical with the list-of-records
implementation they replaced); optional fields encode ``None`` as NaN
— float fields only, a ``None`` headed for an int/bool column is a
caller bug rejected eagerly with a :class:`TypeError` naming the field;
counts and flags may use narrow integer/bool dtypes to keep history
memory flat — :meth:`ColumnStore.column` up-casts those to ``float64``
on read, which is the dtype the old ``column()`` API always returned.

Spill-to-disk
-------------

Long-horizon runs (the paper's whole point is week-scale fleet
operation) cannot hold the full ``(T, N)`` history in RAM.  Passing
``spill_dir`` (or exporting :data:`SPILL_DIR_ENV`) turns a store into
a *chunked spill* store: whenever :data:`spill chunk <SPILL_CHUNK_ENV>`
rows accumulate, every column's full chunk is flushed to its own
``chunk_<index>_<field>.npy`` file and the in-RAM tail buffer is
recycled, so resident history memory is bounded by the chunk size —
never by T.  Reads are transparent: :meth:`ColumnStore.raw_column` and
friends materialize spilled chunks (memory-mapped) back into one
array, so every aggregate reads the same column an in-RAM store
holds.

View staleness: zero-copy views alias the live recording buffer, and
both geometric growth and a spill flush recycle that buffer — a view
held across appends can silently freeze.  :attr:`ColumnStore.
generation` increments on every such invalidation; callers holding
views across appends compare generations and re-fetch.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, Iterable, Mapping, Tuple, Union

import numpy as np

#: Field specification: name -> NumPy dtype (anything np.dtype accepts).
FieldSpec = Union[Mapping[str, object], Iterable[Tuple[str, object]]]

#: Initial per-column capacity (rows) before the first geometric growth.
INITIAL_CAPACITY = 256

#: Environment toggle: when set (and no explicit ``spill_dir`` is
#: given), every store spills into a fresh subdirectory of this path —
#: the CI lever that runs the whole tier-1 suite over the spill path.
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

#: Environment override for the spill chunk size (rows per chunk file).
SPILL_CHUNK_ENV = "REPRO_SPILL_CHUNK"

#: Default rows per spilled chunk: large enough that per-file overhead
#: amortizes, small enough that a (chunk, 1000)-leaf float64 tail stays
#: in the tens of megabytes.
DEFAULT_SPILL_CHUNK_ROWS = 1024


def _normalize_fields(fields: FieldSpec) -> Dict[str, np.dtype]:
    """Validate and normalize a field spec into ``{name: dtype}``."""
    if isinstance(fields, Mapping):
        pairs = list(fields.items())
    else:
        pairs = [(name, dtype) for name, dtype in fields]
    if not pairs:
        raise ValueError("a column store needs at least one field")
    out: Dict[str, np.dtype] = {}
    for name, dtype in pairs:
        if name in out:
            raise ValueError(f"duplicate field {name!r}")
        out[name] = np.dtype(dtype)
    return out


def _resolve_spill(spill_dir, spill_chunk_rows) -> Tuple[object, int]:
    """Resolve the spill configuration, honouring the env toggles.

    An explicit ``spill_dir`` wins; otherwise :data:`SPILL_DIR_ENV`
    (when set) gives every store a fresh private subdirectory, so many
    stores in one process (or across worker processes) never collide.
    """
    if spill_dir is None:
        env = os.environ.get(SPILL_DIR_ENV)
        if env:
            os.makedirs(env, exist_ok=True)
            spill_dir = tempfile.mkdtemp(prefix="store-", dir=env)
    if spill_dir is None:
        return None, 0
    if spill_chunk_rows is None:
        spill_chunk_rows = int(os.environ.get(SPILL_CHUNK_ENV,
                                              DEFAULT_SPILL_CHUNK_ROWS))
    if spill_chunk_rows <= 0:
        raise ValueError(
            f"spill_chunk_rows={spill_chunk_rows}: the spill chunk must "
            f"be a positive row count")
    os.makedirs(spill_dir, exist_ok=True)
    return str(spill_dir), int(spill_chunk_rows)


class ColumnStore:
    """One growable NumPy column per field; O(1) amortized row appends.

    Args:
        fields: mapping (or pairs) of field name to dtype.
        capacity: initial row capacity (grown geometrically as needed).
        spill_dir: when given, flush full chunks of rows to ``.npy``
            files under this directory (created if missing; each store
            needs its own directory) and keep only the in-RAM tail —
            resident memory is bounded by the chunk size, not T.
            Default ``None`` falls back to :data:`SPILL_DIR_ENV`.
        spill_chunk_rows: rows per spilled chunk file (default
            :data:`DEFAULT_SPILL_CHUNK_ROWS`, overridable via
            :data:`SPILL_CHUNK_ENV`).  Ignored without a spill dir.
    """

    def __init__(self, fields: FieldSpec,
                 capacity: int = INITIAL_CAPACITY,
                 spill_dir=None, spill_chunk_rows=None):
        self._dtypes = _normalize_fields(fields)
        self._spill_dir, self._spill_chunk = _resolve_spill(
            spill_dir, spill_chunk_rows)
        if self._spill_dir is not None:
            # The tail buffer is exactly one chunk; it never grows.
            capacity = self._spill_chunk
        self._capacity = max(1, int(capacity))
        self._length = 0      # total rows recorded (spilled + tail)
        self._base = 0        # rows flushed to disk
        self._chunks = 0      # chunk files written per field
        self._generation = 0  # bumps whenever live views go stale
        self._data: Dict[str, np.ndarray] = {
            name: np.empty(self._shape_of(name, self._capacity),
                           dtype=dtype)
            for name, dtype in self._dtypes.items()
        }

    # -- layout hooks (overridden by BatchColumnStore) -----------------

    def _shape_of(self, name: str, rows: int):
        """Allocation shape for ``rows`` of the named column."""
        return (rows,)

    # -- introspection --------------------------------------------------

    @property
    def fields(self) -> Tuple[str, ...]:
        """The stored field names, in declaration order."""
        return tuple(self._dtypes)

    @property
    def capacity(self) -> int:
        """Currently allocated row capacity (the tail when spilling)."""
        return self._capacity

    @property
    def generation(self) -> int:
        """Counter of view invalidations.

        Increments whenever previously returned zero-copy views may
        have gone stale: a geometric growth reallocated the backing
        buffer, or a spill flush recycled the tail.  A caller holding a
        :meth:`raw_column` / :meth:`member_column
        <BatchColumnStore.member_column>` view across appends should
        snapshot the generation at fetch time and re-fetch when it
        changes — the old view keeps the pre-growth buffer alive and
        silently stops seeing new rows.
        """
        return self._generation

    @property
    def spill_dir(self):
        """The spill directory, or ``None`` for a pure in-RAM store."""
        return self._spill_dir

    @property
    def spilled_rows(self) -> int:
        """Rows flushed to chunk files (0 for in-RAM stores)."""
        return self._base

    @property
    def spill_chunk_rows(self) -> int:
        """Rows per spilled chunk (0 for in-RAM stores)."""
        return self._spill_chunk

    def __len__(self) -> int:
        """Number of recorded rows."""
        return self._length

    def __contains__(self, name: str) -> bool:
        """True when ``name`` is a stored field."""
        return name in self._dtypes

    def nbytes(self, allocated: bool = False) -> int:
        """History bytes resident in RAM (the tail when spilling).

        Args:
            allocated: count the full preallocated capacity instead of
                only the rows recorded so far.
        """
        if allocated:
            return sum(a.nbytes for a in self._data.values())
        if self._capacity == 0:
            return 0
        tail = self._length - self._base
        return sum(a.nbytes * tail // self._capacity
                   for a in self._data.values())

    # -- pickling / checkpoint ------------------------------------------

    def __getstate__(self):
        """Pickle the *recorded* history, not the allocation.

        The live buffers are preallocated (and, when spilling, most of
        the history lives in chunk files, not in ``_data`` at all), so
        the raw ``__dict__`` would pickle capacity garbage and lose the
        spilled rows.  Instead the state carries each column trimmed to
        its recorded length with spilled chunks folded back in — the
        checkpoint layer (:mod:`repro.sim.checkpoint`) relies on this
        to make whole-engine pickles exact and compact.
        """
        state = dict(self.__dict__)
        if self._data is not None:
            state["_data"] = {
                name: np.ascontiguousarray(self.raw_column(name))
                for name in self._dtypes}
        return state

    def __setstate__(self, state):
        """Rebuild live buffers (and spill chunks) from trimmed columns.

        A spilling store re-flushes its full chunks under its spill
        directory — recreated if the unpickling process no longer has
        it — so a restored engine continues exactly where the saved one
        stopped, chunk layout included.
        """
        columns = state.pop("_data")
        self.__dict__.update(state)
        if columns is None:
            self._data = None
            return
        total = self._length
        self._base = 0
        self._chunks = 0
        if self._spill_dir is not None:
            os.makedirs(self._spill_dir, exist_ok=True)
            self._capacity = self._spill_chunk
        else:
            self._capacity = max(1, total)
        self._data = {
            name: np.empty(self._shape_of(name, self._capacity),
                           dtype=dtype)
            for name, dtype in self._dtypes.items()
        }
        if self._spill_dir is not None:
            while total - self._base >= self._spill_chunk:
                lo = self._base
                hi = lo + self._spill_chunk
                for name in self._dtypes:
                    np.save(self._chunk_path(self._chunks, name),
                            columns[name][lo:hi])
                self._chunks += 1
                self._base = hi
        for name in self._dtypes:
            self._data[name][:total - self._base] = \
                columns[name][self._base:]

    # -- writes ---------------------------------------------------------

    def _grow_to(self, rows: int) -> None:
        """Ensure tail capacity for ``rows`` total rows.

        Geometric doubling; reallocation invalidates live views, so the
        :attr:`generation` is bumped.  Spilling stores never grow — the
        tail is flushed at exactly one chunk.
        """
        rows -= self._base
        if rows <= self._capacity:
            return
        new_cap = self._capacity
        while new_cap < rows:
            new_cap *= 2
        tail = self._length - self._base
        for name, array in self._data.items():
            grown = np.empty(self._shape_of(name, new_cap),
                             dtype=array.dtype)
            grown[:tail] = array[:tail]
            self._data[name] = grown
        self._capacity = new_cap
        self._generation += 1

    def _chunk_path(self, index: int, name: str) -> str:
        """Path of one field's ``index``-th spilled chunk file."""
        return os.path.join(self._spill_dir,
                            f"chunk_{index:06d}_{name}.npy")

    def _maybe_flush(self) -> None:
        """Flush the tail to chunk files when it reaches one chunk."""
        if self._spill_dir is None:
            return
        if self._length - self._base < self._spill_chunk:
            return
        for name in self._dtypes:
            np.save(self._chunk_path(self._chunks, name),
                    self._data[name][:self._spill_chunk])
        self._chunks += 1
        self._base += self._spill_chunk
        self._generation += 1

    def append_row(self, values: Mapping[str, object]) -> None:
        """Append one row; ``values`` must cover every field.

        ``None`` is encoded as NaN for float fields.  A ``None`` headed
        for a narrow (int/bool) column has no NaN encoding — assigning
        it would corrupt the count — so it is rejected eagerly with a
        :class:`TypeError` naming the offending field, instead of the
        opaque NumPy cast error the assignment would raise mid-run.
        """
        self._grow_to(self._length + 1)
        i = self._length - self._base
        for name, dtype in self._dtypes.items():
            value = values[name]
            if value is None:
                if dtype.kind != "f":
                    raise TypeError(
                        f"field {name!r} is stored as {dtype} and has no "
                        f"NaN encoding for None; record a real value or "
                        f"declare the field as a float column")
                value = np.nan
            self._data[name][i] = value
        self._length += 1
        self._maybe_flush()

    def append_rows(self, values: Mapping[str, np.ndarray]) -> None:
        """Append a block of rows; every field an equal-length array.

        The block counterpart of :meth:`append_row` for callers that
        produce many rows per tick (the decision-trace sink emits one
        block per changed actuator kind): one slice assignment per
        field instead of a Python loop per row.  ``None`` encoding is
        *not* applied — callers hand in arrays already in storage
        dtype (encode NaN yourself for float fields).  Spilling stores
        write the block in tail-capacity slices, flushing full chunks
        exactly as the row-at-a-time path would.
        """
        arrays = {}
        count = None
        for name in self._dtypes:
            array = np.asarray(values[name])
            if count is None:
                count = len(array)
            elif len(array) != count:
                raise ValueError(
                    f"field {name!r} has {len(array)} rows, expected "
                    f"{count}: append_rows needs equal-length columns")
            arrays[name] = array
        if not count:
            return
        if self._spill_dir is None:
            self._grow_to(self._length + count)
            lo = self._length - self._base
            for name, array in arrays.items():
                self._data[name][lo:lo + count] = array
            self._length += count
            return
        written = 0
        while written < count:
            room = self._capacity - (self._length - self._base)
            take = min(room, count - written)
            lo = self._length - self._base
            for name, array in arrays.items():
                self._data[name][lo:lo + take] = \
                    array[written:written + take]
            self._length += take
            written += take
            self._maybe_flush()

    # -- reads ----------------------------------------------------------

    def _assemble(self, name: str, member=None) -> np.ndarray:
        """One full column with spilled chunks mapped back in."""
        parts = []
        for index in range(self._chunks):
            chunk = np.load(self._chunk_path(index, name), mmap_mode="r")
            parts.append(chunk if member is None else chunk[:, member])
        tail = self._data[name][:self._length - self._base]
        parts.append(tail if member is None else tail[:, member])
        out = np.concatenate(parts, axis=0)
        out.flags.writeable = False
        return out

    def raw_column(self, name: str) -> np.ndarray:
        """One column in its storage dtype, shape (T,...).

        For in-RAM stores this is a zero-copy view of the live
        recording buffer, marked read-only (an in-place mutation would
        silently rewrite history).  The view goes stale when the buffer
        is reallocated by growth — watch :attr:`generation` and
        re-fetch.  For spilling stores the column is materialized from
        the memory-mapped chunk files plus the tail (a fresh array).
        """
        if self._base:
            return self._assemble(name)
        view = self._data[name][:self._length]
        view.flags.writeable = False
        return view

    def column(self, name: str) -> np.ndarray:
        """One column as ``float64``, shape (T,...).

        Zero-copy for in-RAM ``float64`` fields; narrow (int/bool)
        fields are up-cast on read, matching the dtype the
        records-based ``column()`` API historically returned.
        """
        raw = self.raw_column(name)
        if raw.dtype == np.float64:
            return raw
        return raw.astype(np.float64)

    def value(self, name: str, index: int):
        """One cell, decoded: NaN-able float fields give NaN through."""
        if index < 0:
            index += self._length
        if index >= self._base:
            return self._data[name][index - self._base]
        chunk, offset = divmod(index, self._spill_chunk)
        return np.load(self._chunk_path(chunk, name),
                       mmap_mode="r")[offset]


class BatchColumnStore(ColumnStore):
    """(T, N) member-major columns for batched engines.

    Per-member fields allocate as ``(capacity, n)``; fields named in
    ``shared`` (by default just the time column) allocate as
    ``(capacity,)`` because every member shares the batch clock.  One
    :meth:`append_tick` call records a whole tick for all N members.
    Spill (see :class:`ColumnStore`) flushes per-member chunks as
    ``(chunk, n)`` files.
    """

    def __init__(self, fields: FieldSpec, n: int,
                 shared: Iterable[str] = ("t_s",),
                 capacity: int = INITIAL_CAPACITY,
                 spill_dir=None, spill_chunk_rows=None):
        if n < 1:
            raise ValueError("batch stores need at least one member")
        self.n = int(n)
        self._shared = frozenset(shared)
        super().__init__(fields, capacity=capacity, spill_dir=spill_dir,
                         spill_chunk_rows=spill_chunk_rows)
        unknown = self._shared - set(self._dtypes)
        if unknown:
            raise ValueError(f"shared fields not in spec: {sorted(unknown)}")

    def _shape_of(self, name: str, rows: int):
        """(rows,) for shared columns, (rows, N) for per-member ones."""
        return (rows,) if name in self._shared else (rows, self.n)

    def append_tick(self, values: Mapping[str, object]) -> None:
        """Record one tick: scalars for shared fields, (N,) arrays else."""
        self._grow_to(self._length + 1)
        i = self._length - self._base
        for name in self._dtypes:
            self._data[name][i] = values[name]
        self._length += 1
        self._maybe_flush()

    def member_column(self, name: str, index: int) -> np.ndarray:
        """One member's column in storage dtype, shape (T,).

        Zero-copy and read-only for in-RAM stores (stale after growth,
        like :meth:`ColumnStore.raw_column` — watch
        :attr:`ColumnStore.generation`); materialized from the mapped
        chunks for spilling stores.
        """
        if name in self._shared:
            return self.raw_column(name)
        if self._base:
            return self._assemble(name, member=index)
        view = self._data[name][:self._length, index]
        view.flags.writeable = False
        return view
