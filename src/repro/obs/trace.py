"""Decision tracing: structured engine events with a deterministic
JSONL export.

A :class:`TraceSink` is a tiny append-only event log backed by the same
:class:`~repro.metrics.columns.ColumnStore` the telemetry layer uses —
so it inherits O(1) amortized appends, narrow dtypes, and chunked
spill-to-disk (``REPRO_SPILL_DIR``) for long-horizon runs.  Engines
hold at most one sink and consult it with a single ``is None`` check
per tick, which is the entire cost of the disabled path.

Event model
-----------

One event is one fixed-width row:

========  =======  ====================================================
field     dtype    meaning
========  =======  ====================================================
``t_s``   float64  engine clock when the event resolved
``member``  int64  *global* member (leaf) index; ``-1`` = run-scoped
``source``  int64  code into :data:`SOURCES` (who decided)
``kind``    int64  code into :data:`KINDS` (what happened)
``a``     float64  payload: old value / chaos value / placed cores
``b``     float64  payload: new value / scheduled at_s / job index
``slo``   float64  triggering tail-latency/SLO fraction (NaN if n/a)
``load``  float64  triggering offered load (NaN if n/a)
========  =======  ====================================================

``source`` and ``kind`` are *fixed* code tables (module constants, not
first-appearance interning) so the encoded arrays — and the JSONL
export — are identical no matter which shard or worker emitted the
event first.

Determinism
-----------

The merge contract mirrors the telemetry bit-identity contract: the
*multiset* of events a run produces is invariant across shard plans
and ``REPRO_JOBS`` (controller deltas are derived from actuator columns
that are themselves bit-identical, chaos resolutions are engine-level
deterministic), so canonical order is a sort on the full field tuple
``(t_s, member, source, kind, a, b, slo, load)``.  Two events equal on
every field are interchangeable, hence the sorted byte stream is
unique.

The sort is paid at *export*, not at run time: engine and fleet
plumbing combine sink payloads with :func:`concat_payloads` (a pure
concatenation, so a result's event table is in unspecified order),
while :func:`iter_events` / :func:`events_to_jsonl` canonicalize
before decoding — the JSONL export stays byte-identical across plans
and pool sizes, and a traced run never pays an O(n log n) sort over
the full event volume inside the timed run path.
:func:`merge_payloads` remains the eager canonicalizer for callers
that want sorted columns in hand.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.metrics.columns import ColumnStore

#: Environment toggle: any non-empty value other than ``"0"`` enables
#: tracing process-wide (workers inherit it through the pool fork).
TRACE_ENV = "REPRO_TRACE"

#: Who emitted the event.
SOURCES = ("controller", "chaos", "sched", "checkpoint")

#: What happened.  Controller kinds carry ``a`` = old actuator value and
#: ``b`` = new value; chaos kinds carry ``a`` = injected value (NaN for
#: valueless actions) and ``b`` = the scheduled ``at_s``; scheduler
#: kinds carry ``a`` = cores and ``b`` = job index; ``save`` carries
#: ``a`` = completed ticks.
KINDS = (
    "be_gate",        # controller enabled/disabled BE (a=old, b=new 0/1)
    "cores",          # BE core grant changed (grow/revoke)
    "llc",            # BE LLC ways changed
    "dvfs",           # BE DVFS cap changed (GHz)
    "net_ceil",       # BE network HTB ceiling changed (Gbps)
    "chaos_leaf_crash",
    "chaos_leaf_restart",
    "chaos_straggler",
    "chaos_power_cap",
    "chaos_partition",
    "chaos_enable_be",
    "chaos_disable_be",
    "chaos_set_be_cores",
    "chaos_set_llc_split",
    "chaos_lower_be_frequency",
    "chaos_set_be_net_ceil",
    "place",          # scheduler placed job cores on a leaf
    "evict",          # scheduler evicted a job from a latched leaf
    "save",           # engine checkpoint written
)

#: Fixed code tables (the inverse of :data:`SOURCES` / :data:`KINDS`).
SOURCE_CODE = {name: i for i, name in enumerate(SOURCES)}
KIND_CODE = {name: i for i, name in enumerate(KINDS)}

#: The controller-actuator kinds, in the row order
#: :meth:`TraceSink.emit_actuator_deltas` expects.
ACTUATOR_KINDS = ("be_gate", "cores", "llc", "dvfs", "net_ceil")
_ACTUATOR_KIND_CODES = np.array([KIND_CODE[name] for name in ACTUATOR_KINDS],
                                dtype=np.int64)

#: The sink's column layout; the canonical sort key is this field order.
FIELDS = (
    ("t_s", np.float64),
    ("member", np.int64),
    ("source", np.int64),
    ("kind", np.int64),
    ("a", np.float64),
    ("b", np.float64),
    ("slo", np.float64),
    ("load", np.float64),
)

_NAN = float("nan")


def trace_enabled() -> bool:
    """True when :data:`TRACE_ENV` requests decision tracing."""
    return os.environ.get(TRACE_ENV, "") not in ("", "0")


def make_sink() -> Optional["TraceSink"]:
    """A fresh :class:`TraceSink` when tracing is enabled, else None.

    Engines call this once at construction; the returned ``None`` on
    the disabled path keeps the per-tick cost to one attribute check.
    """
    return TraceSink() if trace_enabled() else None


class TraceSink:
    """Append-only structured event log (ColumnStore-backed).

    The sink is process-local: each shard worker fills its own and
    ships the raw arrays back through its
    :class:`~repro.fleet.shard.ShardResult`; :func:`merge_payloads`
    canonicalizes the union.
    """

    def __init__(self) -> None:
        self._store = ColumnStore(FIELDS)

    def __len__(self) -> int:
        """Number of recorded events."""
        return len(self._store)

    def emit(self, t_s: float, member: int, source: str, kind: str,
             a: float = _NAN, b: float = _NAN, slo: float = _NAN,
             load: float = _NAN) -> None:
        """Record one event.

        ``source`` / ``kind`` are names from :data:`SOURCES` /
        :data:`KINDS` (a typo raises ``KeyError`` eagerly — a silent
        mis-coded event would defeat the whole point of tracing).
        """
        self._store.append_row({
            "t_s": float(t_s),
            "member": int(member),
            "source": SOURCE_CODE[source],
            "kind": KIND_CODE[kind],
            "a": _NAN if a is None else float(a),
            "b": _NAN if b is None else float(b),
            "slo": _NAN if slo is None else float(slo),
            "load": _NAN if load is None else float(load),
        })

    def emit_block(self, t_s: float, members: np.ndarray, source: str,
                   kind: str, a=None, b=None, slo=None,
                   load=None) -> None:
        """Record one event per entry of ``members`` in a single append.

        The vectorized counterpart of :meth:`emit` for the batched
        engines, whose hot loops would otherwise pay a Python call per
        member per tick.  Payload fields accept ``(len(members),)``
        arrays or scalars (broadcast); ``None`` and ``inf`` encode as
        NaN, matching the scalar path's null policy.  Events land in
        the same canonical columns, so :func:`merge_payloads` output is
        identical whichever emit path produced them.
        """
        members = np.asarray(members, dtype=np.int64)
        count = len(members)
        if not count:
            return

        def payload_column(value) -> np.ndarray:
            if value is None:
                return np.full(count, _NAN)
            column = np.asarray(value, dtype=np.float64)
            if column.ndim == 0:
                column = np.full(count, float(column))
            return np.where(np.isinf(column), _NAN, column)

        self._store.append_rows({
            "t_s": np.full(count, float(t_s)),
            "member": members,
            "source": np.full(count, SOURCE_CODE[source], dtype=np.int64),
            "kind": np.full(count, KIND_CODE[kind], dtype=np.int64),
            "a": payload_column(a),
            "b": payload_column(b),
            "slo": payload_column(slo),
            "load": payload_column(load),
        })

    def emit_actuator_deltas(self, t_s: float, members: np.ndarray,
                             old: np.ndarray, new: np.ndarray,
                             slo: np.ndarray, load: np.ndarray) -> None:
        """Record one tick's controller actuator deltas in one append.

        ``old`` / ``new`` are ``(5, N)`` float arrays in
        :data:`ACTUATOR_KINDS` row order (pre- and post-controller
        actuator state); every cell where they differ becomes one
        ``controller`` event carrying ``a`` = old and ``b`` = new,
        with the member's triggering ``slo`` / ``load`` attached.
        ``inf`` (uncapped DVFS / network ceiling) encodes as NaN, the
        scalar :meth:`emit` path's null policy.  The batched engines'
        hot loop calls this once per tick — a 1000-leaf mega tick
        emits ~1k events, far too many for per-event Python calls.
        """
        # Row-major flat indices (events kind by kind, members in order)
        # gather with flat takes, cheaper than tuple indexing.
        changed = np.flatnonzero(old != new)
        count = len(changed)
        if not count:
            return
        kind_rows, member_cols = np.divmod(changed, old.shape[1])
        a = old.take(changed)
        b = new.take(changed)
        self._store.append_rows({
            "t_s": np.full(count, float(t_s)),
            "member": np.asarray(members, dtype=np.int64).take(member_cols),
            "source": np.full(count, SOURCE_CODE["controller"],
                              dtype=np.int64),
            "kind": _ACTUATOR_KIND_CODES.take(kind_rows),
            "a": np.where(np.isinf(a), _NAN, a),
            "b": np.where(np.isinf(b), _NAN, b),
            "slo": np.asarray(slo, dtype=np.float64).take(member_cols),
            "load": np.asarray(load, dtype=np.float64).take(member_cols),
        })

    def payload(self) -> Dict[str, np.ndarray]:
        """The recorded events as ``{field: array}`` (materialized).

        The arrays are copies, safe to pickle across the process pool
        and to hold after the sink keeps growing.
        """
        return {name: np.array(self._store.raw_column(name))
                for name, _ in FIELDS}


def empty_payload() -> Dict[str, np.ndarray]:
    """A zero-event payload with the canonical fields and dtypes."""
    return {name: np.empty(0, dtype=dtype) for name, dtype in FIELDS}


def concat_payloads(payloads: Sequence[Mapping[str, np.ndarray]]
                    ) -> Dict[str, np.ndarray]:
    """Concatenate sink payloads into one event table, *unsorted*.

    This is the run-path combiner: O(n) copies, no sort, event order
    unspecified (whatever the shards/groups emitted).  Canonical order
    is an export concern — :func:`iter_events` /
    :func:`events_to_jsonl` sort before decoding, and
    :func:`merge_payloads` produces eagerly sorted columns.
    """
    payloads = [p for p in payloads if p is not None]
    if not payloads:
        return empty_payload()
    if len(payloads) == 1:
        return {name: np.asarray(payloads[0][name]) for name, _ in FIELDS}
    return {name: np.concatenate([np.asarray(p[name]) for p in payloads])
            for name, _ in FIELDS}


def canonical_order(payload: Mapping[str, np.ndarray]) -> np.ndarray:
    """The permutation sorting ``payload`` into canonical event order.

    Canonical order is a sort on the full field tuple ``(t_s, member,
    source, kind, a, b, slo, load)``, so any two runs producing the
    same multiset of events (the tracing contract) canonicalize to
    byte-identical tables regardless of shard plan, worker count, or
    arrival order.
    """
    # np.lexsort keys: last key is the primary; NaNs sort last, and all
    # payload NaNs share one bit pattern, so ties stay deterministic.
    return np.lexsort(tuple(np.asarray(payload[name])
                            for name, _ in reversed(FIELDS)))


def merge_payloads(payloads: Sequence[Mapping[str, np.ndarray]]
                   ) -> Dict[str, np.ndarray]:
    """Merge sink payloads into one canonically ordered event table.

    :func:`concat_payloads` plus the :func:`canonical_order` sort, for
    callers that want sorted columns in hand (the JSONL exporters sort
    internally — run-time plumbing should use the cheap concat).
    """
    merged = concat_payloads(payloads)
    order = canonical_order(merged)
    return {name: column[order] for name, column in merged.items()}


def _jsonable(value: float):
    """NaN → None so the export stays strict JSON."""
    return None if math.isnan(value) else value


def iter_events(payload: Mapping[str, np.ndarray]) -> Iterator[dict]:
    """Decode an event table into canonically ordered per-event dicts.

    ``source`` / ``kind`` come back as names; NaN payload fields come
    back as ``None``.  The input's order does not matter — events are
    canonicalized here (idempotent for already-sorted tables), so a
    result's unsorted concatenated trace decodes exactly like an
    eagerly merged one.
    """
    merged = merge_payloads([payload])
    n = len(merged["t_s"])
    for i in range(n):
        yield {
            "t_s": float(merged["t_s"][i]),
            "member": int(merged["member"][i]),
            "source": SOURCES[int(merged["source"][i])],
            "kind": KINDS[int(merged["kind"][i])],
            "a": _jsonable(float(merged["a"][i])),
            "b": _jsonable(float(merged["b"][i])),
            "slo": _jsonable(float(merged["slo"][i])),
            "load": _jsonable(float(merged["load"][i])),
        }


def events_to_jsonl(payload: Mapping[str, np.ndarray]) -> str:
    """Render an event table as canonical JSONL (one event/line).

    Events are canonicalized on the way out (see :func:`iter_events`),
    and ``json.dumps(..., sort_keys=True)`` over float ``repr`` is
    deterministic for identical bits — so byte identity of this string
    is exactly multiset identity of the events, whatever order the
    input arrived in.
    """
    lines: List[str] = []
    for event in iter_events(payload):
        lines.append(json.dumps(event, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def write_jsonl(merged: Mapping[str, np.ndarray], path: str) -> str:
    """Write :func:`events_to_jsonl` output to ``path``; returns it."""
    text = events_to_jsonl(merged)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def read_jsonl(path: str) -> List[dict]:
    """Parse a trace JSONL file back into a list of event dicts."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
