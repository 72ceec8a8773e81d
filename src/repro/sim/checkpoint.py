"""Checkpoint/restore of whole simulation engines to NumPy archives.

The paper's operating regime is *long* — diurnal and week-scale load on
warehouse fleets — and before this module every what-if restarted from
``t=0`` and a crash lost the whole run.  A checkpoint snapshots one
engine's complete live state mid-run so the run can continue — in this
process, a new process, or several processes at once (warm-started
what-if branching: simulate to steady state once, fork many futures).

Snapshot format (version 4)
---------------------------

One engine checkpoint is a single uncompressed ``.npz`` archive:

``__meta__``
    UTF-8 JSON as a ``uint8`` array: ``version`` (the format version —
    loading rejects archives written by a different layout), ``kind``
    (which engine family wrote it: ``"single"``, ``"batch"``,
    ``"fleet_unit"`` — loading rejects a mismatch so a batch archive
    cannot silently restore where a scalar sim is expected) and
    ``time_s`` (the engine clock at the snapshot).

``__pickle__``
    The engine itself as a pickle blob (``uint8``).  Everything that
    makes the next tick bit-identical rides in here: physics columns
    (via :class:`~repro.metrics.columns.ColumnStore`'s pickle support,
    which trims preallocated capacity and folds spilled chunks back
    in), actuator / monitor / controller state, the event schedule
    (injections and static-baseline grants included) with its cursor,
    and every ``np.random.default_rng`` stream's bit-generator
    state (NumPy ``Generator`` objects pickle exactly).  A fleet unit
    (:class:`~repro.sim.megabatch.MegaFleetSim`) pickles its group
    sims together with its collected telemetry, trimmed to the
    completed rows, so a resumed unit continues filling the same rows.

The correctness contract is the one every engine layer ships under:
run-to-T is **bit-identical** to run-to-T/2 + save + load + resume, for
every engine family, shard count, worker count, and chaos schedule
(``tests/test_checkpoint.py``, ``tests/test_scenario_fuzz.py``).

Resume arithmetic
-----------------

Engines advance a relative ``run(duration_s)`` = ``round(duration_s /
dt_s)`` ticks, accumulating ``time_s += dt_s`` as float state — so a
restored engine replays the exact time sequence by simply ticking the
*remaining step count*.  Step counts must be split in integer ticks
(:func:`checkpoint_step`), never by subtracting durations: with
``dt=1`` and halves of 1.5 s, ``round(1.5) + round(1.5) = 4`` ticks but
``round(3.0) = 3``.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional
from zipfile import BadZipFile

import numpy as np

#: Archive layout version; bumped on any incompatible format change
#: (2: batch members pickle as array state, not per-member objects;
#: 3: a batch carries no object controllers — baseline grants and
#: injections live in its event schedule; 4: a batch's per-socket
#: arrays are socket-major, (S, N)).
CHECKPOINT_VERSION = 4

_META_KEY = "__meta__"
_PICKLE_KEY = "__pickle__"


class CheckpointError(ValueError):
    """An archive that cannot be written, read, or safely restored."""


def checkpoint_step(at_s: float, duration_s: float, dt_s: float) -> int:
    """The tick count after which a ``checkpoint at at_s`` fires.

    The snapshot is taken after the engine has *completed*
    ``round(at_s / dt_s)`` ticks — the engine clock then reads ``at_s``
    — and must land strictly inside the run: at least one tick before
    it (an empty prefix checkpoints nothing) and within the total.
    """
    if dt_s <= 0:
        raise CheckpointError("dt must be positive")
    total = int(round(duration_s / dt_s))
    step = int(round(at_s / dt_s))
    if step < 1 or step > total:
        raise CheckpointError(
            f"checkpoint at t={at_s}s is tick {step} of a {total}-tick "
            f"run; it must land in [1, {total}]")
    return step


def save_engine(sim: Any, path: str, kind: str, **extra: Any) -> str:
    """Write one engine's full state as a current-version archive.

    Args:
        sim: the engine (scalar, batch, or fleet unit).  Must pickle —
            every shipped engine does, cyclic controller references and
            RNG streams included.
        path: archive file path (``.npz`` appended if absent, matching
            ``np.savez``); parent directories are created.
        kind: engine family tag, checked again at load time.
        extra: further JSON metadata (say, what the snapshot must
            match to resume), returned in :attr:`EngineCheckpoint.meta`.

    Returns the path actually written.
    """
    meta: Dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "kind": str(kind),
        "time_s": float(getattr(sim, "time_s", 0.0)),
        **extra,
    }
    payload = {
        _META_KEY: np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"),
            dtype=np.uint8),
        _PICKLE_KEY: np.frombuffer(
            pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8),
    }
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    if not path.endswith(".npz"):
        path += ".npz"
    np.savez(path, **payload)
    return path


@dataclass
class EngineCheckpoint:
    """One restored engine plus the metadata saved with it."""

    sim: Any
    meta: Dict[str, Any]

    @property
    def time_s(self) -> float:
        """The engine clock at the moment of the snapshot."""
        return float(self.meta["time_s"])


def trace_checkpoint_save(sink: Any, t_s: float, steps_done: int) -> None:
    """Emit one run-scoped ``save`` event into a decision-trace sink.

    Called with the sink that owns the run's trace (a fleet-level sink
    for fleet snapshots, the engine's own for member scenarios) *before*
    the archive is written, so a sink pickled inside the archive already
    carries the event and a resumed run replays it identically.
    ``member`` is ``-1`` (run-scoped, not tied to any leaf); ``a`` is
    the completed tick count the snapshot holds.  No-op when ``sink``
    is ``None`` (tracing disabled).
    """
    if sink is not None:
        sink.emit(float(t_s), -1, "checkpoint", "save",
                  a=float(steps_done))


def _reconcile_obs(sim: Any) -> None:
    """Align a restored engine's observability hooks with this process.

    A checkpoint pickles whatever sink/profiler the saving run had.
    The resuming process's environment decides what *this* run records:
    tracing off here detaches a pickled sink (and its replayed events);
    tracing on here attaches a fresh sink to an archive saved without
    one (the trace then covers only the resumed ticks — full-run trace
    equality needs tracing on in both runs).  Engines predating the
    observability layer restore untouched via the class-attr defaults.
    """
    from ..obs.profile import make_profiler, profile_enabled
    from ..obs.trace import make_sink, trace_enabled
    if not trace_enabled():
        sim._obs_trace = None
    elif getattr(sim, "_obs_trace", None) is None:
        sim._obs_trace = make_sink()
    if not profile_enabled():
        sim._obs_prof = None
    elif getattr(sim, "_obs_prof", None) is None:
        sim._obs_prof = make_profiler()


def load_engine(path: str,
                expect_kind: Optional[str] = None) -> EngineCheckpoint:
    """Restore an engine archive written by :func:`save_engine`.

    Validates the format version and (when ``expect_kind`` is given)
    the engine family before unpickling, so a wrong file fails with a
    message naming the mismatch instead of an attribute error three
    layers into the resumed run.  The restored engine's observability
    hooks are reconciled with this process's ``REPRO_TRACE`` /
    ``REPRO_PROFILE`` environment (see :func:`_reconcile_obs`): every
    sim an object lists in ``engines`` (a fleet unit's group sims), or
    else the object itself.
    """
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path += ".npz"
    try:
        with np.load(path) as archive:
            if _META_KEY not in archive or _PICKLE_KEY not in archive:
                raise CheckpointError(
                    f"{path}: not an engine checkpoint (missing "
                    f"{_META_KEY}/{_PICKLE_KEY})")
            meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
            blob = bytes(archive[_PICKLE_KEY])
    except (OSError, BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version!r}, this build reads "
            f"version {CHECKPOINT_VERSION}")
    kind = meta.get("kind")
    if expect_kind is not None and kind != expect_kind:
        raise CheckpointError(
            f"{path}: holds a {kind!r} engine, expected {expect_kind!r}")
    sim = pickle.loads(blob)
    for engine in getattr(sim, "engines", (sim,)):
        _reconcile_obs(engine)
    return EngineCheckpoint(sim=sim, meta=meta)


def run_ticks(sim: Any, steps: int, dt_s: float) -> None:
    """Advance an engine by an exact tick count.

    The resume primitive for the scalar and batch engines: segment
    boundaries are expressed in ticks, so save-at-T/2 + resume replays
    the very same tick sequence a straight run executes.
    """
    for _ in range(steps):
        sim.tick(dt_s)


def completed_steps(sim: Any, dt_s: float) -> int:
    """Ticks an engine has already executed, from its clock.

    ``time_s`` accumulates ``dt_s`` per tick, so the completed count is
    its rounded quotient — exact for any float-accumulation drift far
    below half a tick (a week at ``dt=1`` drifts by microseconds).
    """
    if dt_s <= 0:
        raise CheckpointError("dt must be positive")
    return int(round(float(sim.time_s) / dt_s))
