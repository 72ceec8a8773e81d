"""Process fan-out for independent work, and offline-profile memoization.

The fleet simulator splits a fleet into units with no data dependencies
between them; :func:`run_sweep` fans such points across a
``ProcessPoolExecutor`` (results come back in submission order) and
degrades gracefully to a serial loop when only one CPU is available,
when the pool cannot be created (restricted sandboxes), or when
``processes=1`` is requested.  A Figure 4-7 ``sweep`` scenario does not
come through here: its cells are the members of one batch.

The worker count defaults to ``min(len(points), cpu_count)`` and can be
pinned globally through the ``REPRO_JOBS`` environment variable (the CLI
exposes it as ``--jobs``); ``REPRO_JOBS=1`` forces serial execution,
which is also the right setting inside pytest on single-core CI runners.

Offline profiling memoization
-----------------------------

Heracles needs one offline DRAM-bandwidth model per (LC workload,
machine) pair.  :func:`memoized_dram_model` caches the profile per
process, so every member, sweep cell or fleet leaf on the same LC
workload shares one profiling run.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.dram_model import LcDramBandwidthModel, profile_lc_dram_model
from ..hardware.spec import MachineSpec, default_machine_spec

#: Environment variable that pins the worker count (0/unset = auto).
JOBS_ENV = "REPRO_JOBS"

_MODEL_CACHE: Dict[Tuple[str, MachineSpec], LcDramBandwidthModel] = {}


def default_jobs(points: int) -> int:
    """Worker count for a sweep of ``points`` independent tasks.

    ``REPRO_JOBS`` pins the count; ``0`` (like unset) means auto — the
    historical behaviour of forcing serial execution for ``0``
    contradicted the documented contract.  Negative pins are rejected
    loudly instead of being silently clamped to serial; non-numeric
    values are ignored (auto).
    """
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            pinned = int(env)
        except ValueError:
            pinned = None
        if pinned is not None:
            if pinned < 0:
                raise ValueError(
                    f"{JOBS_ENV}={env!r}: worker count must be >= 0 "
                    f"(0 or unset = auto)")
            if pinned > 0:
                return pinned
    return max(1, min(points, os.cpu_count() or 1))


def memoized_dram_model(lc_name: str,
                        spec: Optional[MachineSpec] = None
                        ) -> LcDramBandwidthModel:
    """Process-local cache of the offline LC DRAM-bandwidth profile.

    The profile is a pure function of (workload, machine spec); both
    are hashable frozen dataclasses, so one profiling run serves every
    sweep point that shares them.
    """
    from ..workloads.latency_critical import make_lc_workload
    spec = spec or default_machine_spec()
    key = (lc_name, spec)
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = profile_lc_dram_model(make_lc_workload(lc_name, spec))
        _MODEL_CACHE[key] = model
    return model


def clear_model_cache() -> None:
    """Drop memoized profiles (tests, or after spec monkey-patching)."""
    _MODEL_CACHE.clear()


def _call_point(payload: Tuple[Callable[..., Any], tuple, dict]) -> Any:
    fn, args, kwargs = payload
    return fn(*args, **kwargs)


def run_sweep(fn: Callable[..., Any],
              points: Sequence[Any],
              processes: Optional[int] = None,
              star: bool = False) -> List[Any]:
    """Evaluate ``fn`` over independent sweep points, possibly in parallel.

    Args:
        fn: a picklable (module-level) callable.
        points: one argument per point.  With ``star=False`` each point
            is passed as the single positional argument; with
            ``star=True`` each point must be a ``(args, kwargs)`` tuple
            which is splatted into ``fn``.
        processes: worker processes; ``None`` = :func:`default_jobs`,
            ``1`` (or a single-core machine) = serial in-process loop.

    Returns:
        Results in the order of ``points`` (unlike ``as_completed``).
    """
    points = list(points)
    if not points:
        return []
    if star:
        payloads = [(fn, tuple(args), dict(kwargs))
                    for args, kwargs in points]
    else:
        payloads = [(fn, (p,), {}) for p in points]
    workers = processes if processes is not None else default_jobs(len(points))
    workers = min(workers, len(points))
    if workers <= 1:
        return [_call_point(p) for p in payloads]
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, PermissionError, ValueError):
        # Pool creation can fail in restricted sandboxes; the sweep is
        # still correct serially, just slower.  Only *creation* errors
        # fall back — an exception raised by a sweep point itself must
        # propagate, not silently trigger a serial re-run.
        return [_call_point(p) for p in payloads]
    with pool:
        return list(pool.map(_call_point, payloads))
