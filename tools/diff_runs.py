#!/usr/bin/env python
"""First-divergence explainer: where do two runs of one spec split?

Usage::

    python tools/diff_runs.py scenario SPEC.yaml \
        [--engine-a sharded --engine-b mega] [--jobs-a 1 --jobs-b 4] \
        [--shard-leaves-a N --shard-leaves-b N] [--base REV] \
        [--context 5] [--json]
    python tools/diff_runs.py trace A.jsonl B.jsonl

``scenario`` mode runs one spec twice with decision tracing forced on.
Every spec runs as the members or the one fleet the compiler lowers it
to (:attr:`~repro.scenarios.compiler.CompiledScenario.lowered`: a
sweep's members are its grid cells in ``lc_tasks x be_tasks x loads``
order, a cluster spec is one fleet cluster per arm), injections
included.  A fleet runs under two engine/sharding/job-count
configurations that the bit-identity contract says must agree, with
per-tick slack collection (``slack_epoch_s = dt_s``), and the fleet
roll-up columns are compared.  So ``--jobs-a 1 --jobs-b 2`` on a
cluster spec compares both arms in one unit with one arm per unit.
Members run as compiled (they have no engine knob), and every
``SimHistory`` column is compared per (tick, member).  The tool
reports the first (tick, column, member) where the runs disagree,
together with the nearest preceding decision-trace events for that
member, so a regression reads as "grant_cores for leaf 17 split at
t=840 s, right after chaos disable_be fired there" instead of a bare
summary mismatch.  Exit status: 0 when bit-identical, 1 on divergence.

With ``--base REV`` run A is the spec at git revision ``REV`` instead:
the revision is checked out into a temporary ``git worktree``, run in
a subprocess on that tree's ``src`` (its columns come back in an
``.npz`` file), and compared with run B on the working tree — so
"this change keeps every number" is one command.  ``REV`` must already
have the API this tool drives (``_build_fleet`` and slack views for
fleets, ``run_scenario`` for members).  A ``REV`` older than
``CompiledScenario.lowered`` lowers a cluster spec through
``CompiledScenario.fleet_spec`` and refuses sweep and cluster specs
with injections; one older than ``fleet_spec`` runs fleet and schedule
specs from their own stanza, but cannot lower a cluster spec, and one
that runs sweeps without members cannot run a sweep spec.

``trace`` mode diffs two merged decision-trace JSONL files (the
``--trace`` CLI artifact) line by line and reports the first differing
event — the canonical ordering makes byte comparison meaningful.

The guts are importable (:func:`first_divergence`,
:func:`fleet_columns`, :func:`member_columns`, :func:`nearest_events`)
so tests can feed hand-built column dicts — e.g. a deliberately
re-broken engine loop — through the same explainer the CLI uses.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Every ``repro`` import below is deferred to the function using it, so
# ``--src`` can put another tree's package first before the first one.
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

#: Slack-view fields compared per (tick, leaf) in scenario mode.
SLACK_FIELDS = ("grant_cores", "harvest_core_s", "latched")
#: Fleet-telemetry per-cluster fields compared per (record, cluster).
TELEMETRY_FIELDS = ("load", "root_latency_ms", "root_slo_fraction", "emu")


@dataclasses.dataclass
class Divergence:
    """The first point where two runs of one spec disagree.

    Attributes:
        tick: row index into the compared columns (epoch/record index).
        t_s: simulated time of that row.
        column: name of the first differing column (ties broken by
            sorted column name, then member index).
        member: member-axis index of the first differing entry, or
            ``None`` for a shared (1-D) column.
        value_a: run A's value at the divergence point.
        value_b: run B's value at the divergence point.
        context: nearest preceding decision-trace events for this
            member (run-scoped ``member == -1`` events included),
            newest last; empty when no trace was supplied.
    """

    tick: int
    t_s: float
    column: str
    member: Optional[int]
    value_a: float
    value_b: float
    context: List[Dict[str, Any]] = dataclasses.field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """The divergence as a JSON-ready dict."""
        return dataclasses.asdict(self)


def _unequal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise "really differs" mask: NaN == NaN, else exact."""
    both_nan = np.isnan(a) & np.isnan(b)
    return ~both_nan & ~(a == b)


def nearest_events(trace: Mapping[str, np.ndarray], t_s: float,
                   member: Optional[int] = None,
                   count: int = 5,
                   window: float = 0.0) -> List[Dict[str, Any]]:
    """The last ``count`` trace events at or before ``t_s + window``.

    When ``member`` is given, only that member's events plus run-scoped
    (``member == -1``) events qualify — the events most likely to have
    *caused* a per-member divergence.  Events arrive in canonical
    (time-major) order, so "nearest preceding" is just the tail of the
    filtered prefix.  ``window`` extends the cutoff past the row's own
    timestamp: a slack row stamped at its epoch *start* is written by
    the *next* tick's actuator gather (the one-tick lag contract), so
    its triggering event can carry a timestamp up to one epoch later.
    """
    from repro.obs.trace import iter_events

    picked: List[Dict[str, Any]] = []
    for event in iter_events(trace):
        if event["t_s"] > t_s + window + 1e-9:
            break
        if member is None or event["member"] in (member, -1):
            picked.append(event)
    return picked[-count:]


def first_divergence(times_s: np.ndarray,
                     cols_a: Mapping[str, np.ndarray],
                     cols_b: Mapping[str, np.ndarray],
                     trace: Optional[Mapping[str, np.ndarray]] = None,
                     context: int = 5,
                     window: float = 0.0) -> Optional[Divergence]:
    """Find the earliest (tick, column, member) where two runs split.

    Args:
        times_s: (T,) shared row clock for every compared column.
        cols_a: run A's columns, each (T,) or (T, N) — named arrays.
        cols_b: run B's columns over the same names and shapes.
        trace: optional merged decision-trace payload used to attach
            explanatory context events to the divergence.
        context: how many preceding trace events to attach.
        window: context-event lookahead past the divergent row's
            timestamp (see :func:`nearest_events`); pass the row span
            when rows are stamped at their *start*.

    Returns:
        The minimal divergence under (tick, column name, member)
        ordering, or ``None`` when every column is bit-identical.

    Raises:
        ValueError: column names or shapes differ between the runs —
            that is a structural mismatch, not a numeric divergence.
    """
    if sorted(cols_a) != sorted(cols_b):
        raise ValueError(f"column sets differ: {sorted(cols_a)} vs "
                         f"{sorted(cols_b)}")
    best: Optional[Tuple[int, str, int]] = None
    best_vals = (np.nan, np.nan)
    best_shared = False
    for name in sorted(cols_a):
        a = np.asarray(cols_a[name], dtype=float)
        b = np.asarray(cols_b[name], dtype=float)
        if a.shape != b.shape:
            raise ValueError(f"column {name!r}: shape {a.shape} vs "
                             f"{b.shape}")
        shared = a.ndim == 1
        if shared:
            a = a[:, None]
            b = b[:, None]
        mask = _unequal(a, b)
        rows = mask.any(axis=1)
        if not rows.any():
            continue
        tick = int(np.argmax(rows))
        member = int(np.argmax(mask[tick]))
        key = (tick, name, member)
        if best is None or key < best:
            best = key
            best_vals = (float(a[tick, member]), float(b[tick, member]))
            best_shared = shared
    if best is None:
        return None
    tick, name, member = best
    t_s = float(np.asarray(times_s, dtype=float)[tick])
    events: List[Dict[str, Any]] = []
    if trace is not None:
        events = nearest_events(trace, t_s,
                                member=None if best_shared else member,
                                count=context, window=window)
    return Divergence(tick=tick, t_s=t_s, column=name,
                      member=None if best_shared else member,
                      value_a=best_vals[0], value_b=best_vals[1],
                      context=events)


def fleet_columns(result) -> List[Tuple[str, np.ndarray,
                                        Dict[str, np.ndarray], float]]:
    """Comparable column groups from a :class:`FleetResult`.

    Returns ``(group, times_s, columns, window)`` tuples — the per-leaf
    slack view (when the run collected it) on the epoch clock, and the
    per-cluster fleet telemetry on the record clock.  Groups keep their
    own clocks; the caller diffs each group independently and reports
    the earliest hit.  ``window`` is the context-event lookahead for
    that group: slack rows are stamped at their epoch *start* but
    written by the next tick's gather, so their triggering event can
    sit one epoch past the row timestamp.
    """
    groups: List[Tuple[str, np.ndarray, Dict[str, np.ndarray], float]] = []
    slack = result.slack
    if slack is not None:
        cols = {name: np.asarray(getattr(slack, name), dtype=float)
                for name in SLACK_FIELDS}
        epoch_len = np.asarray(slack.epoch_len_s, dtype=float)
        window = float(epoch_len.flat[0]) if epoch_len.size else 0.0
        groups.append(("slack", np.asarray(slack.epoch_t_s, dtype=float),
                       cols, window))
    telemetry = result.telemetry
    cols = {name: telemetry.column(name) for name in TELEMETRY_FIELDS}
    for name in telemetry.FLEET_FIELDS:
        cols[name] = telemetry.fleet_column(name)
    groups.append(("telemetry", telemetry.times(), cols, 0.0))
    return groups


def member_columns(result) -> List[Tuple[str, np.ndarray,
                                         Dict[str, np.ndarray], float]]:
    """Comparable columns of a :class:`ScenarioResult` that ran as
    members (a members or sweep spec).

    One ``("members", times_s, columns, 0.0)`` group: every
    ``SimHistory`` field as a (T, N) array, one column per member
    (all members share the run clock).
    """
    if not result.members:
        raise SystemExit("diff_runs: this revision runs sweeps without "
                         "members; it cannot run a sweep spec")
    histories = [member.history for member in result.members]
    cols = {name: np.column_stack([h.column(name) for h in histories])
            for name in histories[0].field_names()}
    return [("members", histories[0].times(), cols, 0.0)]


def run_columns(result) -> List[Tuple[str, np.ndarray,
                                      Dict[str, np.ndarray], float]]:
    """The column groups of a fleet or a members run."""
    if hasattr(result, "telemetry"):
        return fleet_columns(result)
    return member_columns(result)


def _member_label(result, group: str, member: Optional[int]) -> str:
    """Human label for a divergent member index within a group."""
    if member is None:
        return "(fleet-wide)"
    if group == "members":
        picked = result.members[member]
        return f"({picked.lc}+{picked.be})"
    if group == "slack" and result.slack is not None:
        slack = result.slack
        cluster = slack.cluster_names[int(slack.leaf_cluster[member])]
        return f"(cluster {cluster!r})"
    if group == "telemetry":
        return f"(cluster {result.telemetry.cluster_names[member]!r})"
    return ""


def _format_event(event: Mapping[str, Any]) -> str:
    """One trace event as a compact single-line summary."""
    parts = [f"t={event['t_s']:g}s", f"{event['source']}/{event['kind']}",
             f"member={event['member']}"]
    for field in ("a", "b", "slo", "load"):
        value = event.get(field)
        if value is not None and not (isinstance(value, float)
                                      and np.isnan(value)):
            parts.append(f"{field}={value:g}")
    return " ".join(parts)


def _lowered_fleet(spec, compiled):
    """The fleet ``spec`` runs as, or ``None`` when it runs as members.

    Reads :attr:`CompiledScenario.lowered`; a ``--base`` revision older
    than it runs sweeps as members and lowers a cluster through
    ``CompiledScenario.fleet_spec`` where it has one.
    """
    lowered = getattr(compiled, "lowered", None)
    if lowered is not None:
        if lowered.members:
            return None
        return lowered.fleet or lowered.schedule.fleet
    if spec.members or spec.sweep is not None:
        return None
    if hasattr(compiled, "fleet_spec"):
        return compiled.fleet_spec()
    fleet_spec = spec.fleet or getattr(spec.schedule, "fleet", None)
    if fleet_spec is None:
        raise SystemExit("diff_runs: this revision cannot lower a "
                         "cluster spec to a fleet")
    return fleet_spec


def _run_variant(spec, engine: Optional[str], shard_leaves: Optional[int],
                 jobs: Optional[int]):
    """One traced run: a spec that runs as members as compiled, or a
    per-tick-slack fleet run under a config override."""
    from repro.scenarios.compiler import compile_scenario
    from repro.sim.runner import JOBS_ENV

    compiled = compile_scenario(spec)
    fleet_spec = _lowered_fleet(spec, compiled)
    if fleet_spec is None:
        if (engine, shard_leaves, jobs) != (None, None, None):
            raise SystemExit("diff_runs: --engine/--shard-leaves/--jobs "
                             "configure fleet runs; a members spec has "
                             "none of them (a sweep runs as members)")
        return compiled.run()
    overrides: Dict[str, Any] = {}
    if engine is not None:
        overrides["engine"] = engine
    if shard_leaves is not None:
        overrides["shard_leaves"] = shard_leaves
    if overrides:
        fleet_spec = dataclasses.replace(fleet_spec, **overrides)
    saved = os.environ.get(JOBS_ENV)
    if jobs is not None:
        os.environ[JOBS_ENV] = str(jobs)
    try:
        fleet = compiled._build_fleet(fleet_spec)
        return fleet.run(spec.duration_s, dt_s=spec.dt_s,
                         slack_epoch_s=spec.dt_s)
    finally:
        if jobs is not None:
            if saved is None:
                os.environ.pop(JOBS_ENV, None)
            else:
                os.environ[JOBS_ENV] = saved


def _save_groups(path: str, groups) -> None:
    """Write column groups to one ``.npz`` file."""
    arrays = {}
    for group, times, cols, window in groups:
        arrays[f"{group}/@times"] = times
        arrays[f"{group}/@window"] = np.float64(window)
        for name, column in cols.items():
            arrays[f"{group}/{name}"] = column
    np.savez(path, **arrays)


def _load_groups(path: str):
    """The column groups :func:`_save_groups` wrote."""
    with np.load(path) as archive:
        cols: Dict[str, Dict[str, np.ndarray]] = {}
        for key in archive.files:
            group, name = key.split("/", 1)
            cols.setdefault(group, {})[name] = archive[key]
    return [(group, c.pop("@times"), c, float(c.pop("@window")))
            for group, c in cols.items()]


def _groups_at_revision(args, rev: str):
    """Run A's column groups, computed by the spec at git ``rev``."""
    with tempfile.TemporaryDirectory(prefix="diff_runs_") as tmp:
        tree = os.path.join(tmp, "tree")
        added = subprocess.run(
            ["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet",
             tree, rev], capture_output=True, text=True)
        if added.returncode:
            raise SystemExit(f"diff_runs: cannot check out {rev!r}: "
                             f"{added.stderr.strip()}")
        try:
            out = os.path.join(tmp, "columns.npz")
            cmd = [sys.executable, os.path.abspath(__file__), "scenario",
                   os.path.abspath(args.spec), "--dump", out,
                   "--src", os.path.join(tree, "src")]
            for flag in ("engine", "shard_leaves", "jobs"):
                value = getattr(args, f"{flag}_a")
                if value is not None:
                    cmd += [f"--{flag.replace('_', '-')}-a", str(value)]
            if subprocess.run(cmd).returncode:
                raise SystemExit(f"diff_runs: the run at {rev!r} failed")
            return _load_groups(out)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", tree], capture_output=True)


def _scenario_mode(args) -> int:
    """Run the spec twice and explain the first divergence, if any."""
    if args.src is not None:
        sys.path.insert(0, os.path.abspath(args.src))
    from repro.obs.trace import TRACE_ENV
    from repro.scenarios import load_scenario

    spec = load_scenario(args.spec)
    spec.validate()
    os.environ[TRACE_ENV] = "1"
    if args.base is not None:
        groups_a = _groups_at_revision(args, args.base)
    else:
        result_a = _run_variant(spec, args.engine_a, args.shard_leaves_a,
                                args.jobs_a)
        groups_a = run_columns(result_a)
        if args.dump is not None:
            _save_groups(args.dump, groups_a)
            return 0
    result_b = _run_variant(spec, args.engine_b, args.shard_leaves_b,
                            args.jobs_b)
    # The in-process run supplies trace context and member labels.
    local = result_b if args.base is not None else result_a
    hits: List[Tuple[str, Divergence]] = []
    groups_b = {group: (times, cols)
                for group, times, cols, _ in run_columns(result_b)}
    compared = 0
    for group, times, cols, window in groups_a:
        times_b, cols_b = groups_b[group]
        if not np.array_equal(times, times_b):
            raise SystemExit(f"diff_runs: {group} clocks differ between "
                             "runs — specs are not comparable")
        compared += len(cols)
        hit = first_divergence(times, cols, cols_b,
                               trace=local.trace, context=args.context,
                               window=window)
        if hit is not None:
            hits.append((group, hit))
    if not hits:
        if args.json:
            print(json.dumps({"diverged": False,
                              "columns_compared": compared},
                             sort_keys=True))
        else:
            print(f"no divergence: {compared} columns bit-identical")
        return 0
    group, div = min(hits, key=lambda pair: (pair[1].t_s, pair[0]))
    if args.json:
        doc = {"diverged": True, "group": group, **div.to_dict()}
        print(json.dumps(doc, sort_keys=True))
        return 1
    where = f"member {div.member}" if div.member is not None else "shared"
    label = _member_label(local, group, div.member)
    print(f"runs diverge at t={div.t_s:g}s (tick {div.tick}): "
          f"{group} column {div.column!r} {where} {label}: "
          f"a={div.value_a!r} b={div.value_b!r}")
    if div.context:
        print("nearest preceding trace events:")
        for event in div.context:
            print(f"  {_format_event(event)}")
    else:
        print("no trace events at or before the divergence")
    return 1


def _trace_mode(args) -> int:
    """Diff two canonical trace JSONL files event by event."""
    from repro.obs.trace import read_jsonl

    events_a = read_jsonl(args.trace_a)
    events_b = read_jsonl(args.trace_b)
    for index, (ev_a, ev_b) in enumerate(zip(events_a, events_b)):
        if ev_a != ev_b:
            print(f"traces diverge at event {index}:")
            print(f"  a: {_format_event(ev_a)}")
            print(f"  b: {_format_event(ev_b)}")
            return 1
    if len(events_a) != len(events_b):
        short, extra = (("a", events_b) if len(events_a) < len(events_b)
                        else ("b", events_a))
        index = min(len(events_a), len(events_b))
        print(f"trace {short} ends early at event {index}; "
              f"other continues with:")
        print(f"  {_format_event(extra[index])}")
        return 1
    print(f"traces identical: {len(events_a)} events")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="first-divergence explainer for paired runs")
    sub = parser.add_subparsers(dest="mode", required=True)
    scenario = sub.add_parser(
        "scenario", help="run one spec twice and diff per-tick columns")
    scenario.add_argument("spec", help="scenario spec file (any shape)")
    scenario.add_argument("--engine-a", default=None,
                          help="fleet engine for run A (sharded|mega)")
    scenario.add_argument("--engine-b", default=None,
                          help="fleet engine for run B (sharded|mega)")
    scenario.add_argument("--shard-leaves-a", type=int, default=None,
                          help="shard width override for run A")
    scenario.add_argument("--shard-leaves-b", type=int, default=None,
                          help="shard width override for run B")
    scenario.add_argument("--jobs-a", type=int, default=None,
                          help="REPRO_JOBS for run A")
    scenario.add_argument("--jobs-b", type=int, default=None,
                          help="REPRO_JOBS for run B")
    scenario.add_argument("--base", default=None, metavar="REV",
                          help="run A is the spec at git revision REV "
                               "(checked out to a temporary worktree)")
    # Internal: how a --base run's subprocess is told where its tree's
    # package is and where to write run A's columns.
    scenario.add_argument("--src", default=None, help=argparse.SUPPRESS)
    scenario.add_argument("--dump", default=None, help=argparse.SUPPRESS)
    scenario.add_argument("--context", type=int, default=5,
                          help="trace events to attach (default 5)")
    scenario.add_argument("--json", action="store_true",
                          help="machine-readable one-line JSON verdict")
    trace = sub.add_parser(
        "trace", help="diff two canonical --trace JSONL files")
    trace.add_argument("trace_a", help="first trace JSONL file")
    trace.add_argument("trace_b", help="second trace JSONL file")
    args = parser.parse_args(argv)
    if args.mode == "scenario":
        return _scenario_mode(args)
    return _trace_mode(args)


if __name__ == "__main__":
    sys.exit(main())
