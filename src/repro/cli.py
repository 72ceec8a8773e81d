"""Command-line entry point: ``python -m repro.cli <command>``.

Runs any of the paper's experiments, a quickstart demo, the whole
suite, or a declarative scenario (``scenario <name-or-file>``; see
``docs/scenarios.md``), printing the same tables/series the paper's
figures report.  Fleet-scale shapes get dedicated commands: ``fleet``
runs a sharded multi-cluster fleet, ``sched`` runs a fleet with a
best-effort job queue scheduled over its Heracles slack signals
(including the policy-vs-static goodput/TCO comparison).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Callable, Dict, List, Optional

from .experiments import (fig1_interference, fig3_convexity,
                          fig4_latency_slo, fig5_emu, fig6_shared_resources,
                          fig7_network_bw, fig8_cluster, tco_table)

EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "fig1": fig1_interference.main,
    "fig3": fig3_convexity.main,
    "fig4": fig4_latency_slo.main,
    "fig5": fig5_emu.main,
    "fig6": fig6_shared_resources.main,
    "fig7": fig7_network_bw.main,
    "fig8": fig8_cluster.main,
    "tco": tco_table.main,
}

#: Commands whose work fans out across the sweep runner; ``--jobs``
#: only affects these (plus ``all``, which includes them).
SWEEP_COMMANDS = frozenset({"fig4", "fig5", "fig6", "fig8", "all",
                            "scenario", "fleet", "sched"})

#: Placement policies the ``sched`` command may select (mirrors
#: :data:`repro.sched.policies.POLICIES` without importing the engine
#: at parser-build time).
SCHED_POLICIES = ("slack-greedy", "round-robin", "static")


def quickstart(seed: int = 42) -> None:
    """The README demo: websearch + brain at 50% load.

    Args:
        seed: tail-noise RNG seed for the run.
    """
    from . import HeraclesController, build_colocation
    sim = build_colocation("websearch", "brain", load=0.50, seed=seed)
    HeraclesController.for_sim(sim)
    history = sim.run(900)
    print(f"worst 60s tail: {history.worst_window_slo(skip_s=240):.0%} "
          f"of SLO; mean EMU: {history.mean_emu(skip_s=240):.0%}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI parser (one subcommand per artefact)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Heracles: Improving "
                    "Resource Efficiency at Scale' (ISCA 2015).")
    sub = parser.add_subparsers(
        dest="experiment", metavar="command", required=True,
        help="which artefact to regenerate (fig8 takes minutes; "
             "'all' runs everything; 'scenario' runs a declarative "
             "spec)")

    def add_jobs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "-j", "--jobs", type=int, default=None, metavar="N",
            help="worker processes for sweep fan-out (default: one per "
                 "CPU; 1 forces the serial path)")

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="record the run's decision trace (controller "
                 "actuations with their triggering signals, chaos "
                 "resolutions, scheduler placements/evictions, "
                 "checkpoint saves) and write it to PATH as "
                 "deterministic tick-ordered JSONL; never perturbs "
                 "the simulated numbers")
        p.add_argument(
            "--profile", action="store_true",
            help="measure tick-phase wall-clock (chaos/physics/"
                 "telemetry/controllers/rollup/ipc, plus sched for "
                 "schedule scenarios) and print the fleet-wide "
                 "breakdown table to stderr")
        p.add_argument(
            "--json", action="store_true", dest="json_output",
            help="print the run summary as one JSON document on "
                 "stdout instead of the human-readable report "
                 "(errors still go to stderr)")
        p.add_argument(
            "--progress", action="store_true",
            help="print throttled tick/ETA heartbeats on stderr while "
                 "long runs advance (works across the worker pool)")

    def add_checkpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--checkpoint", metavar="PATH", default=None,
            help="snapshot the full engine state mid-run to PATH (a "
                 "directory for fleet/sched scenarios, an .npz archive "
                 "for member scenarios); requires --checkpoint-at")
        p.add_argument(
            "--checkpoint-at", type=float, default=None, metavar="T",
            help="simulated time of the --checkpoint snapshot, in "
                 "seconds (must land inside the run)")
        p.add_argument(
            "--resume", metavar="PATH", default=None,
            help="warm-start from a checkpoint written by a previous "
                 "run of this scenario; bit-identical to running from "
                 "t=0")
        p.add_argument(
            "--spill-dir", metavar="DIR", default=None,
            help="stream full telemetry chunks to .npy files under DIR "
                 "so history memory is bounded by chunk size, not run "
                 "length (member scenarios; fleet and sched reject it)")

    for name in sorted(EXPERIMENTS) + ["all"]:
        p = sub.add_parser(name)
        add_jobs(p)
        if name == "fig8":
            p.add_argument(
                "--leaves", type=int, default=None, metavar="N",
                help="leaf servers behind the fan-out root (default: "
                     "the registered scenario's 8; at least 2)")

    quick = sub.add_parser(
        "quickstart", help="the README demo (websearch + brain)")
    add_jobs(quick)
    quick.add_argument("--seed", type=int, default=42,
                       help="tail-noise RNG seed (default: 42)")

    scenario = sub.add_parser(
        "scenario",
        help="run a registered scenario or a .yaml/.json spec file",
        description="Compile and run a declarative scenario "
                    "(docs/scenarios.md documents the spec schema).")
    scenario.add_argument(
        "scenario", nargs="?", default=None, metavar="name-or-file",
        help="a registered scenario name or a path to a spec file")
    scenario.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list registered scenarios and exit")
    add_jobs(scenario)
    scenario.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's base seed")
    add_obs(scenario)
    add_checkpoint(scenario)

    fleet = sub.add_parser(
        "fleet",
        help="run a sharded fleet scenario (registered name or spec file)",
        description="Compile and run a fleet-shaped scenario on the "
                    "sharded backend (docs/scenarios.md documents the "
                    "FleetSpec schema).")
    fleet.add_argument(
        "scenario", nargs="?", default=None, metavar="name-or-file",
        help="a registered fleet scenario name or a path to a spec file")
    fleet.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list registered fleet scenarios and exit")
    add_jobs(fleet)
    fleet.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's base seed")
    fleet.add_argument(
        "--shard-leaves", type=int, default=None, metavar="N",
        help="override the fleet's maximum leaves per shard (>= 1)")
    fleet.add_argument(
        "--engine", choices=("sharded", "mega"), default=None,
        help="override the fleet packing (sharded: shards packed into "
             "one unit per pool worker; mega: whole clusters as one "
             "in-process unit; identical telemetry)")
    add_obs(fleet)
    add_checkpoint(fleet)

    sched = sub.add_parser(
        "sched",
        help="run a scheduled fleet scenario (BE job queue over slack)",
        description="Compile and run a schedule-shaped scenario: the "
                    "fleet is simulated once, the best-effort job queue "
                    "is placed over its Heracles slack signals, and the "
                    "goodput/TCO roll-up is compared against the "
                    "static-provisioning baseline (docs/scenarios.md "
                    "documents the ScheduleSpec schema).")
    sched.add_argument(
        "scenario", nargs="?", default=None, metavar="name-or-file",
        help="a registered schedule scenario name or a spec file path")
    sched.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list registered schedule scenarios and exit")
    add_jobs(sched)
    sched.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's base seed")
    sched.add_argument(
        "--shard-leaves", type=int, default=None, metavar="N",
        help="override the fleet's maximum leaves per shard (>= 1)")
    sched.add_argument(
        "--engine", choices=("sharded", "mega"), default=None,
        help="override the fleet packing (sharded: shards packed into "
             "one unit per pool worker; mega: whole clusters as one "
             "in-process unit; identical telemetry)")
    sched.add_argument(
        "--policy", choices=SCHED_POLICIES, default=None,
        help="override the scenario's placement policy")
    sched.add_argument(
        "--no-compare", action="store_true",
        help="skip the policy-vs-static comparison replay")
    add_obs(sched)
    add_checkpoint(sched)
    return parser


def _apply_jobs(args: argparse.Namespace) -> None:
    """Pin the sweep runner's worker count from ``--jobs``.

    Non-sweep commands run a fixed serial pipeline, where ``--jobs``
    cannot change anything — say so instead of silently ignoring it.
    """
    if args.jobs is None:
        return
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.experiment not in SWEEP_COMMANDS:
        warnings.warn(
            f"--jobs has no effect for {args.experiment!r}: it runs "
            f"serially (sweep fan-out applies to "
            f"{', '.join(sorted(SWEEP_COMMANDS - {'all', 'scenario'}))}, "
            f"'all' and 'scenario')",
            stacklevel=2)
        return
    import os

    from .sim.runner import JOBS_ENV
    os.environ[JOBS_ENV] = str(args.jobs)


def _apply_obs_args(args: argparse.Namespace) -> None:
    """Set the observability env toggles from the CLI flags.

    Runs before any engine or pool worker is built, so one switch
    covers the whole run — workers inherit the environment.
    """
    import os

    from .obs import PROFILE_ENV, PROGRESS_ENV, TRACE_ENV
    if getattr(args, "trace", None):
        os.environ[TRACE_ENV] = "1"
    if getattr(args, "profile", False):
        os.environ[PROFILE_ENV] = "1"
    if getattr(args, "progress", False):
        os.environ[PROGRESS_ENV] = "1"


def _emit_scenario_result(args: argparse.Namespace, result,
                          extra: Optional[Dict[str, object]] = None) -> None:
    """Print/write a scenario run's outputs per the obs flags.

    The summary goes to stdout — as the human report, or as one JSON
    document under ``--json`` (with ``extra`` keys merged in).  The
    trace JSONL goes to ``--trace``'s path and the profile table to
    stderr, so machine consumers can parse stdout unconditionally.
    """
    import json

    if getattr(args, "trace", None):
        from .obs import empty_payload, write_jsonl
        payload = result.trace if result.trace is not None \
            else empty_payload()
        write_jsonl(payload, args.trace)
        print(f"trace: {len(payload['t_s'])} event(s) -> {args.trace}",
              file=sys.stderr)
    if getattr(args, "profile", False) and result.profile is not None:
        from .obs import render_profile
        print(render_profile(result.profile), end="", file=sys.stderr)
    if getattr(args, "json_output", False):
        doc = result.to_dict()
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(result.render(), end="")


def _resolve_scenario_spec(name_or_file: str):
    """Resolve a CLI scenario argument to a validated spec.

    Registry names win over the filesystem, so a stray directory named
    ``fig8`` in cwd cannot shadow the registered scenario; spell file
    paths with an extension or a separator.
    """
    import os

    from .scenarios import load_scenario, registry
    if name_or_file in registry.names():
        return registry.get(name_or_file)
    if os.path.exists(name_or_file) or name_or_file.endswith(
            (".json", ".yaml", ".yml")):
        return load_scenario(name_or_file)
    return registry.get(name_or_file)  # raises with the names


def _apply_checkpoint_args(args: argparse.Namespace, spec):
    """Fold ``--checkpoint/--checkpoint-at/--resume/--spill-dir`` into
    the spec's ``checkpoint`` stanza (CLI flags win field-by-field)."""
    import dataclasses

    from .scenarios import CheckpointSpec
    overrides = {name: value for name, value in (
        ("save", args.checkpoint), ("at_s", args.checkpoint_at),
        ("resume", args.resume), ("spill_dir", args.spill_dir))
        if value is not None}
    if not overrides:
        return spec
    if spec.checkpoint is not None:
        ckpt = dataclasses.replace(spec.checkpoint, **overrides)
    else:
        ckpt = CheckpointSpec(**overrides)
    ckpt.validate("checkpoint")
    return dataclasses.replace(spec, checkpoint=ckpt)


def _run_scenario_command(args: argparse.Namespace) -> int:
    """Handle ``repro scenario [name-or-file] [--list] [--seed N]``."""
    import dataclasses

    from .scenarios import ScenarioError, compile_scenario, registry
    if args.list_scenarios:
        for name in registry.names():
            print(f"{name:<16} {registry.description(name)}")
        return 0
    if args.scenario is None:
        raise SystemExit("scenario: give a registered name or a spec file "
                         "path (or --list)")
    try:
        spec = _resolve_scenario_spec(args.scenario)
        if spec.cluster is not None and (args.trace or args.profile):
            raise SystemExit(
                f"scenario: {spec.name!r} is cluster-shaped and records "
                f"no decision trace or phase profile; drop --trace and "
                f"--profile, or run the leaves as a fleet scenario")
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        spec = _apply_checkpoint_args(args, spec)
        result = compile_scenario(spec).run()
    except ScenarioError as exc:
        raise SystemExit(f"scenario: {exc}") from exc
    _emit_scenario_result(args, result)
    return 0


def _run_fleet_shaped(args: argparse.Namespace, command: str, shape: str,
                      policy: Optional[str] = None):
    """Resolve, override and run a fleet- or schedule-shaped scenario.

    The shared body of ``repro fleet`` (``shape="fleet"``) and ``repro
    sched`` (``shape="schedule"``): the ``--list`` filter, the shape
    check, the ``--seed``/``--shard-leaves``/``--engine`` overrides on
    the run's :class:`FleetSpec`, ``policy`` on the schedule stanza,
    and the checkpoint flags.  A non-positive ``--shard-leaves`` fails
    before the scenario is even resolved.

    Returns:
        ``(spec, result)``, or ``None`` after printing ``--list``.
    """
    import dataclasses

    from .scenarios import ScenarioError, compile_scenario, registry
    if args.list_scenarios:
        for name in registry.names():
            if getattr(registry.get(name), shape) is not None:
                print(f"{name:<16} {registry.description(name)}")
        return None
    if args.scenario is None:
        raise SystemExit(f"{command}: give a registered {shape} scenario "
                         f"name or a spec file path (or --list)")
    if args.shard_leaves is not None and args.shard_leaves < 1:
        raise SystemExit(
            f"{command}: --shard-leaves must be a positive leaf count, "
            f"got {args.shard_leaves}")
    try:
        spec = _resolve_scenario_spec(args.scenario)
        if getattr(spec, shape) is None:
            other = "sched" if spec.schedule is not None else (
                "fleet" if spec.fleet is not None else "scenario")
            raise SystemExit(
                f"{command}: scenario {spec.name!r} is not {shape}-shaped; "
                f"run it with the {other!r} command instead")
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        fleet_overrides = {name: value for name, value in (
            ("shard_leaves", args.shard_leaves), ("engine", args.engine))
            if value is not None}
        stanza = getattr(spec, shape)
        if shape == "schedule":
            stanza = dataclasses.replace(
                stanza, fleet=dataclasses.replace(stanza.fleet,
                                                  **fleet_overrides),
                policy=policy or stanza.policy)
        else:
            stanza = dataclasses.replace(stanza, **fleet_overrides)
        spec = _apply_checkpoint_args(
            args, dataclasses.replace(spec, **{shape: stanza}))
        return spec, compile_scenario(spec).run()
    except ScenarioError as exc:
        raise SystemExit(f"{command}: {exc}") from exc


def _run_fleet_command(args: argparse.Namespace) -> int:
    """Handle ``repro fleet [name-or-file] [--list] [--shard-leaves N]``."""
    ran = _run_fleet_shaped(args, "fleet", "fleet")
    if ran is not None:
        _emit_scenario_result(args, ran[1])
    return 0


def _run_sched_command(args: argparse.Namespace) -> int:
    """Handle ``repro sched [name-or-file] [--policy P] [...]``."""
    ran = _run_fleet_shaped(args, "sched", "schedule", policy=args.policy)
    if ran is None:
        return 0
    spec, result = ran
    outcomes = None
    if not args.no_compare and spec.schedule.jobs \
            and result.schedule.policy != "static":
        from .sched import compare_policies
        # The scenario's own policy already ran inside the compiled
        # scenario; only the static baseline needs a replay.
        outcomes = {result.schedule.policy: result.schedule}
        outcomes.update(compare_policies(
            result.fleet.slack, spec.schedule.expand_jobs(),
            policies=("static",),
            queue_limit=spec.schedule.queue_limit))
    extra = None
    if outcomes is not None:
        extra = {"policies": {name: outcome.summary()
                              for name, outcome in outcomes.items()}}
    _emit_scenario_result(args, result, extra=extra)
    if outcomes is not None and not getattr(args, "json_output", False):
        from .sched import render_comparison
        print(render_comparison(outcomes, fleet=result.fleet,
                                skip_s=spec.warmup_s), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to the selected command."""
    args = build_parser().parse_args(argv)
    _apply_jobs(args)
    _apply_obs_args(args)
    if args.experiment == "scenario":
        return _run_scenario_command(args)
    if args.experiment == "fleet":
        return _run_fleet_command(args)
    if args.experiment == "sched":
        return _run_sched_command(args)
    if args.experiment == "quickstart":
        quickstart(seed=args.seed)
        return 0
    if args.experiment == "all":
        for name in sorted(EXPERIMENTS):
            print(f"==== {name} " + "=" * 50)
            EXPERIMENTS[name]()
        return 0
    if args.experiment == "fig8":
        from .scenarios import ScenarioError
        try:
            fig8_cluster.main(leaves=args.leaves)
        except ScenarioError as exc:
            raise SystemExit(f"fig8: {exc}") from exc
        return 0
    EXPERIMENTS[args.experiment]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
