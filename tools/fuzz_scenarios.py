#!/usr/bin/env python
"""Seeded scenario-fuzz soak: the open-ended version of the CI fuzzer.

Usage: ``python tools/fuzz_scenarios.py [--examples 1000] [--seed 0]
[--shape all|fleet|members]``

Generates random valid :class:`ScenarioSpec` trees (fleet and schedule
shapes with chaos/actuator injections, plus member scenarios) from one
``random.Random(seed)`` stream and checks the engine equivalence
contracts on every one:

* fleet-like: bit-identical fleet summaries and per-cluster history
  columns across engine ∈ {sharded, mega} × shard_leaves ∈ {1, 3,
  as-drawn} × ``REPRO_JOBS`` ∈ {1, 4};
* members: bitwise rerun determinism, and (single member) the batch
  backend vs the scalar reference under the ``rtol=1e-9`` contract.

The pinned 200-example matrix runs in CI via
``tests/test_scenario_fuzz.py``; this tool exists for long soaks
(``--examples 1000`` in the manual-dispatch workflow) and for
reproducing a failure.  On the first divergence the offending spec is
written verbatim (via :meth:`ScenarioSpec.to_data`) to a
``fuzz-fail-seed<S>-ex<K>.json`` replay file and the tool prints the
one command that re-checks exactly that scenario::

    python tools/fuzz_scenarios.py --replay fuzz-fail-seed0-ex37.json

``--replay`` accepts any scenario file ``load_scenario`` can read, so
a hand-minimised copy of the replay file works too.

Exits non-zero on the first divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro.scenarios import run_scenario  # noqa: E402
from repro.scenarios.spec import (CONTROLLERS, FleetSpec,  # noqa: E402
                                  InjectionSpec, JobSpec, ScenarioSpec,
                                  ScheduleSpec, ShardSpec, TraceSpec,
                                  WorkloadSpec)
from repro.sim.chaos import CHAOS_EVENT_ACTIONS  # noqa: E402
from repro.sim.runner import JOBS_ENV  # noqa: E402
from repro.workloads.best_effort import BE_PROFILES  # noqa: E402
from repro.workloads.latency_critical import LC_PROFILES  # noqa: E402

LCS = tuple(sorted(LC_PROFILES))
BES = tuple(sorted(BE_PROFILES))

VALUE_GRIDS = {
    "set_be_cores": (1, 2, 4),
    "set_llc_split": (1, 3, 6),
    "lower_be_frequency": (1, 3, 8),
    "set_be_net_ceil": (0.5, 2.0, 9.0),
    "straggler": (0.25, 0.5, 0.75, 1.0),
    "power_cap": (0.4, 0.7, 1.0),
    "partition": (5.0, 15.0, 30.0),
}

CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")
MEMBER_FLOAT_FIELDS = (
    "t_s", "load", "tail_latency_ms", "slo_fraction", "be_throughput_norm",
    "emu", "dram_bw_gbps", "dram_utilization", "cpu_utilization",
    "power_fraction_of_tdp", "lc_net_gbps", "be_net_gbps",
    "link_utilization",
)


class Divergence(AssertionError):
    """Two runs of the same spec disagreed."""


def gen_trace(rng: random.Random) -> TraceSpec:
    if rng.random() < 0.5:
        return TraceSpec(kind="constant",
                         load=rng.choice((0.3, 0.5, 0.7)))
    return TraceSpec(kind="diurnal", low=0.2,
                     high=rng.choice((0.6, 0.85)), period_s=120.0,
                     noise_sigma=0.0)


def gen_injection(rng: random.Random, duration: float,
                  cluster_leaves=None, n_members=None) -> InjectionSpec:
    action = rng.choice(CHAOS_EVENT_ACTIONS)
    value = (rng.choice(VALUE_GRIDS[action])
             if action in VALUE_GRIDS else None)
    at_s = float(rng.randrange(int(duration)))
    cluster = None
    leaf = None
    if cluster_leaves is not None:
        if rng.random() < 0.5:
            cluster = rng.choice(sorted(cluster_leaves))
            if rng.random() < 0.5:
                leaf = rng.randrange(cluster_leaves[cluster])
    elif rng.random() < 0.5:
        leaf = rng.randrange(n_members)
    return InjectionSpec(at_s=at_s, action=action, value=value,
                         cluster=cluster, leaf=leaf)


def gen_fleet_like(rng: random.Random) -> ScenarioSpec:
    clusters = tuple(
        ShardSpec(name=f"c{i}", leaves=rng.randint(2, 4),
                  lc=rng.choice(LCS),
                  be_mix=tuple(rng.sample(BES, rng.randint(1, 2))),
                  trace=gen_trace(rng),
                  managed=rng.random() < 0.5)
        for i in range(rng.randint(1, 2)))
    fleet = FleetSpec(clusters=clusters,
                      shard_leaves=rng.choice((2, 8)),
                      record_period_s=5.0)
    duration = float(rng.choice((40, 60)))
    cluster_leaves = {c.name: c.leaves for c in clusters}
    kwargs = dict(
        name="fuzz-fleet", duration_s=duration,
        dt_s=rng.choice((0.5, 1.0)),
        warmup_s=float(rng.choice((0, 10))),
        seed=rng.randint(0, 5),
        injections=tuple(gen_injection(rng, duration,
                                       cluster_leaves=cluster_leaves)
                         for _ in range(rng.randint(0, 5))))
    if rng.random() < 0.5:
        jobs = tuple(
            JobSpec(name=f"job{j}",
                    demand_core_s=float(rng.choice((40, 160))),
                    max_cores=rng.choice((1, 4)),
                    priority=rng.choice((0, 1)),
                    arrival_s=float(rng.choice((0, 15))),
                    count=rng.choice((1, 2)))
            for j in range(rng.randint(0, 2)))
        return ScenarioSpec(schedule=ScheduleSpec(fleet=fleet, jobs=jobs,
                                                  epoch_s=20.0),
                            **kwargs)
    return ScenarioSpec(fleet=fleet, **kwargs)


def gen_members(rng: random.Random) -> ScenarioSpec:
    n = rng.randint(1, 3)
    duration = 60.0
    members = tuple(
        WorkloadSpec(lc=rng.choice(LCS), be=rng.choice(BES),
                     trace=gen_trace(rng),
                     controller=rng.choice(CONTROLLERS))
        for _ in range(n))
    return ScenarioSpec(
        name="fuzz-members", duration_s=duration, warmup_s=15.0,
        seed=rng.randint(0, 5), members=members,
        injections=tuple(gen_injection(rng, duration, n_members=n)
                         for _ in range(rng.randint(0, 4))))


def run_with_jobs(spec: ScenarioSpec, jobs: int):
    saved = os.environ.get(JOBS_ENV)
    os.environ[JOBS_ENV] = str(jobs)
    try:
        return run_scenario(spec, processes=None)
    finally:
        if saved is None:
            os.environ.pop(JOBS_ENV, None)
        else:
            os.environ[JOBS_ENV] = saved


def with_fleet(spec: ScenarioSpec, **overrides) -> ScenarioSpec:
    if spec.schedule is not None:
        fleet = dataclasses.replace(spec.schedule.fleet, **overrides)
        return dataclasses.replace(
            spec, schedule=dataclasses.replace(spec.schedule, fleet=fleet))
    return dataclasses.replace(
        spec, fleet=dataclasses.replace(spec.fleet, **overrides))


def check_fleet_like(spec: ScenarioSpec) -> None:
    base = run_with_jobs(spec, 1)
    variants = (
        ("sharded shard=1 jobs=1",
         with_fleet(spec, engine="sharded", shard_leaves=1), 1),
        ("sharded shard=3 jobs=4",
         with_fleet(spec, engine="sharded", shard_leaves=3), 4),
        ("mega jobs=1", with_fleet(spec, engine="mega"), 1),
    )
    for what, variant, jobs in variants:
        got = run_with_jobs(variant, jobs)
        if got.fleet.summary(skip_s=spec.warmup_s) != \
                base.fleet.summary(skip_s=spec.warmup_s):
            raise Divergence(f"{what}: fleet summary diverged")
        for outcome in base.fleet.clusters:
            other = got.fleet.cluster(outcome.name)
            for name in CLUSTER_FIELDS:
                if not np.array_equal(other.history.column(name),
                                      outcome.history.column(name)):
                    raise Divergence(f"{what}: cluster {outcome.name!r} "
                                     f"column {name!r} diverged")
        if base.schedule is not None and \
                got.schedule.summary() != base.schedule.summary():
            raise Divergence(f"{what}: schedule summary diverged")


def check_members(spec: ScenarioSpec) -> None:
    batch_spec = dataclasses.replace(spec, engine="batch")
    first = run_scenario(batch_spec)
    second = run_scenario(batch_spec)
    for i, (a, b) in enumerate(zip(first.members, second.members)):
        for name in MEMBER_FLOAT_FIELDS:
            if not np.array_equal(a.history.column(name),
                                  b.history.column(name)):
                raise Divergence(f"member {i}: rerun column {name!r} "
                                 f"diverged")
    if len(spec.members) == 1:
        scalar = run_scenario(dataclasses.replace(spec, engine="scalar"))
        a = scalar.members[0].history
        b = first.members[0].history
        for name in MEMBER_FLOAT_FIELDS:
            try:
                np.testing.assert_allclose(a.column(name), b.column(name),
                                           rtol=1e-9, atol=1e-12)
            except AssertionError as exc:
                raise Divergence(f"scalar vs batch: column {name!r} "
                                 f"diverged") from exc


def check_spec(spec) -> None:
    """Dispatch one spec to the check its shape belongs to."""
    spec.validate()
    if spec.members:
        check_members(spec)
    else:
        check_fleet_like(spec)


def write_fail_file(spec, seed: int, index: int) -> str:
    """Persist a failing spec as a replayable scenario file.

    The file is plain ``ScenarioSpec.to_data()`` JSON — loadable by
    ``load_scenario`` and therefore by ``--replay`` — so a soak failure
    survives as an artifact instead of a scrollback ``repr``.
    """
    import json

    path = f"fuzz-fail-seed{seed}-ex{index}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec.to_data(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def replay(path: str) -> int:
    """Re-check one saved scenario file; 0 on pass, 1 on divergence."""
    from repro.scenarios import load_scenario

    spec = load_scenario(path)
    try:
        check_spec(spec)
    except Exception as exc:
        print(f"FAIL replaying {path}: {exc}", file=sys.stderr)
        print(f"spec: {spec!r}", file=sys.stderr)
        return 1
    print(f"OK: {path} replayed clean")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded scenario-fuzz soak (engine bit-identity)")
    parser.add_argument("--examples", type=int, default=200,
                        help="scenarios to generate (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    parser.add_argument("--shape", choices=("all", "fleet", "members"),
                        default="all",
                        help="restrict the generated scenario shapes")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="re-check one saved scenario file instead "
                             "of generating new ones")
    args = parser.parse_args(argv)
    if args.replay is not None:
        return replay(args.replay)

    rng = random.Random(args.seed)
    started = time.time()
    for index in range(args.examples):
        if args.shape == "fleet":
            fleet_like = True
        elif args.shape == "members":
            fleet_like = False
        else:
            fleet_like = rng.random() < 0.7
        spec = gen_fleet_like(rng) if fleet_like else gen_members(rng)
        try:
            check_spec(spec)
        except Exception as exc:
            print(f"FAIL at example {index} (seed {args.seed}): {exc}",
                  file=sys.stderr)
            fail_path = write_fail_file(spec, args.seed, index)
            print(f"spec saved to {fail_path}; reproduce with:\n"
                  f"  python tools/fuzz_scenarios.py --replay {fail_path}",
                  file=sys.stderr)
            return 1
        if (index + 1) % 25 == 0 or index + 1 == args.examples:
            rate = (index + 1) / (time.time() - started)
            print(f"  {index + 1}/{args.examples} scenarios ok "
                  f"({rate:.1f}/s)", flush=True)
    print(f"OK: {args.examples} scenarios, seed {args.seed}, "
          f"{time.time() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
