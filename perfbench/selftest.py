#!/usr/bin/env python3
"""Checks that the benchmark itself can see what it claims to see.

Run from the repository root (about a quarter of an hour)::

    python3 perfbench/selftest.py

1. **Self-time arithmetic.**  Spans recorded on a fake clock around toy
   functions must fold into the exact calls, inclusive, self,
   in-tick and unattributed times worked out by hand, including a
   re-entrant group and one group called both inside and outside a
   scalar engine tick.
2. **Regression sensitivity.**  Every workload is measured with
   ``run.py``'s own loop, for ``run_seconds`` of ``BENCHMARK.json``
   per run, in :data:`PAIRS` pairs of runs: one as is, one with a 5 ms
   sleep injected into every span of the ``sched.place`` wrappers,
   the first of each pair alternating between the two.  The
   ``wall_s`` bound, applied to the median of each side, must flag
   exactly the workload that calls the scheduler (``backlog-1k``) and
   no other.  Pairs, not one run a side, because the speed of a
   shared host drifts over minutes: on a shared 2-vCPU VM, one run a
   side of raw wall times put an unchanged workload 28% apart.

Exits non-zero when either check fails.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.pycache_prefix = str(Path(__file__).resolve().parent / "out" / "pycache")
import run  # noqa: E402
import tracer as tracing  # noqa: E402

#: The span group the sensitivity check slows down, by how much per
#: call, and the workloads that call it.
GROUP = "sched.place"
DELAY_S = 0.005
USERS = {"backlog-1k"}

#: The seed of every sensitivity run.
SEED = 0

#: Runs per side of the sensitivity check, taken in alternating pairs.
PAIRS = 3


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def check_arithmetic() -> list:
    """Self/inclusive/unattributed times on a hand-computed span tree."""
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def child():
        clock.t += 2.0

    def resolve():
        clock.t += 0.5

    def parent():
        clock.t += 1.0
        traced_child()
        clock.t += 3.0
        traced_child()
        traced_resolve()      # not inside a sim.engine.tick

    def tick():
        clock.t += 0.25
        traced_resolve()      # inside a sim.engine.tick

    def recurse(depth):
        clock.t += 1.0
        if depth:
            traced_recurse(depth - 1)

    traced_child = tr.wrap("core.controller", child)
    traced_parent = tr.wrap("sim.batch.tick", parent)
    traced_resolve = tr.wrap("hardware.resolve", resolve)
    traced_tick = tr.wrap("sim.engine.tick", tick)
    traced_recurse = tr.wrap("sim.batch.init", recurse)

    clock.t = 10.0
    traced_parent()           # 1 + 2 + 3 + 2 + 0.5 = 8.5 s
    clock.t += 5.0            # unattributed
    traced_tick()             # 0.25 + 0.5 = 0.75 s
    traced_recurse(2)         # 3 nested spans, 3 s outermost
    wall = clock.t - 10.0     # 17.25 s
    got = tr.summary(wall_s=wall)
    expected = {
        "sim.batch.tick": {"calls": 1, "inclusive_s": 8.5, "self_s": 4.0,
                           "calls_tick": 0},
        "core.controller": {"calls": 2, "inclusive_s": 4.0, "self_s": 4.0},
        "hardware.resolve": {"calls": 2, "inclusive_s": 1.0, "self_s": 1.0,
                             "calls_tick": 1, "inclusive_tick_s": 0.5},
        "sim.engine.tick": {"calls": 1, "inclusive_s": 0.75,
                            "self_s": 0.25, "calls_tick": 0},
        "sim.batch.init": {"calls": 1, "inclusive_s": 3.0, "self_s": 3.0},
        "": {"unattributed_s": 5.0, "unattributed_frac": 5.0 / 17.25},
    }
    failures = []
    for group, numbers in expected.items():
        for key, value in numbers.items():
            if abs(got[group][key] - value) > 1e-12:
                failures.append(f"{group or 'unattributed'}.{key}: "
                                f"{got[group][key]} != {value}")
    return failures


def check_sensitivity() -> list:
    """Injected slowdown flags exactly the workloads using :data:`GROUP`."""
    bench = run.load_benchmark()
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "wall_s")
    reference = json.loads(run.REFERENCE.read_text())
    run.OUT.mkdir(exist_ok=True)
    seconds = bench["run_seconds"]
    slow = f"{GROUP}={DELAY_S}"
    failures = []
    print(f"sensitivity: {DELAY_S * 1e3:g} ms per {GROUP} call, "
          f"wall_s bound {bound:.0%}")
    for workload in sorted(run.workloads.PARAMS):
        walls = {None: [], slow: []}
        for pair in range(PAIRS):
            for delay in (None, slow) if pair % 2 == 0 else (slow, None):
                runner = run.Runner(workload, SEED,
                                    time.perf_counter() + run.HARD_LIMIT_S,
                                    reference, delay=delay)
                measured = run.measure(runner, seconds)
                if measured and not runner.failed:
                    walls[delay].append(measured["metrics"]["wall_s"])
                else:
                    failures.append(f"{workload}: runs failed: "
                                    f"{runner.errors}")
        if min(len(w) for w in walls.values()) < PAIRS:
            continue
        base, slowed = run.median(walls[None]), run.median(walls[slow])
        flagged = slowed > base * (1.0 + bound)
        uses = workload in USERS
        print(f"  {workload:<14} wall_s {base:7.3f} -> {slowed:7.3f} s "
              f"({slowed / base - 1.0:+.1%}): "
              f"{'flagged' if flagged else 'not flagged'}"
              f"{'' if flagged == uses else '  <-- WRONG'}")
        if flagged != uses:
            failures.append(f"{workload}: flagged={flagged}, but it "
                            f"{'calls' if uses else 'never calls'} {GROUP}")
    return failures


def main() -> int:
    failures = check_arithmetic()
    print(f"self-time arithmetic: {'ok' if not failures else 'FAILED'}")
    failures += check_sensitivity()
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
