"""Declarative scenario layer: compose colocation experiments from specs.

The paper's evaluation is a fixed grid of LC x BE colocations; this
subsystem generalizes it.  A :class:`ScenarioSpec` — written as a dict,
a JSON/YAML file, or in code — describes hardware overrides, any mix of
LC/BE members with per-member traces and seeds, controller selection
(Heracles, none, or a static baseline), mid-run injections, sweep
grids, and cluster runs; :func:`compile_scenario` lowers it onto the
scalar engine, the batched backend, or the fleet simulator.

Three entry points::

    from repro.scenarios import load_scenario, run_scenario, registry

    spec = load_scenario("my_experiment.yaml")   # file or dict
    result = run_scenario(spec)                  # compile + execute
    print(result.render())

    registry.names()                             # shipped scenarios
    run_scenario(registry.get("fig4"))           # the paper's Figure 4

Schema reference: ``docs/scenarios.md``.  CLI:
``python -m repro.cli scenario <name-or-file>``.
"""

from . import library  # noqa: F401  (registers the shipped scenarios)
from . import registry
from .compiler import (CompiledScenario, MemberResult, ScenarioResult,
                       compile_scenario, run_scenario)
from .loader import load_scenario, loads_scenario, parse_simple_yaml
from .spec import (CONTROLLERS, CheckpointSpec, ClusterSpec, FleetSpec,
                   InjectionSpec, JobSpec, ScenarioError, ScenarioSpec,
                   ScheduleSpec, ServerSpec, ShardSpec, SpikeSpec,
                   SweepSpec, TraceSpec, WorkloadSpec)

__all__ = [
    "CONTROLLERS",
    "CheckpointSpec", "ClusterSpec", "FleetSpec", "InjectionSpec",
    "JobSpec",
    "ScenarioError", "ScenarioSpec", "ScheduleSpec", "ServerSpec",
    "ShardSpec", "SpikeSpec", "SweepSpec", "TraceSpec", "WorkloadSpec",
    "CompiledScenario", "MemberResult",
    "ScenarioResult", "compile_scenario", "run_scenario",
    "load_scenario", "loads_scenario", "parse_simple_yaml",
    "registry",
]
