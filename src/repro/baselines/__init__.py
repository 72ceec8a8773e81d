"""Baseline policies Heracles is compared against: OS isolation and
static partitions."""

from .os_isolation import (OsIsolationPoint, os_isolation_sweep,
                           violates_everywhere)
from .static import (StaticPartitionController, conservative_static,
                     optimistic_static)

#: Scenario-selectable baseline controllers: name -> factory(actuators).
#: The scenario compiler resolves ``controller: static-*`` spec values
#: through this table, so new baselines become spec-addressable by
#: registering here.
SCENARIO_BASELINES = {
    "static-conservative": conservative_static,
    "static-optimistic": optimistic_static,
}


def baseline_for_sim(name: str, sim) -> StaticPartitionController:
    """Attach the named static baseline controller to a sim.

    Args:
        name: a key of :data:`SCENARIO_BASELINES`.
        sim: a :class:`~repro.sim.engine.ColocationSim` or batch member
            (anything with ``actuators`` and ``attach_controller``).

    Returns:
        The attached controller.
    """
    try:
        factory = SCENARIO_BASELINES[name]
    except KeyError:
        raise KeyError(f"unknown baseline {name!r}; choose from "
                       f"{', '.join(sorted(SCENARIO_BASELINES))}") from None
    controller = factory(sim.actuators)
    sim.attach_controller(controller)
    return controller


__all__ = [
    "OsIsolationPoint", "os_isolation_sweep", "violates_everywhere",
    "StaticPartitionController", "conservative_static", "optimistic_static",
    "SCENARIO_BASELINES", "baseline_for_sim",
]
