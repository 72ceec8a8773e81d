"""Baseline policies Heracles is compared against: static partitions
that run as start-up actuator events."""

from .static import (StaticPartitionController, conservative_static,
                     optimistic_static)

#: Scenario-selectable baselines: name -> factory(machine spec).  The
#: scenario compiler resolves ``controller: static-*`` spec values
#: through this table and schedules the grant's
#: :meth:`~StaticPartitionController.events`, so new baselines become
#: spec-addressable by registering here.
SCENARIO_BASELINES = {
    "static-conservative": conservative_static,
    "static-optimistic": optimistic_static,
}


__all__ = [
    "StaticPartitionController", "conservative_static", "optimistic_static",
    "SCENARIO_BASELINES",
]
