"""Fleet layer: simulation of thousands of servers.

Composes the pieces the earlier layers built — the array engine
(:class:`~repro.sim.megabatch.MegaFleetSim`), the process-pool sweep
runner, and the columnar telemetry stack — into a fleet abstraction:
many heterogeneous clusters that roll up into bit-exact per-cluster
histories plus fleet-level columns.  There is one fleet engine with
two packings: ``engine="sharded"`` partitions every cluster into
shards and packs them into one unit per pool worker, ``engine="mega"``
runs whole clusters as a single in-process unit.

Three entry points::

    from repro.fleet import ClusterPlan, ShardedFleetSim

    fleet = ShardedFleetSim([ClusterPlan(...), ...], shard_leaves=64)
    result = fleet.run(duration_s=12 * 3600.0)
    result.summary(skip_s=600.0)

Declaratively, the same fleets are scenario specs (``fleet:`` shape,
see ``docs/scenarios.md``) runnable as
``python -m repro.cli fleet <name-or-file>``.
"""

from .aggregate import (FleetSlackView, FleetTelemetry, LeafSlackView,
                        assemble_cluster, build_fleet_telemetry,
                        fleet_emu_row, reduce_leaf_epochs, rollup_cluster,
                        weighted_root_latency_row)
from .shard import (ShardResult, ShardTask, overlapping_seed_ranges,
                    pack_shards, partition_leaves)
from .simulator import (DEFAULT_SHARD_LEAVES, ClusterOutcome, ClusterPlan,
                        FleetResult, ShardedFleetSim)

__all__ = [
    "DEFAULT_SHARD_LEAVES",
    "ClusterOutcome", "ClusterPlan", "FleetResult",
    "FleetSlackView", "FleetTelemetry", "LeafSlackView",
    "ShardResult", "ShardTask", "ShardedFleetSim",
    "assemble_cluster", "build_fleet_telemetry", "fleet_emu_row",
    "overlapping_seed_ranges", "pack_shards", "partition_leaves",
    "reduce_leaf_epochs", "rollup_cluster", "weighted_root_latency_row",
]
