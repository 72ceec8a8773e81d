"""One leaf of the websearch cluster (§5.3).

Each leaf is a full server running websearch on its own shard plus BE
tasks under a local Heracles instance.  "Heracles runs on every leaf
node with a uniform 99%-ile latency target set such that the latency at
the root satisfies the SLO", and "shares the same offline model for the
DRAM bandwidth needs of websearch across all leaves, even though each
leaf has a different shard" — we reproduce the shared-model detail by
profiling once and handing every leaf the same (slightly stale for any
given shard) model.

A leaf is the scalar :class:`~repro.sim.engine.ColocationSim` under a
:class:`~repro.core.controller.HeraclesController`: the reference
:class:`~repro.cluster.cluster.WebsearchCluster` is built from them,
and the fleet engine's leaves (members of a
:class:`~repro.sim.batch.BatchColocationSim` under the vector
controller) are verified against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.controller import HeraclesController
from ..core.dram_model import LcDramBandwidthModel
from ..hardware.spec import MachineSpec
from ..sim.engine import ColocationSim, TickRecord
from ..workloads.best_effort import make_be_workload
from ..workloads.latency_critical import make_lc_workload
from ..workloads.traces import LoadTrace


@dataclass
class LeafConfig:
    """Static description of one leaf."""

    index: int
    be_name: str
    leaf_slo_ms: float
    seed: int


class Leaf:
    """One managed leaf server.

    Args:
        config: leaf identity, BE assignment, SLO target, noise seed.
        trace: shared cluster load trace.
        spec: machine description.
        shared_dram_model: the one offline model all leaves share.
        managed: attach a Heracles instance (False = baseline leaf).
    """

    def __init__(self, config: LeafConfig, trace: LoadTrace,
                 spec: MachineSpec,
                 shared_dram_model: Optional[LcDramBandwidthModel] = None,
                 managed: bool = True):
        self.config = config
        self.sim = ColocationSim(
            lc=make_leaf_lc(spec, config.leaf_slo_ms), trace=trace,
            be=make_be_workload(config.be_name, spec), spec=spec,
            seed=config.seed)
        self.controller = (HeraclesController.for_sim(
            self.sim, dram_model=shared_dram_model)
            if managed else None)

    def tick(self) -> TickRecord:
        """Advance this leaf by one second."""
        self.sim.tick()
        return self.sim.history.last()


def make_leaf_lc(spec: MachineSpec, leaf_slo_ms: float,
                 lc_name: str = "websearch"):
    """The LC instance every leaf runs: uniform leaf SLO target.

    One definition shared by standalone leaves and the fleet engine,
    so the leaf-SLO override can never diverge between them.  ``lc_name`` defaults to the §5.3
    websearch service; fleet clusters may shard any registered LC
    workload.
    """
    lc = make_lc_workload(lc_name, spec)
    lc.profile = _with_slo(lc.profile, leaf_slo_ms)
    return lc


def _with_slo(profile, slo_ms: float):
    """Copy an LC profile with a different SLO target.

    The leaf target only moves the controller's goalposts; the service
    time calibration (derived from the *service's* SLO) is already baked
    into the workload instance, so we adjust only the target the
    controller chases and the normalization used in reporting.
    """
    import dataclasses
    return dataclasses.replace(profile, slo_latency_ms=slo_ms)
