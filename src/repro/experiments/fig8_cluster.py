"""Figure 8: the 12-hour websearch cluster under Heracles.

Tens of leaves behind a fan-out root, a diurnal 20%-90% load trace,
brain on half the leaves and streetview on the other half.  Reported:

* root latency (µ/30s) vs the cluster SLO, baseline and Heracles — the
  paper shows no violations and slack reduced by 20-30%;
* cluster EMU over the trace — "an average EMU of 90% and a minimum of
  80%" for the paper's hardware; our simulated substrate lands close
  (~0.8 average) with the same no-violation property.

The two arms run as one fleet on the array engine, one cluster per
arm (see :mod:`repro.sim.megabatch`): on one worker every leaf of
both arms advances per tick as one vectorized step, and on two
workers each arm is its own unit.  No leaf's controller looks at
another leaf, so the per-leaf scalar loop,
:class:`~repro.cluster.cluster.WebsearchCluster`, is the reference
every arm is bit-identical to under either packing.

The full-fidelity run is 12 simulated hours; ``time_compression``
shrinks the trace period for quick looks (controller dynamics stay at
real speed, so heavy compression makes the controller look artificially
sluggish — use 1 for the faithful experiment).

This module is a thin consumer of the scenario layer: the two-arm run
is the registered ``fig8`` scenario (see
:func:`repro.scenarios.library.fig8_scenario`), and ``python -m
repro.cli fig8`` and ``python -m repro.cli scenario fig8`` run the
same compiled spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster.cluster import ClusterHistory
from ..scenarios import compile_scenario, registry
from ..scenarios.library import fig8_scenario


@dataclass
class Fig8Result:
    """Both cluster arms plus the derived headline metrics."""

    managed: ClusterHistory
    baseline: ClusterHistory
    root_slo_ms: float

    @property
    def heracles_max_slo(self) -> float:
        """Worst root-latency SLO fraction under Heracles."""
        return self.managed.max_root_slo_fraction(skip_s=600.0)

    @property
    def baseline_max_slo(self) -> float:
        """Worst root-latency SLO fraction without colocation."""
        return self.baseline.max_root_slo_fraction(skip_s=600.0)

    @property
    def heracles_mean_emu(self) -> float:
        """Mean cluster EMU under Heracles."""
        return self.managed.mean_emu(skip_s=600.0)

    @property
    def baseline_mean_emu(self) -> float:
        """Mean cluster EMU without colocation."""
        return self.baseline.mean_emu(skip_s=600.0)


def run_fig8(leaves: int = 12,
             duration_s: float = 12 * 3600.0,
             time_compression: float = 1.0,
             seed: int = 7,
             processes: Optional[int] = None) -> Fig8Result:
    """Run the cluster trace with and without Heracles.

    Compiles a parametrized ``fig8`` scenario spec and runs it as one
    fleet with a cluster per arm: one worker runs both arms as one
    array, two workers run the arms concurrently.

    Args:
        leaves / duration_s / time_compression / seed:
            forwarded to :func:`repro.scenarios.library.fig8_scenario`.
        processes: fleet worker count (``None`` = auto).

    Returns:
        The populated :class:`Fig8Result`.
    """
    scenario = fig8_scenario(leaves=leaves, duration_s=duration_s,
                             time_compression=time_compression, seed=seed)
    result = compile_scenario(scenario).run(processes=processes)
    return Fig8Result(managed=result.cluster_arms["managed"],
                      baseline=result.cluster_arms["baseline"],
                      root_slo_ms=result.root_slo_ms)


def main(leaves: Optional[int] = None) -> None:
    """Regenerate the Figure 8 report (the registered ``fig8`` scenario).

    Args:
        leaves: override the registered scenario's leaf count (the CLI
            exposes this as ``--leaves``; validated by the spec, so
            zero or negative counts fail loudly).
    """
    spec = registry.get("fig8") if leaves is None \
        else fig8_scenario(leaves=leaves)
    print(compile_scenario(spec).run().render(), end="")


if __name__ == "__main__":
    main()
