"""Centralized cluster coordinator — the paper's §5.3 future work.

"We believe we can further reduce the slack in larger websearch
clusters by introducing a centralized controller that dynamically sets
the per-leaf tail latency targets based on slack at the root [47].
This will allow a future version of Heracles to take advantage of
slack in higher layers of the fan-out tree."

:class:`ClusterCoordinator` implements exactly that: it watches the
root's windowed latency against the cluster SLO and scales every leaf's
latency target up when the root has spare slack (letting leaf Heracles
instances colocate more aggressively) and back down when root slack
thins.  Targets are clamped to a safe band around the uniform baseline
target.
"""

from __future__ import annotations

from typing import Optional


class ClusterCoordinator:
    """Dynamic per-leaf latency targets driven by root slack."""

    def __init__(self, root_slo_ms: float, base_leaf_slo_ms: float,
                 period_s: float = 30.0,
                 raise_slack: float = 0.25,
                 lower_slack: float = 0.10,
                 step: float = 0.05,
                 min_scale: float = 0.85,
                 max_scale: float = 1.10):
        if root_slo_ms <= 0 or base_leaf_slo_ms <= 0:
            raise ValueError("SLO targets must be positive")
        if not 0.0 <= lower_slack < raise_slack <= 1.0:
            raise ValueError("need lower_slack < raise_slack in [0, 1]")
        if not 0.0 < min_scale <= 1.0 <= max_scale:
            raise ValueError("scale band must bracket 1.0")
        if step <= 0:
            raise ValueError("step must be positive")
        self.root_slo_ms = root_slo_ms
        self.base_leaf_slo_ms = base_leaf_slo_ms
        self.period_s = period_s
        self.raise_slack = raise_slack
        self.lower_slack = lower_slack
        self.step = step
        self.min_scale = min_scale
        self.max_scale = max_scale
        self._scale = 1.0
        self._last_step_s: Optional[float] = None

    @property
    def scale(self) -> float:
        return self._scale

    @property
    def leaf_target_ms(self) -> float:
        return self.base_leaf_slo_ms * self._scale

    def step_targets(self, now_s: float, root_latency_ms: float) -> float:
        """Update the per-leaf target from the root's windowed latency.

        Returns the (possibly unchanged) leaf target.
        """
        if (self._last_step_s is not None
                and now_s - self._last_step_s < self.period_s):
            return self.leaf_target_ms
        self._last_step_s = now_s
        slack = (self.root_slo_ms - root_latency_ms) / self.root_slo_ms
        if slack > self.raise_slack:
            self._scale = min(self.max_scale, self._scale + self.step)
        elif slack < self.lower_slack:
            self._scale = max(self.min_scale, self._scale - self.step)
        return self.leaf_target_ms

    def apply_to_cluster(self, cluster) -> None:
        """Push the current target into every leaf's ``HeraclesController``
        (baseline leaves carry none)."""
        target = self.leaf_target_ms
        for leaf in cluster.leaves:
            if leaf.controller is None:
                continue
            leaf.controller.top_level.slo_target_ms = target
            leaf.controller.core_memory.slo_target_ms = target


class CoordinatedWebsearchCluster:
    """A websearch cluster with the centralized coordinator enabled.

    Runs on the scalar :class:`~repro.cluster.cluster.WebsearchCluster`,
    whose per-leaf ``HeraclesController`` objects take the coordinator's
    targets, like every other object-controller extension.
    """

    def __init__(self, leaves: int = 12, **cluster_kwargs):
        from .cluster import WebsearchCluster
        self.cluster = WebsearchCluster(leaves=leaves, **cluster_kwargs)
        self.coordinator = ClusterCoordinator(
            root_slo_ms=self.cluster.root_slo_ms,
            base_leaf_slo_ms=self.cluster.leaf_slo_ms)

    def run(self, duration_s: float, dt_s: float = 1.0):
        """Run the coordinated cluster for ``duration_s`` seconds.

        The step count derives from the tick size — ``duration_s /
        dt_s`` ticks, like every other ``run()`` — so coordinated runs
        simulate the requested duration and step targets at the right
        cadence for any ``dt_s`` (the historical loop hardcoded
        1-second ticks and truncated fractional durations).
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        cluster = self.cluster
        steps = int(round(duration_s / dt_s))
        for _ in range(steps):
            cluster.tick(dt_s)
            try:
                root_latency = cluster.root.windowed_latency_ms()
            except ValueError:
                continue
            before = self.coordinator.leaf_target_ms
            after = self.coordinator.step_targets(cluster.time_s,
                                                  root_latency)
            if after != before:
                self.coordinator.apply_to_cluster(cluster)
        return cluster.history
