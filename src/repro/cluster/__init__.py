"""Websearch fan-out cluster for the §5.3 evaluation."""

from .cluster import ClusterHistory, ClusterRecord, WebsearchCluster
from .coordinator import ClusterCoordinator, CoordinatedWebsearchCluster
from .leaf import Leaf, LeafConfig
from .root import RootAggregator, RootSample

__all__ = [
    "ClusterHistory", "ClusterRecord", "WebsearchCluster",
    "ClusterCoordinator", "CoordinatedWebsearchCluster",
    "Leaf", "LeafConfig",
    "RootAggregator", "RootSample",
]
