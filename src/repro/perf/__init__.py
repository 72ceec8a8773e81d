"""Performance models: queueing tails, the saturation knee, interference."""

from .interference import (InterferenceSensitivity, be_throughput_efficiency,
                           network_latency_factor, service_inflation)
from .queueing import QueueModel, erlang_c
from .saturation import knee_penalty

__all__ = [
    "InterferenceSensitivity", "be_throughput_efficiency",
    "network_latency_factor", "service_inflation",
    "QueueModel", "erlang_c", "knee_penalty",
]
