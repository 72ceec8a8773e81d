"""Performance-counter facade: the only window the controller gets.

Heracles is deliberately built on *observable* quantities: application
tail latency and load (reported by the LC service itself), DRAM bandwidth
registers, RAPL power, per-core frequency, and per-class network transmit
counters.  :class:`CounterBank` exposes exactly that surface over a
:class:`~repro.hardware.server.Server`, so the controller code cannot
accidentally peek at simulation internals the real system could not see.
"""

from __future__ import annotations

from typing import Optional

from .server import Server


class CounterBank:
    """Read-only hardware telemetry for one server."""

    def __init__(self, server: Server):
        self._server = server

    # -- DRAM ----------------------------------------------------------

    def socket_dram_capacity_gbps(self) -> float:
        """Peak streaming bandwidth of one socket's channels."""
        return self._server.spec.socket.dram_bw_gbps

    def dram_utilization(self) -> float:
        """Worst-socket channel utilization in [0, 1]."""
        return self._server.telemetry.max_dram_utilization

    def worst_socket_dram_bw_gbps(self) -> float:
        """Traffic on the busiest socket's controllers.

        DRAM saturation is a per-controller phenomenon: a BE job packed
        onto one socket can saturate that socket's channels while the
        machine-wide total looks healthy."""
        return max((s.dram_achieved_gbps
                    for s in self._server.telemetry.sockets), default=0.0)

    def dram_bw_of(self, task: str) -> float:
        """Per-task bandwidth estimate.

        The real chips lack per-core DRAM accounting; Heracles
        approximates it from NUMA-local counters (§4.3).  We model the
        same estimate with multiplicative noise injected by the engine;
        here we return the resolved value.
        """
        try:
            return self._server.usage_of(task).dram_achieved_gbps
        except KeyError:
            return 0.0

    # -- Power / frequency ----------------------------------------------

    def socket_power_watts(self, socket: int) -> float:
        return self._server.rapl[socket].read_watts()

    def power_fraction_of_tdp(self, socket: int) -> float:
        return self._server.rapl[socket].read_fraction_of_tdp()

    def max_power_fraction_of_tdp(self) -> float:
        return max(self.power_fraction_of_tdp(s)
                   for s in range(self._server.spec.sockets))

    def freq_of(self, task: str) -> Optional[float]:
        """Average achieved frequency of a task's cores, GHz."""
        try:
            return self._server.usage_of(task).freq_ghz
        except KeyError:
            return None

    # -- Network ---------------------------------------------------------

    def link_rate_gbps(self) -> float:
        return self._server.spec.nic.link_gbps

    def tx_gbps_of(self, task: str) -> float:
        try:
            return self._server.usage_of(task).net_achieved_gbps
        except KeyError:
            return 0.0

    def link_tx_gbps(self) -> float:
        return self._server.telemetry.link_tx_gbps

    # -- CPU -------------------------------------------------------------

    def cpu_utilization(self) -> float:
        return self._server.telemetry.cpu_utilization
