"""Hardware specifications for the simulated server.

The paper evaluates Heracles on production Google servers: dual-socket
Intel Xeons (Haswell) with a high core count, a nominal frequency of
2.3 GHz, 2.5 MB of LLC per core, and hardware support for way-partitioning
of the LLC (Intel CAT).  :class:`MachineSpec` captures everything the
simulation needs to know about such a machine; the default constructed by
:func:`default_machine_spec` mirrors the paper's hardware.

All values use explicit engineering units in their names (``_ghz``,
``_gbps``, ``_mb``, ``_watts``) so there is never ambiguity about scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class TurboSpec:
    """Frequency range of a socket, including dynamic overclocking.

    Modern chips opportunistically raise frequency above nominal when there
    is power headroom (Intel Turbo Boost).  The achievable turbo frequency
    falls as more cores are active; we model that with a linear droop from
    ``max_turbo_ghz`` (one active core) down to ``all_core_turbo_ghz``
    (all cores active).
    """

    nominal_ghz: float = 2.3
    max_turbo_ghz: float = 3.1
    all_core_turbo_ghz: float = 2.7
    min_ghz: float = 1.2
    step_ghz: float = 0.1  # per-core DVFS granularity (100 MHz steps, §4.1)

    def turbo_ceiling_ghz(self, active_cores: int, total_cores: int) -> float:
        """Maximum frequency permitted by the turbo tables.

        This is the electrical ceiling only; the power model may throttle
        below it when the socket nears TDP.
        """
        if active_cores <= 0:
            return self.max_turbo_ghz
        if total_cores <= 1:
            return self.max_turbo_ghz
        fraction = (active_cores - 1) / (total_cores - 1)
        span = self.max_turbo_ghz - self.all_core_turbo_ghz
        return self.max_turbo_ghz - span * min(1.0, max(0.0, fraction))

    def clamp_ghz(self, freq_ghz: float) -> float:
        """Clamp a frequency request to the valid DVFS range and step."""
        clamped = min(self.max_turbo_ghz, max(self.min_ghz, freq_ghz))
        steps = round(clamped / self.step_ghz)
        return round(steps * self.step_ghz, 10)


@dataclass(frozen=True)
class SocketSpec:
    """Static description of a single CPU socket and its local resources."""

    cores: int = 18
    threads_per_core: int = 2
    turbo: TurboSpec = dataclasses.field(default_factory=TurboSpec)
    llc_mb: float = 45.0  # 2.5 MB per core x 18 cores, matching the paper
    llc_ways: int = 20
    dram_bw_gbps: float = 60.0  # peak streaming bandwidth of local channels
    tdp_watts: float = 120.0
    idle_watts: float = 18.0  # uncore + package idle floor
    # Dynamic power coefficient: watts per core at nominal frequency with
    # activity factor 1.0.  Power scales ~ activity * f^3 / f_nominal^3.
    core_dynamic_watts: float = 5.2


@dataclass(frozen=True)
class NicSpec:
    """Network interface description."""

    link_gbps: float = 10.0


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of one server."""

    sockets: int = 2
    socket: SocketSpec = dataclasses.field(default_factory=SocketSpec)
    nic: NicSpec = dataclasses.field(default_factory=NicSpec)

    @property
    def total_cores(self) -> int:
        return self.sockets * self.socket.cores

    @property
    def total_llc_mb(self) -> float:
        return self.sockets * self.socket.llc_mb

    @property
    def total_dram_bw_gbps(self) -> float:
        return self.sockets * self.socket.dram_bw_gbps

    def structural_key(self) -> "MachineSpec":
        """This spec with DRAM bandwidth and NIC link rate set to 1.0:
        servers with equal keys can share one batch array program."""
        return dataclasses.replace(
            self, socket=dataclasses.replace(self.socket, dram_bw_gbps=1.0),
            nic=dataclasses.replace(self.nic, link_gbps=1.0))

    def validate(self) -> None:
        """Raise :class:`ValueError` if the specification is inconsistent."""
        if self.sockets < 1:
            raise ValueError("a machine needs at least one socket")
        s = self.socket
        if s.cores < 1:
            raise ValueError("a socket needs at least one core")
        if s.threads_per_core < 1:
            raise ValueError("threads_per_core must be >= 1")
        if s.llc_ways < 2:
            raise ValueError("LLC must have at least 2 ways to partition")
        if s.llc_mb <= 0 or s.dram_bw_gbps <= 0:
            raise ValueError("LLC size and DRAM bandwidth must be positive")
        if s.tdp_watts <= s.idle_watts:
            raise ValueError("TDP must exceed idle power")
        t = s.turbo
        if not (t.min_ghz <= t.nominal_ghz <= t.all_core_turbo_ghz
                <= t.max_turbo_ghz):
            raise ValueError("turbo frequencies must be ordered "
                             "min <= nominal <= all-core <= max")
        if self.nic.link_gbps <= 0:
            raise ValueError("link rate must be positive")


def default_machine_spec() -> MachineSpec:
    """The dual-socket Haswell-class server used throughout the paper."""
    spec = MachineSpec()
    spec.validate()
    return spec
