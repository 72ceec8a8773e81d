"""Actuation surface: the knobs a controller may turn.

This is the write-side counterpart of :class:`~repro.hardware.counters.
CounterBank`: cores (cpuset), LLC ways (CAT), BE frequency (per-core
DVFS), BE egress ceiling (HTB), and BE enable/disable.  The engine owns
the placement state; controllers mutate it only through this interface,
mirroring how the real Heracles drives cgroups, MSRs, and ``tc``.

Placement invariants enforced here:

* LC and BE cpusets are always disjoint sets of *physical* cores (no
  HyperThread sharing — §3 shows that is never safe).
* The LC workload always keeps at least one core.
* LLC way assignments never overlap and never exceed the cache.
"""

from __future__ import annotations

from typing import Optional

from ..hardware.server import Server
from ..hardware.spec import MachineSpec
from ..oslayer.traffic_control import HtbQdisc
from ..workloads.base import Allocation

#: CAT class names used by Heracles (one LC partition, one BE partition).
LC_COS = "lc"
BE_COS = "be"

#: Cores the LC workload always keeps.
MIN_LC_CORES = 1
#: BE share of the LLC on (re)admission: "one core and 10% of the LLC"
#: (§4.3).
INITIAL_BE_LLC_FRACTION = 0.10
#: MBA throttle ladder: each step scales the BE DRAM request rate by
#: ``MBA_THROTTLE_STEP`` (or undoes one such step), never below
#: ``MBA_THROTTLE_FLOOR`` (Intel MBA bottoms out around 10-20%).
MBA_THROTTLE_STEP = 0.85
MBA_THROTTLE_FLOOR = 0.10


class Actuators:
    """Mutable placement state for one LC + one BE group on a server."""

    def __init__(self, server: Server, min_lc_llc_ways: int = 1):
        self.server = server
        self.spec: MachineSpec = server.spec
        if not 1 <= min_lc_llc_ways <= server.spec.socket.llc_ways - 1:
            raise ValueError("LC way floor must leave at least one way "
                             "for BE")
        # Floor on the LC cache partition, normally derived from the
        # offline profile (enough ways to keep the hot working set —
        # instructions and hot data — resident).
        self.min_lc_llc_ways = min_lc_llc_ways
        self.htb = HtbQdisc(self.spec.nic.link_gbps)
        self.htb.add_class(LC_COS, ceil_gbps=None)
        self.htb.add_class(BE_COS, ceil_gbps=None)
        self._be_cores = 0
        self._be_enabled = False
        self._be_dvfs_cap: Optional[float] = None
        self._be_dram_throttle = 1.0
        # CAT: start with everything owned by LC.
        total_ways = self.spec.socket.llc_ways
        self._lc_ways = total_ways
        self._be_ways = 0
        self._apply_cat()

    # ------------------------------------------------------------------
    # Cores
    # ------------------------------------------------------------------

    @property
    def be_cores(self) -> int:
        return self._be_cores if self._be_enabled else 0

    @property
    def lc_cores(self) -> int:
        return self.spec.total_cores - self.be_cores

    def set_be_cores(self, count: int) -> int:
        """Set the BE core count, clamped to keep the LC minimum."""
        maximum = self.spec.total_cores - MIN_LC_CORES
        self._be_cores = max(0, min(int(count), maximum))
        return self._be_cores

    def add_be_core(self) -> bool:
        """Move one core from LC to BE; False if LC is at its minimum."""
        if self._be_cores >= self.spec.total_cores - MIN_LC_CORES:
            return False
        self._be_cores += 1
        return True

    def remove_be_cores(self, count: int) -> int:
        """Return up to ``count`` cores from BE to LC; returns removed."""
        removed = min(max(0, int(count)), self._be_cores)
        self._be_cores -= removed
        return removed

    # ------------------------------------------------------------------
    # LLC (CAT)
    # ------------------------------------------------------------------

    @property
    def be_llc_ways(self) -> int:
        return self._be_ways if self._be_enabled else 0

    @property
    def lc_llc_ways(self) -> int:
        return self.spec.socket.llc_ways - self.be_llc_ways

    def set_llc_split(self, be_ways: int) -> int:
        """Assign ``be_ways`` ways to BE (LC gets the rest), clamped so
        the LC partition never drops below its hot-working-set floor."""
        total = self.spec.socket.llc_ways
        be_ways = max(0, min(int(be_ways), total - self.min_lc_llc_ways))
        self._be_ways = be_ways
        self._lc_ways = total - be_ways
        self._apply_cat()
        return self._be_ways

    def grow_be_llc(self, ways: int = 1) -> bool:
        if self._be_ways + ways > self.spec.socket.llc_ways - 1:
            return False
        self.set_llc_split(self._be_ways + ways)
        return True

    def shrink_be_llc(self, ways: int = 1) -> bool:
        if self._be_ways < ways:
            return False
        self.set_llc_split(self._be_ways - ways)
        return True

    def _apply_cat(self) -> None:
        for cat in self.server.cat.values():
            # Clear then set to avoid transient overflow.
            cat.set_partition(LC_COS, 0)
            cat.set_partition(BE_COS, 0)
            cat.set_partition(LC_COS, self._lc_ways)
            cat.set_partition(BE_COS, self._be_ways)

    # ------------------------------------------------------------------
    # DVFS
    # ------------------------------------------------------------------

    @property
    def be_dvfs_cap_ghz(self) -> Optional[float]:
        return self._be_dvfs_cap

    def lower_be_frequency(self, steps: int = 1) -> float:
        """Step the BE frequency cap down (Algorithm 3's LowerFrequency)."""
        turbo = self.spec.socket.turbo
        current = (self._be_dvfs_cap if self._be_dvfs_cap is not None
                   else turbo.max_turbo_ghz)
        self._be_dvfs_cap = turbo.clamp_ghz(current - steps * turbo.step_ghz)
        return self._be_dvfs_cap

    def raise_be_frequency(self, steps: int = 1) -> Optional[float]:
        """Step the BE frequency cap up; clears the cap at max turbo."""
        if self._be_dvfs_cap is None:
            return None
        turbo = self.spec.socket.turbo
        raised = self._be_dvfs_cap + steps * turbo.step_ghz
        if raised >= turbo.max_turbo_ghz - 1e-9:
            self._be_dvfs_cap = None
        else:
            self._be_dvfs_cap = turbo.clamp_ghz(raised)
        return self._be_dvfs_cap

    # ------------------------------------------------------------------
    # DRAM bandwidth throttle (MBA — see repro.core.mba)
    # ------------------------------------------------------------------

    @property
    def be_dram_throttle(self) -> float:
        return self._be_dram_throttle

    def lower_be_dram_throttle(self) -> float:
        """Tighten the BE DRAM request-rate throttle one step, down to
        ``MBA_THROTTLE_FLOOR``."""
        self._be_dram_throttle = max(
            MBA_THROTTLE_FLOOR, self._be_dram_throttle * MBA_THROTTLE_STEP)
        return self._be_dram_throttle

    def raise_be_dram_throttle(self) -> float:
        """Relax the throttle one step; saturates at 1.0 (unthrottled)."""
        self._be_dram_throttle = min(
            1.0, self._be_dram_throttle / MBA_THROTTLE_STEP)
        return self._be_dram_throttle

    def set_be_dram_throttle(self, value: float) -> float:
        """Set the throttle directly (controller rollback path)."""
        if not 0.0 < value <= 1.0:
            raise ValueError("throttle must be in (0, 1]")
        self._be_dram_throttle = value
        return self._be_dram_throttle

    # ------------------------------------------------------------------
    # Network (HTB)
    # ------------------------------------------------------------------

    def set_be_net_ceil(self, gbps: Optional[float]) -> None:
        self.htb.set_ceil(BE_COS, gbps)

    @property
    def be_net_ceil_gbps(self) -> Optional[float]:
        return self.htb.ceil_of(BE_COS)

    # ------------------------------------------------------------------
    # BE lifecycle
    # ------------------------------------------------------------------

    @property
    def be_enabled(self) -> bool:
        return self._be_enabled

    def enable_be(self) -> None:
        """(Re)admit BE tasks: one core and 10% of the LLC (§4.3)."""
        if self._be_enabled:
            return
        self._be_enabled = True
        self.set_be_cores(1)
        initial_ways = max(1, round(INITIAL_BE_LLC_FRACTION
                                    * self.spec.socket.llc_ways))
        self.set_llc_split(initial_ways)

    def disable_be(self) -> None:
        """Evict BE tasks; all resources return to the LC workload."""
        self._be_enabled = False
        self._be_cores = 0
        self.set_llc_split(0)
        self._be_dvfs_cap = None
        self._be_dram_throttle = 1.0
        self.set_be_net_ceil(None)

    # ------------------------------------------------------------------
    # Allocation views (consumed by the engine)
    # ------------------------------------------------------------------

    def _core_split(self) -> tuple:
        """Consistent (lc, be) per-socket core partition.

        Each BE *task* is bound to a single socket for cores and memory
        (the numactl policy of §4.3), but Heracles "attempts to run as
        many copies of the BE task as possible" and "different BE jobs
        can run on either socket" — so the aggregate BE core pool
        spreads across sockets, one job per socket, which also balances
        BE DRAM traffic across memory controllers.  LC owns the
        complement, so the cpusets are disjoint by construction.
        """
        be = {s: 0 for s in range(self.spec.sockets)}
        left = self.be_cores
        for _ in range(left):
            # Round-robin, fullest-last: keeps per-socket counts within 1.
            target = min(range(self.spec.sockets),
                         key=lambda s: (be[s], s))
            if be[target] >= self.spec.socket.cores:
                break
            be[target] += 1
        lc = {s: self.spec.socket.cores - be[s]
              for s in range(self.spec.sockets)}
        return lc, be

    def lc_allocation(self) -> Allocation:
        lc, _ = self._core_split()
        return Allocation(
            cores_by_socket={s: n for s, n in lc.items() if n > 0},
            cache_cos=LC_COS,
            dvfs_cap_ghz=None,
            net_ceil_gbps=self.htb.ceil_of(LC_COS),
        )

    def be_allocation(self) -> Allocation:
        if not self.be_enabled or self.be_cores == 0:
            return Allocation(cores_by_socket={})
        _, be = self._core_split()
        return Allocation(
            cores_by_socket={s: n for s, n in be.items() if n > 0},
            cache_cos=BE_COS,
            dvfs_cap_ghz=self._be_dvfs_cap,
            net_ceil_gbps=self.htb.ceil_of(BE_COS),
            dram_throttle=self._be_dram_throttle,
        )
