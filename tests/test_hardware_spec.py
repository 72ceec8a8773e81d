"""Tests for repro.hardware.spec: machine description and validation."""

import dataclasses

import pytest

from repro.hardware.spec import (MachineSpec, NicSpec, SocketSpec, TurboSpec,
                                 default_machine_spec)


class TestTurboSpec:
    def test_default_ordering(self):
        t = TurboSpec()
        assert t.min_ghz <= t.nominal_ghz <= t.all_core_turbo_ghz
        assert t.all_core_turbo_ghz <= t.max_turbo_ghz

    def test_ceiling_single_core_is_max_turbo(self):
        t = TurboSpec()
        assert t.turbo_ceiling_ghz(1, 18) == pytest.approx(t.max_turbo_ghz)

    def test_ceiling_all_cores_is_all_core_turbo(self):
        t = TurboSpec()
        assert t.turbo_ceiling_ghz(18, 18) == pytest.approx(
            t.all_core_turbo_ghz)

    def test_ceiling_monotone_in_active_cores(self):
        t = TurboSpec()
        values = [t.turbo_ceiling_ghz(n, 18) for n in range(1, 19)]
        assert values == sorted(values, reverse=True)

    def test_ceiling_zero_active_cores(self):
        t = TurboSpec()
        assert t.turbo_ceiling_ghz(0, 18) == pytest.approx(t.max_turbo_ghz)

    def test_ceiling_single_core_machine(self):
        t = TurboSpec()
        assert t.turbo_ceiling_ghz(1, 1) == pytest.approx(t.max_turbo_ghz)

    def test_clamp_to_range(self):
        t = TurboSpec()
        assert t.clamp_ghz(10.0) == pytest.approx(t.max_turbo_ghz)
        assert t.clamp_ghz(0.1) == pytest.approx(t.min_ghz)

    def test_clamp_quantizes_to_step(self):
        t = TurboSpec()
        clamped = t.clamp_ghz(2.349)
        assert clamped == pytest.approx(2.3)
        assert t.clamp_ghz(2.35) in (pytest.approx(2.3), pytest.approx(2.4))


class TestSocketSpec:
    def test_paper_llc_per_core(self):
        # 2.5 MB of LLC per core, per the paper's hardware description.
        s = SocketSpec()
        assert s.llc_mb / s.cores == pytest.approx(2.5)


class TestMachineSpec:
    def test_default_is_dual_socket(self):
        spec = default_machine_spec()
        assert spec.sockets == 2
        assert spec.total_cores == 36

    def test_totals(self):
        spec = default_machine_spec()
        assert spec.total_llc_mb == pytest.approx(90.0)
        assert spec.total_dram_bw_gbps == pytest.approx(120.0)

    def test_default_validates(self):
        default_machine_spec().validate()

    def test_rejects_zero_sockets(self):
        spec = dataclasses.replace(default_machine_spec(), sockets=0)
        with pytest.raises(ValueError):
            spec.validate()

    def test_rejects_single_way_llc(self):
        bad_socket = dataclasses.replace(SocketSpec(), llc_ways=1)
        spec = dataclasses.replace(default_machine_spec(), socket=bad_socket)
        with pytest.raises(ValueError):
            spec.validate()

    def test_rejects_idle_above_tdp(self):
        bad_socket = dataclasses.replace(SocketSpec(), idle_watts=500.0)
        spec = dataclasses.replace(default_machine_spec(), socket=bad_socket)
        with pytest.raises(ValueError):
            spec.validate()

    def test_rejects_unordered_turbo(self):
        bad_turbo = dataclasses.replace(TurboSpec(), max_turbo_ghz=1.0)
        bad_socket = dataclasses.replace(SocketSpec(), turbo=bad_turbo)
        spec = dataclasses.replace(default_machine_spec(), socket=bad_socket)
        with pytest.raises(ValueError):
            spec.validate()

    def test_rejects_zero_link(self):
        spec = dataclasses.replace(default_machine_spec(),
                                   nic=NicSpec(link_gbps=0.0))
        with pytest.raises(ValueError):
            spec.validate()

    def test_custom_machine(self):
        spec = MachineSpec(sockets=1, socket=SocketSpec(cores=8))
        spec.validate()
        assert spec.total_cores == 8
