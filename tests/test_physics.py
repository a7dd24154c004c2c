"""Scattering-length map, Fermi-gas relations, and the separation threshold."""

import math
from dataclasses import replace

import pytest

from mixsep.config import default_config
from mixsep.constants import A_BOHR, HBAR
from mixsep.errors import NonPositiveInput, PoleAtResonance
from mixsep.physics import (
    POLE_EPS,
    SpeciesParams,
    coupling_bb,
    coupling_bf,
    critical_scattering_length,
    fermi_wavenumber,
    healing_length,
    is_phase_separated,
    scattering_length,
)

RES = default_config().resonance


class TestFeshbachMap:
    def test_below_resonance_value(self):
        # a_bg * (1 - 0.949 / (-0.1)) = 60.9 * 10.49 a0 = 638.841 a0
        a = scattering_length(RES, RES.b0 - 0.1)
        assert a / A_BOHR == pytest.approx(638.841, rel=1e-10)

    def test_zero_crossing_at_b0_plus_delta(self):
        a = scattering_length(RES, RES.b0 + RES.delta)
        assert abs(a / A_BOHR) < 1e-9

    def test_above_resonance_is_attractive(self):
        a = scattering_length(RES, RES.b0 + 0.2)
        assert a / A_BOHR == pytest.approx(-228.0705, rel=1e-10)

    def test_far_detuning_approaches_background(self):
        a = scattering_length(RES, RES.b0 + 5000.0)
        assert a == pytest.approx(RES.a_bg, rel=1e-3)

    def test_pole_guard(self):
        with pytest.raises(PoleAtResonance):
            scattering_length(RES, RES.b0 + 0.5 * POLE_EPS)

    def test_zero_width_rejected(self):
        with pytest.raises(NonPositiveInput):
            replace(RES, delta=0.0)


class TestFermiGas:
    def test_wavenumber_definition(self):
        n = 1.2e18  # m^-3
        assert fermi_wavenumber(n) == pytest.approx(
            (6.0 * math.pi**2 * n) ** (1.0 / 3.0), rel=1e-14
        )

    def test_wavenumber_frozen_value(self):
        assert fermi_wavenumber(1.2e18) == pytest.approx(4142006.225, rel=1e-9)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(NonPositiveInput):
            fermi_wavenumber(0.0)


class TestCouplings:
    def test_intraspecies(self):
        m = 41.0 * 1.66053906660e-27
        a = 60.9 * A_BOHR
        assert coupling_bb(a, m) == pytest.approx(
            4.0 * math.pi * HBAR**2 * a / m, rel=1e-14, abs=0.0
        )

    def test_interspecies_uses_reduced_mass(self):
        mb = 41.0 * 1.66053906660e-27
        mf = 6.0 * 1.66053906660e-27
        a = 1000.0 * A_BOHR
        g = coupling_bf(a, mb, mf)
        # 2 pi hbar^2 a / m_r with m_r = mb mf / (mb + mf)
        assert g == pytest.approx(4.25448479912978e-49, rel=1e-10, abs=0.0)

    def test_interspecies_sign_follows_a(self):
        mb = 41.0 * 1.66053906660e-27
        mf = 6.0 * 1.66053906660e-27
        assert coupling_bf(-100.0 * A_BOHR, mb, mf) < 0.0


def test_healing_length_value():
    # (8 pi n a)^(-1/2) at n = 4.8e19 m^-3, a = 60.9 a0 -> 0.5072 um
    xi = healing_length(4.8e19, 60.9 * A_BOHR)
    assert xi == pytest.approx(5.071661256255272e-07, rel=1e-12, abs=0.0)


def test_healing_length_rejects_vacuum():
    with pytest.raises(NonPositiveInput):
        healing_length(0.0, 60.9 * A_BOHR)


class TestSeparationThreshold:
    def test_frozen_value(self):
        # 1.15 sqrt(a_bb / k_F) at a_bb = 60.9 a0, n_f = 1.2e12 cm^-3
        crit = critical_scattering_length(60.9 * A_BOHR, 1.2e18)
        assert crit / A_BOHR == pytest.approx(606.1785249, rel=1e-9)

    def test_scaling_with_a_bb(self):
        c1 = critical_scattering_length(60.9 * A_BOHR, 1.2e18)
        c2 = critical_scattering_length(4.0 * 60.9 * A_BOHR, 1.2e18)
        assert c2 == pytest.approx(2.0 * c1, rel=1e-12, abs=0.0)

    def test_scaling_with_density(self):
        # k_F ~ n^(1/3), so crit ~ n^(-1/6)
        c1 = critical_scattering_length(60.9 * A_BOHR, 1.2e18)
        c2 = critical_scattering_length(60.9 * A_BOHR, 64.0 * 1.2e18)
        assert c2 == pytest.approx(c1 / 2.0, rel=1e-12, abs=0.0)

    def test_is_phase_separated_consistent(self):
        a_bb = 60.9 * A_BOHR
        crit = critical_scattering_length(a_bb, 1.2e18)
        assert is_phase_separated(1.01 * crit, a_bb, 1.2e18)
        assert not is_phase_separated(0.99 * crit, a_bb, 1.2e18)

    def test_attractive_side_never_separates(self):
        assert not is_phase_separated(-500.0 * A_BOHR, 60.9 * A_BOHR, 1.2e18)


def test_species_params_validation():
    with pytest.raises(NonPositiveInput):
        SpeciesParams(name="x", mass=-1.0, omega_rho=1.0, omega_z=1.0)
    with pytest.raises(NonPositiveInput):
        SpeciesParams(name="x", mass=1.0, omega_rho=0.0, omega_z=1.0)


def test_omega_bar_geometric_mean():
    sp = SpeciesParams(name="x", mass=1e-26, omega_rho=100.0, omega_z=800.0)
    assert sp.omega_bar == pytest.approx((100.0**2 * 800.0) ** (1.0 / 3.0), rel=1e-14)
