"""Reference trap profiles: closed forms, grid calibration, thermal clouds."""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mixsep.config import default_scenario
from mixsep.constants import A_BOHR, HBAR, K_B
from mixsep.errors import GridTooSmall, NonPositiveInput, ResolutionWarning, ValidationError
from mixsep.grid import grid_for_box, integrate_product
from mixsep import profiles
from mixsep.physics import SpeciesParams, coupling_bb
from mixsep.profiles import (
    ThermalCloudParams,
    bec_tf_profile,
    condensation_temperature,
    fermi_energy_trap,
    fermi_peak_density,
    fermi_tf_profile,
    fra_peak_quantities,
    grid_for_scenario,
    polylog_32_exp,
    tf_chemical_potential,
    tf_radii,
    thermal_bose_profile,
    thermal_bose_profile_semiclassical,
    thermal_peak_coefficient,
    trap_potential,
)
from mixsep.scenario import MixtureScenario

SC = default_scenario()


class TestScenarioDefaults:
    def test_boson_frequencies_derived_from_fermion_trap(self):
        # nu_K = nu_Li * sqrt(m_Li / m_K) * 1.30 (polarizability ratio)
        assert SC.bosons.omega_rho / (2.0 * math.pi) == pytest.approx(
            144.71716233111653, rel=1e-12
        )
        assert SC.bosons.omega_z / (2.0 * math.pi) == pytest.approx(
            20.688089185479203, rel=1e-12
        )

    def test_fermion_trap(self):
        assert SC.fermions.omega_rho / (2.0 * math.pi) == pytest.approx(291.0)
        assert SC.fermions.omega_z / (2.0 * math.pi) == pytest.approx(41.6)

    def test_numbers(self):
        assert SC.n_bosons == pytest.approx(2.9e4)
        assert SC.n_fermions == pytest.approx(1.4e5)
        assert SC.condensate_number == pytest.approx(1.45e4)
        assert SC.thermal_number == pytest.approx(1.45e4)

    def test_condensate_fraction_bounds(self):
        with pytest.raises(ValidationError):
            MixtureScenario(
                bosons=SC.bosons,
                fermions=SC.fermions,
                n_bosons=1e4,
                n_fermions=1e5,
                condensate_fraction=1.2,
            )

    def test_thermal_model_name_checked(self):
        with pytest.raises(ValidationError):
            MixtureScenario(
                bosons=SC.bosons,
                fermions=SC.fermions,
                n_bosons=1e4,
                n_fermions=1e5,
                condensate_fraction=0.5,
                thermal_model="parabolic",
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["n_bosons", "n_fermions", "alpha", "a_bf"])
    def test_non_finite_number_rejected(self, name, value):
        # A comparison with nan is false, so a range check alone lets it through.
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            replace(SC, **{name: value})

    def test_with_a_bf(self):
        sc2 = SC.with_a_bf(500.0 * A_BOHR)
        assert sc2.a_bf == pytest.approx(500.0 * A_BOHR)
        assert sc2.n_bosons == SC.n_bosons
        assert SC.a_bf == 0.0


class TestClosedForms:
    def test_fermi_energy(self):
        e_f = fermi_energy_trap(SC.n_fermions, SC.fermions)
        assert e_f == pytest.approx(9.51281156423558e-30, rel=1e-12)
        # hbar * wbar * (6N)^(1/3)
        manual = HBAR * SC.fermions.omega_bar * (6.0 * SC.n_fermions) ** (1.0 / 3.0)
        assert e_f == pytest.approx(manual, rel=1e-14)

    def test_fermi_peak_density(self):
        e_f = fermi_energy_trap(SC.n_fermions, SC.fermions)
        n_f = fermi_peak_density(e_f, SC.fermions)
        assert n_f == pytest.approx(1.188308977456707e18, rel=1e-12)

    def test_chemical_potential(self):
        mu = tf_chemical_potential(SC.condensate_number, SC.bosons)
        assert mu == pytest.approx(2.7216271145862373e-31, rel=1e-12)

    def test_tf_radii(self):
        mu = tf_chemical_potential(SC.condensate_number, SC.bosons)
        r_rho, r_z = tf_radii(mu, SC.bosons)
        assert r_rho == pytest.approx(3.109660132246389e-06, rel=1e-12)
        assert r_z == pytest.approx(2.1752670636627382e-05, rel=1e-12)
        # aspect ratio equals trap frequency ratio
        assert r_z / r_rho == pytest.approx(SC.bosons.omega_rho / SC.bosons.omega_z)

    def test_condensation_temperature(self):
        t_c = condensation_temperature(SC.n_bosons, SC.bosons)
        assert t_c == pytest.approx(104.93424017945803e-9, rel=1e-12)

    def test_thermal_peak_coefficient_formula(self):
        t = 440e-9
        coeff = thermal_peak_coefficient(SC.bosons, t)
        m = SC.bosons.mass
        manual = (m * SC.bosons.omega_bar**2 / (2.0 * math.pi * K_B * t)) ** 1.5
        assert coeff == pytest.approx(manual, rel=1e-13)


class TestPeakQuantities:
    def test_frozen_values(self):
        p = fra_peak_quantities(SC)
        assert p.n_f_peak == pytest.approx(1.188308977456707e18, rel=1e-12)
        assert p.n_b_peak == pytest.approx(4.114157996686671e19, rel=1e-12)
        assert p.n_t_peak == pytest.approx(1.4254826397399693e18, rel=1e-12)
        assert p.k_fermi == pytest.approx(4128511.1131939143, rel=1e-12)
        assert p.e_fermi == pytest.approx(9.51281156423558e-30, rel=1e-12)
        assert p.temperature == pytest.approx(83.2863616241777e-9, rel=1e-12)
        assert p.t_crit == pytest.approx(104.93424017945803e-9, rel=1e-12)

    def test_pure_thermal_cloud_has_no_condensate_peak(self):
        sc = MixtureScenario(
            bosons=SC.bosons,
            fermions=SC.fermions,
            n_bosons=SC.n_bosons,
            n_fermions=SC.n_fermions,
            condensate_fraction=0.0,
        )
        p = fra_peak_quantities(sc)
        assert p.n_b_peak == 0.0
        assert p.n_t_peak > 0.0


class TestThermalCloudParams:
    def test_temperature_from_condensate_fraction(self):
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 0.5)
        assert tp.t == pytest.approx(tp.t_crit * 0.5 ** (1.0 / 3.0), rel=1e-14)
        assert tp.t == pytest.approx(83.2863616241777e-9, rel=1e-12)

    def test_explicit_temperature_wins(self):
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 0.0, temperature=440e-9)
        assert tp.t == pytest.approx(440e-9)

    def test_second_moment_closed_form(self):
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 0.5)
        expect = tp.peak_density * tp.n_thermal / math.sqrt(8.0)
        assert tp.second_moment_integral() == pytest.approx(expect, rel=1e-14)

    def test_pure_bec_limit(self):
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 1.0)
        assert tp.n_thermal == 0.0
        assert tp.peak_density == 0.0
        assert tp.second_moment_integral() == 0.0

    def test_fraction_out_of_range(self):
        with pytest.raises(ValidationError):
            ThermalCloudParams(SC.bosons, SC.n_bosons, -0.1)


@pytest.fixture(scope="module")
def grid64():
    return grid_for_scenario(SC, 64, 128)


class TestGridCalibration:
    def test_fermi_number_exact(self, grid64):
        field, e_cal = fermi_tf_profile(SC.fermions, SC.n_fermions, grid64)
        assert field.integrate() == pytest.approx(SC.n_fermions, rel=1e-9)
        e0 = fermi_energy_trap(SC.n_fermions, SC.fermions)
        assert abs(e_cal / e0 - 1.0) < 1e-3

    def test_bec_number_exact(self, grid64):
        field, mu_cal = bec_tf_profile(SC.bosons, SC.condensate_number, grid64)
        assert field.integrate() == pytest.approx(SC.condensate_number, rel=1e-9)
        mu0 = tf_chemical_potential(SC.condensate_number, SC.bosons)
        assert abs(mu_cal / mu0 - 1.0) < 1e-2

    def test_bec_zero_number_limit(self, grid64):
        field, mu = bec_tf_profile(SC.bosons, 0.0, grid64)
        assert mu == 0.0
        assert field.integrate() == 0.0

    def test_tf_square_integral_identity(self, grid64):
        # integral of n_b^2 = (4/7) N nhat for the TF parabola; quadrature
        # error at this spacing measured at 0.48%
        field, mu_cal = bec_tf_profile(SC.bosons, SC.condensate_number, grid64)
        g_bb = coupling_bb(SC.bosons.a_intra, SC.bosons.mass)
        nhat = mu_cal / g_bb
        ident = integrate_product(field, field)
        assert ident == pytest.approx(
            (4.0 / 7.0) * SC.condensate_number * nhat, rel=1e-2
        )

    def test_thermal_number_exact(self, grid64):
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 0.5)
        field, peak = thermal_bose_profile(tp, grid64)
        assert field.integrate() == pytest.approx(tp.n_thermal, rel=1e-12)
        assert field.peak() <= peak

    def test_thermal_square_integral_identity(self, grid64):
        # Richardson pair (d, d/2) eliminates the O(d^2) axis term
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 0.5)
        f1, _ = thermal_bose_profile(tp, grid64)
        f2, _ = thermal_bose_profile(tp, grid64.refined(2))
        i1 = integrate_product(f1, f1)
        i2 = integrate_product(f2, f2)
        rich = (4.0 * i2 - i1) / 3.0
        assert rich == pytest.approx(tp.second_moment_integral(), rel=1e-6)

    def test_calibration_frees_its_trap_potential(self, grid64, monkeypatch):
        # Freed by reference counting on return, not left in a reference
        # cycle for the garbage collector: a cold solve calls both profiles.
        # _harmonic builds the half-box potential each calibration runs on.
        refs = []

        def tracked(*args):
            v = harmonic(*args)
            refs.append(weakref.ref(v))
            return v

        harmonic = profiles._harmonic
        monkeypatch.setattr(profiles, "_harmonic", tracked)
        gc.disable()
        try:
            bec_tf_profile(SC.bosons, SC.condensate_number, grid64)
            fermi_tf_profile(SC.fermions, SC.n_fermions, grid64)
            alive = [r() is not None for r in refs]
        finally:
            gc.enable()
        assert alive == [False, False]

    @pytest.mark.parametrize("n", [-5.0, math.nan, math.inf])
    def test_bec_rejects_bad_atom_number(self, grid64, n):
        with pytest.raises(NonPositiveInput):
            bec_tf_profile(SC.bosons, n, grid64)

    @pytest.mark.parametrize("n", [0.5, -5.0, math.nan, math.inf])
    def test_fermi_rejects_bad_atom_number(self, grid64, n):
        with pytest.raises(NonPositiveInput):
            fermi_tf_profile(SC.fermions, n, grid64)

    def test_calibration_that_cannot_hold_the_cloud_raises(self, grid64):
        # No cell center lies inside the condensate on this 2x2 grid.
        with pytest.raises(GridTooSmall, match="no cell center"):
            bec_tf_profile(SC.bosons, SC.condensate_number, grid_for_box(30e-6, 200e-6, 2, 2))
        # A root above 1.6 times the start would need cells never selected.
        e0 = fermi_energy_trap(SC.n_fermions, SC.fermions)
        with pytest.raises(GridTooSmall, match="left the cells"):
            profiles._calibrate_half(
                lambda e, v, w: (e * w.sum(), w.sum()),
                2.0 * e0 * grid64.weights[:, grid64.n_z // 2:].sum(), e0, SC.fermions, grid64,
            )

    def test_grid_too_small(self):
        tiny = grid_for_box(10e-6, 10e-6, 32, 64)
        with pytest.raises(GridTooSmall):
            fermi_tf_profile(SC.fermions, SC.n_fermions, tiny)

    def test_coarse_condensate_warns(self):
        coarse = grid_for_box(40e-6, 30e-6, 8, 16)
        with pytest.warns(ResolutionWarning):
            bec_tf_profile(SC.bosons, SC.condensate_number, coarse)


def _brentq_energy(number, target, e0):
    """Reference root: brentq on the full grid for E / e0 in [0.5, 1.6], to full precision."""
    return e0 * brentq(lambda s: number(s * e0) - target, 0.5, 1.6, xtol=1e-300, rtol=1e-15)


@settings(derandomize=True, deadline=None)
@given(
    n_rho=st.integers(8, 128),
    half_n_z=st.integers(8, 128),
    scale=st.floats(0.1, 10.0),
)
def test_calibration_matches_brentq(n_rho, half_n_z, scale):
    sc = MixtureScenario(
        bosons=SC.bosons,
        fermions=SC.fermions,
        n_bosons=scale * SC.n_bosons,
        n_fermions=scale * SC.n_fermions,
        condensate_fraction=SC.condensate_fraction,
    )
    grid = grid_for_scenario(sc, n_rho, 2 * half_n_z)
    w = grid.weights
    v_f = trap_potential(sc.fermions, grid)
    v_b = trap_potential(sc.bosons, grid)
    pref = (2.0 * sc.fermions.mass / HBAR**2) ** 1.5 / (6.0 * math.pi**2)
    g = coupling_bb(sc.bosons.a_intra, sc.bosons.mass)

    sea, e_f = fermi_tf_profile(sc.fermions, sc.n_fermions, grid)
    e_ref = _brentq_energy(
        lambda e: np.sum(pref * np.clip(e - v_f, 0.0, None) ** 1.5 * w),
        sc.n_fermions, fermi_energy_trap(sc.n_fermions, sc.fermions),
    )
    assert sea.integrate() == pytest.approx(sc.n_fermions, rel=1e-12)
    assert e_f == pytest.approx(e_ref, rel=1e-14)

    bec, mu = bec_tf_profile(sc.bosons, sc.condensate_number, grid)
    mu_ref = _brentq_energy(
        lambda m: np.sum(np.clip(m - v_b, 0.0, None) / g * w),
        sc.condensate_number, tf_chemical_potential(sc.condensate_number, sc.bosons),
    )
    assert bec.integrate() == pytest.approx(sc.condensate_number, rel=1e-12)
    assert mu == pytest.approx(mu_ref, rel=1e-14)
    # built on the z > 0 half and mirrored
    for field in (sea, bec):
        assert np.array_equal(field.values, field.values[:, ::-1])


class TestSemiclassicalThermal:
    def test_polylog_at_zero_is_zeta(self):
        assert polylog_32_exp(np.array([0.0]))[0] == pytest.approx(
            2.612375348685488, abs=2e-6
        )

    def test_polylog_against_direct_series(self):
        for a in [0.05, 0.2, 0.3, 1.0, 3.0]:
            x = math.exp(-a)
            direct = sum(x**k / k**1.5 for k in range(1, 4000))
            got = polylog_32_exp(np.array([a]))[0]
            assert got == pytest.approx(direct, abs=2e-6)

    def test_polylog_branch_seam_continuous(self):
        lo = polylog_32_exp(np.array([0.2499999]))[0]
        hi = polylog_32_exp(np.array([0.2500001]))[0]
        assert abs(lo - hi) < 1e-5

    def test_number_calibrated(self, grid64):
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 0.5)
        field, _ = thermal_bose_profile_semiclassical(tp, grid64)
        assert field.integrate() == pytest.approx(tp.n_thermal, rel=1e-12)

    def test_peakier_than_gaussian(self, grid64):
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 0.5)
        _, pk_sc = thermal_bose_profile_semiclassical(tp, grid64)
        _, pk_g = thermal_bose_profile(tp, grid64)
        assert 1.5 < pk_sc / pk_g < 2.62

    def test_constant_shift_is_gauge(self, grid64):
        tp = ThermalCloudParams(SC.bosons, SC.n_bosons, 0.5)
        base, pk = thermal_bose_profile_semiclassical(tp, grid64)
        shift = np.full((grid64.n_rho, grid64.n_z), 1e-30)
        shifted, _ = thermal_bose_profile_semiclassical(
            tp, grid64, extra_potential=shift
        )
        assert np.max(np.abs(shifted.values - base.values)) < 1e-12 * pk


def test_trap_potential_harmonic(grid64):
    v = trap_potential(SC.fermions, grid64)
    rho, z = grid64.mesh()
    m = SC.fermions.mass
    manual = 0.5 * m * (SC.fermions.omega_rho**2 * rho**2 + SC.fermions.omega_z**2 * z**2)
    np.testing.assert_allclose(v, manual, rtol=1e-14)


def test_grid_for_scenario_warns_when_coarse():
    with pytest.warns(ResolutionWarning):
        grid_for_scenario(SC, 32, 64)


def test_grid_for_scenario_covers_fermi_cloud():
    g = grid_for_scenario(SC, 64, 128)
    e_f = fermi_energy_trap(SC.n_fermions, SC.fermions)
    r_rho, r_z = tf_radii(e_f, SC.fermions)
    assert g.rho_max == pytest.approx(1.3 * r_rho, rel=1e-12)
    assert g.z_half == pytest.approx(1.3 * r_z, rel=1e-12)
