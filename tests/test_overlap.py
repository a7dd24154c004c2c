"""Overlap factors, loss-rate predictions, and the measurement-form identity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mixsep.config import default_scenario
from mixsep.constants import A_BOHR
from mixsep.errors import NonPositiveInput, ZeroDenominator, ZeroReference
from mixsep.grid import DensityField, grid_for_box, integrate_product
from mixsep.overlap import (
    DEFAULT_L3,
    SQRT8,
    eq6_denominator_rate,
    omega,
    omega_eff,
    omega_eff_from_ground_state,
    omega_from_measurement,
    overlap_integral,
    reference_fields,
    thermal_field_for,
)
from mixsep.profiles import ThermalCloudParams, fra_peak_quantities, grid_for_scenario
from mixsep.solver import SolverOptions, minimize

SC = default_scenario()
PEAKS = fra_peak_quantities(SC)
PLATEAU = 0.024858262700762513  # thermal-only fraction of the denominator


@pytest.fixture(scope="module")
def grid48():
    return grid_for_scenario(SC, 48, 96)


@pytest.fixture(scope="module")
def tf0(grid48):
    return minimize(SC, grid48, SolverOptions(mode="tf"))


@pytest.fixture(scope="module")
def tf2000(grid48):
    return minimize(SC.with_a_bf(2000.0 * A_BOHR), grid48, SolverOptions(mode="tf"))


@pytest.fixture
def synth():
    grid = grid_for_box(10e-6, 20e-6, 12, 16)
    rho, z = grid.mesh()
    env = np.exp(-(rho**2) / (4e-6) ** 2 - z**2 / (9e-6) ** 2)
    n_f = DensityField(grid, 1.2e18 * (1.0 - 0.3 * env), "fermions")
    n_b = DensityField(grid, 4.0e19 * env, "bosons")
    n_t = DensityField(grid, 1.4e18 * env**0.5, "thermal")
    return grid, n_f, n_b, n_t


def test_denominator_frozen_value():
    d = eq6_denominator_rate(
        1e-37, PEAKS.n_f_peak, PEAKS.n_b_peak, PEAKS.n_t_peak, 0.5, 1.5
    )
    assert d == pytest.approx(1.204607459781291, rel=1e-12)


def test_denominator_formula():
    l3, nf, nb, nt, beta, alpha = 2e-37, 1e18, 3e19, 2e18, 0.4, 1.5
    manual = l3 * nf * (
        (2.0 / 7.0) * alpha * nb * beta + alpha * nt * beta + nt * (1 - beta) / SQRT8
    )
    assert eq6_denominator_rate(l3, nf, nb, nt, beta, alpha) == pytest.approx(
        manual, rel=1e-15, abs=0.0
    )


def test_omega_eff_divides_by_denominator():
    d = eq6_denominator_rate(1e-37, 1e18, 3e19, 2e18, 0.5, 1.5)
    assert omega_eff(0.5 * d, 1e-37, 1e18, 3e19, 2e18, 0.5, 1.5) == pytest.approx(0.5)


def test_omega_eff_zero_denominator():
    with pytest.raises(ZeroDenominator):
        omega_eff(1.0, 1e-37, 1e18, 0.0, 0.0, 1.0, 1.0)


def test_measurement_form_analytic():
    gamma, l3, nf, nb = 0.3, 1e-37, 1.2e18, 4e19
    expect = 7.0 * gamma / (2.0 * nf * nb * l3)
    assert omega_from_measurement(gamma, l3, nf, nb) == pytest.approx(
        expect, rel=1e-12, abs=0.0
    )


def test_measurement_form_is_pure_bec_reduction():
    # no thermal cloud, beta = 1, alpha = 1: identical code path, exact equality
    rng = np.random.default_rng(99)
    for _ in range(200):
        gamma = float(rng.uniform(1e-3, 10.0))
        l3 = float(rng.uniform(1e-39, 1e-36))
        nf = float(rng.uniform(1e17, 1e19))
        nb = float(rng.uniform(1e18, 1e20))
        lhs = omega_eff(gamma, l3, nf, nb, 0.0, 1.0, 1.0)
        rhs = omega_from_measurement(gamma, l3, nf, nb)
        assert lhs == rhs


class TestOmegaZeroT:
    def test_self_reference_is_one(self, synth):
        _, n_f, n_b, _ = synth
        assert omega(n_f, n_b, n_f, n_b) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_quadratic_in_condensate(self, synth):
        grid, n_f, n_b, _ = synth
        half = DensityField(grid, 0.5 * n_b.values)
        assert omega(n_f, half, n_f, n_b) == pytest.approx(0.25, rel=1e-13, abs=0.0)

    def test_linear_in_sea(self, synth):
        grid, n_f, n_b, _ = synth
        dbl = DensityField(grid, 2.0 * n_f.values)
        assert omega(dbl, n_b, n_f, n_b) == pytest.approx(2.0, rel=1e-13, abs=0.0)

    def test_zero_reference_raises(self, synth):
        grid, n_f, n_b, _ = synth
        zero = DensityField(grid, np.zeros((grid.n_rho, grid.n_z)))
        with pytest.raises(ZeroReference):
            omega(n_f, n_b, n_f, zero)


def test_overlap_integral_manual(synth):
    grid, n_f, n_b, _ = synth
    manual = float(np.sum(n_f.values * n_b.values**2 * grid.weights))
    assert overlap_integral(n_f, n_b) == pytest.approx(manual, rel=1e-14)


class TestPredictedLossRate:
    def test_channel_sum(self, tf0):
        # gamma_pred from quadratures taken here, not from the report's own
        cloud = ThermalCloudParams(SC.bosons, SC.n_bosons, SC.condensate_fraction)
        n_t = thermal_field_for(tf0, cloud)
        i_bb = integrate_product(tf0.n_f, tf0.n_b, powers=(1, 2))
        i_bt = integrate_product(tf0.n_f, tf0.n_b, n_t)
        i_tt = PEAKS.n_f_peak * cloud.second_moment_integral()
        l3, alpha = 1e-37, 1.5
        expect = l3 * (0.5 * alpha * i_bb + alpha * i_bt + i_tt) / SC.n_bosons
        rep = omega_eff_from_ground_state(tf0, l3=l3, alpha=alpha)
        assert rep.gamma_pred == pytest.approx(expect, rel=1e-13, abs=0.0)


class TestGroundStateReport:
    def test_noninteracting_omega_is_one(self, tf0):
        rep = omega_eff_from_ground_state(tf0)
        assert rep.omega == pytest.approx(1.0, rel=1e-6)
        assert rep.a_bf == 0.0
        assert rep.beta == pytest.approx(0.5)
        assert rep.alpha == pytest.approx(1.5)
        assert rep.l3 == DEFAULT_L3

    def test_gamma_assembly(self, tf0):
        rep = omega_eff_from_ground_state(tf0)
        expect = (
            rep.l3
            * (0.5 * rep.alpha * rep.i_bb + rep.alpha * rep.i_bt + rep.i_tt_fra)
            / SC.n_bosons
        )
        assert rep.gamma_pred == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_reservoir_thermal_channel(self, tf0):
        rep = omega_eff_from_ground_state(tf0)
        cloud = ThermalCloudParams(SC.bosons, SC.n_bosons, SC.condensate_fraction)
        assert rep.i_tt_fra == pytest.approx(
            PEAKS.n_f_peak * cloud.second_moment_integral(), rel=1e-13
        )
        # the field quadrature sees the fermion hole and trap curvature
        assert rep.i_tt_fields != rep.i_tt_fra

    @pytest.mark.parametrize("state", ["tf0", "tf2000"])
    def test_one_overlap_integral_gives_i_bb_and_omega(self, request, state):
        gs = request.getfixturevalue(state)
        reference = reference_fields(gs.scenario, gs.grid)
        rep = omega_eff_from_ground_state(gs)
        assert rep.i_bb == overlap_integral(gs.n_f, gs.n_b)
        assert rep.omega == omega(gs.n_f, gs.n_b, *reference)

    def test_omega_eff_consistent(self, tf0):
        rep = omega_eff_from_ground_state(tf0)
        assert rep.omega_eff == pytest.approx(
            omega_eff(
                rep.gamma_pred,
                rep.l3,
                PEAKS.n_f_peak,
                PEAKS.n_b_peak,
                PEAKS.n_t_peak,
                rep.beta,
                rep.alpha,
            ),
            rel=1e-14, abs=0.0
        )

    def test_separated_limit_hits_thermal_plateau(self, tf2000):
        rep = omega_eff_from_ground_state(tf2000)
        assert rep.omega < 1e-8
        assert rep.omega_eff == pytest.approx(PLATEAU, rel=1e-4)

    def test_gamma_pred_linear_in_l3(self, tf0):
        r1 = omega_eff_from_ground_state(tf0, l3=1e-37)
        r3 = omega_eff_from_ground_state(tf0, l3=3e-37)
        assert r3.gamma_pred == pytest.approx(3.0 * r1.gamma_pred, rel=1e-13, abs=0.0)
        # L3 cancels between the rate and its denominator
        assert r3.omega_eff == pytest.approx(r1.omega_eff, rel=1e-13, abs=0.0)

    def test_alpha_override(self, tf0):
        r15 = omega_eff_from_ground_state(tf0, alpha=1.5)
        r20 = omega_eff_from_ground_state(tf0, alpha=2.0)
        assert r20.gamma_pred > r15.gamma_pred

    def test_explicit_reference_sets_omega_scale(self, tf0):
        rep = omega_eff_from_ground_state(tf0, reference=(tf0.n_f, tf0.n_b))
        assert rep.omega == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_as_dict_units(self, tf0):
        d = omega_eff_from_ground_state(tf0).as_dict()
        assert d["L3[cm^6/s]"] == pytest.approx(DEFAULT_L3 * 1e12, abs=0.0)
        assert d["n_f_peak[cm^-3]"] == pytest.approx(PEAKS.n_f_peak * 1e-6, rel=1e-12)
        assert d["a_bf[a0]"] == pytest.approx(0.0, abs=1e-12)
        assert d["thermal_model"] == "gaussian"

    def test_semiclassical_thermal_model(self, grid48):
        sc = replace(SC, thermal_model="semiclassical")
        gs = minimize(sc, grid48, SolverOptions(mode="tf"))
        rep = omega_eff_from_ground_state(gs)
        assert rep.thermal_model == "semiclassical"
        base = omega_eff_from_ground_state(
            minimize(SC, grid48, SolverOptions(mode="tf"))
        )
        # the saturated profile is peakier, so the field quadrature grows
        assert rep.i_tt_fields > 1.2 * base.i_tt_fields

    @pytest.mark.parametrize("model", ["gaussian", "semiclassical"])
    def test_pure_condensate_has_no_thermal_channels(self, grid48, model):
        # condensate_fraction = 1 leaves no thermal atoms, so both thermal
        # models give the zero field and the loss rate is the condensate's
        sc = replace(SC, condensate_fraction=1.0, thermal_model=model)
        rep = omega_eff_from_ground_state(minimize(sc, grid48, SolverOptions(mode="tf")))
        assert (rep.n_t_peak, rep.i_bt, rep.i_tt_fields, rep.i_tt_fra) == (0.0, 0.0, 0.0, 0.0)
        assert rep.gamma_pred == rep.l3 * (0.5 * rep.alpha * rep.i_bb) / sc.n_bosons
        assert rep.omega_eff == pytest.approx(
            omega_from_measurement(rep.gamma_pred, rep.l3, rep.n_f_peak, rep.n_b_peak)
            / rep.alpha,
            rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("name", ["l3", "alpha"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_loss_parameter_outside_the_positive_reals_rejected(self, tf0, name, value):
        # alpha = 0 once reported Omega_eff = 1, and a negative value or
        # l3 = 0 ended in ZeroDenominator, a numerical failure
        with pytest.raises(NonPositiveInput, match=f"{name} must be positive and finite"):
            omega_eff_from_ground_state(tf0, **{name: value})

    def test_overflowing_loss_rate_rejected(self, tf0):
        # alpha = 1e308 is finite, but alpha * I_bb is not: gamma_pred was
        # inf and Omega_eff nan
        with pytest.raises(NonPositiveInput, match="predicted loss rate inf is not finite"):
            omega_eff_from_ground_state(tf0, alpha=1e308)


def test_reference_fields_are_calibrated(tf0):
    ref_f, ref_b = reference_fields(tf0.scenario, tf0.grid)
    assert ref_f.integrate() == pytest.approx(SC.n_fermions, rel=1e-9)
    assert ref_b.integrate() == pytest.approx(SC.condensate_number, rel=1e-9)


def test_thermal_field_number(tf0):
    cloud = ThermalCloudParams(SC.bosons, SC.n_bosons, SC.condensate_fraction)
    t = thermal_field_for(tf0, cloud)
    assert t.integrate() == pytest.approx(cloud.n_thermal, rel=1e-12)


def test_boson_free_state_has_no_loss_rate():
    # gamma = -Ndot / N_b needs bosons: a boson-free mixture solves, and its
    # overlap report is bad input naming n_bosons, not a division by zero
    sc = replace(SC, n_bosons=0.0)
    gs = minimize(sc, grid_for_scenario(sc, 32, 64), SolverOptions(mode="tf"))
    with pytest.raises(NonPositiveInput, match="n_bosons"):
        omega_eff_from_ground_state(gs)
