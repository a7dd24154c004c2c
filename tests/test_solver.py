"""Imaginary-time solver: convergence, conservation, separation diagnostics."""

import itertools

import numpy as np
import pytest

from mixsep import solver
from mixsep.config import default_scenario
from mixsep.constants import A_BOHR
from mixsep.errors import NotSeparated, StepUnstable
from mixsep.functional import KineticStencil, evaluate, functional_params
from mixsep.grid import integrate_product
from mixsep.physics import coupling_bb
from mixsep.pipeline import sweep_ground_states
from mixsep.profiles import (
    bec_tf_profile,
    fermi_tf_profile,
    fra_peak_quantities,
    grid_for_scenario,
)
from mixsep.scenario import MixtureScenario
from mixsep.solver import (
    GroundState,
    SolverOptions,
    interface_thickness,
    minimize,
)

SC = default_scenario()
PEAKS = fra_peak_quantities(SC)


@pytest.fixture(scope="module")
def grid48():
    return grid_for_scenario(SC, 48, 96)


@pytest.fixture(scope="module")
def tf0(grid48):
    return minimize(SC, grid48, SolverOptions(mode="tf"))


@pytest.fixture(scope="module")
def full0(grid48):
    return minimize(
        SC, grid48, SolverOptions(mode="full", tol_energy=1e-9, consecutive=5)
    )


@pytest.fixture(scope="module")
def sep800(grid48):
    sc = SC.with_a_bf(800.0 * A_BOHR)
    return minimize(
        sc, grid48, SolverOptions(mode="full", tol_energy=1e-9, consecutive=5)
    )


class TestNonInteracting:
    def test_tf_mode_starts_at_minimum(self, tf0):
        # the noninteracting start is the TF minimizer, so convergence is
        # nearly immediate
        assert tf0.converged
        assert tf0.iterations < 50

    def test_numbers_conserved_exactly(self, tf0, full0):
        for gs in (tf0, full0):
            assert gs.n_b.integrate() == pytest.approx(
                SC.condensate_number, rel=1e-12
            )
            assert gs.n_f.integrate() == pytest.approx(SC.n_fermions, rel=1e-12)

    def test_tf_chemical_potentials(self, tf0, grid48):
        # at the TF fixed point the local Hamiltonians are flat inside the
        # clouds, so the Rayleigh quotients equal the calibrated mu and E_F
        _, mu_cal = bec_tf_profile(SC.bosons, SC.condensate_number, grid48)
        _, ef_cal = fermi_tf_profile(SC.fermions, SC.n_fermions, grid48)
        assert tf0.mu_b == pytest.approx(mu_cal, rel=1e-4)
        assert tf0.mu_f == pytest.approx(ef_cal, rel=1e-4)

    def test_peaks_near_closed_forms(self, tf0, full0):
        for gs in (tf0, full0):
            assert gs.n_b.peak() == pytest.approx(PEAKS.n_b_peak, rel=0.03)
            assert gs.n_f.peak() == pytest.approx(PEAKS.n_f_peak, rel=0.01)

    def test_full_mode_converges(self, full0):
        assert full0.converged
        assert full0.mode == "full"

    def test_residual_small(self, full0, sep800):
        for gs in (full0, sep800):
            assert max(gs.residual) < 1e-3

    def test_history_non_increasing(self, tf0, full0):
        for gs in (tf0, full0):
            h = gs.energy_history
            assert len(h) >= 1
            assert np.all(np.diff(h) <= np.abs(h[:-1]) * 1e-12 + 1e-300)

    def test_energy_matches_breakdown(self, full0):
        assert full0.energy == pytest.approx(
            sum(full0.energy_breakdown.values()), rel=1e-14
        )
        assert full0.energy_breakdown["bec_kinetic"] > 0.0

    def test_grid_property(self, full0, grid48):
        assert full0.grid == grid48
        assert isinstance(full0, GroundState)


def test_max_iter_cap(grid48):
    gs = minimize(SC, grid48, SolverOptions(mode="full", max_iter=5))
    assert not gs.converged
    assert gs.iterations == 5


def test_oversized_step_is_retracted(grid48, monkeypatch):
    # a first step of four preconditioned unit steps overshoots and must be halved
    monkeypatch.setattr(solver, "_DTAU_START", 4.0)
    gs = minimize(SC, grid48, SolverOptions(mode="full", tol_energy=1e-9, consecutive=5))
    assert gs.converged
    # history holds accepted steps + 1 energies, iterations counts steps + rejections
    assert gs.iterations > len(gs.energy_history)
    assert np.all(np.diff(gs.energy_history) <= 0.0)


def test_rejections_do_not_fake_convergence(grid48, full0, monkeypatch):
    # A huge first step is rejected about twenty times over. Stepping again
    # from the accepted state must not count as a quiet step each time.
    monkeypatch.setattr(solver, "_DTAU_START", 1e6)
    gs = minimize(SC, grid48, SolverOptions(mode="full", tol_energy=1e-9, consecutive=5))
    assert gs.converged
    assert gs.energy < gs.energy_history[0]
    assert gs.energy == pytest.approx(full0.energy, rel=1e-6)
    # the starting state is in the history once, not once per rejection
    assert np.count_nonzero(gs.energy_history == gs.energy_history[0]) == 1


def test_rejections_in_a_row_raise(grid48, monkeypatch):
    # the halvings count on across the re-evaluations of the accepted state
    monkeypatch.setattr(solver, "_DTAU_START", 1e6)
    monkeypatch.setattr(solver, "_MAX_HALVINGS", 5)
    with pytest.raises(StepUnstable, match="after 5 step halvings"):
        minimize(SC, grid48, SolverOptions(mode="full", tol_energy=1e-9, consecutive=5))


def test_energy_that_keeps_rising_raises(grid48, monkeypatch):
    # every evaluation, the retracted state's included, reads higher than the last
    calls = itertools.count()

    def rising(params, psi, phi, stencil):
        ev = evaluate(params, psi, phi, stencil)
        ev.terms["rise"] = abs(ev.energy) * next(calls)
        return ev

    monkeypatch.setattr(solver, "evaluate", rising)
    monkeypatch.setattr(solver, "_MAX_HALVINGS", 1)
    with pytest.raises(StepUnstable, match="after 1 step halvings"):
        minimize(SC, grid48, SolverOptions(mode="full", max_iter=50))


def test_warm_start_restarts_cheaply(full0, grid48):
    warm = (np.sqrt(full0.n_b.values), np.sqrt(full0.n_f.values))
    gs = minimize(
        SC,
        grid48,
        SolverOptions(mode="full", tol_energy=1e-9, consecutive=5),
        warm_start=warm,
    )
    assert gs.converged
    assert gs.iterations < full0.iterations / 10


def test_zero_condensate_relaxes_fermions_only(grid48):
    sc = MixtureScenario(
        bosons=SC.bosons,
        fermions=SC.fermions,
        n_bosons=SC.n_bosons,
        n_fermions=SC.n_fermions,
        condensate_fraction=0.0,
    )
    gs = minimize(sc, grid48, SolverOptions(mode="tf"))
    assert gs.mu_b == 0.0
    assert gs.n_b.integrate() == 0.0
    assert gs.n_f.integrate() == pytest.approx(SC.n_fermions, rel=1e-12)


class TestSeparation:
    def test_hole_digs_deep_past_threshold(self, sep800):
        # 800 a0 is past the threshold near 607 a0
        row = sep800.n_f.axial_slice()
        assert row[0] < 1e-3 * np.max(row)

    def test_interface_thickness_scale(self, sep800):
        # healing-length scale, well under the cloud radius
        t = interface_thickness(sep800)
        assert 1e-7 < t < 3e-6

    def test_not_separated_raises(self, full0):
        with pytest.raises(NotSeparated):
            interface_thickness(full0)

    def test_overlap_decreases_with_repulsion(self, full0, sep800):
        i0 = integrate_product(full0.n_f, full0.n_b, powers=[1, 2])
        i8 = integrate_product(sep800.n_f, sep800.n_b, powers=[1, 2])
        assert i8 < 0.2 * i0


def test_sweep_warm_chain(grid48):
    a_values = np.array([0.0, 300.0, 500.0, 800.0]) * A_BOHR
    seen = []
    results = sweep_ground_states(
        SC,
        a_values,
        grid48,
        SolverOptions(mode="tf"),
        progress=lambda mode, idx, a_bf, gs: seen.append((mode, idx, a_bf)),
    )
    assert len(results) == 4
    assert seen == [("tf", i, a) for i, a in enumerate(a_values)]
    assert all(err is None for _, err in results)
    states = [gs for gs, _ in results]
    for gs, a in zip(states, a_values):
        assert gs.scenario.a_bf == pytest.approx(a)
        assert gs.converged
    centers = [gs.n_f.center_value() for gs in states]
    assert centers == sorted(centers, reverse=True)
    # past the threshold the hole is essentially complete in TF mode
    assert centers[-1] < 0.05 * centers[0]


def test_capped_solve_reports_best_state(grid48):
    # a max_iter exit is the one path that evaluates the returned state again
    sc = SC.with_a_bf(800.0 * A_BOHR)
    gs = minimize(sc, grid48, SolverOptions(mode="full", max_iter=37))
    assert not gs.converged
    assert gs.iterations == 37
    assert gs.energy == gs.energy_history[-1]

    params = functional_params(sc, grid48, "full")
    psi, phi = np.sqrt(gs.n_b.values), np.sqrt(gs.n_f.values)
    ev = evaluate(params, psi, phi, KineticStencil(grid48))
    w = grid48.weights
    mu_b = float(np.sum(w * psi * ev.h_psi)) / float(np.sum(w * psi * psi))
    mu_f = float(np.sum(w * phi * ev.h_phi)) / float(np.sum(w * phi * phi))
    res_b = np.sqrt(np.sum(w * (ev.h_psi - mu_b * psi) ** 2) / np.sum(w * psi * psi)) / abs(mu_b)
    res_f = np.sqrt(np.sum(w * (ev.h_phi - mu_f * phi) ** 2) / np.sum(w * phi * phi)) / abs(mu_f)
    # the stored fields are squares, so the re-derived amplitudes differ in the last bit
    assert gs.energy == pytest.approx(ev.energy, rel=1e-12)
    assert gs.energy_breakdown == pytest.approx(ev.terms, rel=1e-12)
    assert (gs.mu_b, gs.mu_f) == pytest.approx((mu_b, mu_f), rel=1e-12)
    assert gs.residual == pytest.approx((res_b, res_f), rel=1e-9)
