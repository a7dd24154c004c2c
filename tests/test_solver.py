"""Imaginary-time solver: convergence, conservation, separation diagnostics."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mixsep import solver
from mixsep.config import default_scenario
from mixsep.constants import A_BOHR, HBAR
from mixsep.errors import (
    GridMismatch,
    NonPositiveInput,
    NotSeparated,
    NumericsError,
    StepUnstable,
    ThomasFermiCollapse,
    ValidationError,
)
from mixsep.functional import (
    KineticStencil,
    apply_hamiltonians,
    evaluate,
    functional_params,
    half_box_params,
)
from mixsep.grid import dot, integrate_product
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
    local_scale_bound,
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
    return minimize(SC, grid48, SolverOptions(mode="full"))


@pytest.fixture(scope="module")
def sep800(grid48):
    sc = SC.with_a_bf(800.0 * A_BOHR)
    return minimize(sc, grid48, SolverOptions(mode="full"))


class TestNonInteracting:
    def test_tf_mode_starts_at_minimum(self, tf0, grid48):
        # The noninteracting start is the TF minimizer, so it meets the
        # residual test: it is returned without a step, and no step is
        # rejected for a rounding-level rise.
        assert tf0.converged
        assert tf0.iterations == 0
        assert len(tf0.energy_history) == 1
        bec, _ = bec_tf_profile(SC.bosons, SC.condensate_number, grid48)
        sea, _ = fermi_tf_profile(SC.fermions, SC.n_fermions, grid48)
        np.testing.assert_allclose(tf0.n_b.values, bec.values, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(tf0.n_f.values, sea.values, rtol=1e-14, atol=0.0)

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
        assert tf0.mu_b == pytest.approx(mu_cal, rel=1e-4, abs=0.0)
        assert tf0.mu_f == pytest.approx(ef_cal, rel=1e-4, abs=0.0)

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
            assert np.all(np.diff(h) <= 0.0)

    def test_energy_matches_breakdown(self, full0):
        assert full0.energy == pytest.approx(
            sum(full0.energy_breakdown.values()), rel=1e-14, abs=0.0
        )
        assert full0.energy_breakdown["bec_kinetic"] > 0.0

    def test_grid_property(self, full0, grid48):
        assert full0.grid == grid48
        assert isinstance(full0, GroundState)


def test_returned_state_is_mirror_symmetric(tf0, full0, sep800):
    # the solve runs on the z > 0 half and mirrors it back, so the fields
    # are symmetric bit for bit, and the doubled half-box energy is the
    # full grid's
    for gs in (tf0, full0, sep800):
        for fld in (gs.n_b, gs.n_f):
            np.testing.assert_array_equal(fld.values, fld.values[:, ::-1])
        params = functional_params(gs.scenario, gs.grid, gs.mode)
        ev = evaluate(params, *_weighted_amplitudes(gs), KineticStencil(gs.grid))
        assert gs.energy == pytest.approx(ev.energy, rel=1e-13, abs=0.0)
        assert gs.energy_breakdown == pytest.approx(ev.terms, rel=1e-13, abs=0.0)
        assert gs.energy_history[-1] == gs.energy


def _weighted_amplitudes(gs):
    """sqrt(w n_b) and sqrt(w n_f) of a returned state: the amplitudes evaluate takes."""
    root = gs.grid.root_volumes[:, None]
    return root * np.sqrt(gs.n_b.values), root * np.sqrt(gs.n_f.values)


def test_cold_start_is_the_fold_of_the_tf_roots(grid48):
    # The TF profiles are mirror-symmetric to the bit, so _fold gives back
    # the z > 0 half of their roots, which _start takes without folding.
    bec, _ = bec_tf_profile(SC.bosons, SC.condensate_number, grid48)
    sea, _ = fermi_tf_profile(SC.fermions, SC.n_fermions, grid48)
    for start, field in zip(solver._start(SC, grid48, None), (bec, sea)):
        root = np.sqrt(field.values)
        np.testing.assert_array_equal(solver._fold(root), root[:, grid48.n_z // 2:])
        np.testing.assert_array_equal(start, solver._fold(root))
        assert start.flags.f_contiguous


def test_warm_start_and_its_mirror_image_agree(sep800):
    # a start is folded onto the half box as the mean of its two halves, in
    # an order that does not see which half is which
    rng = np.random.default_rng(11)
    warm = tuple(
        np.sqrt(fld.values) * (1.0 + 0.01 * rng.standard_normal(fld.values.shape))
        for fld in (sep800.n_b, sep800.n_f)
    )
    assert not np.array_equal(warm[0], warm[0][:, ::-1])
    sc, options = sep800.scenario, SolverOptions(mode="full")
    a = minimize(sc, sep800.grid, options, warm_start=warm)
    b = minimize(sc, sep800.grid, options, warm_start=tuple(u[:, ::-1] for u in warm))
    assert a.converged and b.converged
    for fa, fb in ((a.n_b, b.n_b), (a.n_f, b.n_f)):
        assert fa.values.tobytes() == fb.values.tobytes()
    assert a.energy == b.energy and a.iterations == b.iterations


def _step_inputs(gs):
    """(stencil, params, evaluation) at a returned state, for the step's operator."""
    params = functional_params(gs.scenario, gs.grid, "full")
    stencil = KineticStencil(gs.grid)
    ev = evaluate(params, *_weighted_amplitudes(gs), stencil)
    return stencil, params, ev


def test_full_preconditioner_is_symmetric_positive(full0):
    # (coef K~_line + diag(D))^-1 is self-adjoint and positive under the
    # plain sum of the weighted amplitudes (the grid's inner product of the
    # unweighted ones), so minus the preconditioned gradient is a descent
    # direction
    stencil, params, ev = _step_inputs(full0)
    rng = np.random.default_rng(6)
    species = (
        (ev.hess_b, ev.mu_b, params.coef_kin_b),
        (ev.hess_f, ev.mu_f, params.coef_kin_f),
    )
    for hess, mu, coef in species:
        floor = solver._CURVATURE_FLOOR * abs(mu)
        a, b = rng.standard_normal((2,) + hess.shape)
        p_a = stencil.solve_cells(coef, local_scale_bound(hess.copy(), floor), a.copy())
        p_b = stencil.solve_cells(coef, local_scale_bound(hess.copy(), floor), b.copy())
        assert dot(a, p_b) == pytest.approx(dot(p_a, b), rel=1e-12)
        assert dot(a, p_a) > 0.0
        # the kinetic term only lowers the step below diag(D)^-1's
        diag = local_scale_bound(hess.copy(), floor)
        assert dot(a, p_a) < dot(a, a / diag)


@pytest.fixture(scope="module")
def cold128():
    """The cold full-mode solve at a_bf = 0 on the default 128x256 grid."""
    return minimize(SC, grid_for_scenario(SC, 128, 256), SolverOptions(mode="full"))


def test_iterations_do_not_grow_with_the_grid(cold128):
    # the radial line solve inverts the stiff part of the kinetic term, so
    # halving both spacings leaves the cold solve's iteration count flat
    coarse = minimize(SC, grid_for_scenario(SC, 64, 128), SolverOptions(mode="full"))
    assert coarse.converged and cold128.converged
    assert cold128.iterations <= 1.1 * coarse.iterations


def test_curvature_preconditioner_halves_the_cold_solve(cold128):
    # With D taken from the energy's curvature, the step is long where the
    # cloud has to move, at the Thomas-Fermi edges. Cold 128x256 solves took
    # 41 iterations at a_bf = 0 and 470 at 1480 a0 under the former scale
    # s = sqrt(|mu| / (max(loc, 0) + |mu|)).
    sc = SC.with_a_bf(1480.0 * A_BOHR)
    separated = minimize(sc, grid_for_scenario(sc, 128, 256), SolverOptions(mode="full"))
    assert cold128.converged and separated.converged
    assert (cold128.iterations, separated.iterations) == (15, 264)


def test_full_solve_without_condensate():
    # a species with no atoms starts and stays exactly zero (its target is 0,
    # so every renormalization returns zeros), with mu and residual 0; a_bf
    # then enters nothing, so the Fermi sea has the same bytes at any a_bf
    sc0 = replace(SC, condensate_fraction=0.0)
    grid = grid_for_scenario(sc0, 32, 64)
    seas = []
    for a_bf_a0 in (0.0, 1480.0):
        gs = minimize(sc0.with_a_bf(a_bf_a0 * A_BOHR), grid, SolverOptions(mode="full"))
        assert gs.converged
        assert not gs.n_b.values.any()
        assert gs.mu_b == 0.0 and gs.residual[0] == 0.0
        assert gs.n_f.integrate() == pytest.approx(SC.n_fermions, rel=1e-12)
        seas.append(gs.n_f.values.tobytes())
    assert seas[0] == seas[1]


def test_max_iter_cap(grid48):
    gs = minimize(SC, grid48, SolverOptions(mode="full", max_iter=5))
    assert not gs.converged
    assert gs.iterations == 5


def _columns_reached(values):
    """Indices of the z columns where a field is not exactly zero."""
    return np.flatnonzero(np.any(values != 0.0, axis=0))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_capped_full_solve_spreads_one_column_per_step(grid48, k):
    # the kinetic stencil reaches one axial neighbour, so each accepted step
    # grows the condensate's support by one column on each side, and every
    # cell past it stays exactly zero
    tf, _ = bec_tf_profile(SC.bosons, SC.condensate_number, grid48)
    start = _columns_reached(tf.values)
    gs = minimize(SC, grid48, SolverOptions(mode="full", max_iter=k))
    assert len(gs.energy_history) == k  # no step was rejected
    reached = _columns_reached(gs.n_b.values)
    assert reached[0] == start[0] - (k - 1) and reached[-1] == start[-1] + (k - 1)


@pytest.mark.parametrize("a_bf_a0", [0.0, 800.0])
def test_tf_solve_never_grows_the_condensate(grid48, a_bf_a0):
    # Without the kinetic term nothing couples a cell to its neighbours, and
    # the fermions only push the condensate in: it stays inside the
    # noninteracting TF support, which it fills at a_bf = 0. Past the
    # threshold the pointwise minimum empties the cells the sea wins.
    tf, _ = bec_tf_profile(SC.bosons, SC.condensate_number, grid48)
    gs = minimize(SC.with_a_bf(a_bf_a0 * A_BOHR), grid48, SolverOptions(mode="tf"))
    assert gs.converged
    assert not np.any((gs.n_b.values != 0.0) & (tf.values == 0.0))
    if a_bf_a0 == 0.0:
        np.testing.assert_array_equal(gs.n_b.values != 0.0, tf.values != 0.0)


def test_oversized_step_is_retracted(grid48, monkeypatch):
    # a first step of sixteen preconditioned unit steps overshoots and must be halved
    monkeypatch.setattr(solver, "_DTAU_START", 16.0)
    gs = minimize(SC, grid48, SolverOptions(mode="full"))
    assert gs.converged
    # history holds accepted steps + 1 energies, iterations counts steps + rejections
    assert gs.iterations > len(gs.energy_history)
    assert np.all(np.diff(gs.energy_history) <= 0.0)


def test_rejections_do_not_fake_convergence(grid48, full0, monkeypatch):
    # A huge first step is rejected about twenty times over. Each retry
    # starts again from the accepted state, which is recorded once.
    monkeypatch.setattr(solver, "_DTAU_START", 1e6)
    gs = minimize(SC, grid48, SolverOptions(mode="full"))
    assert gs.converged
    assert gs.energy < gs.energy_history[0]
    assert gs.energy == pytest.approx(full0.energy, rel=1e-6, abs=0.0)
    # the starting state is in the history once, not once per rejection
    assert np.count_nonzero(gs.energy_history == gs.energy_history[0]) == 1


def test_rejections_in_a_row_raise(grid48, monkeypatch):
    # each retry from the accepted state halves the step again
    monkeypatch.setattr(solver, "_DTAU_START", 1e6)
    monkeypatch.setattr(solver, "_MAX_HALVINGS", 5)
    with pytest.raises(StepUnstable, match="after 5 step halvings"):
        minimize(SC, grid48, SolverOptions(mode="full"))


def test_energy_that_keeps_rising_raises(grid48, monkeypatch):
    # every evaluation reads higher than the last
    calls = itertools.count()

    def rising(params, psi, phi, stencil, norms=None):
        ev = evaluate(params, psi, phi, stencil, norms)
        ev.terms["rise"] = abs(ev.energy) * next(calls)
        return ev

    monkeypatch.setattr(solver, "evaluate", rising)
    monkeypatch.setattr(solver, "_MAX_HALVINGS", 1)
    with pytest.raises(StepUnstable, match="after 1 step halvings"):
        minimize(SC, grid48, SolverOptions(mode="full", max_iter=50))


def test_warm_start_restarts_cheaply(full0, grid48):
    # a converged state already meets the residual test, so a restart from
    # it returns its start without a step
    warm = (np.sqrt(full0.n_b.values), np.sqrt(full0.n_f.values))
    gs = minimize(SC, grid48, SolverOptions(mode="full"), warm_start=warm)
    assert gs.converged
    assert gs.iterations == 0
    assert gs.energy == pytest.approx(full0.energy, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"mode": "gross"}, "solver mode must be 'full' or 'tf', got 'gross'"),
        ({"max_iter": 0}, "solver max_iter must be at least 1, got 0"),
    ],
)
def test_solver_options_reject_bad_values(kwargs, message):
    # max_iter >= 1 means every solve evaluates and accepts its start
    with pytest.raises(ValidationError, match=re.escape(message)):
        SolverOptions(**kwargs)


def test_warm_start_of_another_shape_raises(full0, grid48):
    psi, phi = np.sqrt(full0.n_b.values), np.sqrt(full0.n_f.values)
    with pytest.raises(GridMismatch, match="warm start of shape"):
        minimize(SC, grid48, SolverOptions(mode="full"), warm_start=(psi[:, :-2], phi))


def test_all_zero_warm_start_raises(full0, grid48):
    phi = np.sqrt(full0.n_f.values)
    with pytest.raises(NonPositiveInput, match="all-zero"):
        minimize(SC, grid48, SolverOptions(mode="full"), warm_start=(np.zeros_like(phi), phi))


def test_rejected_conjugate_step_costs_one_evaluation(grid48, monkeypatch):
    # The first conjugate trial is made to read high. It is retried as a
    # steepest step from the stored P g, so every evaluation is of a new
    # state and each iteration costs exactly one evaluation.
    original = solver._direction
    conjugate = []
    raised = []
    seen = []

    def direction(*args):
        conjugate.append(original(*args))
        return conjugate[-1]

    def recording(params, psi, phi, stencil, norms=None):
        ev = evaluate(params, psi, phi, stencil, norms)
        seen.append(hashlib.sha256(psi.tobytes() + phi.tobytes()).hexdigest())
        if any(conjugate) and not raised:
            raised.append(len(seen))
            ev.terms["rise"] = abs(ev.energy)
        return ev

    monkeypatch.setattr(solver, "_direction", direction)
    monkeypatch.setattr(solver, "evaluate", recording)
    gs = minimize(SC, grid48, SolverOptions(mode="full"))
    assert raised and gs.converged
    assert len(seen) == gs.iterations + 1
    assert len(set(seen)) == len(seen)


@pytest.fixture(scope="module")
def floor_pair():
    """Cold full-mode solves at 1480 a0 on 96x192: with the tail floor, and under
    the former rule that grew a band into any non-zero halo (a floor of 0)."""
    sc = SC.with_a_bf(1480.0 * A_BOHR)
    grid = grid_for_scenario(sc, 96, 192)
    floored = minimize(sc, grid, SolverOptions(mode="full"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_TAIL_FLOOR", 0.0)
        former = minimize(sc, grid, SolverOptions(mode="full"))
    assert floored.converged and former.converged
    return floored, former


def _subnormal_cells(gs) -> int:
    tiny = np.finfo(float).tiny
    return sum(int(np.count_nonzero((f.values > 0.0) & (f.values < tiny))) for f in (gs.n_b, gs.n_f))


def test_floored_solve_has_no_subnormal_density(floor_pair):
    # past the interface the boson amplitude decays exponentially; the former
    # rule followed it into subnormal densities on this grid
    floored, former = floor_pair
    assert _subnormal_cells(floored) == 0
    assert _subnormal_cells(former) > 0


def _boson_band(gs) -> int:
    """The number of leading z > 0 columns holding bosons; every later one is zero."""
    upper = gs.n_b.values[:, gs.grid.n_z // 2:]
    filled = np.flatnonzero(upper.any(axis=0))
    np.testing.assert_array_equal(filled, np.arange(filled.size))
    return filled.size


def test_boson_band_stops_short_of_the_box(floor_pair):
    # 26 of the 96 half-box columns; the former rule reached 80
    floored, former = floor_pair
    assert _boson_band(floored) < 32 < 48 < _boson_band(former)


def test_warm_start_with_a_tail_takes_a_floored_band(floor_pair):
    # a state solved under the former rule carries its tail into a warm
    # start; the start's band ends at the floor all the same
    _, former = floor_pair
    warm = (np.sqrt(former.n_b.values), np.sqrt(former.n_f.values))
    gs = minimize(former.scenario, former.grid, SolverOptions(mode="full"), warm_start=warm)
    assert gs.converged
    assert _subnormal_cells(gs) == 0
    assert _boson_band(gs) < 32
    assert gs.energy == pytest.approx(former.energy, rel=1e-15, abs=0.0)


def test_tail_floor_changes_no_iteration_or_energy(floor_pair):
    # what the floor skips adds under eps^4 to any density sum
    floored, former = floor_pair
    assert floored.iterations == former.iterations
    assert floored.energy == pytest.approx(former.energy, rel=1e-15, abs=0.0)


def test_solver_bytes_do_not_depend_on_the_blas_thread_count():
    # The 128x256 half box holds 16,384 cells, more than the 10,000 values
    # OpenBLAS takes in one ddot on one thread; a sum over them as one ddot
    # split across two threads ends this solve at another iteration count.
    code = (
        "import hashlib, warnings\n"
        "from mixsep.config import default_scenario\n"
        "from mixsep.constants import A_BOHR\n"
        "from mixsep.profiles import grid_for_scenario\n"
        "from mixsep.solver import SolverOptions, minimize\n"
        "warnings.simplefilter('ignore')\n"
        "sc = default_scenario().with_a_bf(1480.0 * A_BOHR)\n"
        "gs = minimize(sc, grid_for_scenario(sc, 128, 256), SolverOptions(mode='full'))\n"
        "h = hashlib.sha256(gs.n_b.values.tobytes() + gs.n_f.values.tobytes())\n"
        "print(h.hexdigest(), gs.energy.hex(), gs.iterations)\n"
    )
    src = str(Path(solver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        runs.add(out.stdout.strip())
    assert len(runs) == 1


def test_overlap_settles_under_the_stop_rule(monkeypatch):
    # At 1480 a0 an energy test alone once stopped at a boson residual of
    # 2.4e-4, where the overlap read 9% high; a tenfold tighter residual
    # test moves it by under 1%.
    sc = SC.with_a_bf(1480.0 * A_BOHR)
    grid = grid_for_scenario(sc, 128, 256)
    overlaps = []
    for tol in (1.5e-6, 1.5e-7):
        monkeypatch.setattr(solver, "_RESIDUAL_TOL", tol)
        gs = minimize(sc, grid, SolverOptions(mode="full"))
        assert gs.converged
        overlaps.append(integrate_product(gs.n_b, gs.n_f))
    assert overlaps[0] == pytest.approx(overlaps[1], rel=0.01)


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
        assert gs.scenario.a_bf == pytest.approx(a, abs=0.0)
        assert gs.converged
    centers = [gs.n_f.center_value() for gs in states]
    assert centers == sorted(centers, reverse=True)
    # past the threshold the hole is essentially complete in TF mode
    assert centers[-1] < 0.05 * centers[0]


@pytest.mark.parametrize("start", [2, 3])
def test_tf_state_does_not_depend_on_the_start(start):
    # Coming down from the separated regime, the tf-mode flow reached 226.4 a0
    # with the fermions all but emptied from the centre, and at some seeds of
    # the former warm-start noise once stopped there on a separated
    # arrangement 7.8e-4 above the mixed one. The pointwise minimum reads no start: the downward chain returns
    # the cold solve's bytes, and so does a solve handed a separated state of
    # the chain (1480 a0 at index 2, 1160 a0 at index 3) as a warm start.
    grid = grid_for_scenario(SC, 128, 256)
    a_values = np.geomspace(100.0, 2000.0, 12)[::-1][:9]
    a_values = np.insert(a_values, 2, 1480.0) * A_BOHR
    options = SolverOptions(mode="tf")
    results = sweep_ground_states(SC, a_values, grid, options)
    gs, err = results[-1]
    assert err is None and gs.converged
    assert gs.scenario.a_bf == pytest.approx(226.3739 * A_BOHR, rel=1e-6, abs=0.0)
    assert gs.n_f.center_value() > 0.1 * np.max(gs.n_f.values)
    separated = results[start][0]
    assert separated.n_f.center_value() == 0.0
    warm = (np.sqrt(separated.n_b.values), np.sqrt(separated.n_f.values))
    for other in (minimize(gs.scenario, grid, options),
                  minimize(gs.scenario, grid, options, warm_start=warm)):
        for fa, fb in ((gs.n_b, other.n_b), (gs.n_f, other.n_f)):
            assert fa.values.tobytes() == fb.values.tobytes()
        assert (gs.energy, gs.iterations) == (other.energy, 0)


def test_capped_solve_reports_best_state(grid48):
    # a max_iter exit returns the last accepted state with that evaluation's
    # own terms, mu and residual, which a fresh evaluation must reproduce
    sc = SC.with_a_bf(800.0 * A_BOHR)
    gs = minimize(sc, grid48, SolverOptions(mode="full", max_iter=37))
    assert not gs.converged
    assert gs.iterations == 37
    assert gs.energy == gs.energy_history[-1]

    params = functional_params(sc, grid48, "full")
    psi, phi = np.sqrt(gs.n_b.values), np.sqrt(gs.n_f.values)
    ev = evaluate(params, *_weighted_amplitudes(gs), KineticStencil(grid48))
    w = grid48.weights
    root = grid48.root_volumes[:, None]
    h_psi, h_phi = ev.h_psi / root, ev.h_phi / root
    mu_b = float(np.sum(w * psi * h_psi)) / float(np.sum(w * psi * psi))
    mu_f = float(np.sum(w * phi * h_phi)) / float(np.sum(w * phi * phi))
    res_b = np.sqrt(np.sum(w * (h_psi - mu_b * psi) ** 2) / np.sum(w * psi * psi)) / abs(mu_b)
    res_f = np.sqrt(np.sum(w * (h_phi - mu_f * phi) ** 2) / np.sum(w * phi * phi)) / abs(mu_f)
    # the stored fields are squares, so the re-derived amplitudes differ in the last bit
    assert gs.energy == pytest.approx(ev.energy, rel=1e-12, abs=0.0)
    assert gs.energy_breakdown == pytest.approx(ev.terms, rel=1e-12, abs=0.0)
    assert (gs.mu_b, gs.mu_f) == pytest.approx((mu_b, mu_f), rel=1e-12, abs=0.0)
    assert gs.residual == pytest.approx((res_b, res_f), rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# Tf mode: the pointwise minimum

FLOW_ENERGIES = Path(__file__).parent / "data" / "tf_flow_energies.json"


@pytest.fixture(scope="module")
def grid32():
    return grid_for_scenario(SC, 32, 64)


def _local_minimum_violation(gs) -> float:
    """The largest violation, as a share of max |mu|, of every cell being a
    local minimum of its f - mu_b n_b - mu_f n_f over n >= 0.

    A present species' local potential must meet its mu, an absent one's
    lie no lower, and where both are present the second variation must be
    positive: x = n_f^(1/3) < 2C / 3B, reported as a violation of 1.
    """
    params = functional_params(gs.scenario, gs.grid, "tf")
    n_b, n_f = gs.n_b.values, gs.n_f.values
    fermi = (5.0 / 3.0) * params.c_tf
    x = np.cbrt(n_f)
    worst = 0.0
    species = [(n_f, params.v_f + fermi * x * x + params.g_bf * n_b - gs.mu_f)]
    if gs.scenario.condensate_number > 0.0:
        species.append((n_b, params.v_b + params.g_bb * n_b + params.g_bf * n_f - gs.mu_b))
    for n, grad in species:
        worst = max(worst, float(np.max(np.where(n > 0.0, np.abs(grad), -grad))))
    both = (n_b > 0.0) & (n_f > 0.0)
    if np.any(3.0 * params.g_bf**2 * x[both] >= 2.0 * fermi * params.g_bb):
        return 1.0
    return worst / max(abs(gs.mu_b), abs(gs.mu_f))


def _relative_residuals(gs) -> list[float]:
    """||H u - mu u||_w / (|mu| ||u||_w) per species, from the full-grid Hamiltonians."""
    params = functional_params(gs.scenario, gs.grid, "tf")
    w = gs.grid.weights
    psi, phi = np.sqrt(gs.n_b.values), np.sqrt(gs.n_f.values)
    out = []
    for u, hu in zip((psi, phi), apply_hamiltonians(params, psi, phi, KineticStencil(gs.grid))):
        norm2 = float(np.sum(w * u * u))
        if norm2 > 0.0:
            mu = float(np.sum(w * u * hu)) / norm2
            out.append(math.sqrt(float(np.sum(w * (hu - mu * u) ** 2)) / norm2) / abs(mu))
    return out


def _assert_kkt_state(gs):
    sc = gs.scenario
    assert gs.converged and gs.mode == "tf"
    assert gs.iterations == 0 and gs.energy_history.tolist() == [gs.energy]
    assert max(_relative_residuals(gs)) <= 1e-12
    assert _local_minimum_violation(gs) <= 1e-12
    for field, target in ((gs.n_b, sc.condensate_number), (gs.n_f, sc.n_fermions)):
        assert field.integrate() == pytest.approx(target, rel=1e-14, abs=0.0)


def test_pointwise_sea_is_the_local_fermi_sea():
    # n_f = k_F^3 / 6 pi^2 with hbar^2 k_F^2 / 2m the energy mu_f leaves
    # after the trap and the bosons' mean field, zero where none is left
    params = functional_params(SC.with_a_bf(300.0 * A_BOHR), grid_for_scenario(SC, 16, 32), "tf")
    mass = SC.fermions.mass
    v_f = np.linspace(0.0, 2.0e-29, 41)
    n_b = np.linspace(3.0e19, 0.0, 41)
    mu_f = 1.2e-29
    left = mu_f - v_f - params.g_bf * n_b
    (n_f, omega, slope), k, boson, _, _ = solver.pointwise_minima(
        np.zeros_like(left), left, params.g_bb, params.g_bf, params.c_tf, False
    )
    assert k.size == 0 and all(v.size == 0 for v in boson)
    k_f = np.sqrt(2.0 * mass * np.maximum(left, 0.0)) / HBAR
    np.testing.assert_allclose(n_f, k_f**3 / (6.0 * math.pi**2), rtol=1e-14, atol=0.0)
    assert np.all(n_f[left <= 0.0] == 0.0) and np.all(n_f[left > 0.0] > 0.0)
    # where the sea is present its local Fermi energy fills what is left
    fermi = (5.0 / 3.0) * params.c_tf
    inside = left > 0.0
    np.testing.assert_allclose(fermi * n_f[inside] ** (2.0 / 3.0), left[inside], rtol=1e-14)
    # the slope is dn_f/dmu_f = (3/2) n_f / left, and omega = c_TF n_f^(5/3) - left n_f
    np.testing.assert_allclose(slope[inside], 1.5 * n_f[inside] / left[inside], rtol=1e-14)
    assert np.all(slope[~inside] == 0.0)
    np.testing.assert_allclose(omega, params.c_tf * n_f ** (5.0 / 3.0) - left * n_f,
                               rtol=1e-13, atol=0.0)


def _local_potentials(a_bf_a0: float):
    """(params, a_b, a_f): a = mu - V on the 32x64 half box at the tf state's mu."""
    sc = SC.with_a_bf(a_bf_a0 * A_BOHR)
    grid = grid_for_scenario(sc, 32, 64)
    gs = minimize(sc, grid, SolverOptions(mode="tf"))
    params = half_box_params(sc, grid, "tf")
    return params, gs.mu_b - params.v_b.ravel(), gs.mu_f - params.v_f.ravel()


def _pointwise_sides(params, a_b, a_f):
    """pointwise_minima's sides as full-length (n_b, n_f, omega) per side, with
    its raw output; the boson side is nan off the cells k."""
    sea, k, boson, bistable, sea_lower = solver.pointwise_minima(
        a_b, a_f, params.g_bb, params.g_bf, params.c_tf, True
    )
    sides = [(np.zeros_like(a_b), sea[0], sea[1])]
    full = []
    for v in boson[:3]:
        out = np.full_like(a_b, np.nan)
        out[k] = v
        full.append(out)
    sides.append(tuple(full))
    return sides, (sea, k, boson, bistable, sea_lower)


@pytest.mark.parametrize("a_bf_a0", [-300.0, 300.0, 1480.0])
def test_pointwise_minima_meet_the_kkt_conditions(a_bf_a0):
    # The side each cell takes, and both sides of a bistable cell, meet
    # _kkt's per-cell conditions: where a species is present its local
    # potential meets its mu, where it is absent it lies no lower, and a
    # mixed cell's second variation is positive. omega is f - mu . n there,
    # and the side taken is the lower one.
    params, a_b, a_f = _local_potentials(a_bf_a0)
    (sea, boson), (_, k, _, bistable, sea_lower) = _pointwise_sides(params, a_b, a_f)
    takes_sea = np.ones(a_b.size, dtype=bool)
    takes_sea[k] = sea_lower
    is_pair = np.zeros(a_b.size, dtype=bool)
    is_pair[k[bistable]] = True
    fermi = (5.0 / 3.0) * params.c_tf
    tol = 1e-12 * max(np.max(np.abs(a_b)), np.max(np.abs(a_f)))
    for (n_b, n_f, omega), valid in ((sea, takes_sea | is_pair), (boson, ~takes_sea | is_pair)):
        n_b, n_f, omega = n_b[valid], n_f[valid], omega[valid]
        x = np.cbrt(n_f)
        grad_b = params.g_bb * n_b + params.g_bf * n_f - a_b[valid]
        grad_f = fermi * x * x + params.g_bf * n_b - a_f[valid]
        for n, grad in ((n_b, grad_b), (n_f, grad_f)):
            assert np.all(np.where(n > 0.0, np.abs(grad), -grad) <= tol)
        both = (n_b > 0.0) & (n_f > 0.0)
        assert np.all(3.0 * params.g_bf**2 * x[both] < 2.0 * fermi * params.g_bb)
        f = (params.c_tf * n_f ** (5.0 / 3.0) + 0.5 * params.g_bb * n_b**2
             + params.g_bf * n_b * n_f - a_b[valid] * n_b - a_f[valid] * n_f)
        np.testing.assert_allclose(omega, f, rtol=1e-9, atol=1e-12 * np.max(np.abs(f)))
    assert np.all((sea[2] < boson[2])[is_pair] == takes_sea[is_pair])
    # mixed cells below the interface, bistable ones past it
    mixed = (boson[0] > 0.0) & (boson[1] > 0.0) & ~takes_sea
    assert np.any(mixed) == (a_bf_a0 < 1000.0)
    assert np.any(is_pair) == (a_bf_a0 > 1000.0)


@pytest.mark.parametrize("a_bf_a0", [-300.0, 300.0, 1480.0])
def test_pointwise_minima_slopes_are_central_differences(a_bf_a0):
    # dn/dmu of both sides is the derivative of their densities in a = mu - V,
    # on every cell whose side keeps its form (which species are present)
    # across the differences
    params, a_b, a_f = _local_potentials(a_bf_a0)
    centre, (sea, k, boson, _, _) = _pointwise_sides(params, a_b, a_f)
    slopes = [{(1, 1): sea[2]}, {}]
    for ij, v in zip(((0, 0), (0, 1), (1, 1)), boson[3:]):
        slopes[1][ij] = np.full_like(a_b, np.nan)
        slopes[1][ij][k] = v
    h = 1e-6 * np.array([np.max(np.abs(a_b)), np.max(np.abs(a_f))])
    checked = 0
    for j in (0, 1):
        shift = h * (np.arange(2) == j)
        up, _ = _pointwise_sides(params, a_b + shift[0], a_f + shift[1])
        down, _ = _pointwise_sides(params, a_b - shift[0], a_f - shift[1])
        for side in (0, 1):
            same = np.ones(a_b.size, dtype=bool)
            for probe in (up[side], down[side]):
                for i in (0, 1):
                    same &= (probe[i] > 0.0) == (centre[side][i] > 0.0)
            for i in (0, 1):
                diff = (up[side][i] - down[side][i]) / (2.0 * h[j])
                want = slopes[side].get((min(i, j), max(i, j)))
                if want is None:  # the sea's n_b, and its n_f in a_b
                    assert np.all(diff[same] == 0.0)
                    continue
                keep = same & np.isfinite(want)
                np.testing.assert_allclose(diff[keep], want[keep], rtol=1e-6,
                                           atol=1e-9 * np.max(np.abs(want[keep])))
                checked += np.count_nonzero(keep & (want != 0.0))
    assert checked > 400


@pytest.mark.parametrize("a_bf_a0", [300.0, 1480.0])
def test_tf_state_is_a_kkt_point_with_a_small_duality_gap(grid32, a_bf_a0, record_property):
    # Every cell sits at a local minimum of its f - mu . n, the atom numbers
    # are met, and the energy lies above the dual bound 2 L(mu) (half box,
    # doubled) by no more than the two largest cell terms |w omega|: at most
    # two cells are held in their higher minimum.
    sc = SC.with_a_bf(a_bf_a0 * A_BOHR)
    gs = minimize(sc, grid32, SolverOptions(mode="tf"))
    _assert_kkt_state(gs)
    params = half_box_params(sc, grid32, "tf")
    mu = np.array([gs.mu_b, gs.mu_f])
    cells = solver._Cells(params, True)
    st = cells.states(mu)
    omega = st.sea[1].copy()
    omega[st.b] = st.side[2]
    w_omega = st.w * omega
    targets = np.array([sc.condensate_number, sc.n_fermions]) / 2.0
    gap = gs.energy - 2.0 * (w_omega.sum() + mu @ targets)
    record_property("duality_gap", gap / gs.energy)
    assert -1e-15 * gs.energy <= gap <= 2.0 * np.sort(np.abs(w_omega))[-2:].sum()


@pytest.mark.parametrize("n_rho, energy", [(64, 1.0035732780090e-24), (128, 1.0036084022206e-24)])
def test_tf_state_past_the_kink(n_rho, energy):
    # At 800 and 1480 a0 the dual's maximum sits on a kink. The best side
    # assignment there is one fully separated state, the same at both
    # points: 4.7e-7 above the dual bound on the benchmark's 64x128 grid,
    # 1.2e-11 on 128x256.
    grid = grid_for_scenario(SC, n_rho, 2 * n_rho)
    states = [minimize(SC.with_a_bf(a * A_BOHR), grid, SolverOptions(mode="tf"))
              for a in (800.0, 1480.0)]
    for gs in states:
        _assert_kkt_state(gs)
        assert gs.energy == pytest.approx(energy, rel=1e-13, abs=0.0)
        assert not np.any((gs.n_b.values > 0.0) & (gs.n_f.values > 0.0))
    assert states[0].n_b.values.tobytes() == states[1].n_b.values.tobytes()


@pytest.mark.parametrize(
    "n_rho, a_bf_a0, evaluations", [(64, 800.0, 10), (64, 1480.0, 10), (128, 1480.0, 13)]
)
def test_tf_solve_past_the_kink_evaluations(monkeypatch, n_rho, a_bf_a0, evaluations):
    # The kink search ranks its side assignments by their Newton models,
    # which need no evaluation, and evaluates only those it finishes: one
    # pass per candidate tried.
    calls = []
    states = solver._Cells.states

    def counted(self, *args, **kwargs):
        calls.append(1)
        return states(self, *args, **kwargs)

    monkeypatch.setattr(solver._Cells, "states", counted)
    grid = grid_for_scenario(SC, n_rho, 2 * n_rho)
    minimize(SC.with_a_bf(a_bf_a0 * A_BOHR), grid, SolverOptions(mode="tf"))
    assert len(calls) == evaluations


def test_unfinished_kink_search_is_not_a_collapse():
    # With twice the fermions on 24x48 at 500 a0 no side assignment near
    # the kink meets the atom numbers. With repulsion that is the coarse
    # grid's failure, not a collapse of the mixture, and the solve says so.
    sc = replace(SC, n_fermions=2.0 * SC.n_fermions).with_a_bf(500.0 * A_BOHR)
    with pytest.raises(NumericsError, match="a_bf = 500 a0, no side assignment near the kink"
                                            " meets the atom numbers on this 24x48 grid") as exc:
        minimize(sc, grid_for_scenario(sc, 24, 48), SolverOptions(mode="tf"))
    assert not isinstance(exc.value, ThomasFermiCollapse)


@pytest.mark.parametrize(
    "n_rho, a_bf_a0", [(20, 500.0), (32, 500.0), (24, 550.0), (24, 600.0), (48, -300.0)]
)
def test_kink_search_finishes_many_bosons_on_coarse_grids(n_rho, a_bf_a0):
    # With four times the bosons on these grids a Newton step of the best
    # held assignment can fail to halve the atom-number error; the damped
    # ascent with its sides held still meets the atom numbers. At -300 a0
    # the mixture does not collapse (64x128 solves there too).
    sc = replace(SC, n_bosons=4.0 * SC.n_bosons).with_a_bf(a_bf_a0 * A_BOHR)
    grid = grid_for_scenario(sc, n_rho, 2 * n_rho)
    _assert_kkt_state(minimize(sc, grid, SolverOptions(mode="tf")))


def test_kink_search_finishes_the_best_ranked_assignment():
    # With four times the bosons on 24x48 at 650 a0 the best-ranked
    # assignment settles under the damped ascent; a later-ranked one is
    # 1.5e-4 higher (1.0241485e-24 J).
    sc = replace(SC, n_bosons=4.0 * SC.n_bosons).with_a_bf(650.0 * A_BOHR)
    gs = minimize(sc, grid_for_scenario(sc, 24, 48), SolverOptions(mode="tf"))
    _assert_kkt_state(gs)
    assert gs.energy < 1.0240e-24


@pytest.mark.parametrize("split_cells, ranked", [(8, 16), (2, 4)])
def test_kink_search_ranks_every_side_of_the_split_group(monkeypatch, split_cells, ranked):
    # On 160x320 at 1480 a0 four interface cells lie on one radius of the
    # grid's scaled coordinates, so the ridge splits all four, and each of
    # the 16 ways to put them on their sides is ranked and finished. With
    # _SPLIT_CELLS = 2 only the two of smallest gap are flipped, and the
    # other two stay on their boson side in all 4 candidates.
    monkeypatch.setattr(solver, "_SPLIT_CELLS", split_cells)
    sc = SC.with_a_bf(1480.0 * A_BOHR)
    grid = grid_for_scenario(sc, 160, 320)
    targets = np.array([sc.condensate_number, sc.n_fermions]) / 2.0
    mu = np.array([bec_tf_profile(sc.bosons, sc.condensate_number, grid)[1],
                   fermi_tf_profile(sc.fermions, sc.n_fermions, grid)[1]])
    cells = solver._Cells(half_box_params(sc, grid, "tf"), True)
    top, st, split = solver._dual_ascent(cells, mu, targets, np.abs(mu))
    assert split.tolist() == [11, 969, 1446, 1760]
    sides = []

    def stalled(cells, trial, targets, scale, side):
        sides.append(side[split])
        return trial, None, np.zeros(0, dtype=int)

    monkeypatch.setattr(solver, "_dual_ascent", stalled)
    assert solver._kink_search(cells, top, st, split, targets, np.abs(mu)) is None
    assert len({s.tobytes() for s in sides}) == len(sides) == ranked
    _, gap = st.gaps()
    by_gap = np.argsort(gap[np.isin(st.cells, split)])
    held = split[by_gap[split_cells:]]
    assert not any(np.any(s[np.isin(split, held)]) for s in sides)


def test_kink_search_finds_the_lowest_side_past_three_split_cells():
    # With half the fermions on 112x224 at 1000 a0 the best assignment puts
    # a split cell beyond the three of smallest gap on its other side.
    sc = replace(SC, n_fermions=70000.0).with_a_bf(1000.0 * A_BOHR)
    gs = minimize(sc, grid_for_scenario(sc, 112, 224), SolverOptions(mode="tf"))
    _assert_kkt_state(gs)
    assert gs.energy <= 4.0046637e-25


def test_ridge_solve_lands_on_the_dual_maximum():
    # On 64x128 at 800 a0 a full Newton step of the dual ascent crosses the
    # kink of one interface cell and its mirror image. The lever-rule solve
    # puts mu where they are indifferent, the dual's maximum
    # (2 L = 1.0035728092768e-24 J); the backtracking it replaces stalled
    # short of it, and the search from there took twice the evaluations.
    sc = SC.with_a_bf(800.0 * A_BOHR)
    grid = grid_for_scenario(sc, 64, 128)
    params = half_box_params(sc, grid, "tf")
    targets = np.array([sc.condensate_number, sc.n_fermions]) / 2.0
    mu = np.array([bec_tf_profile(sc.bosons, sc.condensate_number, grid)[1],
                   fermi_tf_profile(sc.fermions, sc.n_fermions, grid)[1]])
    cells = solver._Cells(params, True)
    mu, st, split = solver._dual_ascent(cells, mu, targets, np.abs(mu))
    assert split.size == 2
    omega, _, _ = st.sums()
    assert 2.0 * (omega + mu @ targets) == pytest.approx(1.0035728092768e-24, rel=1e-12, abs=0.0)
    at = np.flatnonzero(np.isin(st.cells, split))
    # the split cells' two minima are equal there, to rounding
    w, gap = st.gaps()
    sea_omega = st.sea[1][st.k[st.pairs[at]]]
    assert np.all(gap[at] <= 1e-12 * np.abs(w[at] * sea_omega))


def _count_evaluations(monkeypatch) -> list:
    """A list that gains one entry per evaluation of every tf cell."""
    calls = []
    states = solver._Cells.states

    def counted(self, *args, **kwargs):
        calls.append(1)
        return states(self, *args, **kwargs)

    monkeypatch.setattr(solver._Cells, "states", counted)
    return calls


def test_unsettled_ridge_solve_leaves_the_kink_to_the_search(monkeypatch):
    # With one ridge step allowed the lever-rule solve on 64x128 at 800 a0
    # does not settle and gives up. The ascent then backtracks to the kink,
    # and the kink search still finds the fully separated state, after 26
    # cell evaluations instead of 10.
    monkeypatch.setattr(solver, "_RIDGE_STEPS", 1)
    calls = _count_evaluations(monkeypatch)
    gs = minimize(SC.with_a_bf(800.0 * A_BOHR), grid_for_scenario(SC, 64, 128),
                  SolverOptions(mode="tf"))
    _assert_kkt_state(gs)
    assert gs.energy == pytest.approx(1.0035732780090e-24, rel=1e-13, abs=0.0)
    assert len(calls) == 26


def test_failed_ridge_solves_leave_their_group_to_the_search(monkeypatch):
    # With twice the fermions on 64x128 at 800 a0 every lever-rule solve
    # gives up: once on two cells, then three times on a group of three.
    # The kink search ranks that group's sides from the last point the
    # ascent accepted, and finds a KKT state.
    groups = []
    ridge = solver._ridge

    def recorded(cells, mu, targets, split):
        top = ridge(cells, mu, targets, split)
        groups.append((split.tolist(), top))
        return top

    monkeypatch.setattr(solver, "_ridge", recorded)
    sc = replace(SC, n_fermions=2.0 * SC.n_fermions).with_a_bf(800.0 * A_BOHR)
    gs = minimize(sc, grid_for_scenario(sc, 64, 128), SolverOptions(mode="tf"))
    assert [split for split, _ in groups] == [[131, 194]] + 3 * [[3, 130, 192]]
    assert all(top is None for _, top in groups)
    _assert_kkt_state(gs)
    assert gs.energy == pytest.approx(2.522597794279156e-24, rel=1e-13, abs=0.0)


def test_ridge_solve_gives_up_on_a_cell_that_is_not_bistable():
    # A split cell must stay bistable through the lever-rule solve: the
    # ridge on 64x128 at 800 a0 with a cell past the condensate added to
    # its split is None.
    sc = SC.with_a_bf(800.0 * A_BOHR)
    grid = grid_for_scenario(sc, 64, 128)
    params = half_box_params(sc, grid, "tf")
    targets = np.array([sc.condensate_number, sc.n_fermions]) / 2.0
    mu = np.array([bec_tf_profile(sc.bosons, sc.condensate_number, grid)[1],
                   fermi_tf_profile(sc.fermions, sc.n_fermions, grid)[1]])
    cells = solver._Cells(params, True)
    top, _, split = solver._dual_ascent(cells, mu, targets, np.abs(mu))
    outer = cells.w.size - 1
    assert outer not in cells.states(top).cells
    assert solver._ridge(cells, top, targets, np.append(split, outer)) is None


def test_fermion_floor_of_the_newton_step():
    # With 64 times the bosons and 1/64 of the fermions on 32x64 at 1000 a0
    # the condensate pushes the sea out of the start's cells, which hold
    # under half the fermions, so the Newton step floors dN_f/dmu_f by the
    # noninteracting slope 3 N_f / mu_f. The solve still ends at a KKT state.
    sc = replace(SC, n_bosons=64.0 * SC.n_bosons,
                 n_fermions=SC.n_fermions / 64.0).with_a_bf(1000.0 * A_BOHR)
    grid = grid_for_scenario(sc, 32, 64)
    targets = np.array([sc.condensate_number, sc.n_fermions]) / 2.0
    mu = np.array([bec_tf_profile(sc.bosons, sc.condensate_number, grid)[1],
                   fermi_tf_profile(sc.fermions, sc.n_fermions, grid)[1]])
    _, atoms, _ = solver._Cells(half_box_params(sc, grid, "tf"), True).states(mu).sums()
    assert atoms[1] < 0.5 * targets[1]
    gs = minimize(sc, grid, SolverOptions(mode="tf"))
    _assert_kkt_state(gs)
    assert gs.energy == pytest.approx(9.566805088210786e-25, rel=1e-13, abs=0.0)


def test_dual_ascent_out_of_newton_steps(monkeypatch):
    # On 16x32 at -800 a0 the ascent climbs for all _MAX_NEWTON steps without
    # settling, and the best assignment it leaves holds no condensate: the
    # mixture collapses, after 122 cell evaluations.
    calls = _count_evaluations(monkeypatch)
    with pytest.raises(ThomasFermiCollapse, match="a_bf = -800 a0, the best pointwise state"
                                                  " holds 0 times the condensate's atoms"):
        minimize(SC.with_a_bf(-800.0 * A_BOHR), grid_for_scenario(SC, 16, 32),
                 SolverOptions(mode="tf"))
    assert len(calls) == 122


def test_collapsed_tf_mixture_raises(grid32):
    # -300 a0 still has a state with every cell at a local minimum. Past it
    # the Thomas-Fermi mixture collapses, and the solve names that instead of
    # returning a state: at -600 a0 the best assignment holds ten times the
    # condensate's atoms, at -1000 a0 some cells have no local minimum at all.
    _assert_kkt_state(minimize(SC.with_a_bf(-300.0 * A_BOHR), grid32, SolverOptions(mode="tf")))
    for a_bf_a0, why in ((-600.0, "holds 9.99 times the condensate's atoms"),
                         (-1000.0, "has cells at no local minimum")):
        with pytest.raises(ThomasFermiCollapse, match=f"a_bf = {a_bf_a0:g} a0, .*{why}"):
            minimize(SC.with_a_bf(a_bf_a0 * A_BOHR), grid32, SolverOptions(mode="tf"))


def test_tf_state_at_zero_coupling_is_the_tf_profiles(grid32):
    gs = minimize(SC, grid32, SolverOptions(mode="tf"))
    _assert_kkt_state(gs)
    bec, _ = bec_tf_profile(SC.bosons, SC.condensate_number, grid32)
    sea, _ = fermi_tf_profile(SC.fermions, SC.n_fermions, grid32)
    np.testing.assert_allclose(gs.n_b.values, bec.values, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(gs.n_f.values, sea.values, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a_bf_a0", [0.0, 300.0, -300.0])
def test_tf_state_without_a_condensate(grid32, a_bf_a0):
    sc = MixtureScenario(
        bosons=SC.bosons,
        fermions=SC.fermions,
        n_bosons=SC.n_bosons,
        n_fermions=SC.n_fermions,
        condensate_fraction=0.0,
        a_bf=a_bf_a0 * A_BOHR,
    )
    gs = minimize(sc, grid32, SolverOptions(mode="tf"))
    _assert_kkt_state(gs)
    assert gs.mu_b == 0.0 and not np.any(gs.n_b.values)
    sea, _ = fermi_tf_profile(SC.fermions, SC.n_fermions, grid32)
    np.testing.assert_allclose(gs.n_f.values, sea.values, rtol=1e-14, atol=0.0)


def test_tf_state_with_attraction(grid32):
    # at -300 a0 the two clouds pull together, and every cell is still a
    # local minimum
    gs = minimize(SC.with_a_bf(-300.0 * A_BOHR), grid32, SolverOptions(mode="tf"))
    _assert_kkt_state(gs)
    # the sea gathers at the condensate, which it overlaps everywhere
    free = minimize(SC, grid32, SolverOptions(mode="tf"))
    assert gs.n_f.center_value() > free.n_f.center_value()
    assert np.all(gs.n_f.values[gs.n_b.values > 0.0] > 0.0)


def test_tf_state_is_at_or_below_every_tf_flow():
    # the former tf-mode flow's energies from three starts, at a_bf = 0 and
    # the acceptance points on the default grid (tests/make_tf_flow_energies.py)
    record = json.loads(FLOW_ENERGIES.read_text(encoding="utf-8"))
    grid = grid_for_scenario(SC, *record["grid"])
    for point in record["points"]:
        gs = minimize(SC.with_a_bf(point["a_bf_a0"] * A_BOHR), grid, SolverOptions(mode="tf"))
        assert gs.converged
        lowest = min(point["upward_j"], point["downward_j"], point["cold_j"])
        # At a_bf = 0 the cold flow returned its start, the same profiles
        # renormalized to the atom numbers, which the calibrated profiles
        # hold to 1.3e-15: the two energies agree to that.
        assert gs.energy <= lowest * (1.0 + 4e-15), point["a_bf_a0"]
