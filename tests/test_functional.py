"""Energy functional, discrete kinetic stencil, and their exact adjointness."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixsep import functional
from mixsep.config import default_scenario
from mixsep.constants import A_BOHR, HBAR
from mixsep.errors import NumericalBlowup
from mixsep.functional import (
    ENERGY_TERMS,
    EnergyFunctionalParams,
    KineticStencil,
    apply_hamiltonians,
    energy_terms,
    evaluate,
    functional_params,
    half_box_params,
    tf_pressure_coefficient,
)
from mixsep.grid import Grid2D, dot, grid_for_box
from mixsep.profiles import bec_tf_profile, fermi_tf_profile, grid_for_scenario
from mixsep.solver import SolverOptions, local_scale_bound, minimize

SC = default_scenario(a_bf=300.0 * A_BOHR)


@pytest.fixture(scope="module")
def small():
    grid = grid_for_box(30e-6, 40e-6, 12, 16)
    rng = np.random.default_rng(7)
    rho, z = grid.mesh()
    env = np.exp(-(rho**2) / (12e-6) ** 2 - z**2 / (20e-6) ** 2)
    psi = 6.3e9 * env * (1.0 + 0.1 * rng.standard_normal((12, 16)))
    phi = 1.1e9 * env * (1.0 + 0.1 * rng.standard_normal((12, 16)))
    return grid, np.abs(psi), np.abs(phi)


def test_term_names_fixed():
    assert ENERGY_TERMS == (
        "bec_kinetic",
        "bec_trap",
        "bec_interaction",
        "fermi_pressure",
        "fermi_gradient",
        "fermi_trap",
        "interspecies",
    )


def test_tf_pressure_coefficient():
    m = 6.0 * 1.66053906660e-27
    expect = 0.6 * HBAR**2 / (2.0 * m) * (6.0 * math.pi**2) ** (2.0 / 3.0)
    assert tf_pressure_coefficient(m) == pytest.approx(expect, rel=1e-14)


def test_mode_validation(small):
    grid, _, _ = small
    with pytest.raises(ValueError):
        functional_params(SC, grid, mode="gross")


def test_tf_mode_drops_kinetic_terms(small):
    grid, psi, phi = small
    full = functional_params(SC, grid, "full")
    tf = functional_params(SC, grid, "tf")
    assert full.coef_kin_b > 0.0 and full.coef_kin_f > 0.0
    assert tf.coef_kin_b == 0.0 and tf.coef_kin_f == 0.0
    st = KineticStencil(grid)
    terms = energy_terms(tf, psi, phi, st)
    assert terms["bec_kinetic"] == 0.0
    assert terms["fermi_gradient"] == 0.0
    terms_full = energy_terms(full, psi, phi, st)
    assert terms_full["bec_kinetic"] > 0.0
    assert terms_full["fermi_gradient"] > 0.0
    # local terms agree between modes
    for name in ("bec_trap", "bec_interaction", "fermi_pressure", "fermi_trap", "interspecies"):
        assert terms[name] == terms_full[name]


def weighted(grid, *fields):
    """The fields times sqrt(w), row by row: the amplitudes evaluate takes."""
    root = grid.root_volumes[:, None]
    return tuple(root * u for u in fields)


def test_total_energy_is_sum_of_terms(small):
    grid, psi, phi = small
    params = functional_params(SC, grid, "full")
    ev = evaluate(params, psi, phi, KineticStencil(grid))
    assert ev.energy == pytest.approx(sum(ev.terms.values()), rel=1e-15)
    assert set(ev.terms) == set(ENERGY_TERMS)


def five_point(grid, u):
    """Minus the cylindrical Laplacian of u by the plain 5-point formula.

    Zero ghost cells stand for the Dirichlet outer rho and z edges; the axis
    needs none, because its inner face has zero radius.
    """
    i = np.arange(grid.n_rho, dtype=float)[:, None]
    up, down = (i + 1.0) / (i + 0.5), i / (i + 0.5)
    p = np.pad(u, 1)
    radial = up * (u - p[2:, 1:-1]) + down * (u - p[:-2, 1:-1])
    axial = 2.0 * u - p[1:-1, 2:] - p[1:-1, :-2]
    return radial / grid.d_rho**2 + axial / grid.d_z**2


# One cube root, row-by-row sums and the scaled stencil round differently from
# the plain formulas; the worst case seen on this fixture is 2.6e-15.
FORMULA_RTOL = 1e-13


def explicit_functional(params, psi, phi):
    """(terms, hess_b + mu_b, hess_f + mu_f, H_b psi, H_f phi) of unweighted
    fields, by the plain formulas.

    hess + mu is each Hamiltonian's local part plus what the second
    variation adds to it. Every quadrature is np.sum(w * ...), and the
    kinetic operator is the 5-point formula on the full grid.
    """
    grid = params.grid
    w = grid.weights[:, : psi.shape[1]]
    n_b, n_f = psi * psi, phi * phi
    loc_b = params.v_b + params.g_bb * n_b + params.g_bf * n_f
    loc_f = params.v_f + (5.0 / 3.0) * params.c_tf * n_f ** (2.0 / 3.0) + params.g_bf * n_b
    h_psi, h_phi = loc_b * psi, loc_f * phi
    kinetic = {"bec_kinetic": 0.0, "fermi_gradient": 0.0}
    if params.coef_kin_b or params.coef_kin_f:
        k_psi, k_phi = five_point(grid, psi), five_point(grid, phi)
        h_psi = h_psi + params.coef_kin_b * k_psi
        h_phi = h_phi + params.coef_kin_f * k_phi
        kinetic = {
            "bec_kinetic": params.coef_kin_b * float(np.sum(w * psi * k_psi)),
            "fermi_gradient": params.coef_kin_f * float(np.sum(w * phi * k_phi)),
        }
    terms = {
        **kinetic,
        "bec_trap": float(np.sum(w * params.v_b * n_b)),
        "bec_interaction": 0.5 * params.g_bb * float(np.sum(w * n_b * n_b)),
        "fermi_pressure": params.c_tf * float(np.sum(w * n_f ** (5.0 / 3.0))),
        "fermi_trap": float(np.sum(w * params.v_f * n_f)),
        "interspecies": params.g_bf * float(np.sum(w * n_b * n_f)),
    }
    second_b = loc_b + 2.0 * params.g_bb * n_b
    second_f = loc_f + (4.0 / 3.0) * (5.0 / 3.0) * params.c_tf * n_f ** (2.0 / 3.0)
    return terms, second_b, second_f, h_psi, h_phi


@pytest.mark.parametrize("mode", ["full", "tf"])
def test_evaluate_matches_term_by_term_formulas(small, mode):
    # the unweighted views on full-grid C-order fields, against the plain
    # formulas the functional is defined by
    grid, psi, phi = small
    params = functional_params(SC, grid, mode)
    st_ = KineticStencil(grid)
    psi0, phi0 = psi.copy(), phi.copy()
    terms = energy_terms(params, psi, phi, st_)
    h_psi, h_phi = apply_hamiltonians(params, psi, phi, st_)
    np.testing.assert_array_equal(psi, psi0)
    np.testing.assert_array_equal(phi, phi0)

    want_terms, _, _, want_psi, want_phi = explicit_functional(params, psi, phi)
    for got, want in ((h_psi, want_psi), (h_phi, want_phi)):
        np.testing.assert_allclose(got, want, rtol=FORMULA_RTOL, atol=0.0)
    for name, want in want_terms.items():
        assert terms[name] == pytest.approx(want, rel=FORMULA_RTOL, abs=0.0), name
    # the total sums the terms in this order
    assert list(terms) == [
        "bec_kinetic",
        "fermi_gradient",
        "bec_trap",
        "bec_interaction",
        "fermi_pressure",
        "fermi_trap",
        "interspecies",
    ]

    # the views are the one evaluation, scaled in and out
    ev = evaluate(params, *weighted(grid, psi, phi), st_)
    assert terms == ev.terms
    root = grid.root_volumes[:, None]
    np.testing.assert_array_equal(h_psi, ev.h_psi / root)
    np.testing.assert_array_equal(h_phi, ev.h_phi / root)


@pytest.mark.parametrize("mode", ["full", "tf"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weighted_evaluate_matches_explicit_weights(small, mode, order, seed):
    # random fields, each zero past a random z column, in either layout:
    # evaluate on sqrt(w) u gives the explicitly weighted terms, and
    # H~ u~ = sqrt(w) (H u)
    grid, psi, phi = small
    params = functional_params(SC, grid, mode)
    params = replace(params, v_b=np.array(params.v_b, order=order),
                     v_f=np.array(params.v_f, order=order))
    rng = np.random.default_rng(seed)
    fields = []
    for u in (psi, phi):
        u = np.array(u * rng.uniform(0.5, 1.5, u.shape), order=order)
        u[:, rng.integers(1, grid.n_z + 1):] = 0.0
        fields.append(u)
    ev = evaluate(params, *weighted(grid, *fields), KineticStencil(grid))
    want_terms, second_b, second_f, h_psi, h_phi = explicit_functional(params, *fields)
    for name, want in want_terms.items():
        assert ev.terms[name] == pytest.approx(want, rel=1e-12, abs=0.0), name
    root = grid.root_volumes[:, None]
    pairs = ((ev.h_psi, root * h_psi), (ev.h_phi, root * h_phi),
             (ev.hess_b + ev.mu_b, second_b), (ev.hess_f + ev.mu_f, second_f))
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=FORMULA_RTOL, atol=0.0)


@st.composite
def random_functionals(draw):
    """(params, psi, phi) on a small grid with O(1) fields and couplings.

    The fields stay positive and away from zero so that the n_f^(5/3)
    pressure is smooth across the finite-difference steps.
    """
    n_rho = draw(st.integers(2, 10))
    n_z = 2 * draw(st.integers(1, 5))
    grid = Grid2D(n_rho, n_z, draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coupling = st.floats(0.0, 2.0)
    params = EnergyFunctionalParams(
        grid=grid,
        v_b=rng.uniform(0.0, 2.0, (n_rho, n_z)),
        v_f=rng.uniform(0.0, 2.0, (n_rho, n_z)),
        g_bb=draw(coupling),
        g_bf=draw(st.floats(-1.0, 2.0)),
        c_tf=draw(coupling),
        coef_kin_b=draw(coupling),
        coef_kin_f=draw(coupling),
    )
    psi = rng.uniform(0.2, 1.0, (n_rho, n_z))
    phi = rng.uniform(0.2, 1.0, (n_rho, n_z))
    return params, psi, phi


@settings(derandomize=True, deadline=None)
@given(
    n_rho=st.integers(2, 40),
    half_n_z=st.integers(1, 20),
    d_rho=st.floats(1e-7, 1e-5),
    d_z=st.floats(1e-7, 1e-5),
    seed=st.integers(0, 2**32 - 1),
)
# the smallest grid: every cell is an axial edge and the shifted slices are one column
@example(n_rho=2, half_n_z=1, d_rho=1e-6, d_z=2e-6, seed=0)
def test_stencil_matches_five_point_formula(n_rho, half_n_z, d_rho, d_z, seed):
    grid = Grid2D(n_rho, 2 * half_n_z, d_rho, d_z)
    u = np.random.default_rng(seed).standard_normal((n_rho, 2 * half_n_z))
    # the stencil takes and gives amplitudes scaled by sqrt(w)
    (u_w,) = weighted(grid, u)
    got = KineticStencil(grid).apply(u_w)
    want = five_point(grid, u)
    assert got.shape == want.shape
    got_u = got / grid.root_volumes[:, None]
    assert np.max(np.abs(got_u - want)) <= 1e-13 * np.max(np.abs(want))
    # the layout the solver stores its fields in gives the same bytes
    assert KineticStencil(grid).apply(np.asfortranarray(u_w)).tobytes() == got.tobytes()


@settings(derandomize=True, deadline=None)
@given(
    n_rho=st.integers(2, 40),
    half_n_z=st.integers(1, 20),
    d_rho=st.floats(1e-7, 1e-5),
    d_z=st.floats(1e-7, 1e-5),
    seed=st.integers(0, 2**32 - 1),
)
# one column: the z = 0 face is also the only axial neighbour; five: n_z/2 odd
@example(n_rho=2, half_n_z=1, d_rho=1e-6, d_z=2e-6, seed=0)
@example(n_rho=3, half_n_z=5, d_rho=1e-6, d_z=2e-6, seed=1)
def test_mirror_stencil_is_full_stencil_on_upper_half(n_rho, half_n_z, d_rho, d_z, seed):
    # The half box is the full grid's z > 0 columns; only the stencil knows it.
    grid = Grid2D(n_rho, 2 * half_n_z, d_rho, d_z)
    upper = np.random.default_rng(seed).standard_normal((n_rho, half_n_z))
    field = np.concatenate((upper[:, ::-1], upper), axis=1)
    got = KineticStencil(grid, mirror=True).apply(upper)
    want = KineticStencil(grid).apply(field)[:, half_n_z:]
    # the same sums in the same order, so the same bits
    np.testing.assert_array_equal(got, want)
    fortran = KineticStencil(grid, mirror=True).apply(np.asfortranarray(upper))
    assert fortran.tobytes() == got.tobytes()


def dense_line_operator(grid):
    """W^1/2 (K_rho + 2/d_z^2) W^-1/2 as a dense (n_rho x n_rho) matrix.

    K_rho comes from the 5-point weights; W is the cell volume, proportional
    to the cell radius i + 1/2.
    """
    i = np.arange(grid.n_rho, dtype=float)
    up, down = (i + 1.0) / (i + 0.5), i / (i + 0.5)
    k = np.diag((up + down) / grid.d_rho**2 + 2.0 / grid.d_z**2)
    k -= np.diag(down[1:] / grid.d_rho**2, -1) + np.diag(up[:-1] / grid.d_rho**2, 1)
    root = np.sqrt(i + 0.5)
    return root[:, None] * k / root[None, :]


def dense_cell_solve(grid, coef, diag, b):
    """(coef K_line + diag(diag)) x = b solved column by column with numpy."""
    line = coef * dense_line_operator(grid)
    return np.stack(
        [np.linalg.solve(line + np.diag(diag[:, j]), b[:, j]) for j in range(b.shape[1])],
        axis=1,
    )


@settings(derandomize=True, deadline=None)
@given(
    n_rho=st.integers(2, 40),
    half_n_z=st.integers(1, 20),
    d_rho=st.floats(1e-7, 1e-5),
    d_z=st.floats(1e-7, 1e-5),
    coef=st.floats(0.0, 10.0),
    shift=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_rho=2, half_n_z=1, d_rho=1e-6, d_z=2e-6, coef=1.0, shift=1.0, seed=0)
def test_line_solve_matches_dense_solve(n_rho, half_n_z, d_rho, d_z, coef, shift, seed):
    # coef and shift are in units of 1/d_rho^2, so the operator's entries are
    # O(1); the diagonal varies from cell to cell, along z too, over a factor 10
    grid = Grid2D(n_rho, 2 * half_n_z, d_rho, d_z)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n_rho, 2 * half_n_z))
    coef *= d_rho**2
    diag = shift / d_rho**2 * rng.uniform(0.1, 1.0, b.shape)
    matrix = coef * dense_line_operator(grid)
    # the weighted line operator is symmetric
    np.testing.assert_allclose(matrix, matrix.T, rtol=1e-15, atol=0.0)
    want = dense_cell_solve(grid, coef, diag, b)
    got = b.copy()
    stencil = KineticStencil(grid)
    assert stencil.solve_cells(coef, diag.copy(), got) is got
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the solve's relative residual, column by column
    residual = np.stack(
        [(matrix + np.diag(diag[:, j])) @ got[:, j] - b[:, j] for j in range(b.shape[1])],
        axis=1,
    )
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(b))
    # a Fortran-order band of a wider field is solved in place, to the same
    # bytes, and the columns past it are left alone
    wide = np.full((n_rho, 2 * half_n_z + 2), 7.0, order="F")
    band = wide[:, : 2 * half_n_z]
    band[...] = b
    assert stencil.solve_cells(coef, np.asfortranarray(diag), band) is band
    assert band.flags.f_contiguous
    assert band.tobytes() == got.tobytes()
    assert np.all(wide[:, 2 * half_n_z:] == 7.0)


def test_line_solve_makes_no_copy_of_fortran_order(small, monkeypatch):
    # LAPACK gets the caller's memory for the right-hand side and the
    # diagonal: no copy in, none back, and one call per solve
    grid, _, _ = small
    stencil = KineticStencil(grid)
    rng = np.random.default_rng(4)
    b = np.asfortranarray(rng.standard_normal((grid.n_rho, grid.n_z)))
    # every stencil solves through the process's one dptsv binding
    original = functional._lapack_dptsv()
    seen = []

    def recording(d, e, rhs, **overwrite):
        seen.append((d.ctypes.data, rhs.ctypes.data))
        return original(d, e, rhs, **overwrite)

    monkeypatch.setattr(functional, "_lapack_dptsv", lambda: recording)
    for shift in (1.0, 2.0):
        diag = np.asfortranarray(shift / grid.d_rho**2 * rng.uniform(0.5, 1.0, b.shape))
        stencil.solve_cells(1.0, diag, b)
        assert seen[-1] == (diag.ctypes.data, b.ctypes.data)
    assert len(seen) == 2


def test_line_solve_keeps_its_operator(small):
    # a solve leaves the stencil's K_line as it was, so a repeat solve gives
    # the same bytes, whatever coefficient came in between
    grid, _, _ = small
    stencil = KineticStencil(grid)
    rng = np.random.default_rng(5)
    b = rng.standard_normal((grid.n_rho, grid.n_z))
    diag = 3.0 / grid.d_rho**2 * rng.uniform(0.5, 1.0, b.shape)
    kept = [a.copy() for a in (stencil._line_diag, stencil._line_off)]
    first = stencil.solve_cells(2.0, diag.copy(), b.copy())
    stencil.solve_cells(0.5, diag.copy(), b.copy())
    again = stencil.solve_cells(2.0, diag.copy(), b.copy())
    assert again.tobytes() == first.tobytes()
    for a, k in zip((stencil._line_diag, stencil._line_off), kept):
        assert a.tobytes() == k.tobytes()


@pytest.mark.parametrize("mode", ["full", "tf"])
# (columns psi reaches, columns phi reaches) on the 8-column half box; 8 is the box
@pytest.mark.parametrize("reach", [(2, 5), (5, 2), (3, 3), (8, 8), (7, 1)])
def test_banded_evaluation_equals_the_whole_box(small, mode, reach):
    # the solver's layout: the z > 0 half in Fortran order, a mirror stencil,
    # and each species passed as the band of columns it reaches plus a halo
    grid, psi, phi = small
    half = grid.n_z // 2
    params = functional_params(SC, grid, mode)
    params = replace(
        params,
        v_b=np.asfortranarray(params.v_b[:, half:]),
        v_f=np.asfortranarray(params.v_f[:, half:]),
    )
    stencil = KineticStencil(grid, mirror=True)
    fields = []
    for u, n in zip((psi, phi), reach):
        u = np.asfortranarray(u[:, half:])
        u[:, n:] = 0.0
        fields.append(u)
    whole = evaluate(params, *fields, stencil)
    bands = [min(n + 1, half) for n in reach]
    banded = evaluate(params, *(u[:, :b] for u, b in zip(fields, bands)), stencil)
    for name in ENERGY_TERMS:
        assert banded.terms[name] == pytest.approx(whole.terms[name], rel=1e-15, abs=0.0)
    assert banded.mu_b == pytest.approx(whole.mu_b, rel=1e-15, abs=0.0)
    assert banded.mu_f == pytest.approx(whole.mu_f, rel=1e-15, abs=0.0)
    pairs = ((banded.h_psi, whole.h_psi, bands[0]), (banded.h_phi, whole.h_phi, bands[1]))
    for got, want, band in pairs:
        assert got.shape[1] == band
        np.testing.assert_array_equal(got, want[:, :band])
        assert np.all(want[:, band:] == 0.0)
    np.testing.assert_array_equal(banded.hess_b, whole.hess_b[:, : bands[0]])
    np.testing.assert_array_equal(banded.hess_f, whole.hess_f[:, : bands[1]])


def test_line_operator_is_apply_without_axial_neighbours(small):
    # coef (K_rho + 2/d_z^2) x + diag x, formed from apply(), solves back to x
    grid, _, _ = small
    stencil = KineticStencil(grid)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((grid.n_rho, grid.n_z))
    neighbours = np.zeros_like(x)
    neighbours[:, :-1] += x[:, 1:]
    neighbours[:, 1:] += x[:, :-1]
    coef, diag = 2.0, 5.0 / grid.d_rho**2 * rng.uniform(0.1, 1.0, x.shape)
    b = coef * (stencil.apply(x) + neighbours / grid.d_z**2) + diag * x
    np.testing.assert_allclose(stencil.solve_cells(coef, diag, b), x, rtol=0.0, atol=1e-12)


@settings(derandomize=True, deadline=None)
@given(case=random_functionals(), seed=st.integers(0, 2**32 - 1))
def test_gradient_is_twice_weighted_hamiltonian(case, seed):
    # dE/dpsi = 2 w (H_b psi) and dE/dphi = 2 w (H_f phi), by central
    # differences, through the weighted evaluation: H u = (H~ u~) / sqrt(w)
    params, psi, phi = case
    grid = params.grid
    st_ = KineticStencil(grid)
    w = grid.weights
    root = grid.root_volumes[:, None]
    ev = evaluate(params, *weighted(grid, psi, phi), st_)
    rng = np.random.default_rng(seed)
    eps = 1e-4
    for which, h in enumerate((ev.h_psi / root, ev.h_phi / root)):
        d = rng.standard_normal(psi.shape)

        def energy(t):
            fields = [psi, phi]
            fields[which] = fields[which] + t * d
            return evaluate(params, *weighted(grid, *fields), st_).energy

        num = (energy(eps) - energy(-eps)) / (2.0 * eps)
        grad_d = 2.0 * w * h * d
        assert num == pytest.approx(float(np.sum(grad_d)), abs=1e-6 * float(np.sum(np.abs(grad_d))))


@settings(derandomize=True, deadline=None)
@given(case=random_functionals())
def test_mu_from_terms_is_rayleigh_quotient(case):
    params, psi, phi = case
    grid = params.grid
    w = grid.weights
    root = grid.root_volumes[:, None]
    ev = evaluate(params, *weighted(grid, psi, phi), KineticStencil(grid))
    for mu, u, h in ((ev.mu_b, psi, ev.h_psi / root), (ev.mu_f, phi, ev.h_phi / root)):
        norm2 = float(np.sum(w * u * u))
        want = float(np.sum(w * u * h)) / norm2
        # the terms may have either sign, so the bound scales with their magnitudes
        scale = float(np.sum(w * np.abs(u * h))) / norm2
        assert abs(mu - want) <= 1e-12 * scale


@settings(derandomize=True, deadline=None)
@given(case=random_functionals(), seed=st.integers(0, 2**32 - 1), tf=st.booleans())
def test_absolute_amplitudes_never_raise_the_energy(case, seed, tf):
    # Every term but the kinetic ones depends on u^2 only, and each kinetic
    # term is a sum of squared face differences, with (|a| - |b|)^2 <= (a - b)^2.
    params, psi, phi = case
    if tf:
        params = replace(params, coef_kin_b=0.0, coef_kin_f=0.0)
    rng = np.random.default_rng(seed)
    psi = psi * rng.choice((-1.0, 1.0), psi.shape)
    phi = phi * rng.choice((-1.0, 1.0), phi.shape)
    st_ = KineticStencil(params.grid)
    signed = evaluate(params, psi, phi, st_).terms
    folded = evaluate(params, np.abs(psi), np.abs(phi), st_).terms
    scale = sum(abs(v) for v in signed.values())
    assert sum(folded.values()) <= sum(signed.values()) + 1e-14 * scale
    if tf:
        assert folded == signed


def test_blowup_names_offending_term(small):
    grid, psi, phi = small
    params = functional_params(SC, grid, "full")
    bad = psi.copy()
    bad[3, 4] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalBlowup, match="not finite"):
        energy_terms(params, bad, phi, KineticStencil(grid))


class TestKineticStencil:
    def test_symmetric_under_volume_weights(self, small):
        # K is symmetric under the volume weights, so K~ = W^1/2 K W^-1/2,
        # which the stencil applies, is symmetric under the plain sum
        grid, _, _ = small
        st = KineticStencil(grid)
        rng = np.random.default_rng(12)
        u = rng.standard_normal((grid.n_rho, grid.n_z))
        v = rng.standard_normal((grid.n_rho, grid.n_z))
        lhs = float(np.sum(u * st.apply(v)))
        rhs = float(np.sum(v * st.apply(u)))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        root = grid.root_volumes[:, None]
        k_u, k_v = st.apply(root * u) / root, st.apply(root * v) / root
        lhs = float(np.sum(grid.weights * u * k_v))
        rhs = float(np.sum(grid.weights * v * k_u))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # and so is its dense matrix, on each layout and with the mirror face
        for mirror in (False, True):
            st_m = KineticStencil(grid, mirror=mirror)
            basis = np.eye(grid.n_rho * grid.n_z).reshape(-1, grid.n_rho, grid.n_z)
            dense = np.array([st_m.apply(e).ravel() for e in basis])
            np.testing.assert_allclose(dense, dense.T, rtol=1e-14, atol=0.0)

    def test_positive_semidefinite(self, small):
        grid, _, _ = small
        st = KineticStencil(grid)
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = rng.standard_normal((grid.n_rho, grid.n_z))
            q = float(np.sum(u * st.apply(u)))
            assert q >= 0.0

    def test_interior_constant_annihilated(self, small):
        grid, _, _ = small
        st = KineticStencil(grid)
        (ones,) = weighted(grid, np.ones((grid.n_rho, grid.n_z)))
        out = st.apply(ones) / grid.root_volumes[:, None]
        # interior (away from the Dirichlet edges) must be exactly flat
        np.testing.assert_allclose(out[:-1, 1:-1], 0.0, atol=1e-12 / grid.d_rho**2)

    def test_eigenvalue_bound_holds(self, small):
        grid, _, _ = small
        st = KineticStencil(grid)
        # Gershgorin: each row's off-diagonal weights sum to its diagonal
        bound = 2.0 * float(np.max(np.diag(dense_line_operator(grid))))
        rng = np.random.default_rng(14)
        u = rng.standard_normal((grid.n_rho, grid.n_z))
        for _ in range(60):
            u = st.apply(u)
            u /= np.sqrt(np.sum(u * u))
        rayleigh = float(np.sum(u * st.apply(u)))
        assert rayleigh <= bound

    def test_gradient_quadrature_converges_to_analytic(self):
        # integral of |grad exp(-r^2 / 2 s^2)|^2 over all space = 1.5 pi^1.5 s
        s = 5e-6
        exact = 1.5 * math.pi**1.5 * s

        def form(n_rho, n_z):
            g = grid_for_box(20e-6, 20e-6, n_rho, n_z)
            rho, z = g.mesh()
            (u,) = weighted(g, np.exp(-(rho**2 + z**2) / (2.0 * s**2)))
            return dot(u, KineticStencil(g).apply(u))

        e1 = abs(form(48, 96) - exact) / exact
        e2 = abs(form(96, 192) - exact) / exact
        assert e1 < 2e-2
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)


class TestAdjointness:
    """dE/dpsi == 2 w (H psi) checked by central differences."""

    def directional(self, energy, x, d, eps):
        return (energy(x + eps * d) - energy(x - eps * d)) / (2.0 * eps)

    @pytest.mark.parametrize("mode", ["full", "tf"])
    def test_bec_field(self, small, mode):
        grid, psi, phi = small
        params = functional_params(SC, grid, mode)
        st = KineticStencil(grid)

        def energy(p):
            return sum(energy_terms(params, p, phi, st).values())

        h_psi, _ = apply_hamiltonians(params, psi, phi, st)
        grad = 2.0 * grid.weights * h_psi
        rng = np.random.default_rng(21)
        d = rng.standard_normal(psi.shape)
        eps = 1e-5 * float(np.max(psi))
        num = self.directional(energy, psi, d, eps)
        ana = float(np.sum(grad * d))
        assert num == pytest.approx(ana, rel=1e-6)

    @pytest.mark.parametrize("mode", ["full", "tf"])
    def test_fermi_field(self, small, mode):
        grid, psi, phi = small
        params = functional_params(SC, grid, mode)
        st = KineticStencil(grid)

        def energy(q):
            return sum(energy_terms(params, psi, q, st).values())

        _, h_phi = apply_hamiltonians(params, psi, phi, st)
        grad = 2.0 * grid.weights * h_phi
        rng = np.random.default_rng(22)
        d = rng.standard_normal(phi.shape)
        eps = 1e-5 * float(np.max(phi))
        num = self.directional(energy, phi, d, eps)
        ana = float(np.sum(grad * d))
        assert num == pytest.approx(ana, rel=1e-6)


def test_local_scale_bound_orders(small):
    # D = max(hess, 0) + floor, built in the evaluation's hess: never below
    # the floor, and larger where the local curvature is
    grid, psi, phi = small
    params = functional_params(SC, grid, "full")
    ev = evaluate(params, *weighted(grid, psi, phi), KineticStencil(grid))
    for hess, mu in ((ev.hess_b, ev.mu_b), (ev.hess_f, ev.mu_f)):
        local = hess.copy()
        floor = 0.3 * abs(mu)
        d = local_scale_bound(hess, floor)
        # built in place in the evaluation's hess
        assert d is hess
        np.testing.assert_array_equal(d, np.maximum(local, 0.0) + floor)
        assert np.all(d >= floor) and np.any(d > floor)
        order = np.argsort(local, axis=None, kind="stable")
        assert np.all(np.diff(d.ravel()[order]) >= 0.0)
    # where the curvature does not exceed mu, D is the floor
    np.testing.assert_array_equal(local_scale_bound(np.array([[-4.0, -1.0, 1.0]]), 0.5),
                                  [[0.5, 0.5, 1.5]])


@pytest.fixture(scope="module")
def mixed_and_separated():
    """Full-mode ground states on 32x64 at 300 a0 (mixed) and 1480 a0 (separated)."""
    states = []
    for a_bf_a0 in (300.0, 1480.0):
        sc = SC.with_a_bf(a_bf_a0 * A_BOHR)
        gs = minimize(sc, grid_for_scenario(sc, 32, 64), SolverOptions(mode="full"))
        assert gs.converged
        states.append(gs)
    return states


@pytest.mark.parametrize("which", ["mixed", "separated"])
def test_curvature_is_the_local_part_of_the_second_variation(mixed_and_separated, which):
    # Without the kinetic term (tf-mode params) H u is local: each cell of
    # H~ u~ depends on that cell's amplitudes alone. So the derivative of
    # cell i of H~ u~ by u~_i, the local part of the second variation plus
    # mu, is a central difference under a perturbation of cell i alone, and
    # perturbing every cell at once takes all those one-cell differences in
    # one evaluation. It must be hess + mu, for both species.
    gs = mixed_and_separated[["mixed", "separated"].index(which)]
    grid = gs.grid
    params = functional_params(gs.scenario, grid, "tf")
    stencil = KineticStencil(grid)
    root = grid.root_volumes[:, None]
    psi, phi = root * np.sqrt(gs.n_b.values), root * np.sqrt(gs.n_f.values)
    if which == "separated":
        # the centre holds almost no fermions
        assert gs.n_f.center_value() < 1e-6 * gs.n_f.peak()
    ev = evaluate(params, psi, phi, stencil)
    step = 1e-5
    for k, (u, h, hess, mu) in enumerate(
        ((psi, "h_psi", ev.hess_b, ev.mu_b), (phi, "h_phi", ev.hess_f, ev.mu_f))
    ):
        shifted = []
        for sign in (1.0, -1.0):
            fields = [psi, phi]
            fields[k] = u * (1.0 + sign * step)
            shifted.append(getattr(evaluate(params, *fields, stencil), h))
        held = u != 0.0
        fd = (shifted[0][held] - shifted[1][held]) / (2.0 * step * u[held])
        np.testing.assert_allclose(fd, (hess + mu)[held], rtol=1e-8, atol=0.0)
        # hess + mu is the local potential H u / u plus what the second
        # variation adds: 2 g_bb n_b and (4/3) (5/3) c_TF n_f^(2/3)
        n = (u / root) ** 2
        curv = 2.0 * params.g_bb * n if k == 0 else (20.0 / 9.0) * params.c_tf * np.cbrt(n) ** 2
        local = getattr(ev, h)[held] / u[held]
        np.testing.assert_allclose((hess + mu)[held], local + curv[held], rtol=1e-12, atol=0.0)
        assert np.all(curv >= 0.0) and np.any(curv > 0.0)


def test_unweighted_calls_scale_the_single_pass():
    # apply_hamiltonians and energy_terms scale the fields into two new
    # arrays and run evaluate on them: on the full 256x512 grid each peaks
    # at 8.07 field-sized arrays of 1 MiB, the pass's six and the two copies
    grid = grid_for_scenario(SC, 256, 512)
    params = functional_params(SC, grid, "full")
    psi = np.sqrt(bec_tf_profile(SC.bosons, SC.condensate_number, grid)[0].values)
    phi = np.sqrt(fermi_tf_profile(SC.fermions, SC.n_fermions, grid)[0].values)
    stencil = KineticStencil(grid)
    peaks = []
    for fn in (apply_hamiltonians, energy_terms):
        tracemalloc.start()
        try:
            result = fn(params, psi, phi, stencil)
            peaks.append(tracemalloc.get_traced_memory()[1] / phi.nbytes)
        finally:
            tracemalloc.stop()
        del result
    assert max(peaks) <= 8.2
    # the same bits as the solver's pass, scaled back out
    root = grid.root_volumes[:, None]
    ev = evaluate(params, psi * root, phi * root, stencil)
    h_psi, h_phi = apply_hamiltonians(params, psi, phi, stencil)
    np.testing.assert_array_equal(h_psi, ev.h_psi / root)
    np.testing.assert_array_equal(h_phi, ev.h_phi / root)
    assert energy_terms(params, psi, phi, stencil) == ev.terms


def test_solver_pass_peak_memory():
    # the solver's pass adds each curvature to its local potential as soon as
    # that species' H u is built, which frees the curvature's buffer before
    # the next stencil apply, and frees a_b once it has joined the fermions'
    # local potential: on the 256x512 half box it peaks at 6.13 band-sized
    # arrays with both bands full, and at 5.38 with a quarter-width boson
    # band, where keeping both curvatures to the end would take 5.63
    grid = grid_for_scenario(SC, 256, 512)
    params = half_box_params(SC, grid, "full")
    stencil = KineticStencil(grid, mirror=True)
    half, root = grid.n_z // 2, grid.root_volumes[:, None]
    psi, phi = (
        np.asfortranarray(root * np.sqrt(f[0].values[:, half:]))
        for f in (bec_tf_profile(SC.bosons, SC.condensate_number, grid),
                  fermi_tf_profile(SC.fermions, SC.n_fermions, grid))
    )
    evaluate(params, psi, phi, stencil)  # builds params.row_factors
    peaks = []
    for n_zb in (half, half // 4):
        assert not psi[:, n_zb - 1:].any()
        tracemalloc.start()
        try:
            ev = evaluate(params, psi[:, :n_zb], phi, stencil)
            peaks.append(tracemalloc.get_traced_memory()[1] / phi.nbytes)
        finally:
            tracemalloc.stop()
        del ev
    assert peaks[0] <= 6.2
    assert peaks[1] <= 5.45


@pytest.mark.parametrize("mode", ["full", "tf"])
def test_half_box_params_hold_the_upper_half_to_the_bit(small, mode):
    # the solver's potentials are built on the z > 0 columns alone, in
    # Fortran order, with the bits of the whole grid's potentials there
    grid, _, _ = small
    whole, half = functional_params(SC, grid, mode), half_box_params(SC, grid, mode)
    for name in ("v_b", "v_f"):
        upper, built = getattr(whole, name)[:, grid.n_z // 2:], getattr(half, name)
        assert built.flags.f_contiguous
        assert built.tobytes("F") == upper.tobytes("F")
    for name in ("grid", "g_bb", "g_bf", "c_tf", "coef_kin_b", "coef_kin_f"):
        assert getattr(half, name) == getattr(whole, name)


def test_given_norms_replace_only_the_norm_sums(small):
    # the solver passes the atom numbers it renormalized to; given the sums
    # themselves, evaluate returns the same bits as summing them
    grid, psi, phi = small
    params = functional_params(SC, grid, "full")
    st_ = KineticStencil(grid)
    psi, phi = weighted(grid, psi, phi)
    summed = evaluate(params, psi, phi, st_)
    norms = (dot(psi, psi), dot(phi, phi))
    given = evaluate(params, psi, phi, st_, norms)
    assert given.terms == summed.terms
    assert (given.mu_b, given.mu_f) == (summed.mu_b, summed.mu_f)
    for a, b in ((given.h_psi, summed.h_psi), (given.h_phi, summed.h_phi)):
        np.testing.assert_array_equal(a, b)
    doubled = evaluate(params, psi, phi, st_, (2.0 * norms[0], 2.0 * norms[1]))
    assert (doubled.mu_b, doubled.mu_f) == (0.5 * summed.mu_b, 0.5 * summed.mu_f)
