"""Energy functional, discrete kinetic stencil, and their exact adjointness."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    local_scale_bound,
    tf_pressure_coefficient,
)
from mixsep.grid import Grid2D, grid_for_box

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


@pytest.mark.parametrize("mode", ["full", "tf"])
def test_evaluate_matches_term_by_term_formulas(small, mode):
    grid, psi, phi = small
    params = functional_params(SC, grid, mode)
    st_ = KineticStencil(grid)
    psi0, phi0 = psi.copy(), phi.copy()
    ev = evaluate(params, psi, phi, st_)
    np.testing.assert_array_equal(psi, psi0)
    np.testing.assert_array_equal(phi, phi0)

    w = grid.weights
    n_b, n_f = psi * psi, phi * phi
    loc_b = params.v_b + params.g_bb * n_b + params.g_bf * n_f
    loc_f = params.v_f + (5.0 / 3.0) * params.c_tf * n_f ** (2.0 / 3.0) + params.g_bf * n_b
    h_psi, h_phi = loc_b * psi, loc_f * phi
    kinetic = {"bec_kinetic": 0.0, "fermi_gradient": 0.0}
    if mode == "full":
        k_psi, k_phi = five_point(grid, psi), five_point(grid, phi)
        h_psi = h_psi + params.coef_kin_b * k_psi
        h_phi = h_phi + params.coef_kin_f * k_phi
        kinetic = {
            "bec_kinetic": params.coef_kin_b * float(np.sum(w * psi * k_psi)),
            "fermi_gradient": params.coef_kin_f * float(np.sum(w * phi * k_phi)),
        }
    for got, want in ((ev.loc_b, loc_b), (ev.loc_f, loc_f), (ev.h_psi, h_psi), (ev.h_phi, h_phi)):
        np.testing.assert_allclose(got, want, rtol=FORMULA_RTOL, atol=0.0)
    want_terms = {
        **kinetic,
        "bec_trap": float(np.sum(w * params.v_b * n_b)),
        "bec_interaction": 0.5 * params.g_bb * float(np.sum(w * n_b * n_b)),
        "fermi_pressure": params.c_tf * float(np.sum(w * n_f ** (5.0 / 3.0))),
        "fermi_trap": float(np.sum(w * params.v_f * n_f)),
        "interspecies": params.g_bf * float(np.sum(w * n_b * n_f)),
    }
    for name, want in want_terms.items():
        assert ev.terms[name] == pytest.approx(want, rel=FORMULA_RTOL, abs=0.0), name
    # the total sums the terms in this order
    assert list(ev.terms) == [
        "bec_kinetic",
        "fermi_gradient",
        "bec_trap",
        "bec_interaction",
        "fermi_pressure",
        "fermi_trap",
        "interspecies",
    ]

    # the views return the same arrays and terms
    assert energy_terms(params, psi, phi, st_) == ev.terms
    for got, want in zip(apply_hamiltonians(params, psi, phi, st_), (ev.h_psi, ev.h_phi)):
        np.testing.assert_array_equal(got, want)


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
    got = KineticStencil(grid).apply(u)
    want = five_point(grid, u)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the layout the solver stores its fields in gives the same bytes
    assert KineticStencil(grid).apply(np.asfortranarray(u)).tobytes() == got.tobytes()


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
    """K_rho + 2/d_z^2 as a dense (n_rho x n_rho) matrix, from the 5-point weights."""
    i = np.arange(grid.n_rho, dtype=float)
    up, down = (i + 1.0) / (i + 0.5), i / (i + 0.5)
    k = np.diag((up + down) / grid.d_rho**2 + 2.0 / grid.d_z**2)
    k -= np.diag(down[1:] / grid.d_rho**2, -1) + np.diag(up[:-1] / grid.d_rho**2, 1)
    return k


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
    # coef and shift are in units of 1/d_rho^2, so the operator's entries are O(1)
    grid = Grid2D(n_rho, 2 * half_n_z, d_rho, d_z)
    b = np.random.default_rng(seed).standard_normal((n_rho, 2 * half_n_z))
    coef *= d_rho**2
    shift /= d_rho**2
    want = np.linalg.solve(coef * dense_line_operator(grid) + shift * np.eye(n_rho), b)
    got = b.copy()
    stencil = KineticStencil(grid)
    assert stencil.solve_lines(coef, shift, got) is got
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # a Fortran-order band of a wider field is solved in place, to the same
    # bytes, and the columns past it are left alone
    wide = np.full((n_rho, 2 * half_n_z + 2), 7.0, order="F")
    band = wide[:, : 2 * half_n_z]
    band[...] = b
    assert stencil.solve_lines(coef, shift, band) is band
    assert band.flags.f_contiguous
    assert band.tobytes() == got.tobytes()
    assert np.all(wide[:, 2 * half_n_z:] == 7.0)


def test_line_solve_makes_no_copy_of_fortran_order(small, monkeypatch):
    # LAPACK gets the caller's memory: no copy in, none back
    grid, _, _ = small
    stencil = KineticStencil(grid)
    b = np.asfortranarray(np.random.default_rng(4).standard_normal((grid.n_rho, grid.n_z)))
    # solve_lines binds dpttrs from scipy.linalg.lapack when it runs
    original = scipy.linalg.lapack.dpttrs
    seen = []

    def recording(d, e, rhs, overwrite_b):
        seen.append(rhs.ctypes.data)
        return original(d, e, rhs, overwrite_b=overwrite_b)

    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", recording)
    stencil.solve_lines(1.0, 1.0 / grid.d_rho**2, b)
    assert seen == [b.ctypes.data]


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
    np.testing.assert_array_equal(banded.loc_b, whole.loc_b[:, : bands[0]])
    np.testing.assert_array_equal(banded.loc_f, whole.loc_f[:, : bands[1]])


def test_line_operator_is_apply_without_axial_neighbours(small):
    # coef (K_rho + 2/d_z^2) x + shift x, formed from apply(), solves back to x
    grid, _, _ = small
    stencil = KineticStencil(grid)
    x = np.random.default_rng(3).standard_normal((grid.n_rho, grid.n_z))
    neighbours = np.zeros_like(x)
    neighbours[:, :-1] += x[:, 1:]
    neighbours[:, 1:] += x[:, :-1]
    coef, shift = 2.0, 5.0 / grid.d_rho**2
    b = coef * (stencil.apply(x) + neighbours / grid.d_z**2) + shift * x
    np.testing.assert_allclose(stencil.solve_lines(coef, shift, b), x, rtol=0.0, atol=1e-12)


@settings(derandomize=True, deadline=None)
@given(case=random_functionals(), seed=st.integers(0, 2**32 - 1))
def test_gradient_is_twice_weighted_hamiltonian(case, seed):
    # dE/dpsi = 2 w (H_b psi) and dE/dphi = 2 w (H_f phi), by central differences
    params, psi, phi = case
    st_ = KineticStencil(params.grid)
    w = params.grid.weights
    ev = evaluate(params, psi, phi, st_)
    rng = np.random.default_rng(seed)
    eps = 1e-4
    for which, h in enumerate((ev.h_psi, ev.h_phi)):
        d = rng.standard_normal(psi.shape)

        def energy(t):
            fields = [psi, phi]
            fields[which] = fields[which] + t * d
            return evaluate(params, *fields, st_).energy

        num = (energy(eps) - energy(-eps)) / (2.0 * eps)
        grad_d = 2.0 * w * h * d
        assert num == pytest.approx(float(np.sum(grad_d)), abs=1e-6 * float(np.sum(np.abs(grad_d))))


@settings(derandomize=True, deadline=None)
@given(case=random_functionals())
def test_mu_from_terms_is_rayleigh_quotient(case):
    params, psi, phi = case
    w = params.grid.weights
    ev = evaluate(params, psi, phi, KineticStencil(params.grid))
    for mu, u, h in ((ev.mu_b, psi, ev.h_psi), (ev.mu_f, phi, ev.h_phi)):
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
        grid, _, _ = small
        st = KineticStencil(grid)
        rng = np.random.default_rng(12)
        u = rng.standard_normal((grid.n_rho, grid.n_z))
        v = rng.standard_normal((grid.n_rho, grid.n_z))
        lhs = float(np.sum(grid.weights * u * st.apply(v)))
        rhs = float(np.sum(grid.weights * v * st.apply(u)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_semidefinite(self, small):
        grid, _, _ = small
        st = KineticStencil(grid)
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = rng.standard_normal((grid.n_rho, grid.n_z))
            q = float(np.sum(grid.weights * u * st.apply(u)))
            assert q >= 0.0

    def test_interior_constant_annihilated(self, small):
        grid, _, _ = small
        st = KineticStencil(grid)
        out = st.apply(np.ones((grid.n_rho, grid.n_z)))
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
            u /= np.sqrt(np.sum(grid.weights * u * u))
        rayleigh = float(np.sum(grid.weights * u * st.apply(u)))
        assert rayleigh <= bound

    def test_gradient_quadrature_converges_to_analytic(self):
        # integral of |grad exp(-r^2 / 2 s^2)|^2 over all space = 1.5 pi^1.5 s
        s = 5e-6
        exact = 1.5 * math.pi**1.5 * s

        def form(n_rho, n_z):
            g = grid_for_box(20e-6, 20e-6, n_rho, n_z)
            rho, z = g.mesh()
            u = np.exp(-(rho**2 + z**2) / (2.0 * s**2))
            return float(np.sum(g.weights * u * KineticStencil(g).apply(u)))

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
    grid, psi, phi = small
    params = functional_params(SC, grid, "full")
    ev = evaluate(params, psi, phi, KineticStencil(grid))
    for loc, mu in ((ev.loc_b, ev.mu_b), (ev.loc_f, ev.mu_f)):
        loc0 = loc.copy()
        s = local_scale_bound(loc, mu)
        # built in place in the evaluation's local potential
        assert s is loc
        np.testing.assert_allclose(
            s, np.sqrt(abs(mu) / (np.maximum(loc0, 0.0) + abs(mu))), rtol=1e-15, atol=0.0
        )
        assert np.all((s > 0.0) & (s <= 1.0))
        # the larger the local potential, the smaller the scale
        order = np.argsort(loc0, axis=None, kind="stable")
        assert np.all(np.diff(s.ravel()[order]) <= 0.0)
    # a non-positive local potential leaves the gradient unscaled
    loc = np.array([[-3.0, 0.0, 1.0]])
    np.testing.assert_array_equal(local_scale_bound(loc, -2.0), [[1.0, 1.0, math.sqrt(2.0 / 3.0)]])


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
    summed = evaluate(params, psi, phi, st_)
    norms = (grid.inner(psi, psi), grid.inner(phi, phi))
    given = evaluate(params, psi, phi, st_, norms)
    assert given.terms == summed.terms
    assert (given.mu_b, given.mu_f) == (summed.mu_b, summed.mu_f)
    for a, b in ((given.h_psi, summed.h_psi), (given.h_phi, summed.h_phi)):
        np.testing.assert_array_equal(a, b)
    doubled = evaluate(params, psi, phi, st_, (2.0 * norms[0], 2.0 * norms[1]))
    assert (doubled.mu_b, doubled.mu_f) == (0.5 * summed.mu_b, 0.5 * summed.mu_f)
