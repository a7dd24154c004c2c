"""Energy functional, discrete kinetic stencil, and their exact adjointness."""

import math

import numpy as np
import pytest

from mixsep.constants import A_BOHR, HBAR
from mixsep.errors import NumericalBlowup
from mixsep.functional import (
    ENERGY_TERMS,
    KineticStencil,
    apply_hamiltonians,
    energy_terms,
    functional_params,
    local_scale_bound,
    tf_pressure_coefficient,
    total_energy,
)
from mixsep.grid import grid_for_box
from mixsep.scenario import default_scenario

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
    assert not full.tf_mode
    assert tf.tf_mode
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
    total, terms = total_energy(params, psi, phi)
    assert total == pytest.approx(sum(terms.values()), rel=1e-15)
    assert set(terms) == set(ENERGY_TERMS)


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
        bound = st.max_eigenvalue_bound()
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
    full = functional_params(SC, grid, "full")
    tf = functional_params(SC, grid, "tf")
    st = KineticStencil(grid)
    fb, ff_ = local_scale_bound(full, psi, phi, st)
    tb, tf_ = local_scale_bound(tf, psi, phi, st)
    for arr in (fb, ff_, tb, tf_):
        assert arr.shape == psi.shape
    assert np.all(fb > tb) and np.all(tb >= 0.0)
    assert np.all(ff_ > tf_) and np.all(tf_ >= 0.0)
    # tf mode keeps only the local part, the full mode adds coef_kin diag(K)
    np.testing.assert_allclose(
        fb - tb, np.broadcast_to(full.coef_kin_b * st.diagonal(), psi.shape), rtol=1e-9
    )


def test_stencil_diagonal_matches_apply(small):
    grid, _, _ = small
    st = KineticStencil(grid)
    diag = st.diagonal()
    assert diag.shape == (grid.n_rho, 1)
    for i, j in ((0, 0), (5, 7), (grid.n_rho - 1, grid.n_z - 1)):
        e = np.zeros((grid.n_rho, grid.n_z))
        e[i, j] = 1.0
        assert st.apply(e)[i, j] == pytest.approx(diag[i, 0], rel=1e-14)
