"""Cylindrical grid quadrature and density-field containers."""

import numpy as np
import pytest

from mixsep.errors import GridMismatch, NonPositiveInput
from mixsep.grid import (
    DensityField,
    Grid2D,
    grid_for_box,
    integrate_product,
    require_same_grid,
    unfold,
)


@pytest.fixture
def small_grid():
    return grid_for_box(10e-6, 20e-6, 16, 32)


def test_weights_sum_to_cylinder_volume(small_grid):
    g = small_grid
    vol = np.pi * g.rho_max**2 * (2.0 * g.z_half)
    assert np.sum(g.weights) == pytest.approx(vol, rel=1e-12)


@pytest.mark.parametrize("columns", [32, 16, 5])
@pytest.mark.parametrize("order", ["C", "F"])
def test_inner_is_the_weighted_sum(small_grid, columns, order):
    # whole grid, the z > 0 half, or a band of it, in either layout
    rng = np.random.default_rng(columns)
    a, b = (np.array(rng.standard_normal((16, columns)), order=order) for _ in range(2))
    expect = np.sum(small_grid.weights[:, :columns] * a * b)
    assert small_grid.inner(a, b) == pytest.approx(expect, rel=1e-12)
    assert isinstance(small_grid.inner(a, b), float)


def test_rho_cells_are_centered(small_grid):
    g = small_grid
    assert g.rho[0] == pytest.approx(0.5 * g.d_rho)
    assert g.rho[-1] == pytest.approx(g.rho_max - 0.5 * g.d_rho)


def test_z_axis_symmetric(small_grid):
    z = small_grid.z
    np.testing.assert_allclose(z, -z[::-1], atol=1e-20)


def test_constant_field_integrates_to_volume(small_grid):
    f = DensityField(small_grid, np.full((16, 32), 3.0))
    vol = np.pi * small_grid.rho_max**2 * 2.0 * small_grid.z_half
    assert f.integrate() == pytest.approx(3.0 * vol, rel=1e-12)


def test_quadrature_second_order(small_grid):
    # midpoint rule: error on rho^2 shrinks by 4x per refinement
    exact = 2.0 * np.pi * (small_grid.rho_max**4 / 4.0) * (2.0 * small_grid.z_half)

    def err(g):
        rho, _ = g.mesh()
        f = DensityField(g, np.broadcast_to(rho**2, (g.n_rho, g.n_z)).copy())
        return abs(f.integrate() - exact) / exact

    e1 = err(small_grid)
    e2 = err(small_grid.refined(2))
    assert e1 < 5e-3
    assert e2 == pytest.approx(e1 / 4.0, rel=0.05)


def test_grid_validation():
    with pytest.raises(NonPositiveInput):
        Grid2D(1, 4, 1e-6, 1e-6)
    with pytest.raises(NonPositiveInput):
        Grid2D(4, 5, 1e-6, 1e-6)  # odd n_z
    with pytest.raises(NonPositiveInput):
        Grid2D(4, 4, -1e-6, 1e-6)


def test_refined_preserves_box(small_grid):
    fine = small_grid.refined(2)
    assert fine.n_rho == 2 * small_grid.n_rho
    assert fine.rho_max == pytest.approx(small_grid.rho_max)
    assert fine.z_half == pytest.approx(small_grid.z_half)
    vol = np.sum(small_grid.weights)
    assert np.sum(fine.weights) == pytest.approx(vol, rel=1e-12)


def test_arrays_read_only(small_grid):
    with pytest.raises(ValueError):
        small_grid.weights[0, 0] = 1.0
    f = DensityField(small_grid, np.ones((16, 32)))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


def test_field_shape_mismatch(small_grid):
    with pytest.raises(GridMismatch):
        DensityField(small_grid, np.ones((16, 31)))


def test_center_value_and_axial_slice(small_grid):
    g = small_grid
    rho, z = g.mesh()
    vals = np.exp(-((rho / 5e-6) ** 2) - (z / 8e-6) ** 2)
    f = DensityField(g, vals)
    assert f.center_value() == pytest.approx(vals[0, g.n_z // 2])
    np.testing.assert_array_equal(f.axial_slice(), vals[:, g.n_z // 2])
    assert f.peak() == pytest.approx(np.max(vals))


def test_require_same_grid(small_grid):
    a = DensityField(small_grid, np.ones((16, 32)))
    b = DensityField(small_grid, np.ones((16, 32)))
    assert require_same_grid(a, b) == small_grid
    other = grid_for_box(10e-6, 20e-6, 16, 34)
    c = DensityField(other, np.ones((16, 34)))
    with pytest.raises(GridMismatch):
        require_same_grid(a, c)


def test_integrate_product_matches_manual(small_grid):
    rng = np.random.default_rng(3)
    va = rng.uniform(0.1, 1.0, (16, 32))
    vb = rng.uniform(0.1, 1.0, (16, 32))
    a = DensityField(small_grid, va)
    b = DensityField(small_grid, vb)
    manual = float(np.sum(va * vb * small_grid.weights))
    assert integrate_product(a, b) == pytest.approx(manual, rel=1e-14)


def test_integrate_product_powers(small_grid):
    rng = np.random.default_rng(4)
    va = rng.uniform(0.1, 1.0, (16, 32))
    vb = rng.uniform(0.1, 1.0, (16, 32))
    a = DensityField(small_grid, va)
    b = DensityField(small_grid, vb)
    manual = float(np.sum(va**2 * vb ** (5.0 / 3.0) * small_grid.weights))
    got = integrate_product(a, b, powers=[2, 5.0 / 3.0])
    assert got == pytest.approx(manual, rel=1e-14)


@pytest.mark.parametrize("order", ["C", "F"])
def test_unfold_mirrors_into_c_order(order):
    half = np.asarray(np.random.default_rng(5).uniform(size=(16, 8)), order=order)
    full = unfold(half)
    assert full.flags.c_contiguous
    np.testing.assert_array_equal(full, np.concatenate((half[:, ::-1], half), axis=1))
