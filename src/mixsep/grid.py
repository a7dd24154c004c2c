"""Cylindrical (rho, z) grid and sampled density fields.

Cells are centered: rho_i = (i + 1/2) d_rho keeps the axis singularity off
the grid, z runs symmetrically about 0 with an even count so every cell has
a mirror partner. The quadrature is the midpoint rule with cell volume
2 pi rho_i d_rho d_z, which is also the exact volume of each annular cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import TWO_PI
from .errors import GridMismatch, NonPositiveInput


@dataclass(frozen=True)
class Grid2D:
    n_rho: int
    n_z: int
    d_rho: float
    d_z: float

    def __post_init__(self):
        if self.n_rho < 2 or self.n_z < 2:
            raise NonPositiveInput("grid needs at least 2 cells per direction")
        if self.n_z % 2 != 0:
            raise NonPositiveInput("n_z must be even so the grid is z-symmetric")
        if self.d_rho <= 0.0 or self.d_z <= 0.0:
            raise NonPositiveInput("grid spacings must be positive")

    @property
    def rho_max(self) -> float:
        return self.n_rho * self.d_rho

    @property
    def z_half(self) -> float:
        return 0.5 * self.n_z * self.d_z

    @cached_property
    def rho(self) -> np.ndarray:
        r = (np.arange(self.n_rho) + 0.5) * self.d_rho
        r.flags.writeable = False
        return r

    @cached_property
    def z(self) -> np.ndarray:
        z = (np.arange(self.n_z) + 0.5) * self.d_z - self.z_half
        z.flags.writeable = False
        return z

    @cached_property
    def ring_volumes(self) -> np.ndarray:
        """Volume 2 pi rho d_rho d_z of each cell of a radial row, shape (n_rho,)."""
        v = TWO_PI * self.rho * self.d_rho * self.d_z
        v.flags.writeable = False
        return v

    @cached_property
    def root_volumes(self) -> np.ndarray:
        """Square roots of ring_volumes, shape (n_rho,).

        The solver stores each amplitude u as sqrt(w) u, row by row, so that
        every volume-weighted sum of its fields is a plain dot product.
        """
        v = np.sqrt(self.ring_volumes)
        v.flags.writeable = False
        return v

    @cached_property
    def weights(self) -> np.ndarray:
        """Cell volumes 2 pi rho d_rho d_z, shape (n_rho, n_z)."""
        w = self.ring_volumes[:, None] * np.ones(self.n_z)
        w.flags.writeable = False
        return w

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable (rho, z) coordinate arrays."""
        return self.rho[:, None], self.z[None, :]

    def refined(self, factor: int = 2) -> "Grid2D":
        """Same box, spacing divided by factor."""
        return Grid2D(
            self.n_rho * factor,
            self.n_z * factor,
            self.d_rho / factor,
            self.d_z / factor,
        )


# OpenBLAS takes a ddot of up to this many values on one thread. Below it
# one ddot costs about 2 us less per call than the per-line sum, which at
# every size makes the 64x128 overlap sweep 11% slower.
_ONE_THREAD_DOT = 10_000


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Plain sum(a b) of two arrays of one shape (n_rho, any number of z columns).

    The products are summed radial line (fixed z) by radial line, in the
    memory order of a Fortran-order array, whose transpose np.vdot then
    reads without a copy; an array in another layout is copied. Up to
    _ONE_THREAD_DOT values the sum is one BLAS ddot, past that one ddot per
    radial line, n_rho values each (np.vecdot, numpy >= 2.0), and the sum
    of the line sums. OpenBLAS runs a ddot of up to 10,000 values on one
    thread and may split a longer one across threads, whose partial sums
    then add in another order, so on any grid with n_rho <= 10,000 the
    result does not depend on the BLAS thread count.
    """
    if a.size <= _ONE_THREAD_DOT:
        return float(np.vdot(a.T, b.T))
    return float(np.add.reduce(np.vecdot(a.T, b.T)))


def grid_for_box(rho_max: float, z_half: float, n_rho: int, n_z: int) -> Grid2D:
    return Grid2D(n_rho, n_z, rho_max / n_rho, z_half * 2.0 / n_z)


@dataclass(frozen=True)
class DensityField:
    """One species' density sampled on a grid, in m^-3."""

    grid: Grid2D
    values: np.ndarray
    species: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_rho, self.grid.n_z):
            raise GridMismatch(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.n_rho}, {self.grid.n_z})"
            )
        v = np.ascontiguousarray(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def integrate(self) -> float:
        return float(np.sum(self.values * self.grid.weights))

    def peak(self) -> float:
        return float(np.max(self.values))

    def center_value(self) -> float:
        """Density at the cell nearest the trap center."""
        return float(self.values[0, self.grid.n_z // 2])

    def axial_slice(self) -> np.ndarray:
        """Radial profile along the row nearest z = 0."""
        return np.array(self.values[:, self.grid.n_z // 2])


def unfold(half: np.ndarray) -> np.ndarray:
    """The full-grid field, mirror-symmetric in z, whose z > 0 half is half.

    It is written in C order, DensityField's layout, whatever half's layout:
    a Fortran-order concatenation would cost DensityField a second,
    transposing copy.
    """
    h = half.shape[1]
    out = np.empty((half.shape[0], 2 * h))
    out[:, :h] = half[:, ::-1]
    out[:, h:] = half
    return out


def require_same_grid(*fields: DensityField) -> Grid2D:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatch("fields live on different grids")
    return g


def integrate_product(*fields: DensityField, powers=None) -> float:
    """Quadrature of a product of fields, optionally raised to powers."""
    g = require_same_grid(*fields)
    acc = np.array(g.weights, copy=True)
    if powers is None:
        powers = [1] * len(fields)
    for f, p in zip(fields, powers):
        if p == 1:
            acc *= f.values
        else:
            acc *= f.values**p
    return float(np.sum(acc))
