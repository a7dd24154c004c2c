"""Mean-field energy functional of the condensate + Fermi sea.

E[psi, phi] = integral of
    hbar^2/2m_b |grad psi|^2 + V_b n_b + g_bb/2 n_b^2
  + c_TF n_f^(5/3) + lambda_W hbar^2/2m_f |grad phi|^2 + V_f n_f
  + g_bf n_b n_f
with n_b = psi^2, n_f = phi^2. Writing the fermion gradient correction on
phi = sqrt(n_f) uses |grad n_f|^2 / n_f = 4 |grad phi|^2 identically, so no
regularization of the division is ever needed.

Discretely, both kinetic terms are face-difference quadratic forms and the
operators H_b, H_f that evaluate applies are their exact algebraic gradients
divided by twice the cell volume. That makes dE/dpsi_ij == 2 w_ij (H psi)_ij
hold to machine precision, which the tests check by finite differences.

The solver calls evaluate once per iteration, so it is written to pass over
each field-sized array as few times as it can: the stencil is three radial
multiply-adds plus two shifted subtractions, each over contiguous memory in
the solver's Fortran-order layout, n_f^(2/3) comes from one cube root and
also gives the Fermi pressure as c_TF <n_f, n_f^(2/3)>_w, and every energy
term is a weighted sum of products with no temporary array (Grid2D.inner).
The solver passes each species on its band of z columns only (evaluate).

The module needs numpy alone until a full-mode solve preconditions with the
radial line operator: KineticStencil.solve_lines imports LAPACK's tridiagonal
routines from scipy on its first call, so importing the package, a tf-mode
solve and the analysis commands never load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import NumericalBlowup
from .grid import Grid2D
from .profiles import half_trap_potential, trap_potential
from .scenario import MixtureScenario
from .physics import coupling_bb, coupling_bf

# Weizsaecker coefficient of the fermion gradient correction.
LAMBDA_W = 1.0 / 9.0

ENERGY_TERMS = (
    "bec_kinetic",
    "bec_trap",
    "bec_interaction",
    "fermi_pressure",
    "fermi_gradient",
    "fermi_trap",
    "interspecies",
)


def tf_pressure_coefficient(mass_f: float) -> float:
    """c_TF = (3/5) (hbar^2 / 2 m_f) (6 pi^2)^(2/3), J m^2."""
    return 0.6 * (HBAR * HBAR / (2.0 * mass_f)) * (6.0 * math.pi**2) ** (2.0 / 3.0)


@dataclass(frozen=True)
class EnergyFunctionalParams:
    """Grid-bound coefficients; coef_kin_* are zero in Thomas-Fermi mode.

    v_b and v_f span grid (functional_params) or, for the solver, its z > 0
    half (half_box_params), on which evaluate works with a mirror stencil.
    """

    grid: Grid2D
    v_b: np.ndarray
    v_f: np.ndarray
    g_bb: float
    g_bf: float
    c_tf: float
    coef_kin_b: float
    coef_kin_f: float


def functional_params(
    scenario: MixtureScenario,
    grid: Grid2D,
    mode: str = "full",
) -> EnergyFunctionalParams:
    """The functional's coefficients and trap potentials on grid."""
    return _params(scenario, grid, mode, trap_potential)


def half_box_params(scenario: MixtureScenario, grid: Grid2D, mode: str) -> EnergyFunctionalParams:
    """functional_params for the z > 0 half of grid, where the solver relaxes.

    v_b and v_f cover only the n_z/2 columns with z > 0, in Fortran order,
    with the whole grid's bits there (profiles.half_trap_potential).
    """
    return _params(scenario, grid, mode, half_trap_potential)


def _params(scenario, grid, mode, potential) -> EnergyFunctionalParams:
    if mode not in ("full", "tf"):
        raise ValueError(f"mode must be 'full' or 'tf', got {mode!r}")
    b, f = scenario.bosons, scenario.fermions
    kin_b = HBAR * HBAR / (2.0 * b.mass) if mode == "full" else 0.0
    kin_f = LAMBDA_W * HBAR * HBAR / (2.0 * f.mass) if mode == "full" else 0.0
    return EnergyFunctionalParams(
        grid=grid,
        v_b=potential(b, grid),
        v_f=potential(f, grid),
        g_bb=coupling_bb(b.a_intra, b.mass),
        g_bf=coupling_bf(scenario.a_bf, b.mass, f.mass),
        c_tf=tf_pressure_coefficient(f.mass),
        coef_kin_b=kin_b,
        coef_kin_f=kin_f,
    )


class KineticStencil:
    """Conservative cylindrical Laplacian with axis-Neumann / outer-Dirichlet.

    Radial fluxes are weighted by the face radius (i+1) d_rho over the cell
    radius (i+1/2) d_rho; the axis face has zero radius so the symmetry
    condition costs nothing. Outer rho and both z edges are hard zeros.

    With mirror=True the stencil acts on the upper half of grid instead: the
    n_z/2 columns with z > 0 of a field that is mirror-symmetric in z. The
    lower face of that half box, z = 0, reflects: the axial neighbour across
    it is the cell itself. Its outer faces stay hard zeros, and on a
    mirror-symmetric field it gives the full grid's operator restricted to
    z > 0.

    Both methods take a field of n_rho rows and any number of z columns, the
    outer z face lying past the last one, and any memory layout; they run
    fastest on Fortran order, where each radial line (fixed z) is
    contiguous, which is how the solver stores its fields. The operator is
    separable. Its radial part, with the axial diagonal 2/d_z^2 folded in,
    is an (n_rho x n_rho) tridiagonal matrix K_line, stored as three
    coefficient vectors times d_z^2 so that the two axial neighbours are
    plain subtractions of shifted column blocks (the reflected one is a
    third, on the z = 0 column); apply() divides by d_z^2 once at the end.
    solve_lines() inverts coef K_line + shift on every z column.
    """

    def __init__(self, grid: Grid2D, mirror: bool = False):
        self.grid = grid
        self.mirror = mirror
        i = np.arange(grid.n_rho, dtype=float)
        up = (i + 1.0) / (i + 0.5)
        down = i / (i + 0.5)
        inv_dr2 = 1.0 / grid.d_rho**2
        self._inv_dz2 = 1.0 / grid.d_z**2
        diag = (up + down) * inv_dr2 + 2.0 * self._inv_dz2
        dz2 = grid.d_z**2
        # K_line d_z^2 by the cell each entry multiplies: cell i enters row
        # i with _diag_dz2[i], row i + 1 with _below_dz2[i] and row i - 1
        # with _above_dz2[i]. The entries that would leave the line are
        # zeros, so a shift of a whole Fortran-order field adds nothing
        # across the end of a line.
        self._diag_dz2 = diag * dz2
        self._below_dz2 = np.append(-down[1:] * inv_dr2 * dz2, 0.0)
        self._above_dz2 = np.insert(-up[:-1] * inv_dr2 * dz2, 0, 0.0)
        # R K_line is symmetric, with R = diag(i + 1/2) the cell radii in units
        # of d_rho: both of its entries coupling cells i and i + 1 are
        # -(i + 1) / d_rho^2, the face radius over d_rho^2.
        self._radii = i + 0.5
        self._sym_diag = self._radii * diag
        self._sym_off = -(i[:-1] + 1.0) * inv_dr2

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Minus the discrete (1/rho) d_rho(rho d_rho u) - d_z^2 u, in u's layout.

        Each cell is summed as a sparse product with K_line would sum it:
        lower neighbour, cell, upper neighbour. Besides its result it makes
        one temporary the size of u.
        """
        out = np.multiply(u, self._diag_dz2[:, None])
        step = np.multiply(u, self._below_dz2[:, None])
        lines, steps = out, step
        if out.flags.f_contiguous and step.flags.f_contiguous:
            # One radial shift of the whole field is a shift of its flat
            # memory; the zero entries at the line ends stop it crossing one.
            lines, steps = out.reshape(-1, order="F"), step.reshape(-1, order="F")
        lines[1:] += steps[:-1]
        np.multiply(u, self._above_dz2[:, None], out=step)
        lines[:-1] += steps[1:]
        del step, steps
        out[:, :-1] -= u[:, 1:]
        out[:, 1:] -= u[:, :-1]
        if self.mirror:
            out[:, 0] -= u[:, 0]
        out *= self._inv_dz2
        return out

    def solve_lines(self, coef: float, shift: float, b: np.ndarray) -> np.ndarray:
        """Overwrite b with (coef K_line + shift)^-1 b and return it.

        K_line is the radial part of the operator apply() represents plus
        its axial diagonal 2/d_z^2, so each z column of b is one tridiagonal
        system. The mirror stencil's z = 0 column takes the same K_line, so
        that on a mirror-symmetric b both stencils solve the same systems
        column for column. It is solved as R (coef K_line + shift) x = R b,
        whose matrix is symmetric positive definite for coef >= 0 and
        shift > 0: one LDL^T factorization of size n_rho (LAPACK dpttrf)
        serves every column, and one dpttrs call solves them all. Neither
        makes a BLAS call, so the result does not depend on the thread
        count. dpttrs solves a Fortran-order b in place; b in another
        layout is solved in a Fortran-order copy that is copied back.
        Both routines are bound from scipy.linalg.lapack on each call, which
        loads scipy at the first one (about 0.3 s and 24 MB). Raises
        NumericalBlowup if the factorization fails.
        """
        from scipy.linalg.lapack import dpttrf, dpttrs

        radii = self._radii
        d, e, info = dpttrf(coef * self._sym_diag + shift * radii, coef * self._sym_off)
        if info != 0:
            raise NumericalBlowup(
                f"radial line operator is not positive definite (dpttrf info {info})"
            )
        b *= radii[:, None]
        x, info = dpttrs(d, e, b, overwrite_b=1)
        if x is not b:
            b[...] = x
        return b


@dataclass(frozen=True)
class Evaluation:
    """One pass over (psi, phi): energy terms, H psi, H phi, local potentials.

    loc_b / loc_f are the local (non-kinetic) parts of H_b and H_f. mu_b /
    mu_f are the Rayleigh quotients <u, H u>_w / <u, u>_w of each species,
    0 for an empty one.
    """

    terms: dict
    h_psi: np.ndarray
    h_phi: np.ndarray
    loc_b: np.ndarray
    loc_f: np.ndarray
    mu_b: float
    mu_f: float

    @property
    def energy(self) -> float:
        return sum(self.terms.values())


def evaluate(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
    norms: tuple[float, float] | None = None,
) -> Evaluation:
    """Energy breakdown (J) and both Hamiltonians applied, in one pass.

    dE/dpsi = 2 w (H_b psi) and likewise for phi, with
    H_b = -coef_b lap + V_b + g_bb n_b + g_bf n_f
    H_f = -coef_f lap + V_f + (5/3) c_TF n_f^(2/3) + g_bf n_b
    where (5/3) c_TF n^(2/3) is the local Fermi energy of the sea. Raises
    NumericalBlowup on a non-finite energy term. The stencil is applied
    once per field, n_f^(2/3) is one cube root squared, and the Fermi
    pressure is c_TF <n_f, n_f^(2/3)>_w, so no fractional power is taken.

    psi and phi may each hold only the first z columns of the potentials'
    box, its band: the species is zero past the band's last column, and so
    is the band's last column itself unless it is the box's (a halo, so
    that H u is zero past the band too). Each species' terms, H u and loc
    are then computed on its band alone, and take its shape; the
    interspecies terms run on the columns both bands cover. Each cell is
    computed as on the whole box, so H u and loc are the whole box's on the
    band, bit for bit, and the terms can differ only by the order of their
    weighted sums.

    Since <u, H u>_w is a sum of the energy terms (the quadratic ones twice,
    the pressure times 5/3), mu_b and mu_f come from the terms and the two
    norms <psi, psi>_w and <phi, phi>_w with no further pass over the
    Hamiltonians. norms, when given, are those two: the solver passes the
    atom numbers it renormalized each field to, so it makes no sum for them.
    Otherwise they are summed here.
    """
    grid = params.grid
    inner = grid.inner
    n_zb, n_zf = psi.shape[1], phi.shape[1]
    both = min(n_zb, n_zf)
    v_b, v_f = params.v_b[:, :n_zb], params.v_f[:, :n_zf]
    n_b = psi * psi
    n_f = phi * phi
    loc_f = np.cbrt(n_f)
    loc_f *= loc_f
    bec_trap = inner(n_b, v_b)
    bec_interaction = 0.5 * params.g_bb * inner(n_b, n_b)
    fermi_pressure = params.c_tf * inner(n_f, loc_f)
    fermi_trap = inner(n_f, v_f)
    interspecies = params.g_bf * inner(n_b[:, :both], n_f[:, :both])

    # In place, so that few field-sized arrays are live at once: loc_f takes
    # the cube root's buffer and loc_b n_f's (unless the bosons reach
    # further), and n_b and work end as the buffers of loc u in the two
    # Hamiltonians.
    loc_f *= (5.0 / 3.0) * params.c_tf
    loc_f += v_f
    loc_b = n_f[:, :n_zb] if n_zb <= n_zf else np.zeros_like(n_b)
    np.multiply(n_f[:, :both], params.g_bf, out=loc_b[:, :both])
    loc_b += v_b
    work = params.g_bb * n_b
    loc_b += work
    n_b *= params.g_bf
    loc_f[:, :both] += n_b[:, :both]
    bec_kinetic, h_psi = _hamiltonian(loc_b, psi, params.coef_kin_b, stencil, work)
    del work
    work = n_b[:, :n_zf] if n_zf <= n_zb else np.empty_like(loc_f)
    fermi_gradient, h_phi = _hamiltonian(loc_f, phi, params.coef_kin_f, stencil, work)
    terms = {
        "bec_kinetic": bec_kinetic,
        "fermi_gradient": fermi_gradient,
        "bec_trap": bec_trap,
        "bec_interaction": bec_interaction,
        "fermi_pressure": fermi_pressure,
        "fermi_trap": fermi_trap,
        "interspecies": interspecies,
    }
    for name, val in terms.items():
        if not math.isfinite(val):
            raise NumericalBlowup(f"energy term {name!r} is not finite")
    norm_b, norm_f = norms if norms is not None else (inner(psi, psi), inner(phi, phi))
    mu_b = _rayleigh_from_terms(
        bec_kinetic + bec_trap + 2.0 * bec_interaction + interspecies, norm_b
    )
    mu_f = _rayleigh_from_terms(
        fermi_gradient + fermi_trap + (5.0 / 3.0) * fermi_pressure + interspecies, norm_f
    )
    return Evaluation(terms, h_psi, h_phi, loc_b, loc_f, mu_b, mu_f)


def _rayleigh_from_terms(u_h_u: float, norm2: float) -> float:
    return u_h_u / norm2 if norm2 > 0.0 else 0.0


def _hamiltonian(loc, u, coef_kin, stencil, work):
    """(coef_kin <u, K u>_w, loc u + coef_kin K u), in K u's buffer or in work."""
    np.multiply(loc, u, out=work)
    if coef_kin == 0.0:
        return 0.0, work
    k_u = stencil.apply(u)
    kinetic = coef_kin * stencil.grid.inner(u, k_u)
    k_u *= coef_kin
    k_u += work
    return kinetic, k_u


def energy_terms(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
) -> dict:
    """Breakdown of the total energy, J. Raises on non-finite terms."""
    return evaluate(params, psi, phi, stencil).terms


def apply_hamiltonians(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
) -> tuple[np.ndarray, np.ndarray]:
    """(H_b psi, H_f phi); dE/dpsi = 2 w (H_b psi) and likewise for phi."""
    ev = evaluate(params, psi, phi, stencil)
    return ev.h_psi, ev.h_phi


def local_scale_bound(loc: np.ndarray, mu: float) -> np.ndarray:
    """Per-cell scale s = sqrt(|mu| / (max(loc, 0) + |mu|)) of one species.

    Overwrites and returns loc, a local potential of an Evaluation. The
    solver preconditions each species' gradient by s (coef_kin K_line +
    |mu|)^-1 s, which is 1 / (max(loc, 0) + |mu|) where the kinetic term is
    dropped. s lies in (0, 1], and is 1 where the local potential is not
    positive.
    """
    np.maximum(loc, 0.0, out=loc)
    loc += abs(mu)
    np.divide(abs(mu), loc, out=loc)
    return np.sqrt(loc, out=loc)
