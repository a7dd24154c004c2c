"""Mean-field energy functional of the condensate + Fermi sea.

E[psi, phi] = integral of
    hbar^2/2m_b |grad psi|^2 + V_b n_b + g_bb/2 n_b^2
  + c_TF n_f^(5/3) + lambda_W hbar^2/2m_f |grad phi|^2 + V_f n_f
  + g_bf n_b n_f
with n_b = psi^2, n_f = phi^2. Writing the fermion gradient correction on
phi = sqrt(n_f) uses |grad n_f|^2 / n_f = 4 |grad phi|^2 identically, so no
regularization of the division is ever needed.

Discretely, both kinetic terms are face-difference quadratic forms and the
operators H_b, H_f are their exact algebraic gradients divided by twice the
cell volume. That makes dE/dpsi_ij == 2 w_ij (H psi)_ij hold to machine
precision, which the tests check by finite differences.

evaluate works on volume-weighted amplitudes psi~ = sqrt(w) psi, w being the
cell volume of the row (Grid2D.ring_volumes, constant along z). In them
every quadrature is a plain sum: the integral of f n_b is sum(f psi~^2),
psi~^2 being the atoms per cell, and the kinetic form is
sum(psi~ K~ psi~) with K~ = W^1/2 K W^-1/2, the same three-point radial
stencil as K with the coefficient that carries cell i into row j
multiplied by sqrt(w_j / w_i), and the same axial part (KineticStencil).
K~ is symmetric under the plain sum, and so is its radial line operator.
evaluate returns H~ psi~ = sqrt(w) (H_b psi), likewise for phi. The local
potentials need the densities n = psi~^2 / w, and each 1/w rides in the
per-row factor of a product the pass forms anyway
(EnergyFunctionalParams.row_factors), so the weights cost no pass.
evaluate is the only pass. energy_terms and apply_hamiltonians take
unweighted fields: they scale them into new arrays, run evaluate on them,
and apply_hamiltonians scales H psi, H phi back out.

The solver calls evaluate once per iteration, so it is written to pass over
each field-sized array as few times as it can: the stencil is three radial
multiply-adds plus two shifted subtractions, each over contiguous memory in
the solver's Fortran-order layout, n_f^(2/3) comes from one cube root and
also gives the Fermi pressure as (3/5) sum(phi~^2 (5/3) c_TF n_f^(2/3)),
and every energy term is one plain sum of products with no temporary array
(grid.dot: one BLAS ddot, or one per radial line past 10,000 values, so no
sum depends on the BLAS thread count). The solver passes each species on
its band of z columns only (evaluate).

The module needs numpy alone until a full-mode solve preconditions with the
radial line operator: KineticStencil.solve_cells binds LAPACK's dptsv at the
process's first line solve, so importing the package, a tf-mode solve and
the analysis commands never load scipy. The binding loads only the top-level
scipy package and its compiled LAPACK module (_lapack_dptsv): about 0.02 s
and 3 MB, where importing scipy.linalg would take 0.2-0.3 s and 22 MB.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .constants import HBAR
from .errors import NumericalBlowup
from .grid import Grid2D, dot
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

    @cached_property
    def row_factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g_bb / w, g_bf / w, (5/3) c_TF w^(-2/3)), each an (n_rho, 1) column.

        Times a species' atoms per cell w n, the first two give g_bb n and
        g_bf n; times (w n)^(2/3), the last gives the local Fermi energy
        (5/3) c_TF n^(2/3).
        """
        w = self.grid.ring_volumes[:, None]
        return self.g_bb / w, self.g_bf / w, (5.0 / 3.0) * self.c_tf / np.cbrt(w) ** 2


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
    """Conservative cylindrical Laplacian on volume-weighted amplitudes.

    The Laplacian K, with axis-Neumann and outer-Dirichlet faces, weights
    each radial flux by the face radius (i+1) d_rho over the cell radius
    (i+1/2) d_rho; the axis face has zero radius so the symmetry condition
    costs nothing. Outer rho and both z edges are hard zeros. The stencil
    applies K~ = W^1/2 K W^-1/2, W the cell volumes, to sqrt(w) u: the
    coefficient that carries cell i into radial row j is K's times
    sqrt(w_j / w_i), so both entries coupling cells i and i + 1 are
    -(i + 1) / sqrt((i + 1/2) (i + 3/2)) / d_rho^2 and K~ is symmetric
    under the plain sum. The axial part, which stays in a row, is K's.

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
    is a symmetric (n_rho x n_rho) tridiagonal matrix K_line, stored as
    three coefficient vectors times d_z^2 so that the two axial neighbours
    are plain subtractions of shifted column blocks (the reflected one is a
    third, on the z = 0 column); apply() divides by d_z^2 once at the end.
    solve_cells() inverts coef K_line plus a diagonal that varies from cell
    to cell on every z column.
    """

    def __init__(self, grid: Grid2D, mirror: bool = False):
        self.grid = grid
        self.mirror = mirror
        i = np.arange(grid.n_rho, dtype=float)
        up = (i + 1.0) / (i + 0.5)
        down = i / (i + 0.5)
        inv_dr2 = 1.0 / grid.d_rho**2
        self._inv_dz2 = 1.0 / grid.d_z**2
        # K_line's diagonal, and its off-diagonal: entry i couples cells i
        # and i + 1.
        self._line_diag = (up + down) * inv_dr2 + 2.0 * self._inv_dz2
        self._line_off = -(i[:-1] + 1.0) / np.sqrt((i[:-1] + 0.5) * (i[:-1] + 1.5)) * inv_dr2
        dz2 = grid.d_z**2
        # K_line d_z^2 by the cell each entry multiplies: cell i enters row
        # i with _diag_dz2[i], row i + 1 with _below_dz2[i] and row i - 1
        # with _above_dz2[i]. The entries that would leave the line are
        # zeros, so a shift of a whole Fortran-order field adds nothing
        # across the end of a line.
        self._diag_dz2 = self._line_diag * dz2
        self._below_dz2 = np.append(self._line_off * dz2, 0.0)
        self._above_dz2 = np.insert(self._line_off * dz2, 0, 0.0)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """K~ u: sqrt(w) times minus the discrete (1/rho) d_rho(rho d_rho v) - d_z^2 v
        of v = u / sqrt(w), in u's layout.

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

    def solve_cells(self, coef: float, diag: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Overwrite b with (coef K_line + diag(diag))^-1 b and return it.

        K_line is the radial part of the operator apply() represents plus
        its axial diagonal 2/d_z^2, and diag holds one value per cell of b,
        so each z column of b is its own tridiagonal system. The mirror
        stencil's z = 0 column takes the same K_line, so that on a
        mirror-symmetric b both stencils solve the same systems column for
        column. Laid end to end in Fortran order, with zero coupling across
        the end of each column, the columns form one tridiagonal system of
        b.size unknowns. It is symmetric, and positive definite for coef >=
        0 and diag > 0, so one LAPACK dptsv call factors (LDL^T) and solves
        it. It makes no BLAS call, so the result does not depend on the
        thread count. diag is overwritten with the factor. dptsv solves a
        Fortran-order b in place; b or diag in another layout is solved in
        a Fortran-order copy, and b's is copied back. dptsv is bound at the
        first solve in the process (_lapack_dptsv), which loads scipy's
        compiled LAPACK module but not scipy.linalg.
        Raises NumericalBlowup if the factorization fails.
        """
        n_rho, n_cols = b.shape
        diag += coef * self._line_diag[:, None]
        off = np.zeros((n_cols, n_rho))
        off[:, :-1] = coef * self._line_off
        flat = b.reshape((-1, 1), order="F")
        _, _, x, info = _lapack_dptsv()(
            diag.reshape(-1, order="F"), off.reshape(-1)[:-1], flat,
            overwrite_d=1, overwrite_e=1, overwrite_b=1,
        )
        if info != 0:
            raise NumericalBlowup(
                f"radial line operator is not positive definite (dptsv info {info})"
            )
        if x is not flat or not b.flags.f_contiguous:
            b[...] = x.reshape(b.shape, order="F")
        return b


# scipy's compiled LAPACK module, which scipy.linalg.lapack re-exports.
_FLAPACK = "scipy.linalg._flapack"


@cache
def _lapack_dptsv():
    """LAPACK's dptsv from scipy's compiled module, bound once per process.

    Where scipy.linalg is loaded, its lapack.dptsv. Otherwise only the
    top-level scipy package is imported (on Windows its __init__ puts the
    bundled libraries on the DLL search path) and the _FLAPACK extension is
    loaded from its file, which skips the about 320 modules of
    scipy.linalg's import. The extension is taken out of sys.modules again:
    left there without its package, a later import of scipy.linalg would
    reuse it without setting the package's _flapack attribute. Where the
    file is missing, scipy.linalg.lapack.dptsv. Every source is the same
    compiled routine.
    """
    if "scipy.linalg" not in sys.modules:
        from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
        from importlib.util import module_from_spec

        import scipy

        directory = os.path.join(scipy.__path__[0], "linalg")
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_FLAPACK)
        if spec is not None:
            flapack = module_from_spec(spec)
            spec.loader.exec_module(flapack)
            sys.modules.pop(_FLAPACK, None)
            return flapack.dptsv
    from scipy.linalg.lapack import dptsv

    return dptsv


@dataclass(frozen=True)
class Evaluation:
    """One pass over (psi~, phi~): energy terms, H~ psi~, H~ phi~, local curvatures.

    h_psi / h_phi are sqrt(w) (H_b psi) and sqrt(w) (H_f phi). hess_b /
    hess_f are the local (non-kinetic) parts of the two diagonal blocks of
    the energy's second variation, the same in either scaling: each
    Hamiltonian's local part plus what the second variation adds to it,
    2 g_bb n_b and (4/3) (5/3) c_TF n_f^(2/3), minus mu, so
    V_b + 3 g_bb n_b + g_bf n_f - mu_b and
    V_f + (35/9) c_TF n_f^(2/3) + g_bf n_b - mu_f. mu_b / mu_f are the
    Rayleigh quotients sum(psi~ H~ psi~) / sum(psi~^2) =
    <psi, H_b psi>_w / <psi, psi>_w of each species, 0 for an empty one.
    """

    terms: dict
    h_psi: np.ndarray
    h_phi: np.ndarray
    hess_b: np.ndarray
    hess_f: np.ndarray
    mu_b: float
    mu_f: float

    @property
    def energy(self) -> float:
        return sum(self.terms.values())


def evaluate(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil | None,
    norms: tuple[float, float] | None = None,
) -> Evaluation:
    """Energy breakdown (J) and both Hamiltonians applied, in one pass.

    psi and phi are volume-weighted amplitudes sqrt(w) psi and sqrt(w) phi
    (module docstring), and h_psi, h_phi come back weighted the same way:
    sqrt(w) times
    H_b psi = (-coef_b lap + V_b + g_bb n_b + g_bf n_f) psi
    H_f phi = (-coef_f lap + V_f + (5/3) c_TF n_f^(2/3) + g_bf n_b) phi
    where (5/3) c_TF n^(2/3) is the local Fermi energy of the sea, and
    dE/dpsi = 2 w (H_b psi), likewise for phi. Raises NumericalBlowup on a
    non-finite energy term. The stencil is applied once per field whose
    kinetic coefficient is not zero, and may be None where both are (tf
    mode); the
    densities come from psi~^2 and phi~^2 through the per-row factors of
    params.row_factors, n_f^(2/3) is one cube root squared, and every term
    is one plain sum (grid.dot), the Fermi pressure (3/5) of
    sum(phi~^2 (5/3) c_TF n_f^(2/3)), so no fractional power is taken.
    hess_b and hess_f are built in the local potentials' buffers once each
    H u is: the curvatures are g_bb n_b and the local Fermi energy, which
    the pass forms for the terms, scaled and added there, and mu is
    subtracted once the terms give it. Besides psi and phi the pass holds
    at most six arrays of a band's size at any time (with both bands full).

    psi and phi may each hold only the first z columns of the potentials'
    box, its band: the species is zero past the band's last column, and so
    is the band's last column itself unless it is the box's (a halo, so
    that H u is zero past the band too). Each species' terms, H u and hess
    are then computed on its band alone, and take its shape; the
    interspecies terms run on the columns both bands cover. Each cell is
    computed as on the whole box, so H u and hess are the whole box's on
    the band, bit for bit (given the same mu), and the terms can differ
    only by the order of their sums.

    Since sum(psi~ H~ psi~) is a sum of the energy terms (the quadratic ones
    twice, the pressure times 5/3), mu_b and mu_f come from the terms and
    the two norms sum(psi~^2) and sum(phi~^2) with no further pass over the
    Hamiltonians. norms, when given, are those two: the solver passes the
    atom numbers it renormalized each field to, so it makes no sum for them.
    Otherwise they are summed here.
    """
    g_bb_w, g_bf_w, fermi_w = params.row_factors
    n_zb, n_zf = psi.shape[1], phi.shape[1]
    both = min(n_zb, n_zf)
    v_b, v_f = params.v_b[:, :n_zb], params.v_f[:, :n_zf]
    if norms is None:
        norms = (dot(psi, psi), dot(phi, phi))
    # atoms per cell, w n
    a_b = psi * psi
    a_f = phi * phi
    fermi = np.cbrt(a_f)  # the local Fermi energy (5/3) c_TF n_f^(2/3)
    fermi *= fermi
    fermi *= fermi_w
    fermi_pressure = 0.6 * dot(a_f, fermi)
    bec_trap = dot(a_b, v_b)
    fermi_trap = dot(a_f, v_f)
    g_bb_n_b = a_b * g_bb_w
    bec_interaction = 0.5 * dot(a_b, g_bb_n_b)

    # loc_b takes a_f's buffer (unless the bosons reach further), and a_b,
    # as g_bf n_b, is freed once it has joined loc_f. The Fermi energy and
    # g_bb n_b are kept for the curvatures.
    loc_b = a_f[:, :n_zb] if n_zb <= n_zf else np.zeros_like(a_b)
    np.multiply(a_f[:, :both], g_bf_w, out=loc_b[:, :both])
    interspecies = dot(a_b[:, :both], loc_b[:, :both])
    del a_f
    loc_b += v_b
    loc_b += g_bb_n_b
    a_b *= g_bf_w
    loc_f = np.add(fermi, v_f)
    loc_f[:, :both] += a_b[:, :both]
    curv_b, curv_f = g_bb_n_b, fermi
    curv_b *= 2.0
    curv_f *= 4.0 / 3.0
    del fermi, g_bb_n_b, a_b
    # Each curvature joins its local potential as soon as that species' H u
    # is built, which frees the curvature's buffer.
    bec_kinetic, h_psi = _hamiltonian(loc_b, psi, params.coef_kin_b, stencil)
    hess_b = np.add(loc_b, curv_b, out=loc_b)
    del curv_b
    fermi_gradient, h_phi = _hamiltonian(loc_f, phi, params.coef_kin_f, stencil)
    hess_f = np.add(loc_f, curv_f, out=loc_f)
    del curv_f
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
    norm_b, norm_f = norms
    mu_b = _rayleigh_from_terms(
        bec_kinetic + bec_trap + 2.0 * bec_interaction + interspecies, norm_b
    )
    mu_f = _rayleigh_from_terms(
        fermi_gradient + fermi_trap + (5.0 / 3.0) * fermi_pressure + interspecies, norm_f
    )
    hess_b -= mu_b
    hess_f -= mu_f
    return Evaluation(terms, h_psi, h_phi, hess_b, hess_f, mu_b, mu_f)


def _rayleigh_from_terms(u_h_u: float, norm2: float) -> float:
    return u_h_u / norm2 if norm2 > 0.0 else 0.0


def _hamiltonian(loc, u, coef_kin, stencil):
    """(coef_kin sum(u K~ u), loc u + coef_kin K~ u).

    The new array for H u is made only once the stencil's own temporary is
    freed.
    """
    if coef_kin == 0.0:
        return 0.0, loc * u
    k_u = stencil.apply(u)
    kinetic = coef_kin * dot(u, k_u)
    k_u *= coef_kin
    h_u = loc * u
    h_u += k_u
    return kinetic, h_u


def energy_terms(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
) -> dict:
    """Breakdown of the total energy, J, of unweighted fields psi and phi.

    The fields are scaled by sqrt(w) into two new arrays for evaluate.
    Raises on non-finite terms.
    """
    root = params.grid.root_volumes[:, None]
    return evaluate(params, psi * root, phi * root, stencil).terms


def apply_hamiltonians(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
) -> tuple[np.ndarray, np.ndarray]:
    """(H_b psi, H_f phi) of unweighted fields; dE/dpsi = 2 w (H_b psi), likewise for phi.

    The fields are scaled by sqrt(w) into two new arrays for evaluate, and
    its H~ psi~ and H~ phi~ are scaled back out in place.
    """
    root = params.grid.root_volumes[:, None]
    ev = evaluate(params, psi * root, phi * root, stencil)
    h_psi, h_phi = ev.h_psi, ev.h_phi
    h_psi /= root
    h_phi /= root
    return h_psi, h_phi
