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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .errors import NumericalBlowup
from .grid import Grid2D
from .profiles import trap_potential
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
    """Grid-bound coefficients; coef_kin_* are zero in Thomas-Fermi mode."""

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
    if mode not in ("full", "tf"):
        raise ValueError(f"mode must be 'full' or 'tf', got {mode!r}")
    b, f = scenario.bosons, scenario.fermions
    kin_b = HBAR * HBAR / (2.0 * b.mass) if mode == "full" else 0.0
    kin_f = LAMBDA_W * HBAR * HBAR / (2.0 * f.mass) if mode == "full" else 0.0
    return EnergyFunctionalParams(
        grid=grid,
        v_b=trap_potential(b, grid),
        v_f=trap_potential(f, grid),
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
    """

    def __init__(self, grid: Grid2D):
        self.grid = grid
        i = np.arange(grid.n_rho, dtype=float)
        self.up = ((i + 1.0) / (i + 0.5))[:, None]
        self.down = (i / (i + 0.5))[:, None]
        self.inv_dr2 = 1.0 / grid.d_rho**2
        self.inv_dz2 = 1.0 / grid.d_z**2

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Minus the discrete (1/rho) d_rho(rho d_rho u) - d_z^2 u."""
        out = (self.up + self.down) * u * self.inv_dr2 + 2.0 * u * self.inv_dz2
        out[:-1, :] -= self.up[:-1] * u[1:, :] * self.inv_dr2
        out[1:, :] -= self.down[1:] * u[:-1, :] * self.inv_dr2
        out[:, :-1] -= u[:, 1:] * self.inv_dz2
        out[:, 1:] -= u[:, :-1] * self.inv_dz2
        return out

    def diagonal(self) -> np.ndarray:
        """Diagonal of the operator apply() represents, shape (n_rho, 1)."""
        return (self.up + self.down) * self.inv_dr2 + 2.0 * self.inv_dz2


@dataclass(frozen=True)
class Evaluation:
    """One pass over (psi, phi): energy terms, H psi, H phi, local potentials.

    loc_b / loc_f are the local (non-kinetic) parts of H_b and H_f.
    """

    terms: dict
    h_psi: np.ndarray
    h_phi: np.ndarray
    loc_b: np.ndarray
    loc_f: np.ndarray

    @property
    def energy(self) -> float:
        return sum(self.terms.values())


def evaluate(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
) -> Evaluation:
    """Energy breakdown (J) and both Hamiltonians applied, in one pass.

    dE/dpsi = 2 w (H_b psi) and likewise for phi, with
    H_b = -coef_b lap + V_b + g_bb n_b + g_bf n_f
    H_f = -coef_f lap + V_f + (5/3) c_TF n_f^(2/3) + g_bf n_b
    where (5/3) c_TF n^(2/3) is the local Fermi energy of the sea. Raises
    NumericalBlowup on a non-finite energy term. The stencil is applied
    once per field.
    """
    w = params.grid.weights
    n_b = psi * psi
    n_f = phi * phi
    terms = {}
    k_psi = k_phi = None
    if params.coef_kin_b != 0.0:
        k_psi = stencil.apply(psi)
        terms["bec_kinetic"] = params.coef_kin_b * float(np.sum(w * psi * k_psi))
    else:
        terms["bec_kinetic"] = 0.0
    if params.coef_kin_f != 0.0:
        k_phi = stencil.apply(phi)
        terms["fermi_gradient"] = params.coef_kin_f * float(np.sum(w * phi * k_phi))
    else:
        terms["fermi_gradient"] = 0.0
    terms["bec_trap"] = float(np.sum(w * params.v_b * n_b))
    terms["bec_interaction"] = 0.5 * params.g_bb * float(np.sum(w * n_b * n_b))
    terms["fermi_pressure"] = params.c_tf * float(np.sum(w * n_f ** (5.0 / 3.0)))
    terms["fermi_trap"] = float(np.sum(w * params.v_f * n_f))
    terms["interspecies"] = params.g_bf * float(np.sum(w * n_b * n_f))
    for name, val in terms.items():
        if not math.isfinite(val):
            raise NumericalBlowup(f"energy term {name!r} is not finite")

    # In place, so that few full-grid arrays are live at once. Each sum adds
    # the same operands in the same grouping as V + g n + g_bf n', so the
    # values match the plain formulas bit for bit.
    loc_b = params.g_bb * n_b
    loc_b += params.v_b
    loc_f = n_f ** (2.0 / 3.0)
    loc_f *= (5.0 / 3.0) * params.c_tf
    loc_f += params.v_f
    n_b *= params.g_bf
    loc_f += n_b
    n_f *= params.g_bf
    loc_b += n_f
    del n_b, n_f
    return Evaluation(
        terms,
        _hamiltonian(loc_b, psi, params.coef_kin_b, k_psi),
        _hamiltonian(loc_f, phi, params.coef_kin_f, k_phi),
        loc_b,
        loc_f,
    )


def _hamiltonian(loc, u, coef_kin, k_u):
    """loc u + coef_kin K u, accumulated into K u's buffer when there is one."""
    if k_u is None:
        return loc * u
    k_u *= coef_kin
    k_u += loc * u
    return k_u


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


def local_scale_bound(
    params: EnergyFunctionalParams,
    loc_b: np.ndarray,
    loc_f: np.ndarray,
    diag: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell diagonal scale of (H_b, H_f): max(loc, 0) + coef_kin diag(K).

    Overwrites and returns loc_b / loc_f, the local potentials of an
    Evaluation; diag is KineticStencil.diagonal(). The solver
    preconditions each species' gradient by one over this scale plus |mu|.
    """
    np.maximum(loc_b, 0.0, out=loc_b)
    np.maximum(loc_f, 0.0, out=loc_f)
    loc_b += params.coef_kin_b * diag
    loc_f += params.coef_kin_f * diag
    return loc_b, loc_f
