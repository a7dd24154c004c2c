"""Mean-field energy functional of the condensate + Fermi sea.

E[psi, phi] = integral of
    hbar^2/2m_b |grad psi|^2 + V_b n_b + g_bb/2 n_b^2
  + c_TF n_f^(5/3) + lambda_W hbar^2/2m_f |grad phi|^2 + V_f n_f
  + g_bf n_b n_f
with n_b = psi^2, n_f = phi^2. Writing the fermion gradient correction on
phi = sqrt(n_f) uses |grad n_f|^2 / n_f = 4 |grad phi|^2 identically, so no
regularization of the division is ever needed.

Discretely, both kinetic terms are face-difference quadratic forms and the
operators applied by apply_hamiltonians are their exact algebraic gradients
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

LAMBDA_W_DEFAULT = 1.0 / 9.0

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

    @property
    def tf_mode(self) -> bool:
        return self.coef_kin_b == 0.0 and self.coef_kin_f == 0.0


def functional_params(
    scenario: MixtureScenario,
    grid: Grid2D,
    mode: str = "full",
    lambda_w: float = LAMBDA_W_DEFAULT,
) -> EnergyFunctionalParams:
    if mode not in ("full", "tf"):
        raise ValueError(f"mode must be 'full' or 'tf', got {mode!r}")
    b, f = scenario.bosons, scenario.fermions
    kin_b = HBAR * HBAR / (2.0 * b.mass) if mode == "full" else 0.0
    kin_f = lambda_w * HBAR * HBAR / (2.0 * f.mass) if mode == "full" else 0.0
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

    def max_eigenvalue_bound(self) -> float:
        return 4.0 * self.inv_dr2 + 4.0 * self.inv_dz2

    def diagonal(self) -> np.ndarray:
        """Diagonal of the operator apply() represents, shape (n_rho, 1)."""
        return (self.up + self.down) * self.inv_dr2 + 2.0 * self.inv_dz2


def energy_terms(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
    k_psi: np.ndarray | None = None,
    k_phi: np.ndarray | None = None,
) -> dict:
    """Breakdown of the total energy, J. Raises on non-finite terms.

    k_psi / k_phi allow reuse of stencil applications computed by the caller.
    """
    w = params.grid.weights
    n_b = psi * psi
    n_f = phi * phi
    terms = {}
    if params.coef_kin_b != 0.0:
        if k_psi is None:
            k_psi = stencil.apply(psi)
        terms["bec_kinetic"] = params.coef_kin_b * float(np.sum(w * psi * k_psi))
    else:
        terms["bec_kinetic"] = 0.0
    if params.coef_kin_f != 0.0:
        if k_phi is None:
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
    return terms


def total_energy(
    params: EnergyFunctionalParams, psi: np.ndarray, phi: np.ndarray
) -> tuple[float, dict]:
    stencil = KineticStencil(params.grid)
    terms = energy_terms(params, psi, phi, stencil)
    return sum(terms.values()), terms


def apply_hamiltonians(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
    k_psi: np.ndarray | None = None,
    k_phi: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(H_b psi, H_f phi); dE/dpsi = 2 w (H_b psi) and likewise for phi.

    H_b = -coef_b lap + V_b + g_bb n_b + g_bf n_f
    H_f = -coef_f lap + V_f + (5/3) c_TF n_f^(2/3) + g_bf n_b
    where (5/3) c_TF n^(2/3) is the local Fermi energy of the sea.
    """
    n_b = psi * psi
    n_f = phi * phi
    loc_b = params.v_b + params.g_bb * n_b + params.g_bf * n_f
    loc_f = params.v_f + (5.0 / 3.0) * params.c_tf * n_f ** (2.0 / 3.0) + params.g_bf * n_b
    h_psi = loc_b * psi
    h_phi = loc_f * phi
    if params.coef_kin_b != 0.0:
        if k_psi is None:
            k_psi = stencil.apply(psi)
        h_psi = h_psi + params.coef_kin_b * k_psi
    if params.coef_kin_f != 0.0:
        if k_phi is None:
            k_phi = stencil.apply(phi)
        h_phi = h_phi + params.coef_kin_f * k_phi
    return h_psi, h_phi


def local_scale_bound(
    params: EnergyFunctionalParams,
    psi: np.ndarray,
    phi: np.ndarray,
    stencil: KineticStencil,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell diagonal scale of (H_b, H_f): max(loc, 0) + coef_kin diag(K).

    loc is the local part of each Hamiltonian in apply_hamiltonians. The
    solver preconditions each species' gradient by one over this scale plus
    |mu|. Built in place, so the only full-grid allocations are the two
    returned arrays and the two densities.
    """
    n_b = psi * psi
    n_f = phi * phi
    scale_b = params.g_bb * n_b
    scale_b += params.v_b
    scale_f = n_f ** (2.0 / 3.0)
    scale_f *= (5.0 / 3.0) * params.c_tf
    scale_f += params.v_f
    n_b *= params.g_bf
    scale_f += n_b
    n_f *= params.g_bf
    scale_b += n_f
    np.maximum(scale_b, 0.0, out=scale_b)
    np.maximum(scale_f, 0.0, out=scale_f)
    diag = stencil.diagonal()
    scale_b += params.coef_kin_b * diag
    scale_f += params.coef_kin_f * diag
    return scale_b, scale_f
