"""Imaginary-time minimization of the mixture energy functional.

Normalized gradient flow on the square-root fields (Bao & Du, SIAM J. Sci.
Comput. 25, 1674 (2004)) with a symmetric, radially line-implicit
preconditioner (the form of Antoine, Levitt & Tang, J. Comput. Phys. 343,
92 (2017)), per species:

    u <- renormalize(u - dtau s L^-1 s (H u - mu u)),
    s = sqrt(|mu| / (max(loc, 0) + |mu|)),
    L = coef_kin (K_rho + 2/d_z^2) + |mu|,

with mu the Rayleigh quotient, loc the local (non-kinetic) potential and
K_rho + 2/d_z^2 the kinetic stencil's radial tridiagonal with its axial
diagonal (functional.KineticStencil.solve_lines). On the grids
grid_for_scenario builds, d_z = 7 d_rho, so nearly all of the kinetic
stiffness is radial: inverting it exactly on each z column keeps grid
refinement from multiplying the iteration count, and s lets the cells
inside the clouds take their own step rather than one capped by the trap
energy in the box's empty corners. One factorization of L, redone every
step because mu moves, serves every column. Without the kinetic term (tf mode)
L = |mu| and the step is 1 / (max(loc, 0) + |mu|) per cell. Both modes
start at 1.7 preconditioned unit steps.

mu comes from the evaluation's energy terms (functional.Evaluation.mu_b /
mu_f), so a step makes no extra pass over H u. Both fields are renormalized
exactly to the target atom numbers after every step, and the step is halved
whenever it would raise the energy, so accepted energies are non-increasing
by construction. After such a rejection the flow steps again from the last
accepted state, which is re-evaluated but counts neither as a new history
entry nor as a quiet step, and the halvings keep counting until a step is
accepted. Convergence is declared when the relative decrease stays below
tol_energy for a run of consecutive accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSeparated, StepUnstable
from .functional import KineticStencil, evaluate, functional_params, local_scale_bound
# Bound here, though unused, so that perfbench/spans.py can trace them.
from .functional import apply_hamiltonians, energy_terms  # noqa: F401
from .grid import DensityField, Grid2D
from .profiles import bec_tf_profile, fermi_tf_profile, grid_for_scenario
from .scenario import MixtureScenario

_ENERGY_FLOOR = 1.0e-300
_RISE_TOL = 1.0e-12
# Starting step as a multiple of the preconditioned unit step, shared by both
# modes. Scanned on the benchmark sweep (both modes, 64x128) against the
# former diagonal preconditioner: 1.7 is the largest start that lowers all
# eight energies (1.9 leaves one 2 ulp higher), and at 2.0 a tf-mode point
# stops at a residual of 6.9e-4, six times the former worst.
_DTAU_START = 1.7
# Consecutive step halvings after which a rising energy raises StepUnstable.
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class SolverOptions:
    mode: str = "full"
    tol_energy: float = 1.0e-10
    consecutive: int = 10
    max_iter: int = 60000
    seed: int = 42
    warm_noise: float = 0.01


@dataclass(frozen=True)
class GroundState:
    scenario: MixtureScenario
    n_b: DensityField
    n_f: DensityField
    mu_b: float
    mu_f: float
    energy: float
    energy_breakdown: dict
    energy_history: np.ndarray
    iterations: int
    converged: bool
    mode: str
    # Per species (bosons, fermions): ||H u - mu u||_w / (|mu| ||u||_w) at
    # the returned state; 0 for an empty species.
    residual: tuple[float, float]

    @property
    def grid(self) -> Grid2D:
        return self.n_b.grid


def _renormalize(u: np.ndarray, target: float, grid: Grid2D) -> np.ndarray:
    """u scaled in place to <u, u>_w = target (a new zero array for target 0)."""
    if target == 0.0:
        return np.zeros_like(u)
    u *= math.sqrt(target / grid.inner(u, u))
    return u


def _residual(u: np.ndarray, hu: np.ndarray, mu: float, grid: Grid2D) -> float:
    """||H u - mu u||_w / (|mu| ||u||_w); 0 for the zero field."""
    norm2 = grid.inner(u, u)
    if norm2 == 0.0:
        return 0.0
    r = hu - mu * u
    return math.sqrt(grid.inner(r, r) / norm2) / abs(mu)


def _precondition(
    r: np.ndarray, loc: np.ndarray, mu: float, coef_kin: float, stencil: KineticStencil
) -> np.ndarray:
    """Overwrite r with s (coef_kin K_line + |mu|)^-1 s r and return it.

    s = sqrt(|mu| / (max(loc, 0) + |mu|)) is built in loc's buffer. Without
    the kinetic term the line operator is |mu| and the product is
    1 / (max(loc, 0) + |mu|), which is applied as it stands.
    """
    if coef_kin == 0.0:
        np.maximum(loc, 0.0, out=loc)
        loc += abs(mu)
        r /= loc
        return r
    s = local_scale_bound(loc, mu)
    r *= s
    stencil.solve_lines(coef_kin, abs(mu), r)
    r *= s
    return r


def _preconditioned_step(
    u: np.ndarray,
    hu: np.ndarray,
    loc: np.ndarray,
    mu: float,
    coef_kin: float,
    dtau: float,
    target: float,
    stencil: KineticStencil,
) -> np.ndarray:
    """renormalize(u - dtau P (H u - mu u)), built in hu's buffer.

    P is _precondition's operator. Consumes hu and loc; u is left as it was.
    """
    hu -= mu * u
    _precondition(hu, loc, mu, coef_kin, stencil)
    hu *= -dtau
    hu += u
    return _renormalize(hu, target, stencil.grid)


def minimize(
    scenario: MixtureScenario,
    grid: Grid2D | None = None,
    options: SolverOptions = SolverOptions(),
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> GroundState:
    """Relax to the ground state of the functional at scenario.a_bf.

    warm_start, when given, is (psi, phi) from a nearby solution; otherwise
    the flow starts from the noninteracting TF profiles. A state is always
    returned; check .converged.
    """
    if grid is None:
        grid = grid_for_scenario(scenario)
    params = functional_params(scenario, grid, options.mode)
    stencil = KineticStencil(grid)
    n_cond = scenario.condensate_number

    if warm_start is not None:
        psi = np.array(warm_start[0], dtype=float, copy=True)
        phi = np.array(warm_start[1], dtype=float, copy=True)
    else:
        bec, _ = bec_tf_profile(scenario.bosons, n_cond, grid)
        sea, _ = fermi_tf_profile(scenario.fermions, scenario.n_fermions, grid)
        psi = np.sqrt(bec.values)
        phi = np.sqrt(sea.values)
    psi = _renormalize(psi, n_cond, grid)
    phi = _renormalize(phi, scenario.n_fermions, grid)

    dtau = _DTAU_START
    energy_hist: list[float] = []
    e_prev = math.inf
    psi_best = psi
    phi_best = phi
    quiet = 0
    halvings = 0
    iterations = 0
    converged = False
    retracted = False

    while iterations < options.max_iter:
        ev = evaluate(params, psi, phi, stencil)
        e_now = ev.energy

        if retracted:
            # The accepted state again, evaluated only to step from it with
            # the halved step: its energy is in the history already, it is no
            # progress, and the halvings go on counting.
            retracted = False
        elif e_now > e_prev * (1.0 + _RISE_TOL) + _ENERGY_FLOOR:
            # The step that produced these fields raised the energy: retract.
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise StepUnstable(f"energy still rising after {_MAX_HALVINGS} step halvings")
            dtau *= 0.5
            psi, phi = psi_best, phi_best
            retracted = True
            del ev
            iterations += 1
            continue
        else:
            # Accepted.
            rel_dec = (e_prev - e_now) / max(abs(e_now), _ENERGY_FLOOR)
            e_prev = e_now
            psi_best, phi_best = psi, phi
            energy_hist.append(e_now)
            quiet = quiet + 1 if rel_dec < options.tol_energy else 0
            if quiet >= options.consecutive:
                converged = True
                break
            halvings = 0
            iterations += 1

        if n_cond > 0.0:
            psi = _preconditioned_step(
                psi, ev.h_psi, ev.loc_b, ev.mu_b, params.coef_kin_b, dtau, n_cond, stencil
            )
        phi = _preconditioned_step(
            phi, ev.h_phi, ev.loc_f, ev.mu_f, params.coef_kin_f, dtau, scenario.n_fermions,
            stencil,
        )
        # Free the step's work arrays so they are not held through the next
        # evaluation, which sets the solver's peak memory.
        del ev

    if not converged:
        # The last evaluation was of a rejected state or was consumed by a step.
        psi, phi = psi_best, phi_best
        ev = evaluate(params, psi, phi, stencil)

    return GroundState(
        scenario=scenario,
        n_b=DensityField(grid, psi * psi, "bosons"),
        n_f=DensityField(grid, phi * phi, "fermions"),
        mu_b=ev.mu_b,
        mu_f=ev.mu_f,
        energy=ev.energy,
        energy_breakdown=ev.terms,
        energy_history=np.array(energy_hist),
        iterations=iterations,
        converged=converged,
        mode=options.mode,
        residual=(
            _residual(psi, ev.h_psi, ev.mu_b, grid),
            _residual(phi, ev.h_phi, ev.mu_f, grid),
        ),
    )


def interface_thickness(gs: GroundState) -> float:
    """Radial 10-to-90 rise distance of n_f across the depletion edge, m.

    Measured along the row nearest z = 0 against the rim value (the maximum
    of the row). Requires a hole at least 50% deep, else NotSeparated.
    """
    grid = gs.grid
    row = gs.n_f.axial_slice()
    ref = float(np.max(row))
    if ref <= 0.0 or row[0] > 0.5 * ref:
        raise NotSeparated(
            "no phase-separated hole: central n_f is above half the rim value"
        )
    rho = grid.rho

    def first_crossing(level: float) -> float:
        above = np.nonzero(row >= level)[0]
        k = above[0]
        if k == 0:
            return rho[0]
        # linear interpolation between the straddling cells
        f = (level - row[k - 1]) / (row[k] - row[k - 1])
        return rho[k - 1] + f * (rho[k] - rho[k - 1])

    r10 = first_crossing(0.1 * ref)
    r90 = first_crossing(0.9 * ref)
    return float(r90 - r10)
