"""Imaginary-time minimization of the mixture energy functional.

Normalized gradient flow on the square-root fields with a diagonally
preconditioned explicit step (Bao & Du, SIAM J. Sci. Comput. 25, 1674
(2004); Antoine, Levitt & Tang, J. Comput. Phys. 343, 92 (2017)):

    u <- renormalize(u - dtau P (H u - mu u)),
    P = 1 / (max(loc, 0) + coef_kin diag(K) + |mu|)

per species and per cell, with mu the Rayleigh quotient. The empty corners
of the box, where the trap energy is largest, no longer cap the step taken
inside the clouds. Both fields are renormalized exactly to the target atom
numbers after every step, and the step is halved whenever it would raise
the energy, so accepted energies are non-increasing by construction.
Convergence is declared when the relative decrease stays below tol_energy
for a run of consecutive accepted steps.
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
# Starting step as a fraction of the preconditioned unit step.
_DTAU_START = 0.85
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


def _renormalize(u: np.ndarray, target: float, weights: np.ndarray) -> np.ndarray:
    if target == 0.0:
        return np.zeros_like(u)
    norm = float(np.sum(u * u * weights))
    return u * math.sqrt(target / norm)


def _rayleigh(u: np.ndarray, hu: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sum(weights * u * hu)) / float(np.sum(weights * u * u))


def _residual(u: np.ndarray, hu: np.ndarray, mu: float, weights: np.ndarray) -> float:
    """||H u - mu u||_w / (|mu| ||u||_w); 0 for the zero field."""
    norm2 = float(np.sum(weights * u * u))
    if norm2 == 0.0:
        return 0.0
    r = hu - mu * u
    return math.sqrt(float(np.sum(weights * r * r)) / norm2) / abs(mu)


def _preconditioned_step(
    u: np.ndarray,
    hu: np.ndarray,
    scale: np.ndarray,
    dtau: float,
    target: float,
    weights: np.ndarray,
) -> np.ndarray:
    """renormalize(u - dtau (H u - mu u) / (scale + |mu|)); consumes hu and scale."""
    mu = _rayleigh(u, hu, weights)
    scale += abs(mu)
    hu -= mu * u
    hu /= scale
    hu *= -dtau
    hu += u
    return _renormalize(hu, target, weights)


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
    w = grid.weights
    n_cond = scenario.condensate_number

    if warm_start is not None:
        psi = np.array(warm_start[0], dtype=float, copy=True)
        phi = np.array(warm_start[1], dtype=float, copy=True)
    else:
        bec, _ = bec_tf_profile(scenario.bosons, n_cond, grid)
        sea, _ = fermi_tf_profile(scenario.fermions, scenario.n_fermions, grid)
        psi = np.sqrt(bec.values)
        phi = np.sqrt(sea.values)
    psi = _renormalize(psi, n_cond, w)
    phi = _renormalize(phi, scenario.n_fermions, w)

    diag = stencil.diagonal()
    dtau = _DTAU_START
    energy_hist: list[float] = []
    e_prev = math.inf
    psi_best = psi
    phi_best = phi
    quiet = 0
    halvings = 0
    iterations = 0
    converged = False

    while iterations < options.max_iter:
        ev = evaluate(params, psi, phi, stencil)
        e_now = ev.energy

        if e_now > e_prev * (1.0 + _RISE_TOL) + _ENERGY_FLOOR:
            # The step that produced these fields raised the energy: retract.
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise StepUnstable(f"energy still rising after {_MAX_HALVINGS} step halvings")
            dtau *= 0.5
            psi, phi = psi_best, phi_best
            del ev
            iterations += 1
            continue

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

        scale_b, scale_f = local_scale_bound(params, ev.loc_b, ev.loc_f, diag)
        if n_cond > 0.0:
            psi = _preconditioned_step(psi, ev.h_psi, scale_b, dtau, n_cond, w)
        phi = _preconditioned_step(phi, ev.h_phi, scale_f, dtau, scenario.n_fermions, w)
        # Free the step's work arrays so they are not held through the next
        # evaluation, which sets the solver's peak memory.
        del ev, scale_b, scale_f
        iterations += 1

    if not converged:
        # The last evaluation was of a rejected state or was consumed by a step.
        psi, phi = psi_best, phi_best
        ev = evaluate(params, psi, phi, stencil)
    mu_b = _rayleigh(psi, ev.h_psi, w) if n_cond > 0.0 else 0.0
    mu_f = _rayleigh(phi, ev.h_phi, w)

    return GroundState(
        scenario=scenario,
        n_b=DensityField(grid, psi * psi, "bosons"),
        n_f=DensityField(grid, phi * phi, "fermions"),
        mu_b=mu_b,
        mu_f=mu_f,
        energy=ev.energy,
        energy_breakdown=ev.terms,
        energy_history=np.array(energy_hist),
        iterations=iterations,
        converged=converged,
        mode=options.mode,
        residual=(_residual(psi, ev.h_psi, mu_b, w), _residual(phi, ev.h_phi, mu_f, w)),
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
