"""Imaginary-time minimization of the mixture energy functional.

Preconditioned nonlinear conjugate gradient on the constraint sphere of each
species, as in Antoine, Levitt & Tang, J. Comput. Phys. 343, 92 (2017), here
with the Fletcher-Reeves beta and a fixed step rather than a line search
(Danaila & Kazemi, SIAM J. Sci. Comput. 32, 2447 (2010) give the
Sobolev-gradient view). It acts on the square-root fields. Per species, at
an accepted state u:

    g = H u - mu u,   p = P g,   gamma = <g, p>_w,
    P = s L^-1 s,   s = sqrt(|mu| / (max(loc, 0) + |mu|)),
    L = coef_kin (K_rho + 2/d_z^2) + |mu|,
    d = -p + beta d_prev, beta = gamma / gamma_prev, then projected onto
        the tangent space: d -= (<d, u>_w / <u, u>_w) u,
    u <- |renormalize(u + dtau d)|,

with mu the Rayleigh quotient, loc the local (non-kinetic) potential and
K_rho + 2/d_z^2 the kinetic stencil's radial tridiagonal with its axial
diagonal (functional.KineticStencil.solve_lines). On the grids
grid_for_scenario builds, d_z = 7 d_rho, so nearly all of the kinetic
stiffness is radial: inverting it exactly on each z column keeps grid
refinement from multiplying the iteration count, and s lets the cells
inside the clouds take their own step rather than one capped by the trap
energy in the box's empty corners. One factorization of L, redone every
step because mu moves, serves every column. Without the kinetic term (tf
mode) L = |mu| and P is 1 / (max(loc, 0) + |mu|) per cell. Both modes start
at 1.7 preconditioned unit steps.

The step is steepest (d = -p, the preconditioned gradient flow of Bao & Du,
SIAM J. Sci. Comput. 25, 1674 (2004)) on the first step, on the retry after
a rejection, whenever beta would exceed 1 (gamma grew: with a fixed step a
longer direction only pumps the stiff modes) and whenever the conjugate
direction does not descend (<g, d>_w >= 0). Taking |u| costs nothing:
every term but the kinetic ones depends on u^2 only, and the kinetic ones
are sums of squared differences with (|a| - |b|)^2 <= (a - b)^2, so
E(|u|) <= E(u) at the same norm.

mu comes from the evaluation's energy terms (functional.Evaluation.mu_b /
mu_f), so a step makes no extra pass over H u. Both fields are renormalized
exactly to the target atom numbers after every step. A conjugate trial is
accepted only if the energy does not rise at all; a rejected one is retried
as a steepest step at the same dtau. A steepest trial may rise by the
rounding slack _RISE_TOL; a rejected one is retried at half the step, and
StepUnstable is raised after _MAX_HALVINGS halvings in a row. Each retry
starts from the accepted state's stored p, so no state is evaluated twice
and every iteration costs one evaluation. A solve converges when the
relative energy decrease has stayed below _TOL_ENERGY for _CONSECUTIVE
accepted steps in a row and each species' relative residual
||g||_w / (|mu| ||u||_w) is at most _RESIDUAL_TOL.

The trap is mirror-symmetric in z, and so is its ground state, so the
relaxation runs on the upper half of the grid only: the n_rho x n_z/2
cells with z > 0, each species holding half its atoms. The kinetic
stencil's lower face there, z = 0, reflects (KineticStencil(mirror=True)):
the neighbour across it is the cell itself; its outer faces stay Dirichlet.
The radial line solve is the full grid's, since the axial diagonal 2/d_z^2
is the same on every column. The trap potentials are sliced from the full
grid. Every start, cold or warm, is folded onto the half as the mean of
the field's two halves; a warm start and its mirror image fold to the same
bytes. The returned state is mirrored back onto the full grid, with its
energy, breakdown and history doubled. So each iteration costs half a
full-grid one, and the returned fields are mirror-symmetric bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatch, NonPositiveInput, NotSeparated, StepUnstable
from .functional import (
    Evaluation,
    KineticStencil,
    evaluate,
    functional_params,
    local_scale_bound,
)
from .grid import DensityField, Grid2D
from .profiles import bec_tf_profile, fermi_tf_profile
# Bound here, though unused, so that perfbench/spans.py can trace them.
from .functional import apply_hamiltonians, energy_terms  # noqa: F401
from .profiles import grid_for_scenario  # noqa: F401
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
# Largest relative residual ||H u - mu u||_w / (|mu| ||u||_w) of either
# species at which a solve may stop. Where the energy test passes first,
# the residual left behind depends on the start: at 5e-5 the seeded warm
# starts of the benchmark sweep (64x128) stopped anywhere from 1.8e-5 to
# 4.7e-5 over seeds 1-10. At 2e-6 this test binds there instead.
_RESIDUAL_TOL = 2.0e-6
# The energy half of the stop rule: the relative energy decrease stays below
# _TOL_ENERGY for _CONSECUTIVE accepted steps in a row. A stop on the
# residual alone ends the benchmark's 256x512 solve at a residual of 1.94e-6
# rather than 1.56e-6, and lets a solve whose step was halved crawl on for
# hundreds of steps, accepting rounding-level energy rises.
_TOL_ENERGY = 1.0e-10
_CONSECUTIVE = 10


@dataclass(frozen=True)
class SolverOptions:
    mode: str = "full"
    max_iter: int = 60000
    seed: int = 42


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
    """u scaled in place to <u, u>_w = target (a new zero array for target 0).

    Raises NonPositiveInput if u is zero everywhere but target is not.
    """
    if target == 0.0:
        return np.zeros_like(u)
    norm2 = grid.inner(u, u)
    if norm2 == 0.0:
        raise NonPositiveInput(f"an all-zero amplitude cannot hold {target:g} atoms")
    u *= math.sqrt(target / norm2)
    return u


def _gradients(ev: Evaluation, psi: np.ndarray, phi: np.ndarray) -> tuple:
    """(g_b, g_f), g = H u - mu u, made in place of ev's H psi and H phi."""
    for u, g, mu in ((psi, ev.h_psi, ev.mu_b), (phi, ev.h_phi, ev.mu_f)):
        g -= mu * u
    return ev.h_psi, ev.h_phi


def _residuals(ev: Evaluation, psi: np.ndarray, phi: np.ndarray, grid: Grid2D) -> tuple:
    """||g||_w / (|mu| ||u||_w) per species, 0 for the zero field; needs _gradients first."""
    out = []
    for u, g, mu in ((psi, ev.h_psi, ev.mu_b), (phi, ev.h_phi, ev.mu_f)):
        norm2 = grid.inner(u, u)
        out.append(0.0 if norm2 == 0.0 else math.sqrt(grid.inner(g, g) / norm2) / abs(mu))
    return tuple(out)


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


@dataclass
class _Species:
    """One species' accepted amplitude and the record its next step needs."""

    target: float
    coef_kin: float
    u: np.ndarray
    p: np.ndarray | None = None  # P g at u
    d: np.ndarray | None = None  # direction of the step from u
    gamma: float = 0.0  # <g, P g>_w at u


def _direction(
    sp: _Species, g: np.ndarray, loc: np.ndarray, mu: float, stencil: KineticStencil
) -> bool:
    """Set sp.p, sp.gamma and sp.d for the step from sp.u; True if d is conjugate.

    g = H u - mu u is left as it was and loc is consumed. The conjugate
    direction is -p + beta d_prev projected onto the tangent space of the
    sphere at u, with the Fletcher-Reeves beta = gamma / gamma_prev. It is
    taken only when 0 < beta <= 1 and it descends; otherwise d = -p.
    """
    grid = stencil.grid
    p = sp.p if sp.p is not None else np.empty_like(g)
    np.copyto(p, g)
    _precondition(p, loc, mu, sp.coef_kin, stencil)
    gamma = grid.inner(g, p)
    d = sp.d
    conjugate = 0.0 < gamma <= sp.gamma
    if conjugate:
        d *= gamma / sp.gamma
        d -= p
        d -= (grid.inner(d, sp.u) / sp.target) * sp.u
        conjugate = grid.inner(g, d) < 0.0
    if d is None:
        d = -p
    elif not conjugate:
        np.negative(p, out=d)
    sp.p, sp.d, sp.gamma = p, d, gamma
    return conjugate


def _trial(sp: _Species, dtau: float, out: np.ndarray, grid: Grid2D) -> np.ndarray:
    """|renormalize(u + dtau d)| of one species, built in out."""
    np.multiply(sp.d, dtau, out=out)
    out += sp.u
    out = _renormalize(out, sp.target, grid)
    return np.abs(out, out=out)


def _upper(a: np.ndarray) -> np.ndarray:
    """The z > 0 half of a full-grid array, as a contiguous copy."""
    return np.ascontiguousarray(a[:, a.shape[1] // 2:])


def _fold(u: np.ndarray) -> np.ndarray:
    """Mean of a full-grid field's z > 0 half and its mirrored z < 0 half.

    The sum is taken in an order that does not depend on which half is
    which, so a field and its mirror image fold to the same bytes.
    """
    h = u.shape[1] // 2
    return 0.5 * (u[:, h:] + u[:, h - 1::-1])


def _unfold(half: np.ndarray) -> np.ndarray:
    """The full-grid field, mirror-symmetric in z, whose z > 0 half is half."""
    return np.concatenate((half[:, ::-1], half), axis=1)


def _start(
    scenario: MixtureScenario, grid: Grid2D, warm_start: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized starting (psi, phi) on the z > 0 half.

    warm_start, or the TF profiles' roots, folded onto the half (_fold).
    """
    if warm_start is None:
        bec, _ = bec_tf_profile(scenario.bosons, scenario.condensate_number, grid)
        sea, _ = fermi_tf_profile(scenario.fermions, scenario.n_fermions, grid)
        fields = (np.sqrt(bec.values), np.sqrt(sea.values))
    else:
        fields = tuple(np.asarray(u, dtype=float) for u in warm_start)
        for u in fields:
            if u.shape != (grid.n_rho, grid.n_z):
                raise GridMismatch(
                    f"warm start of shape {u.shape} on a ({grid.n_rho}, {grid.n_z}) grid"
                )
    return tuple(_fold(u) for u in fields)


def minimize(
    scenario: MixtureScenario,
    grid: Grid2D,
    options: SolverOptions = SolverOptions(),
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> GroundState:
    """Relax to the ground state of the functional at scenario.a_bf.

    warm_start, when given, is (psi, phi) from a nearby solution on grid;
    otherwise the flow starts from the noninteracting TF profiles. The
    relaxation runs on the z > 0 half of grid (see the module docstring):
    the start is folded onto it, and the returned state is mirrored back,
    with full-grid fields and the full grid's energy, breakdown and
    history. A state is always returned; check .converged. Raises
    GridMismatch for a warm start of another shape and NonPositiveInput
    for one that is zero everywhere for a species with atoms.
    """
    params = functional_params(scenario, grid, options.mode)
    params = replace(params, v_b=_upper(params.v_b), v_f=_upper(params.v_f))
    stencil = KineticStencil(grid, mirror=True)
    species = tuple(
        _Species(target, coef_kin, _renormalize(u, target, grid))
        for target, coef_kin, u in zip(
            (0.5 * scenario.condensate_number, 0.5 * scenario.n_fermions),
            (params.coef_kin_b, params.coef_kin_f),
            _start(scenario, grid, warm_start),
        )
    )
    moving = [k for k, sp in enumerate(species) if sp.target > 0.0]
    trial = [sp.u for sp in species]

    dtau = _DTAU_START
    energy_hist: list[float] = []
    e_prev = math.inf
    quiet = 0
    halvings = 0
    iterations = 0
    converged = False
    conjugate = False  # whether the trial state came from a conjugate step

    while iterations < options.max_iter:
        ev = evaluate(params, trial[0], trial[1], stencil)
        e_now = ev.energy
        limit = e_prev if conjugate else e_prev * (1.0 + _RISE_TOL) + _ENERGY_FLOOR
        if e_now > limit:
            # Rejected. A conjugate trial is retried as a steepest one at the
            # same step, a steepest trial at half the step. Both start from
            # the accepted state's stored P g, so no state is evaluated twice.
            del ev
            if not conjugate:
                halvings += 1
                if halvings > _MAX_HALVINGS:
                    raise StepUnstable(f"energy still rising after {_MAX_HALVINGS} step halvings")
                dtau *= 0.5
            conjugate = False
            for k in moving:
                sp = species[k]
                np.negative(sp.p, out=sp.d)
                trial[k] = _trial(sp, dtau, trial[k], grid)
            iterations += 1
            continue

        # Accepted.
        rel_dec = (e_prev - e_now) / max(abs(e_now), _ENERGY_FLOOR)
        e_prev = e_now
        energy_hist.append(e_now)
        for sp, u in zip(species, trial):
            sp.u = u
        grads = _gradients(ev, *trial)
        quiet = quiet + 1 if rel_dec < _TOL_ENERGY else 0
        if quiet >= _CONSECUTIVE:
            residual = _residuals(ev, *trial, grid)
            if max(residual) <= _RESIDUAL_TOL:
                converged = True
                break
        halvings = 0
        iterations += 1

        locs = (ev.loc_b, ev.loc_f)
        mus = (ev.mu_b, ev.mu_f)
        conjugate = False
        for k in moving:
            sp = species[k]
            conjugate |= _direction(sp, grads[k], locs[k], mus[k], stencil)
            # g is spent: its buffer takes the trial state.
            trial[k] = _trial(sp, dtau, grads[k], grid)
        # Free the step's work arrays so they are not held through the next
        # evaluation, which sets the solver's peak memory.
        del ev, grads, locs

    psi, phi = species[0].u, species[1].u
    if not converged:
        # The last evaluation was of a rejected state or was consumed by a step.
        ev = evaluate(params, psi, phi, stencil)
        _gradients(ev, psi, phi)
        residual = _residuals(ev, psi, phi, grid)

    # mu and the residuals are ratios of half-box sums, the same on the full
    # grid; the energy and its terms are sums, doubled.
    return GroundState(
        scenario=scenario,
        n_b=DensityField(grid, _unfold(psi * psi), "bosons"),
        n_f=DensityField(grid, _unfold(phi * phi), "fermions"),
        mu_b=ev.mu_b,
        mu_f=ev.mu_f,
        energy=2.0 * ev.energy,
        energy_breakdown={name: 2.0 * val for name, val in ev.terms.items()},
        energy_history=2.0 * np.array(energy_hist),
        iterations=iterations,
        converged=converged,
        mode=options.mode,
        residual=residual,
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
