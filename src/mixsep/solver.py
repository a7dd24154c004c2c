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
mu_f) over the atom number u was renormalized to, so a step makes no extra
pass over H u and no sum for <u, u>_w. Both fields are renormalized
exactly to the target atom numbers after every step. A trial, conjugate or
steepest, is accepted only if the energy does not rise. A rejected
conjugate trial is retried as a steepest step at the same dtau, a rejected
steepest one at half the step, and StepUnstable is raised after
_MAX_HALVINGS halvings in a row. Each retry starts from the accepted
state's stored p, so no state is evaluated twice and every iteration costs
one evaluation. A solve converges at the first accepted state where each
species' relative residual ||g||_w / (|mu| ||u||_w) is at most
_RESIDUAL_TOL, one weighted sum per species since ||u||_w^2 is the atom
number u was renormalized to. In tf mode it also waits for _CONSECUTIVE
steps in a row that lower the energy by at most _TOL_ENERGY relative. A
start that meets the rule, such as a converged warm start or the TF
profiles in tf mode at a_bf = 0, is returned after 0 iterations. The
returned state is the last accepted one, with that evaluation's own terms,
mu and residual.

The trap is mirror-symmetric in z, and so is its ground state, so the
relaxation runs on the upper half of the grid only: the n_rho x n_z/2
cells with z > 0, each species holding half its atoms. The kinetic
stencil's lower face there, z = 0, reflects (KineticStencil(mirror=True)):
the neighbour across it is the cell itself; its outer faces stay Dirichlet.
The radial line solve is the full grid's, since the axial diagonal 2/d_z^2
is the same on every column. The trap potentials are built on the half
alone (functional.half_box_params). A warm start is folded onto the half
as the mean of the field's two halves, so it and its mirror image fold to
the same bytes. A cold start takes the z > 0 half of the TF profiles, which
are mirror-symmetric to the bit, so that half is their fold. The returned
state is mirrored back onto the full grid, with its energy, breakdown and
history doubled. So each iteration costs half a
full-grid one, and the returned fields are mirror-symmetric bit for bit.

The half-box fields are stored in Fortran order, their index order still
(rho, z): each radial line (fixed z) is contiguous, so the line solves run
in place and the stencil's axial neighbours are contiguous column blocks.
Each species works on its band, the leading z columns [0, j) its amplitude
can reach: the columns it fills plus one zero halo column, or the whole
box. Past the band every operand is exactly zero: H u, since the stencil
reaches one column, and with it g, P g (a line solve per column), d and
the trial. So evaluate, the preconditioner, the direction and the trial
all run on the band alone, one contiguous block. The band grows by one
column when a trial's halo column holds an amplitude above _TAIL_FLOOR =
eps^2 of the trial's peak amplitude, as a full-mode step does from a
compact start (the TF condensate fills a tenth of the box's columns), and
never in tf mode, where nothing couples neighbouring cells. A halo column
below the floor is set to zero instead, and a start is cut at the floor
the same way (_species), so a band stops at the floor: past the interface
the amplitudes decay exponentially, and a band that followed them would
reach the box's edge through subnormal densities, whose arithmetic is
slow. What a band skips is therefore zeros, or
amplitudes no double sum can see: below eps^2 of the peak, an amplitude
adds under eps^4 to any density sum, and through one stencil apply or line
solve it cannot move any amplitude above eps of the peak. A band never
shrinks, so every buffer stays zero past it. It changes the weighted sums
only by their order and by what lies below the floor, not the method, its
constants or its stop rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NonPositiveInput, NotSeparated, StepUnstable, ValidationError
from .functional import (
    KineticStencil,
    evaluate,
    half_box_params,
    local_scale_bound,
)
from .grid import DensityField, Grid2D, unfold
from .profiles import bec_tf_profile, fermi_tf_profile
# Bound here, though unused, so that perfbench/spans.py can trace them.
from .functional import apply_hamiltonians, energy_terms  # noqa: F401
from .profiles import grid_for_scenario  # noqa: F401
from .scenario import MixtureScenario

# Starting step as a multiple of the preconditioned unit step, shared by both
# modes. Scanned on the benchmark sweep (both modes, 64x128) against the
# former diagonal preconditioner: 1.7 is the largest start that lowers all
# eight energies (1.9 leaves one 2 ulp higher), and at 2.0 a tf-mode point
# stops at a residual of 6.9e-4, six times the former worst.
_DTAU_START = 1.7
# Consecutive step halvings after which a rising energy raises StepUnstable.
_MAX_HALVINGS = 60
# The stop rule: a solve converges at the first accepted state where each
# species' relative residual ||H u - mu u||_w / (|mu| ||u||_w) is at most
# this, just under the 1.56e-6 at which the benchmark's 256x512 solve
# stopped when an energy test was also required.
_RESIDUAL_TOL = 1.5e-6
# In tf mode the stop also waits for _CONSECUTIVE accepted steps in a row
# that each lower the energy by at most _TOL_ENERGY relative. No cell is
# coupled to another there, so a cell the flow has all but emptied refills
# only from its own tiny amplitude, and the residual can pass while the
# energy still falls: without the wait the downward 128x256 tf sweep at
# seed 2 ends 226.4 a0 7.8e-4 higher. An algebraic tf solve would drop it.
_TOL_ENERGY = 1.0e-10
_CONSECUTIVE = 10
# A band grows only into a halo column holding an amplitude above this share
# of the trial's peak amplitude (the module docstring gives the reason).
_TAIL_FLOOR = np.finfo(float).eps ** 2


@dataclass(frozen=True)
class SolverOptions:
    mode: str = "full"
    max_iter: int = 60000
    seed: int = 42

    def __post_init__(self):
        if self.mode not in ("full", "tf"):
            raise ValidationError(f"solver mode must be 'full' or 'tf', got {self.mode!r}")
        if self.max_iter < 1:
            raise ValidationError(f"solver max_iter must be at least 1, got {self.max_iter}")
        if self.seed < 0:
            raise ValidationError(f"solver seed must be non-negative, got {self.seed}")


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
    """One species' accepted amplitude and the record its next step needs.

    Every array spans the half box in Fortran order. band is the number of
    leading z columns the species works on: its amplitudes are zero from
    column band - 1 on (a zero halo column) unless band is the box's width,
    and every array is zero from column band on. It only grows, so a
    column once left behind never needs clearing.
    """

    target: float
    coef_kin: float
    u: np.ndarray
    band: int
    p: np.ndarray  # P g at u
    d: np.ndarray  # direction of the step from u
    spare: np.ndarray  # buffer of the next trial amplitude
    gamma: float = 0.0  # <g, P g>_w at u


def _species(target: float, coef_kin: float, u: np.ndarray, grid: Grid2D) -> _Species:
    """A species starting from u (Fortran order), renormalized to target atoms.

    Its band ends after the last column holding an amplitude above
    _TAIL_FLOOR of u's peak, and u is set to zero past that column, so a
    start with a tail, such as a field solved without the floor, takes the
    band a solve would have left it.
    """
    u = _renormalize(u, target, grid)
    top = np.abs(u).max(axis=0)
    reached = np.flatnonzero(top > _TAIL_FLOOR * top.max())
    if reached.size:
        u[:, reached[-1] + 1:] = 0.0
    band = min(reached[-1] + 2 if reached.size else 1, u.shape[1])
    # np.zeros, unlike np.zeros_like, leaves the pages past the band unwritten
    return _Species(
        target, coef_kin, u, int(band), *(np.zeros(u.shape, order="F") for _ in range(3))
    )


def _direction(
    sp: _Species, g: np.ndarray, loc: np.ndarray, mu: float, stencil: KineticStencil
) -> bool:
    """Set sp.p, sp.gamma and sp.d for the step from sp.u; True if d is conjugate.

    g = H u - mu u and loc cover sp's band; g is left as it was and loc is
    consumed. The conjugate direction is -p + beta d_prev projected onto
    the tangent space of the sphere at u, with the Fletcher-Reeves beta =
    gamma / gamma_prev. It is taken only when 0 < beta <= 1 and it
    descends; otherwise d = -p.
    """
    grid = stencil.grid
    band = sp.band
    u, p, d = sp.u[:, :band], sp.p[:, :band], sp.d[:, :band]
    np.copyto(p, g)
    _precondition(p, loc, mu, sp.coef_kin, stencil)
    gamma = grid.inner(g, p)
    conjugate = 0.0 < gamma <= sp.gamma
    if conjugate:
        d *= gamma / sp.gamma
        d -= p
        d -= (grid.inner(d, u) / sp.target) * u
        conjugate = grid.inner(g, d) < 0.0
    if not conjugate:
        np.negative(p, out=d)
    sp.gamma = gamma
    return conjugate


def _trial(sp: _Species, dtau: float, grid: Grid2D) -> np.ndarray:
    """|renormalize(u + dtau d)| of one species, built in sp.spare and returned.

    The trial is zero wherever u and d both are. Its band is sp.band, grown
    by one column when the trial's halo column holds an amplitude above
    _TAIL_FLOOR of its peak; a halo column below that is set to zero.
    """
    band = sp.band
    out = sp.spare[:, :band]
    np.multiply(sp.d[:, :band], dtau, out=out)
    out += sp.u[:, :band]
    _renormalize(out, sp.target, grid)
    np.abs(out, out=out)
    if band < sp.spare.shape[1]:
        halo = out[:, -1]
        top = halo.max()
        if top > 0.0:
            if top > _TAIL_FLOOR * out.max():
                sp.band = band + 1
            else:
                halo.fill(0.0)
    return sp.spare


def _fold(u: np.ndarray) -> np.ndarray:
    """Mean of a full-grid field's z > 0 half and its mirrored z < 0 half.

    The result is in Fortran order. The sum is taken in an order that does
    not depend on which half is which, so a field and its mirror image fold
    to the same bytes.
    """
    h = u.shape[1] // 2
    return np.asfortranarray(0.5 * (u[:, h:] + u[:, h - 1::-1]))


def _start(
    scenario: MixtureScenario, grid: Grid2D, warm_start: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized starting (psi, phi) on the z > 0 half.

    warm_start folded onto the half (_fold), or the roots of the TF
    profiles' z > 0 halves: those profiles are mirror-symmetric to the bit,
    so that half is what _fold of them would give.
    """
    if warm_start is None:
        bec, _ = bec_tf_profile(scenario.bosons, scenario.condensate_number, grid)
        sea, _ = fermi_tf_profile(scenario.fermions, scenario.n_fermions, grid)
        return tuple(np.sqrt(f.values[:, grid.n_z // 2:], order="F") for f in (bec, sea))
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
    relaxation runs on the z > 0 half of grid, each species on the columns
    its amplitude can reach (see the module docstring): the start is
    folded onto it, and the returned state is mirrored back, with
    full-grid fields and the full grid's energy, breakdown and history. A
    state is always returned; check .converged. Raises GridMismatch for a
    warm start of another shape and NonPositiveInput for one that is zero
    everywhere for a species with atoms.
    """
    params = half_box_params(scenario, grid, options.mode)
    stencil = KineticStencil(grid, mirror=True)
    species = tuple(
        _species(target, coef_kin, u, grid)
        for target, coef_kin, u in zip(
            (0.5 * scenario.condensate_number, 0.5 * scenario.n_fermions),
            (params.coef_kin_b, params.coef_kin_f),
            _start(scenario, grid, warm_start),
        )
    )
    moving = [k for k, sp in enumerate(species) if sp.target > 0.0]
    # Each field is renormalized to its target, so <u, u>_w needs no sum.
    targets = tuple(sp.target for sp in species)
    trial = [sp.u for sp in species]

    dtau = _DTAU_START
    energy_hist: list[float] = []
    e_prev = math.inf
    halvings = 0
    iterations = 0
    wait = 0  # tf mode: quiet steps still owed before the stop
    converged = False
    conjugate = False  # whether the trial state came from a conjugate step

    while iterations < options.max_iter:
        bands = [u[:, :sp.band] for sp, u in zip(species, trial)]
        ev = evaluate(params, bands[0], bands[1], stencil, targets)
        e_now = ev.energy
        if e_now > e_prev:
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
                np.negative(sp.p[:, :sp.band], out=sp.d[:, :sp.band])
                trial[k] = _trial(sp, dtau, grid)
            iterations += 1
            continue

        # Accepted: the trial's buffer holds u, and u's takes the next trial.
        if options.mode == "tf":
            falling = energy_hist and e_prev - e_now > _TOL_ENERGY * abs(e_now)
            wait = _CONSECUTIVE if falling else max(wait - 1, 0)
        e_prev = e_now
        energy_hist.append(e_now)
        for sp, u in zip(species, trial):
            if u is not sp.u:
                sp.u, sp.spare = u, sp.u
        mus = (ev.mu_b, ev.mu_f)
        grads = (ev.h_psi, ev.h_phi)
        for u, g, mu in zip(bands, grads, mus):
            g -= mu * u  # g = H u - mu u, in place of H u
        # <u, u>_w is the target exactly, up to the renormalization's rounding.
        residual = tuple(
            math.sqrt(grid.inner(g, g) / sp.target) / abs(mu) if sp.target > 0.0 else 0.0
            for sp, g, mu in zip(species, grads, mus)
        )
        accepted = (ev.terms, mus, residual)
        if max(residual) <= _RESIDUAL_TOL and not wait:
            converged = True
            break
        halvings = 0
        iterations += 1

        locs = (ev.loc_b, ev.loc_f)
        conjugate = False
        for k in moving:
            sp = species[k]
            conjugate |= _direction(sp, grads[k], locs[k], mus[k], stencil)
            trial[k] = _trial(sp, dtau, grid)
        # Free the step's work arrays so they are not held through the next
        # evaluation, which sets the solver's peak memory.
        del ev, grads, locs, bands

    # The last accepted state, which max_iter >= 1 guarantees: the first
    # evaluation is of the start, and no energy exceeds e_prev = inf. mu and
    # the residuals are ratios of half-box sums, the same on the full grid;
    # the energy and its terms are sums, doubled.
    terms, (mu_b, mu_f), residual = accepted
    psi, phi = species[0].u, species[1].u
    return GroundState(
        scenario=scenario,
        n_b=DensityField(grid, unfold(psi * psi), "bosons"),
        n_f=DensityField(grid, unfold(phi * phi), "fermions"),
        mu_b=mu_b,
        mu_f=mu_f,
        energy=2.0 * e_prev,
        energy_breakdown={name: 2.0 * val for name, val in terms.items()},
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
