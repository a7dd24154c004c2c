"""Imaginary-time minimization of the mixture energy functional.

Preconditioned nonlinear conjugate gradient on the constraint sphere of each
species, as in Antoine, Levitt & Tang, J. Comput. Phys. 343, 92 (2017), here
with the Fletcher-Reeves beta and a fixed step rather than a line search
(Danaila & Kazemi, SIAM J. Sci. Comput. 32, 2447 (2010) give the
Sobolev-gradient view). It acts on the square-root fields. Per species, at
an accepted state u:

    g = H u - mu u,   p = P g,   gamma = <g, p>_w,
    P = (coef_kin (K_rho + 2/d_z^2) + diag(D))^-1,
    D = max(loc + curv - mu, 0) + eps |mu|,
    d = -p + beta d_prev, beta = gamma / gamma_prev, then projected onto
        the tangent space: d -= (<d, u>_w / <u, u>_w) u,
    u <- |renormalize(u + dtau d)|,

with mu the Rayleigh quotient, loc the local (non-kinetic) potential,
K_rho + 2/d_z^2 the kinetic stencil's radial tridiagonal with its axial
diagonal, and curv what the second variation of the energy adds to loc on
its diagonal: 2 g_bb n_b for the bosons, (4/3) (5/3) c_TF n_f^(2/3) for the
fermions (functional.Evaluation). loc + curv - mu is the local part of that
second variation, so D is the energy's own curvature in each cell: about
2 g_bb n_b inside the condensate, and near zero at a Thomas-Fermi edge,
where the cloud has to move. The former preconditioner,
s (coef_kin (K_rho + 2/d_z^2) + |mu|)^-1 s with
s = sqrt(|mu| / (max(loc, 0) + |mu|)), gave a cell the step
1 / (max(loc, 0) + |mu|), about 1 / (2 mu) at such an edge, so its steps
were far too short exactly there; it took 41 and 470 iterations for the
cold 128x256 solves at a_bf = 0 and 1480 a0 that now take 15 and 264.
(Antoine, Levitt & Tang build their preconditioners from the kinetic and
the potential part; here the potential part is the local curvature.)
eps = _CURVATURE_FLOOR keeps D positive where the curvature vanishes. On
the grids grid_for_scenario builds, d_z = 7 d_rho, so nearly all of the
kinetic stiffness is radial: inverting it exactly on each z column keeps
grid refinement from multiplying the iteration count. D varies from cell
to cell, so the columns share no factorization: laid end to end, with no
coupling across a column's end, they form one tridiagonal system of
n_rho x band unknowns, factored and solved by one LAPACK call per species
and step (functional.KineticStencil.solve_cells).

Tf mode keeps P = 1 / (max(loc, 0) + |mu|) per cell, the former
preconditioner without its kinetic term, and its start step of 1.7, so that
every tf-mode state, and the tf column of Figure 3, stays bit for bit what
it was. A start step of 1.5 shared with full mode would cost tf mode 5% more
iterations on the acceptance sweep (934 against 887) and 9% on the fig3
sweep (113 against 104 at seed 1).

The start step is _DTAU_START preconditioned unit steps: 1.7 in tf mode,
the largest start that lowered all eight fig3 energies (64x128) when it
was scanned, and 1.5 in full mode. eps and the full-mode start were
scanned together, eps over 0.1-0.5 and the start over 1.0-2.0 in steps of
0.25, on the 64x128 fig3 sweep at seeds 1-3, the cold 256x512 solve and the
13-point 128x256 acceptance sweep. The iteration counts are erratic in
both: at (0.3, 1.5) the fig3 sweeps take 106-119 full-mode iterations, at
(0.3, 1.75) 128-135 and at (0.2, 1.5) 107-112. A small eps wins at
a_bf = 0 and loses past the interface. At (0.1, 1.25) the fig3 sweeps take
the fewest iterations (97-102), the acceptance sweep 666 and the 256x512
solve 18, but the cold 128x256 solve at 1480 a0 takes 439; at (0.3, 1.5)
those take 701, 18 and 264. Every point scanned kept every full-mode
energy within 3e-11 of the former solver's.

The solver stores each amplitude weighted by the cell volume, as
u~ = sqrt(w) u row by row (w is constant along z; Grid2D.root_volumes), so
that <a, b>_w is the plain dot of a~ and b~ and the weight leaves every sum:
the energy terms, mu, both residuals, gamma, the projection coefficient,
the descent test and the renormalization are each one dot product over a
band's contiguous block (grid.dot). A block of up to 10,000 values is one
BLAS ddot, which OpenBLAS runs on one thread; a larger one is one ddot per
radial line and the sum of those, so no sum, and no solve, depends on the
BLAS thread count. In these amplitudes the kinetic operator is
K~ = W^1/2 K W^-1/2, the same three-point stencil, and since D is diagonal
the line operator coef_kin K~_line + diag(D) is W^1/2 (coef_kin K_line +
diag(D)) W^-1/2, symmetric tridiagonal, so each species' line solve is one
LAPACK call (dptsv) with no scaling pass, and P, the step, the stop rule
and the band floor keep their form. The start is scaled in once (_species)
and the returned densities out once ((u~ / sqrt(w))^2, _density).

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
eps^2 of the trial's peak amplitude (both weighted, u~ being what every sum
squares), as a full-mode step does from a compact start (the TF condensate
fills a tenth of the box's columns), and never in tf mode, where nothing couples neighbouring cells. A halo column
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
from .grid import DensityField, Grid2D, dot, unfold
from .profiles import bec_tf_profile, fermi_tf_profile
# Bound here, though unused, so that perfbench/spans.py can trace them.
from .functional import apply_hamiltonians, energy_terms  # noqa: F401
from .profiles import grid_for_scenario  # noqa: F401
from .scenario import MixtureScenario

# Starting step as a multiple of the preconditioned unit step, per mode (the
# module docstring gives the scans).
_DTAU_START = {"full": 1.5, "tf": 1.7}
# Full mode: the floor of each cell's diagonal D, as a share of |mu|.
_CURVATURE_FLOOR = 0.3
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


def _renormalize(u: np.ndarray, target: float) -> np.ndarray:
    """A weighted amplitude u scaled in place to sum(u^2) = target atoms.

    A new zero array for target 0. Raises NonPositiveInput if u is zero
    everywhere but target is not.
    """
    if target == 0.0:
        return np.zeros_like(u)
    norm2 = dot(u, u)
    if norm2 == 0.0:
        raise NonPositiveInput(f"an all-zero amplitude cannot hold {target:g} atoms")
    u *= math.sqrt(target / norm2)
    return u


def _precondition(
    r: np.ndarray,
    loc: np.ndarray,
    curv: np.ndarray,
    mu: float,
    coef_kin: float,
    stencil: KineticStencil,
) -> np.ndarray:
    """Overwrite r with P r and return it; loc is consumed.

    With the kinetic term, P = (coef_kin K_line + diag(D))^-1 with
    D = max(loc + curv - mu, 0) + _CURVATURE_FLOOR |mu|, built in loc's
    buffer (functional.local_scale_bound). Without it (tf mode), P is
    1 / (max(loc, 0) + |mu|) per cell.
    """
    if coef_kin == 0.0:
        np.maximum(loc, 0.0, out=loc)
        loc += abs(mu)
        r /= loc
        return r
    diag = local_scale_bound(loc, curv, mu, _CURVATURE_FLOOR * abs(mu))
    return stencil.solve_cells(coef_kin, diag, r)


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

    u is an unweighted amplitude, scaled in place to sqrt(w) u. Its band
    ends after the last column holding a weighted amplitude above
    _TAIL_FLOOR of the peak one, and u is set to zero past that column, so
    a start with a tail, such as a field solved without the floor, takes
    the band a solve would have left it.
    """
    u *= grid.root_volumes[:, None]
    u = _renormalize(u, target)
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
    sp: _Species,
    g: np.ndarray,
    loc: np.ndarray,
    curv: np.ndarray,
    mu: float,
    stencil: KineticStencil,
) -> bool:
    """Set sp.p, sp.gamma and sp.d for the step from sp.u; True if d is conjugate.

    g = H u - mu u, loc and curv cover sp's band; g is left as it was and
    loc is consumed. The conjugate direction is -p + beta d_prev projected
    onto the tangent space of the sphere at u, with the Fletcher-Reeves
    beta = gamma / gamma_prev. It is taken only when 0 < beta <= 1 and it
    descends; otherwise d = -p.
    """
    band = sp.band
    u, p, d = sp.u[:, :band], sp.p[:, :band], sp.d[:, :band]
    np.copyto(p, g)
    _precondition(p, loc, curv, mu, sp.coef_kin, stencil)
    gamma = dot(g, p)
    conjugate = 0.0 < gamma <= sp.gamma
    if conjugate:
        d *= gamma / sp.gamma
        d -= p
        d -= (dot(d, u) / sp.target) * u
        conjugate = dot(g, d) < 0.0
    if not conjugate:
        np.negative(p, out=d)
    sp.gamma = gamma
    return conjugate


def _trial(sp: _Species, dtau: float) -> np.ndarray:
    """|renormalize(u + dtau d)| of one species, built in sp.spare and returned.

    The trial is zero wherever u and d both are. Its band is sp.band, grown
    by one column when the trial's halo column holds an amplitude above
    _TAIL_FLOOR of its peak; a halo column below that is set to zero.
    """
    band = sp.band
    out = sp.spare[:, :band]
    np.multiply(sp.d[:, :band], dtau, out=out)
    out += sp.u[:, :band]
    _renormalize(out, sp.target)
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
    # Each field is renormalized to its target, so sum(u^2) needs no sum.
    targets = tuple(sp.target for sp in species)
    trial = [sp.u for sp in species]

    dtau = _DTAU_START[options.mode]
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
                trial[k] = _trial(sp, dtau)
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
        # sum(u^2) is the target exactly, up to the renormalization's rounding.
        residual = tuple(
            math.sqrt(dot(g, g) / sp.target) / abs(mu) if sp.target > 0.0 else 0.0
            for sp, g, mu in zip(species, grads, mus)
        )
        accepted = (ev.terms, mus, residual)
        if max(residual) <= _RESIDUAL_TOL and not wait:
            converged = True
            break
        halvings = 0
        iterations += 1

        locs, curvs = (ev.loc_b, ev.loc_f), (ev.curv_b, ev.curv_f)
        conjugate = False
        for k in moving:
            sp = species[k]
            conjugate |= _direction(sp, grads[k], locs[k], curvs[k], mus[k], stencil)
            trial[k] = _trial(sp, dtau)
        # Free the step's work arrays so they are not held through the next
        # evaluation, which sets the solver's peak memory.
        del ev, grads, locs, curvs, bands

    # The last accepted state, which max_iter >= 1 guarantees: the first
    # evaluation is of the start, and no energy exceeds e_prev = inf. mu and
    # the residuals are ratios of half-box sums, the same on the full grid;
    # the energy and its terms are sums, doubled.
    terms, (mu_b, mu_f), residual = accepted
    n_b, n_f = (_density(sp.u, grid) for sp in species)
    return GroundState(
        scenario=scenario,
        n_b=DensityField(grid, unfold(n_b), "bosons"),
        n_f=DensityField(grid, unfold(n_f), "fermions"),
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


def _density(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """The density (u / sqrt(w))^2 of a weighted amplitude u."""
    n = u / grid.root_volumes[:, None]
    n *= n
    return n


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
