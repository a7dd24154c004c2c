"""Ground states of the mixture energy functional, in full and in tf mode.

Full mode relaxes in imaginary time; tf mode, which drops both kinetic
terms, is solved directly as the pointwise minimum (the last part of this
docstring).

Full mode runs preconditioned nonlinear conjugate gradient on the
constraint sphere of each species, as in Antoine, Levitt & Tang, J.
Comput. Phys. 343, 92 (2017), here with the Fletcher-Reeves beta and a
fixed step rather than a line search (Danaila & Kazemi, SIAM J. Sci.
Comput. 32, 2447 (2010) give the Sobolev-gradient view). It acts on the
square-root fields. Per species, at an accepted state u:

    g = H u - mu u,   p = P g,   gamma = <g, p>_w,
    P = (coef_kin (K_rho + 2/d_z^2) + diag(D))^-1,
    D = max(hess, 0) + eps |mu|,
    d = -p + beta d_prev, beta = gamma / gamma_prev, then projected onto
        the tangent space: d -= (<d, u>_w / <u, u>_w) u,
    u <- |renormalize(u + dtau d)|,

with mu the Rayleigh quotient, K_rho + 2/d_z^2 the kinetic stencil's radial
tridiagonal with its axial diagonal, and hess the local part of the
species' diagonal block of the energy's second variation
(functional.Evaluation): V_b + 3 g_bb n_b + g_bf n_f - mu_b for the bosons,
V_f + (35/9) c_TF n_f^(2/3) + g_bf n_b - mu_f for the fermions. So D is the
energy's own curvature in each cell: about 2 g_bb n_b inside the
condensate, and near zero at a Thomas-Fermi edge, where the cloud has to
move. (Antoine, Levitt & Tang build their preconditioners from the kinetic
and the potential part; here the potential part is the local curvature.)
eps = _CURVATURE_FLOOR keeps D positive where the curvature vanishes. On
the grids grid_for_scenario builds, d_z = 7 d_rho, so nearly all of the
kinetic stiffness is radial: inverting it exactly on each z column keeps
grid refinement from multiplying the iteration count. D varies from cell
to cell, so the columns share no factorization: laid end to end, with no
coupling across a column's end, they form one tridiagonal system of
n_rho x band unknowns, factored and solved by one LAPACK call per species
and step (functional.KineticStencil.solve_cells). The start step is
_DTAU_START = 1.5 preconditioned unit steps.

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
number u was renormalized to. A start that meets the rule, such as a
converged warm start, is returned after 0 iterations. The returned state
is the last accepted one, with that evaluation's own terms, mu and
residual.

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
squares), as a step does from a compact start (the TF condensate fills a
tenth of the box's columns). A halo column below the floor is set to zero
instead, and a start is cut at the floor the same way (_species), so a
band stops at the floor: past the interface
the amplitudes decay exponentially, and a band that followed them would
reach the box's edge through subnormal densities, whose arithmetic is
slow. What a band skips is therefore zeros, or
amplitudes no double sum can see: below eps^2 of the peak, an amplitude
adds under eps^4 to any density sum, and through one stencil apply or line
solve it cannot move any amplitude above eps of the peak. A band never
shrinks, so every buffer stays zero past it. It changes the weighted sums
only by their order and by what lies below the floor, not the method, its
constants or its stop rule.

Tf mode: the pointwise minimum. Without the kinetic terms no cell is
coupled to another, so the ground state is the pointwise minimum of the
local grand-potential density, with the two chemical potentials fixed by
the atom numbers (Viverit, Pethick & Smith, Phys. Rev. A 61, 053605
(2000)). minimize solves that discrete problem on the z > 0 half box
directly, with no relaxation step:

- For given mu = (mu_b, mu_f), each cell (volume w) takes the lowest local
  minimum over n >= 0 of omega = f - mu_b n_b - mu_f n_f, where
  f = V_b n_b + g_bb n_b^2 / 2 + c_TF n_f^(5/3) + V_f n_f + g_bf n_b n_f.
  With a_b = mu_b - V_b and a_f = mu_f - V_f its candidates are: empty; a
  pure condensate, n_b = a_b / g_bb; the pure Fermi sea,
  n_f = (a_f / C)^(3/2); and the mixed state, whose x = n_f^(1/3) is the
  local-minimum root x in (0, 2C/3B) of C x^2 - B x^3 = -A, with
  A = (g_bf/g_bb) a_b - a_f, B = g_bf^2 / g_bb, C = (5/3) c_TF, and then
  n_b = (a_b - g_bf n_f) / g_bb. The root has a closed form with no
  cancellation as x -> 0. A candidate counts only where it is a local
  minimum: a species held at zero must not want in. A cell has at most
  two local minima, the sea and one on the boson side (condensate, mixed
  or empty); a cell with both is bistable. pointwise_minima evaluates
  them all from the local potentials alone.
- mu comes from a damped Newton ascent of the concave dual
  L(mu) = sum w omega(mu) + mu . N, N the half box's atom numbers: its
  gradient is N minus the cells' atoms and its Hessian minus the sum of
  their closed-form dn/dmu. The ascent starts at the noninteracting
  profiles' calibrated mu, where it stops at a_bf = 0.
- The kink. In the separated regime a bistable cell's lowest minimum jumps
  between its two sides as mu crosses the curve on which they are equal,
  and its atoms jump with it. The dual's maximum then sits on such a kink,
  where no mu gives N exactly, and backtracking stalls. When a full Newton
  step crosses a kink without an ascent, the cell of smallest gap that it
  flipped (the gap being w times the difference of the two omegas), with
  the bistable cells whose two omegas differ by the same amount (on the
  default grids, cells with the same potentials: its mirror images in the
  grid's scaled coordinates), is split by the lever rule: together they
  hold a share theta of their sea and 1 - theta of their boson side, and
  Newton's method solves N(mu, theta) = N and omega_sea = omega_boson for
  (mu, theta) (_ridge). That is the dual's maximum, in 3 or 4 steps.
- The flip rule. The discrete problem splits no cell. From the maximum,
  the assignment that puts each bistable cell on the side of its lowest
  minimum there, and the same with any of the split cells on their other
  side, are each ranked by the maximum of the quadratic model of their
  frozen dual at the maximum: the dual there plus half the Newton step
  times the atom-number error. Where the ridge solve fails, they are
  ranked from the last point the ascent accepted, with the group it tried
  to split. On the shipped grids a split group is the cells on one radius
  of a square lattice (d_z omega_z = d_rho omega_rho): four on 160x320 at
  1480 a0, up to 16 on a 128-row half box.
  At most _SPLIT_CELLS of them, those of smallest gap, are flipped (2^8
  assignments); the rest are held on their boson side, not on the side
  rounding picks at the ridge.
  Both sides of every bistable cell are known there, so the ranking
  evaluates no cell. The best is finished by the same damped ascent with
  each bistable cell held on its side (its dual is smooth while every held
  side exists), which meets both atom numbers exactly, and where that
  ascent stalls, the next. Every cell is then at a local minimum of its
  f - mu . n (KKT), which _kkt checks. By the Shapley-Folkman lemma the
  convexified problem has a solution with at most two split cells, one per
  constraint, so these few assignments differ from the dual's own in the
  cells that matter.
- The duality gap. Any state that holds N has E >= 2 L(mu) at every mu
  (weak duality; 2 for the half box). E - 2 L at the maximum is the
  energy the split cells pay for taking one side: 4.7e-7 of E at the
  64x128 separated points of the benchmark's fig3 sweep (E =
  1.0035732780090e-24 J, 2 L = 1.0035728092768e-24 J), 1.2e-11 on the
  default 128x256 grid, and 0 to rounding in the mixed regime, where the
  maximum is smooth and the state is the exact minimum.

A cell with a_b <= 0 holds no bosons unless g_bf < 0, so with repulsion
only the few cells with a_b > 0 get the boson side's closed forms, and
every other one is the sea. Every z > 0 cell is evaluated, the empty ones
far out in the trap too, so no sum depends on a selection that mu moves.
One evaluation of every cell with its sums takes about 0.1 ms at 64x128
and 0.2 ms at 128x256 (one core of a Xeon VM). A solve takes 1 evaluation
at a_bf = 0, 5 to 9 in the mixed regime and 10 (64x128) to 13 (128x256)
past the interface, with the state's energy terms, Rayleigh-quotient mu
and residuals from one functional evaluation, as a relaxed state's. The
returned state has iterations = 0 and a one-entry energy_history, and is
converged; its relative residuals are about 2e-16. Where the KKT check
fails, minimize raises ThomasFermiCollapse instead of returning a state:
under strong attraction (-600 a0 and beyond on 32x64) the best assignment
misses the atom numbers by a factor of ten, or some cells have no local
minimum at all. With repulsion, where no assignment the kink search tries
meets the atom numbers (on coarse grids, such as twice the default's
fermions on 24x48 at 500 a0), it raises a NumericsError that says so.
The solve does not depend on any start: minimize reads neither a warm
start nor max_iter in tf mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import A_BOHR
from .errors import (
    GridMismatch,
    NonPositiveInput,
    NotSeparated,
    NumericsError,
    StepUnstable,
    ThomasFermiCollapse,
    ValidationError,
)
from .functional import KineticStencil, evaluate, half_box_params
from .grid import DensityField, Grid2D, dot, unfold
from .profiles import bec_tf_profile, fermi_tf_profile
# Bound here, though unused, so that perfbench/spans.py can trace them.
from .functional import apply_hamiltonians, energy_terms  # noqa: F401
from .profiles import grid_for_scenario  # noqa: F401
from .scenario import MixtureScenario

# Starting step as a multiple of the preconditioned unit step (scanned with
# _CURVATURE_FLOOR; CHANGES.md has the scan).
_DTAU_START = 1.5
# The floor of each cell's diagonal D, as a share of |mu|.
_CURVATURE_FLOOR = 0.3
# Consecutive step halvings after which a rising energy raises StepUnstable.
_MAX_HALVINGS = 60
# The stop rule: a solve converges at the first accepted state where each
# species' relative residual ||H u - mu u||_w / (|mu| ||u||_w) is at most
# this, just under the 1.56e-6 at which the benchmark's 256x512 solve
# stopped when an energy test was also required.
_RESIDUAL_TOL = 1.5e-6
# A band grows only into a halo column holding an amplitude above this share
# of the trial's peak amplitude (the module docstring gives the reason).
_EPS = np.finfo(float).eps
_TAIL_FLOOR = _EPS**2


@dataclass(frozen=True)
class SolverOptions:
    mode: str = "full"
    max_iter: int = 60000

    def __post_init__(self):
        if self.mode not in ("full", "tf"):
            raise ValidationError(f"solver mode must be 'full' or 'tf', got {self.mode!r}")
        if self.max_iter < 1:
            raise ValidationError(f"solver max_iter must be at least 1, got {self.max_iter}")


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


def local_scale_bound(hess: np.ndarray, floor: float) -> np.ndarray:
    """Per-cell diagonal D = max(hess, 0) + floor of one species, built in hess.

    hess is the local part of the species' diagonal block of the second
    variation from one Evaluation, so 1 / D bounds each cell's step by the
    energy's own curvature there, and floor > 0 keeps it finite where that
    curvature vanishes, at a Thomas-Fermi edge.
    """
    np.maximum(hess, 0.0, out=hess)
    hess += floor
    return hess


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
    sp: _Species, g: np.ndarray, hess: np.ndarray, mu: float, stencil: KineticStencil
) -> bool:
    """Set sp.p, sp.gamma and sp.d for the step from sp.u; True if d is conjugate.

    g = H u - mu u and hess cover sp's band; g is left as it was and hess
    is consumed. p = P g, with P = (coef_kin K_line + diag(D))^-1 and
    D = local_scale_bound(hess, _CURVATURE_FLOOR |mu|). The conjugate
    direction is -p + beta d_prev projected onto the tangent space of the
    sphere at u, with the Fletcher-Reeves beta = gamma / gamma_prev. It is
    taken only when 0 < beta <= 1 and it descends; otherwise d = -p.
    """
    band = sp.band
    u, p, d = sp.u[:, :band], sp.p[:, :band], sp.d[:, :band]
    np.copyto(p, g)
    stencil.solve_cells(sp.coef_kin, local_scale_bound(hess, _CURVATURE_FLOOR * abs(mu)), p)
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
    """The ground state of the functional at scenario.a_bf, in options.mode.

    Full mode relaxes. warm_start, when given, is (psi, phi) from a nearby
    solution on grid; otherwise the flow starts from the noninteracting TF
    profiles. The relaxation runs on the z > 0 half of grid, each species
    on the columns its amplitude can reach (see the module docstring): the
    start is folded onto it, and the returned state is mirrored back, with
    full-grid fields and the full grid's energy, breakdown and history.
    Raises GridMismatch for a warm start of another shape and
    NonPositiveInput for one that is zero everywhere for a species with
    atoms.

    Tf mode solves for the pointwise minimum directly (module docstring),
    reading neither warm_start nor options.max_iter: its state has
    iterations = 0 and a one-entry energy_history, and is converged. It
    raises ThomasFermiCollapse where no pointwise state holds the atoms
    with every cell at a local minimum, and with repulsion a NumericsError
    where the kink search finds none on this grid.

    A full-mode state is always returned; check .converged.
    """
    if options.mode == "tf":
        return _tf_minimum(scenario, grid)
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

    dtau = _DTAU_START
    energy_hist: list[float] = []
    e_prev = math.inf
    halvings = 0
    iterations = 0
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
        e_prev = e_now
        energy_hist.append(e_now)
        for sp, u in zip(species, trial):
            if u is not sp.u:
                sp.u, sp.spare = u, sp.u
        mus = (ev.mu_b, ev.mu_f)
        grads = (ev.h_psi, ev.h_phi)
        residual = _residuals(bands, grads, mus, targets)
        accepted = (ev.terms, mus, residual)
        if max(residual) <= _RESIDUAL_TOL:
            converged = True
            break
        halvings = 0
        iterations += 1

        hess = (ev.hess_b, ev.hess_f)
        conjugate = False
        for k in moving:
            sp = species[k]
            conjugate |= _direction(sp, grads[k], hess[k], mus[k], stencil)
            trial[k] = _trial(sp, dtau)
        # Free the step's work arrays so they are not held through the next
        # evaluation, which sets the solver's peak memory. The gradients stay
        # until the next accepted state replaces them: freed here, they let
        # the allocator return the top of its heap, which the next evaluation
        # faults back in (7.5 times the page faults, and 20% more time, of a
        # cold 256x512 solve).
        del ev, hess, bands

    # The last accepted state, which max_iter >= 1 guarantees: the first
    # evaluation is of the start, and no energy exceeds e_prev = inf.
    terms, mus, residual = accepted
    return _ground_state(
        scenario, grid, [_density(sp.u, grid) for sp in species], terms, mus, residual,
        energy_hist, iterations, converged, options.mode,
    )


def _residuals(amps, grads, mus, targets) -> tuple[float, float]:
    """Each species' relative residual ||H u - mu u||_w / (|mu| ||u||_w); 0 if it is empty.

    grads holds each species' H u and is turned into g = H u - mu u in
    place. ||u||_w^2 = sum(u^2) is the species' target atom number, up to
    the renormalization's rounding, so it takes no sum.
    """
    residual = []
    for u, g, mu, t in zip(amps, grads, mus, targets):
        g -= mu * u
        residual.append(math.sqrt(dot(g, g) / t) / abs(mu) if t > 0.0 else 0.0)
    return tuple(residual)


def _ground_state(
    scenario, grid, densities, terms, mus, residual, history, iterations, converged, mode
) -> GroundState:
    """The GroundState of a half-box solution, in either mode.

    densities [n_b, n_f] are on the z > 0 half and are mirrored onto the
    full grid. history holds the half-box energy of each accepted state,
    the last being the solution's, and terms that state's energy terms:
    sums over the half box, doubled for the full grid. mu and the residuals
    are ratios of half-box sums, the same on the full grid.
    """
    return GroundState(
        scenario=scenario,
        n_b=DensityField(grid, unfold(densities[0]), "bosons"),
        n_f=DensityField(grid, unfold(densities[1]), "fermions"),
        mu_b=mus[0],
        mu_f=mus[1],
        energy=2.0 * history[-1],
        energy_breakdown={name: 2.0 * val for name, val in terms.items()},
        energy_history=2.0 * np.array(history),
        iterations=iterations,
        converged=converged,
        mode=mode,
        residual=residual,
    )


def _density(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """The density (u / sqrt(w))^2 of a weighted amplitude u."""
    n = u / grid.root_volumes[:, None]
    n *= n
    return n


# ---------------------------------------------------------------------------
# Tf mode: the pointwise minimum (module docstring)

# The dual ascent's line search gives up after this many halvings in a row
# without an ascent: the dual maximum then sits on a kink.
_KINK_HALVINGS = 3
# The most split cells it flips; it holds any others on their boson side.
_SPLIT_CELLS = 8
# A Newton step on (mu_b, mu_f) of at most this share of each mu ends a
# solve, as it ends profiles._calibrate_half's root.
_MU_STEP = 1e-14
# Newton steps after which the dual ascent stops, with or without held sides.
_MAX_NEWTON = 60
# Newton steps after which a ridge solve gives up.
_RIDGE_STEPS = 8
# The exponents p of the noninteracting N ~ mu^p: condensate, Fermi sea.
_EXPONENTS = (2.5, 3.0)


def pointwise_minima(a_b, a_f, g_bb: float, g_bf: float, c_tf: float, bosons: bool):
    """Each cell's local minima of omega = f - mu_b n_b - mu_f n_f over n >= 0.

    a_b = mu_b - V_b and a_f = mu_f - V_f are the cells' local potentials
    (module docstring). Returns (sea, k, boson, bistable, sea_lower):

    - sea = (n_f, omega, dn_f/dmu_f), every cell's Fermi sea alone,
      n_f = ((a_f)_+ / C)^(3/2) with C = (5/3) c_TF: the density whose local
      Fermi energy C n_f^(2/3) fills a_f, and so k_F^3 / 6 pi^2. At a fixed
      boson density n_b the fermions' half of a state is the sea at
      a_f - g_bf n_b.
    - k, the cells that can hold bosons (none unless bosons), and boson =
      (n_b, n_f, omega, d_bb, d_bf, d_ff) of their boson side: a condensate,
      the mixed root or empty, with d the entries of its dn/dmu.
    - bistable flags the cells k with both a valid sea and a valid boson
      side, and sea_lower the cells k that take the sea when free to
      choose: it is the lower of the two, or their boson side is invalid.
    """
    fermi = (5.0 / 3.0) * c_tf  # C
    cubic = g_bf**2 / g_bb  # B
    # Every cell's fermion side, the Fermi sea alone; at a_f = C n_f^(2/3)
    # its omega = c_TF n_f^(5/3) - a_f n_f is -(2/5) a_f n_f.
    x = np.sqrt(np.maximum(a_f, 0.0) / fermi)  # n_f^(1/3)
    n_f = x * x * x
    sea = (n_f, -0.4 * a_f * n_f, (1.5 / fermi) * x)
    # The boson side, on the cells k that can hold bosons: with repulsion
    # those with a_b > 0 (every other one is empty there, which is never
    # below its sea), with attraction all, and none without a condensate.
    if not bosons:
        k = np.zeros(0, dtype=int)
    elif g_bf >= 0.0:
        k = np.flatnonzero(a_b > 0.0)
    else:
        k = np.arange(a_b.size)
    ak_b, ak_f = a_b[k], a_f[k]
    # A condensate, valid where no fermion wants in, A = (g_bf/g_bb) a_b
    # - a_f >= 0, or empty, valid where neither species wants in ...
    big_a = (g_bf / g_bb) * ak_b - ak_f
    nk_b = np.maximum(ak_b, 0.0) / g_bb
    nk_f, dk_bf, dk_ff = np.zeros((3, k.size))
    dk_bb = (ak_b > 0.0) / g_bb
    side_ok = np.where(ak_b > 0.0, big_a >= 0.0, ak_f <= 0.0)
    omega = -0.5 * g_bb * nk_b * nk_b
    # ... or mixed, where A < 0. Eliminating n_b = (a_b - g_bf n_f) / g_bb
    # leaves C x^2 - B x^3 = -A in x = n_f^(1/3). Its local minimum is the
    # root in (0, 2C/3B), which exists for s = -A B^2 / C^3 < 4/27:
    # x = (C/B) t with t^2 - t^3 = s, t = (4/3) sin(th) sin(2 pi/3 - th),
    # th = arcsin(sqrt(27 s)/2) / 3, with no cancellation as s -> 0.
    m = np.flatnonzero(big_a < 0.0)
    if m.size and cubic > 0.0:
        s = big_a[m] * (-cubic * cubic / fermi**3)
        m, s = m[s < 4.0 / 27.0], s[s < 4.0 / 27.0]
        th = np.arcsin(np.sqrt(27.0 * s) * 0.5) * (1.0 / 3.0)
        x = (4.0 / 3.0) * (fermi / cubic) * np.sin(th) * np.sin(2.0 * math.pi / 3.0 - th)
    else:
        x = np.sqrt(big_a[m] * (-1.0 / fermi))
    if m.size:
        nm_f = x * x * x
        nm_b = (ak_b[m] - g_bf * nm_f) / g_bb
        on = nm_b > 0.0
        m, x, nm_f, nm_b = m[on], x[on], nm_f[on], nm_b[on]
        # dn/dmu = [[g_bb, g_bf], [g_bf, 2C/3x]]^-1
        #        = [[2C, -3x g_bf], [-3x g_bf, 3x g_bb]] / (g_bb (2C - 3Bx))
        den = 1.0 / (g_bb * (2.0 * fermi - 3.0 * cubic * x))
        nk_b[m], nk_f[m] = nm_b, nm_f
        dk_bb[m] = 2.0 * fermi * den
        dk_bf[m] = -3.0 * g_bf * x * den
        dk_ff[m] = 3.0 * g_bb * x * den
        side_ok[m] = True
        omega[m] = (0.6 * fermi * x * x - ak_f[m]) * nm_f - 0.5 * g_bb * nm_b * nm_b
    # The fermion side is valid where no boson wants in. A cell that
    # rounding leaves with neither side valid, at a continuous
    # crossover, takes the sea, which the other side meets there.
    bistable = side_ok & (ak_f > 0.0) & (g_bf * n_f[k] >= ak_b)
    sea_lower = np.where(bistable, sea[1][k] < omega, ~side_ok)
    return sea, k, (nk_b, nk_f, omega, dk_bb, dk_bf, dk_ff), bistable, sea_lower


@dataclass
class _CellStates:
    """The half box's cell states at one (mu_b, mu_f): each cell's lowest
    local minimum, or the one on its assigned side.

    sea, k and boson are pointwise_minima's, over every z > 0 cell in flat
    Fortran order. Every cell takes its sea but the cells k that on_sea
    does not flag, which take their boson side. pairs lists the bistable
    cells, those with both a sea and a boson side, as positions in k. w
    holds the cells' volumes, and sides flags every cell whose lowest
    minimum is the sea.
    """

    sea: tuple[np.ndarray, np.ndarray, np.ndarray]
    k: np.ndarray
    boson: tuple[np.ndarray, ...]
    on_sea: np.ndarray
    pairs: np.ndarray
    w: np.ndarray
    sides: np.ndarray

    @property
    def b(self) -> np.ndarray:
        """The cells that take their boson side."""
        return self.k[~self.on_sea]

    @property
    def side(self) -> tuple[np.ndarray, ...]:
        """pointwise_minima's boson side of the cells b."""
        on = ~self.on_sea
        return tuple(v[on] for v in self.boson)

    def sums(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(sum of w omega, the atoms N, dN/dmu) over the half box."""
        b = self.b
        w, wb = self.w, self.w[b]
        n_f, omega, d_ff = self.sea
        side_b, side_f, side_omega, d_bb, d_bf, side_ff = self.side
        atoms = np.array([wb @ side_b, w @ n_f + wb @ (side_f - n_f[b])])
        h_bf = wb @ d_bf
        slope = np.array([[wb @ d_bb, h_bf], [h_bf, w @ d_ff + wb @ (side_ff - d_ff[b])]])
        return float(w @ omega + wb @ (side_omega - omega[b])), atoms, slope

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_b, n_f) over the half box, flat in Fortran order."""
        b, side = self.b, self.side
        n_b = np.zeros_like(self.sea[0])
        n_f = self.sea[0].copy()
        n_b[b], n_f[b] = side[0], side[1]
        return n_b, n_f

    @property
    def cells(self) -> np.ndarray:
        """The bistable cells' flat Fortran-order indices on the half box."""
        return self.k[self.pairs]

    def gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, w |omega_F - omega_B|) of the bistable cells."""
        c = self.k[self.pairs]
        w = self.w[c]
        return w, w * np.abs(self.sea[1][c] - self.boson[2][self.pairs])

    def both_sides(self, at) -> tuple:
        """(w, omega_F - omega_B, n_F - n_B, dn/dmu_F - dn/dmu_B, on_sea) of
        the bistable cells at positions at, F their sea and B their boson
        side: n a (2, cells) array and dn/dmu a (2, 2, cells) one."""
        j = self.pairs[at]
        c = self.k[j]
        n_b, n_f, omega, d_bb, d_bf, d_ff = (v[j] for v in self.boson)
        sea_f, sea_omega, sea_ff = (v[c] for v in self.sea)
        return (self.w[c], sea_omega - omega, np.array([-n_b, sea_f - n_f]),
                np.array([[-d_bb, -d_bf], [-d_bf, sea_ff - d_ff]]), self.on_sea[j])


class _Cells:
    """The z > 0 cells a tf state occupies: their potentials and volumes,
    flat in Fortran order."""

    def __init__(self, params, bosons: bool):
        self.params = params
        self.bosons = bosons
        self.v_b, self.v_f = (v.reshape(-1, order="F") for v in (params.v_b, params.v_f))
        self.w = np.tile(params.grid.ring_volumes, params.v_b.shape[1])

    def states(self, mu: np.ndarray, side: np.ndarray | None = None) -> _CellStates:
        """Each cell's lowest local minimum at mu.

        side, when given, holds one flag per cell (True: the fermion side),
        and a bistable cell takes its minimum on that side.
        """
        mu_b, mu_f = mu
        p = self.params
        sea, k, boson, bistable, on_sea = pointwise_minima(
            mu_b - self.v_b, mu_f - self.v_f, p.g_bb, p.g_bf, p.c_tf, self.bosons
        )
        sides = np.ones(self.w.size, dtype=bool)
        sides[k] = on_sea
        if side is not None:
            on_sea = np.where(bistable, side[k], on_sea)
        return _CellStates(sea, k, boson, on_sea, np.flatnonzero(bistable), self.w, sides)


def _newton_step(targets, atoms, slope, mu, scale) -> np.ndarray:
    """The Newton step on mu toward N(mu) = targets, for the species that have atoms.

    While a species holds under half its atoms, as it may at the start,
    the local dN/dmu says little about where its mu lies, and its diagonal
    entry is kept at least p N / mu, the slope of the noninteracting
    N ~ mu^p (p = 5/2 for the condensate, 3 for the Fermi sea; mu at least
    its start's size).
    """
    (h_bb, h_bf), (_, h_ff) = slope
    r_b, r_f = targets - atoms
    for k, p in enumerate(_EXPONENTS):
        if atoms[k] < 0.5 * targets[k]:
            floor = p * targets[k] / max(abs(mu[k]), scale[k])
            if k == 0:
                h_bb = max(h_bb, floor)
            else:
                h_ff = max(h_ff, floor)
    if targets[0] == 0.0:
        return np.array([0.0, r_f / h_ff])
    return _solve2(((h_bb, h_bf), (h_bf, h_ff)), (r_b, r_f))


def _settled(step, mu) -> bool:
    """Whether a Newton step on mu is at most _MU_STEP of each mu."""
    return abs(step[0]) <= _MU_STEP * abs(mu[0]) and abs(step[1]) <= _MU_STEP * abs(mu[1])


def _last_step(cells: _Cells, mu, step, st, side):
    """(mu, states) after a settled Newton step: the step taken, unless it is
    within rounding (4 eps) of mu, and then nothing is evaluated again."""
    if np.all(np.abs(step) <= 4.0 * _EPS * np.abs(mu)):
        return mu, st
    mu = mu + step
    return mu, cells.states(mu, side)


def _ridge(cells: _Cells, mu, targets, split):
    """The dual maximum on a kink: mu at which the split cells are indifferent.

    split lists bistable cells whose two omegas differ by one amount: one
    cell, or it and its mirror images in the grid's scaled coordinates,
    which share its potentials and so its kink. Together they
    hold a share theta of their fermion-side state and 1 - theta of their
    boson side (the lever rule), every other cell its lowest minimum, and
    Newton's method solves N = targets and omega_F = omega_B for mu and
    theta. There the dual's supergradients at the kink average to zero, so
    this is its maximum. Returns mu, or None once theta leaves [0, 1], a
    split cell stops being bistable, or _RIDGE_STEPS steps do not settle.
    """
    split_mask = np.zeros(cells.w.size, dtype=bool)
    split_mask[split] = True
    theta = 0.5
    for _ in range(_RIDGE_STEPS):
        st = cells.states(mu)
        _, atoms, slope = st.sums()
        at = np.flatnonzero(split_mask[st.cells])
        if at.size != len(split):
            return None
        w, gap, jumps, d_jumps, on_sea = st.both_sides(at)
        # the cells' lowest minima replaced by the mixture
        move = (theta - on_sea) * w
        atoms += jumps @ move
        slope += d_jumps @ move
        # Newton on [[dN/dmu, W jump], [jump, 0]] (d mu, d theta) =
        # (N - atoms, omega_F - omega_B), jump = n_F - n_B and W the cells'
        # volume, since d(omega_F - omega_B)/dmu = -jump; by elimination:
        jump = jumps[:, 0]
        y, z = _solve2(slope, targets - atoms), _solve2(slope, jump)
        d_theta = (jump @ y - gap[0]) / (w.sum() * (jump @ z))
        step = y - (w.sum() * d_theta) * z
        mu, theta = mu + step, theta + d_theta
        if not 0.0 <= theta <= 1.0:
            return None
        if _settled(step, mu):
            return mu
    return None


def _solve2(h, r) -> np.ndarray:
    """h^-1 r for a 2x2 h, in closed form."""
    (a, b), (c, d) = h
    det = a * d - b * c
    return np.array([(d * r[0] - b * r[1]) / det, (a * r[1] - c * r[0]) / det])


def _dual_ascent(cells: _Cells, mu, targets, scale, side=None):
    """Damped Newton ascent of the concave dual L(mu) = sum w omega + mu . N.

    side, when given, holds each bistable cell on one side (_Cells.states),
    and no kink is split. Returns (mu, states, split): split is None where
    the ascent settled, and otherwise the last group of cells it tried to
    split, empty if no full step flipped a bistable cell. mu is the ridge's
    where _ridge settled on that group, and else the last point the ascent
    accepted before a line search halved _KINK_HALVINGS times without an
    ascent or _MAX_NEWTON steps did not settle.
    """
    st = cells.states(mu, side)
    omega, atoms, slope = st.sums()
    dual = omega + mu @ targets
    split = np.zeros(0, dtype=int)
    for _ in range(_MAX_NEWTON):
        step = _newton_step(targets, atoms, slope, mu, scale)
        if _settled(step, mu):
            return (*_last_step(cells, mu, step, st, side), None)
        rise = 1e-4 * (targets - atoms) @ step
        for halving in range(_KINK_HALVINGS + 1):
            trial = mu + step
            st_t = cells.states(trial, side)
            omega_t, atoms_t, slope_t = st_t.sums()
            dual_t = omega_t + trial @ targets
            # an ascent, or a step so short its rise is lost to rounding
            if dual_t >= dual + rise - 1e-15 * abs(dual):
                break
            if halving == 0 and side is None:
                # The full step crossed a kink. Split the cell of smallest
                # gap that it flipped, with the cells whose omegas differ
                # by the same amount to 1e-9.
                bistable = st.cells
                flipped = np.flatnonzero((st.sides != st_t.sides)[bistable])
                if flipped.size:
                    w, gap = st.gaps()
                    c = flipped[np.argmin(gap[flipped])]
                    per_volume = gap / w
                    split = bistable[np.abs(per_volume - per_volume[c]) <= 1e-9 * per_volume[c]]
                    top = _ridge(cells, mu, targets, split)
                    if top is not None:
                        return top, cells.states(top), split
            step *= 0.5
            rise *= 0.5
        else:
            return mu, st, split
        mu, st, omega, atoms, slope, dual = trial, st_t, omega_t, atoms_t, slope_t, dual_t
    return mu, st, split


def _kink_search(cells: _Cells, mu, st: _CellStates, split, targets, scale):
    """The lowest-energy assignment near a kink: (mu, states) or None.

    mu, st and split are what _dual_ascent returned: the last group it
    tried to split, at the ridge's mu or the last point it accepted. The
    candidates are the assignment at mu and the same with any of the split
    cells still bistable there on their other side; with none, the
    assignment at mu alone. Of a split group larger than _SPLIT_CELLS, only
    the _SPLIT_CELLS cells of smallest gap are flipped, and the rest are
    held on their boson side in every candidate. Each is ranked by the
    maximum of the quadratic model of its frozen dual at mu that its Newton
    step uses: the dual at mu plus (N - atoms) . step / 2, where the
    flipped cells' omegas move the dual at mu off the one all candidates
    share. That needs no evaluation, since the flipped cells' other sides
    are in st, and the frozen dual's own maximum, the assignment's energy,
    differs from it only to third order in the step. Ties go to the
    candidate listed first. Each is finished, best-ranked first, by the
    dual ascent from its model's maximum with its sides held, and the first
    whose ascent settles wins; only the candidates tried are evaluated.
    """
    bistable = st.cells
    order = np.argsort(st.gaps()[1])
    in_split = np.zeros(cells.w.size, dtype=bool)
    in_split[split] = True
    at = order[in_split[bistable[order]]]
    w, gap, jumps, d_jumps, on_sea = st.both_sides(at)
    _, atoms, slope = st.sums()
    ranked = []
    free = min(len(at), _SPLIT_CELLS)
    held = [j for j in range(free, len(at)) if on_sea[j]]
    for subset in range(1 << free):
        flip = [j for j in range(free) if subset >> j & 1] + held
        side = st.sides.copy()
        side[bistable[at[flip]]] ^= True
        # each flipped cell's move to its other side: a share theta =
        # 1 - on_sea of its sea, as in _ridge
        move = (1.0 - 2.0 * on_sea[flip]) * w[flip]
        a = atoms + jumps[:, flip] @ move
        h = slope + d_jumps[:, :, flip] @ move
        step = _newton_step(targets, a, h, mu, scale)
        score = gap[flip] @ move + 0.5 * (targets - a) @ step
        ranked.append((score, subset, mu + step, side))
    for _, _, trial, side in sorted(ranked, key=lambda c: c[:2]):
        mu_t, st_t, stalled = _dual_ascent(cells, trial, targets, scale, side)
        if stalled is None:
            return mu_t, st_t
    return None


def _tf_minimum(scenario: MixtureScenario, grid: Grid2D) -> GroundState:
    """The tf-mode ground state: each cell at its pointwise minimum (module docstring)."""
    params = half_box_params(scenario, grid, "tf")
    targets = np.array([0.5 * scenario.condensate_number, 0.5 * scenario.n_fermions])
    # The noninteracting profiles' calibrated mu: at a_bf = 0 the solve
    # ends there, with their densities.
    mu = np.array([bec_tf_profile(scenario.bosons, scenario.condensate_number, grid)[1],
                   fermi_tf_profile(scenario.fermions, scenario.n_fermions, grid)[1]])
    scale = np.abs(mu)
    cells = _Cells(params, targets[0] > 0.0)
    mu, st, split = _dual_ascent(cells, mu, targets, scale)
    if split is not None:
        found = _kink_search(cells, mu, st, split, targets, scale)
        if found is not None:
            mu, st = found
        elif params.g_bf >= 0.0:
            raise NumericsError(
                f"at a_bf = {scenario.a_bf / A_BOHR:.6g} a0, no side assignment near the kink"
                f" meets the atom numbers on this {grid.n_rho}x{grid.n_z} grid"
            )
    failure = _kkt(params, st, mu, targets)
    if failure is not None:
        raise ThomasFermiCollapse(
            f"at a_bf = {scenario.a_bf / A_BOHR:.6g} a0, the best pointwise state {failure}:"
            " the Thomas-Fermi mixture collapses"
        )
    fields = [n.reshape(params.v_b.shape, order="F") for n in st.fields()]
    del cells, st  # not held through the final evaluation
    # The state's terms, mu and residuals come from one evaluation, as a
    # relaxed state's do; with no kinetic term it needs no stencil.
    root = grid.root_volumes[:, None]
    amps = [root * np.sqrt(n) for n in fields]
    ev = evaluate(params, *amps, None, tuple(targets))
    mus = (ev.mu_b, ev.mu_f)
    residual = _residuals(amps, (ev.h_psi, ev.h_phi), mus, targets)
    return _ground_state(
        scenario, grid, fields, ev.terms, mus, residual, [ev.energy], 0, True, "tf"
    )


def _kkt(params, st: _CellStates, mu: np.ndarray, targets: np.ndarray) -> str | None:
    """Why st is not a KKT point, or None where it holds the target atoms and
    every cell is a local minimum of f - mu . n.

    Atoms to 1e-13; where a species is present, its local potential meets
    its mu to 1e-12 of the largest |mu|, and where it is absent it lies no
    lower than that; where both are, the second variation is positive
    (x = n_f^(1/3) < 2C/3B). A species without atoms is not tested.
    """
    n_b, n_f = st.fields()
    atoms = np.array([st.w @ n_b, st.w @ n_f])
    missed = [f"{a / t:.3g} times the {name}'s atoms"
              for a, t, name in zip(atoms, targets, ("condensate", "Fermi sea"))
              if abs(a - t) > 1e-13 * t]
    if missed:
        return "holds " + " and ".join(missed)
    v_b, v_f = (v.reshape(-1, order="F") for v in (params.v_b, params.v_f))
    tol = 1e-12 * np.max(np.abs(mu))
    fermi = (5.0 / 3.0) * params.c_tf
    x = np.cbrt(n_f)
    grad_b = v_b + params.g_bb * n_b + params.g_bf * n_f - mu[0]
    grad_f = v_f + fermi * x * x + params.g_bf * n_b - mu[1]
    checks = [(n_f, grad_f)] + ([(n_b, grad_b)] if targets[0] > 0.0 else [])
    stuck = any(np.any(np.where(n > 0.0, np.abs(grad), -grad) > tol) for n, grad in checks)
    both = (n_b > 0.0) & (n_f > 0.0)
    if stuck or np.any(3.0 * params.g_bf**2 * x[both] >= 2.0 * fermi * params.g_bb):
        return "has cells at no local minimum"
    return None


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
