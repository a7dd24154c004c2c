"""Forward and inverse Abel transforms for column-density slices.

The forward transform maps a radial profile n(rho) to the line-of-sight
projection F(y) = 2 int_y^inf n(rho) rho drho / sqrt(rho^2 - y^2); the
inverse recovers n(rho) = -(1/pi) int_rho^inf F'(y) dy / sqrt(y^2 - rho^2).
Both integrate a piecewise-linear interpolant against the exact kernel
antiderivatives on every sample interval, so the inverse-square-root
singularity never meets a quadrature node. One helper, _kernel_moments,
evaluates those antiderivatives for every (point, interval) pair at once,
each as a product or quotient of small terms rather than the difference of
two large ones, and every segment is written about its own start,
v_j + c1 (x - x_j), so no coefficient grows with the sample index.

Two inverse methods: "dasch3" (three-point derivative, then the exact
kernel integral; Dasch, Appl. Opt. 31, 1146 (1992)) and "onion" (onion
peeling: the inverse of the upper-triangular matrix of annular path
lengths).

All three transforms are linear and, as Dasch writes them, their matrices
depend on the sample grid alone, not on the data. Each is built once per
geometry, keyed by (number of samples, first sample, step), and a call is
one product with it: F_half = A @ n forward, n = D @ F for dasch3 (the
derivative and the kernel integral folded into D) and n = P^-1 @ F for
onion (the path matrix P inverted by blocks at build time, from numpy
matrix products alone: the module loads no scipy). A build costs O(m^2)
time for m samples, plus the O(m^3) inverse for onion (about 1.5 ms at
m = 128, 40 ms at m = 1024). Each transform keeps the operators of its last
_CACHED_GEOMETRIES geometries in an lru_cache, as read-only arrays of m^2
doubles each (8 MB at m = 1024). An operator is
built on the samples first + k step, so a grid that is uniform only to the
1e-8 the containers check is transformed as if it were exactly uniform.

The public constructors of RadialProfile and ColumnSlice check every grid
and reject a nan or inf sample or value, which would otherwise spread
through every product into an all-nan result. A container this module
builds on a grid it has already checked (the result of inverse_abel, the
half-grid of center_and_symmetrize) skips the grid checks but still
rejects non-finite values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CenterNotFound,
    NonDecayingWarning,
    TooNoisy,
    ValidationError,
)

_EDGE_WARN_FRACTION = 1.0e-3
# Geometries whose operators each transform keeps. The rows of one image
# share a grid, so an analysis needs one per transform; the rest cover a few
# image sizes used in turn. At m = 1024 the three transforms hold at most
# 3 x 4 x 8 MB.
_CACHED_GEOMETRIES = 4


def _check_uniform(x: np.ndarray, name: str) -> float:
    """The step of a finite, strictly ascending grid uniform to 1e-8 of its first step.

    Uniform means |d - step| <= 1e-8 step for every spacing d: the test of
    np.allclose(d, step, rtol=1e-8, atol=0). A rounded subtraction is
    monotone in its operands, so the smallest and the largest spacing
    decide it. Finiteness comes first: an inf sample would make inf - inf.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValidationError(f"{name} needs at least 4 samples")
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} samples must be finite")
    d = x[1:] - x[:-1]
    lo, hi = float(d.min()), float(d.max())
    if not lo > 0.0:
        raise ValidationError(f"{name} must be strictly ascending")
    step = float(d[0])
    # not (a and b), so that an overflowed spacing (inf - inf = nan) fails
    if not (step - lo <= 1.0e-8 * step and hi - step <= 1.0e-8 * step):
        raise ValidationError(f"{name} must be uniformly spaced")
    return step


def _finite_values(values, n: int, name: str) -> np.ndarray:
    """values as a float array of n finite samples, else ValidationError."""
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise ValidationError(f"{name} and values length mismatch")
    if not np.isfinite(v).all():
        raise ValidationError("values must be finite")
    return v


def _starts_half_grid(x0: float, step: float) -> bool:
    """Whether a uniform grid of this step starts at 0 or at half a step."""
    return abs(x0) < 1e-12 * step or abs(x0 - 0.5 * step) < 1e-9 * step


@dataclass(frozen=True)
class RadialProfile:
    """Half-profile n(rho); rho uniform ascending, first sample at 0 or d/2.

    The samples and the values must be finite (ValidationError otherwise).
    """

    rho: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        step = _check_uniform(self.rho, "rho")
        if not _starts_half_grid(float(self.rho[0]), step):
            raise ValidationError("rho must start at 0 or at half a spacing")
        values = _finite_values(self.values, len(self.rho), "rho")
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "values", values)

    @property
    def step(self) -> float:
        return float(self.rho[1] - self.rho[0])


@dataclass(frozen=True)
class ColumnSlice:
    """Projected slice F(y) on a uniform ascending y grid (may span both signs).

    The samples and the values must be finite (ValidationError otherwise).
    """

    y: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_uniform(self.y, "y")
        values = _finite_values(self.values, len(self.y), "y")
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "values", values)

    @property
    def step(self) -> float:
        return float(self.y[1] - self.y[0])


def _on_checked_grid(cls, grid: np.ndarray, values: np.ndarray):
    """cls(grid, values) for a grid that passed cls's grid checks already or meets them by construction.

    Skips those checks; the values must still be finite, with the error the
    public constructor raises.
    """
    name = "rho" if cls is RadialProfile else "y"
    out = object.__new__(cls)
    object.__setattr__(out, name, grid)
    object.__setattr__(out, "values", _finite_values(values, len(grid), name))
    return out


def _sqrt_clip(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(x, 0.0, None))


def _kernel_moments(
    lo: np.ndarray, hi: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact kernel integrals of every segment [lo_j, hi_j] seen from every r_i.

    With s = sqrt(x^2 - r^2), a = max(lo, r) and b = hi, returns the
    (len(r), len(lo)) arrays
        S = s_b - s_a,  L = log((b + s_b) / (a + s_a)),  T = b s_b - a s_a,
    zero where the segment lies inside r. Memory is O(points x segments).
    On segment j each of s_a and s_b is about j times larger than S, and
    a^2 - r^2 loses digits where a is close to r, so every moment is formed
    without the difference of two large terms: s from (x - r)(x + r),
    S = (b - a)(b + a) / (s_a + s_b), L = log1p((b - a + S) / (a + s_a)) and
    T = (b - a) s_b + a S.
    """
    a = np.maximum(lo[None, :], r[:, None])
    b = np.broadcast_to(hi, a.shape)
    live = b > a
    s_a = np.sqrt((a - r[:, None]) * (a + r[:, None]))
    s_b = _sqrt_clip((b - r[:, None]) * (b + r[:, None]))
    width = b - a
    # Outside the live entries the quotients may be 0/0, and at a = r = 0 L
    # diverges; its weight is 0 there (r^2 in the forward sum, F'(0) = 0 in
    # dasch3), so it is set to 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(live, width * (b + a) / (s_a + s_b), 0.0)
        log_ratio = np.where(live & (a > 0.0), np.log1p((width + s) / (a + s_a)), 0.0)
    return s, log_ratio, np.where(live, width * s_b + a * s, 0.0)


def _samples(m: int, first: float, step: float) -> np.ndarray:
    return first + step * np.arange(m)


def _read_only(op: np.ndarray) -> np.ndarray:
    op.flags.writeable = False
    return op


def _hat_columns(step: float, w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Operator on the samples v of a piecewise-linear interpolant from segment weights.

    On [x_j, x_j+1] the interpolant is v_j + c1 (x - x_j), written about the
    segment's own start, with c1 = (v_j+1 - v_j) / step. A segment integral
    w0_j v_j + w1_j c1, w1 being the moment about x_j, therefore gives v_j the
    weight w0_j - w1_j / step and v_j+1 the weight w1_j / step: two column
    blocks, one shifted by a sample.
    """
    op = np.zeros((w0.shape[0], w0.shape[1] + 1))
    tail = w1 / step
    op[:, :-1] = w0 - tail
    op[:, 1:] += tail
    return op


def _times_gradient(a: np.ndarray, step: float, even: bool) -> np.ndarray:
    """a @ G, for the tridiagonal G with G @ f == np.gradient(f, step).

    Column j of a @ G is a[:, j-1] G[j-1, j] + a[:, j] G[j, j] + a[:, j+1] G[j+1, j],
    so the product is three shifted column slices scaled by G's bands. With
    even, row 0 of G is zero: an even function's F'(0) vanishes identically.
    """
    m = a.shape[1]
    lower = np.full(m - 1, -0.5 / step)   # G[j+1, j]
    diag = np.zeros(m)                    # G[j, j]
    upper = np.full(m - 1, 0.5 / step)    # G[j, j+1]
    # one-sided differences at the two ends
    diag[0], upper[0] = (0.0, 0.0) if even else (-1.0 / step, 1.0 / step)
    lower[-1], diag[-1] = -1.0 / step, 1.0 / step
    out = a * diag
    out[:, 1:] += a[:, :-1] * upper
    out[:, :-1] += a[:, 1:] * lower
    return out


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _forward_operator(m: int, first: float, step: float) -> np.ndarray:
    """A with F(x_i) = (A @ n)_i on the samples x of the profile itself.

    n is piecewise linear over [x_0, x_last] and 0 beyond; no chord through
    a sample passes inside x_0. On a segment n = v_j + c1 (rho - x_j), whose
    kernel integral is v_j S + c1 ((T + y^2 L) / 2 - x_j S).
    """
    x = _samples(m, first, step)
    s, log_ratio, t = _kernel_moments(x[:-1], x[1:], x)
    moment = 0.5 * (t + (x * x)[:, None] * log_ratio) - x[:-1] * s
    return _read_only(2.0 * _hat_columns(step, s, moment))


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _dasch3_operator(m: int, first: float, step: float) -> np.ndarray:
    """D with n = D @ F: three-point F', then the exact kernel integral of its interpolant.

    On a segment F' = F'_j + c1 (y - x_j), whose kernel integral is
    F'_j L + c1 (S - x_j L).
    """
    x = _samples(m, first, step)
    s, log_ratio, _ = _kernel_moments(x[:-1], x[1:], x)
    kernel = _hat_columns(step, log_ratio, s - x[:-1] * log_ratio) / -math.pi
    return _read_only(_times_gradient(kernel, step, even=first == 0.0))


def _onion_paths(m: int, first: float, step: float) -> np.ndarray:
    """Upper-triangular P with F = P @ n for n constant on the ring around each sample."""
    y = _samples(m, first, step)
    edges_lo = np.maximum(y - 0.5 * step, 0.0)
    edges_hi = y + 0.5 * step
    yy = y[:, None]
    b = edges_hi[None, :]
    a = np.maximum(edges_lo[None, :], yy)
    path = 2.0 * (_sqrt_clip(b * b - yy * yy) - _sqrt_clip(a * a - yy * yy))
    return np.where(b > a, path, 0.0)


def _upper_inverse(p: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the upper-triangular p into out, whose lower triangle is zero.

    By blocks, [[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]],
    halved down to single entries: 2 m^3 / 3 flops in matrix products, where
    a triangular solve against the identity takes m^3. BLAS splits a matrix
    product's output among its threads, not the sum behind each entry, so
    the inverse does not depend on the thread count.
    """
    m = p.shape[0]
    if m == 1:
        out[0, 0] = 1.0 / p[0, 0]
        return
    h = m // 2
    _upper_inverse(p[:h, :h], out[:h, :h])
    _upper_inverse(p[h:, h:], out[h:, h:])
    out[:h, h:] = -(out[:h, :h] @ p[:h, h:]) @ out[h:, h:]


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _onion_inverse(m: int, first: float, step: float) -> np.ndarray:
    """P^-1 with n = P^-1 @ F: onion peeling as one product.

    Built by blocks with numpy alone (_upper_inverse). It is kept in Fortran
    order, the layout of the triangular solve that built it before, so that
    P^-1 @ F sums each entry in the same order. On random slices of 4 to 1024
    samples the product stays within 1e-14 of the max of a triangular solve
    with P itself.
    """
    inverse = np.zeros((m, m), order="F")
    _upper_inverse(_onion_paths(m, first, step), inverse)
    return _read_only(inverse)


def forward_abel(profile: RadialProfile) -> ColumnSlice:
    """Project a radial profile; returns the full symmetric slice.

    Warns when the profile has not decayed at its outer edge, since the
    transform then truncates real mass.
    """
    rho, n = profile.rho, profile.values
    peak = float(np.abs(n).max())
    if peak > 0.0 and abs(n[-1]) > _EDGE_WARN_FRACTION * peak:
        warnings.warn(
            "radial profile has not decayed at the outer edge; "
            "projection truncates the tail",
            NonDecayingWarning,
            stacklevel=2,
        )
    f_half = _forward_operator(len(rho), float(rho[0]), profile.step) @ n
    # mirrored onto y < 0; a sample at 0 appears once
    mirror = slice(None, 0, -1) if rho[0] == 0.0 else slice(None, None, -1)
    return ColumnSlice(
        np.concatenate((-rho[mirror], rho)), np.concatenate((f_half[mirror], f_half))
    )


def center_and_symmetrize(slc: ColumnSlice, center: float | None = None) -> ColumnSlice:
    """Locate the slice center and fold the two halves together.

    The center comes from a parabolic fit through the extremum of the
    baseline-subtracted signal (centroid fallback for flat tops). Output is
    the half-slice on y_k = (k + 1/2) step, linearly resampled and averaged.
    """
    if center is not None and not math.isfinite(center):
        raise ValidationError(f"center must be finite, got {center!r}")
    y, v = slc.y, slc.values
    step = slc.step
    n_edge = max(2, len(v) // 10)
    # the means of the two edges, as np.mean forms them
    baseline = 0.5 * (float(v[:n_edge].sum()) / n_edge + float(v[-n_edge:].sum()) / n_edge)
    dev = v - baseline
    np.abs(dev, out=dev)
    if float(dev.max()) == 0.0:
        raise CenterNotFound("slice is constant; no feature to center on")
    if center is None:
        k = int(np.argmax(dev))
        if 0 < k < len(v) - 1:
            # A parabola through an extremum above both neighbours by more
            # than rounding; np.argmax returns a plateau's first sample,
            # whose second difference is only the step up to it.
            if dev[k] - max(dev[k - 1], dev[k + 1]) > 1e-12 * dev[k]:
                d2 = dev[k - 1] - 2.0 * dev[k] + dev[k + 1]
                center = float(y[k] + 0.5 * step * (dev[k - 1] - dev[k + 1]) / d2)
            else:
                # flat extremum: intensity-weighted centroid of the top half
                top = dev >= 0.5 * dev[k]
                center = float(np.sum(y[top] * dev[top]) / np.sum(dev[top]))
        else:
            center = float(y[k])

    span = min(center - y[0], y[-1] - center)
    # With the grid checks' tolerance of 1e-8 of a step: a span/step that
    # rounds just below k + 1/2 still keeps its outermost sample, which
    # np.interp then takes at the slice's edge.
    n_half = int(math.floor(span / step - 0.5 + 1.0e-8)) + 1
    if n_half < 4:
        raise CenterNotFound("detected center leaves fewer than 4 usable samples")
    # (k + 1/2) step with step > 0: at least 4 samples, uniform by construction
    y_half = (np.arange(n_half) + 0.5) * step
    folded = np.interp(center + y_half, y, v)
    folded += np.interp(center - y_half, y, v)
    folded *= 0.5
    return _on_checked_grid(ColumnSlice, y_half, folded)


def _require_half_grid(slc: ColumnSlice) -> None:
    """Reject a slice whose reconstruction RadialProfile would not accept."""
    if not _starts_half_grid(float(slc.y[0]), slc.step):
        raise ValidationError(
            "inverse transform needs a centered half-slice, y starting at 0 or at "
            "half a spacing; run center_and_symmetrize first"
        )


def _negative_mass_fraction(rho: np.ndarray, n: np.ndarray) -> float:
    neg = -float(np.minimum(n, 0.0) @ rho)
    # neg + the rest, not one sum over all: a second summation order could
    # round the total below neg and put an all-negative result above 1.
    total = neg + float(np.maximum(n, 0.0) @ rho)
    if total == 0.0:
        return 0.0
    return neg / total


def inverse_abel(
    slc: ColumnSlice,
    method: str = "dasch3",
    noise_reject: float = 0.2,
) -> RadialProfile:
    """Reconstruct the radial profile from a centered half-slice.

    Raises TooNoisy when reconstructed negative mass exceeds noise_reject
    of the total, which marks an unusable inversion rather than data that
    merely wiggles below zero near the axis. A negative noise_reject
    raises ValidationError.
    """
    if not noise_reject >= 0.0:
        raise ValidationError(f"noise_reject must be at least 0, got {noise_reject}")
    _require_half_grid(slc)
    y, f = slc.y, slc.values
    peak = float(np.abs(f).max())
    if peak > 0.0 and abs(f[-1]) > _EDGE_WARN_FRACTION * peak:
        warnings.warn(
            "slice has not decayed at its outer edge; inversion assumes zero beyond",
            NonDecayingWarning,
            stacklevel=2,
        )
    geometry = (len(y), float(y[0]), slc.step)
    if method == "dasch3":
        operator = _dasch3_operator(*geometry)
    elif method == "onion":
        operator = _onion_inverse(*geometry)
    else:
        raise ValidationError(f"unknown inverse method {method!r}")
    n = operator @ f
    frac = _negative_mass_fraction(y, n)
    if frac > noise_reject:
        raise TooNoisy(
            f"negative reconstructed mass fraction {frac:.2f} exceeds {noise_reject}"
        )
    # slc.y passed ColumnSlice's checks, and _require_half_grid RadialProfile's start check
    return _on_checked_grid(RadialProfile, y, n)
