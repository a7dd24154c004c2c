"""Forward and inverse Abel transforms for column-density slices.

The forward transform maps a radial profile n(rho) to the line-of-sight
projection F(y) = 2 int_y^inf n(rho) rho drho / sqrt(rho^2 - y^2); the
inverse recovers n(rho) = -(1/pi) int_rho^inf F'(y) dy / sqrt(y^2 - rho^2).
Both integrate a piecewise-linear interpolant against the exact kernel
antiderivatives on every sample interval, so the inverse-square-root
singularity never meets a quadrature node. One helper, _kernel_moments,
evaluates those antiderivatives for every (point, interval) pair at once.

Two inverse methods: "dasch3" (three-point derivative, then the exact
kernel integral; Dasch, Appl. Opt. 31, 1146 (1992)) and "onion" (onion
peeling: triangular solve of annular path lengths).

All three transforms are linear and, as Dasch writes them, their matrices
depend on the sample grid alone, not on the data. Each is built once per
geometry, keyed by (number of samples, first sample, step), and a call is
one product with it: F_half = A @ n forward, n = D @ F for dasch3 (the
derivative and the kernel integral folded into D), and a triangular solve
with the path-length matrix for onion. A build costs O(m^2) time for m
samples: the kernel moments, then banded maps from segment coefficients
to samples. Each transform keeps the operators of its last
_CACHED_GEOMETRIES geometries in an lru_cache, as read-only arrays of
m^2 doubles each (8 MB at m = 1024). An operator is built on the samples
first + k step, so a grid that is uniform only to the 1e-8 the containers
check is transformed as if it were exactly uniform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse
from scipy.linalg import solve_triangular

from .errors import (
    CenterNotFound,
    NonDecayingWarning,
    TooNoisy,
    ValidationError,
)

_EDGE_WARN_FRACTION = 1.0e-3
_LOG_GUARD = 1.0e-300
# Geometries whose operators each transform keeps. The rows of one image
# share a grid, so an analysis needs one per transform; the rest cover a few
# image sizes used in turn. At m = 1024 the three transforms hold at most
# 3 x 4 x 8 MB.
_CACHED_GEOMETRIES = 4


def _check_uniform(x: np.ndarray, name: str) -> float:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValidationError(f"{name} needs at least 4 samples")
    d = np.diff(x)
    if np.any(d <= 0.0):
        raise ValidationError(f"{name} must be strictly ascending")
    step = float(d[0])
    if not np.allclose(d, step, rtol=1.0e-8, atol=0.0):
        raise ValidationError(f"{name} must be uniformly spaced")
    return step


def _starts_half_grid(x0: float, step: float) -> bool:
    """Whether a uniform grid of this step starts at 0 or at half a step."""
    return abs(x0) < 1e-12 * step or abs(x0 - 0.5 * step) < 1e-9 * step


@dataclass(frozen=True)
class RadialProfile:
    """Half-profile n(rho); rho uniform ascending, first sample at 0 or d/2."""

    rho: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        step = _check_uniform(self.rho, "rho")
        if not _starts_half_grid(float(self.rho[0]), step):
            raise ValidationError("rho must start at 0 or at half a spacing")
        if len(self.values) != len(self.rho):
            raise ValidationError("rho and values length mismatch")
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def step(self) -> float:
        return float(self.rho[1] - self.rho[0])


@dataclass(frozen=True)
class ColumnSlice:
    """Projected slice F(y) on a uniform ascending y grid (may span both signs)."""

    y: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_uniform(self.y, "y")
        if len(self.values) != len(self.y):
            raise ValidationError("y and values length mismatch")
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @property
    def step(self) -> float:
        return float(self.y[1] - self.y[0])


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
    """
    r2 = (r * r)[:, None]
    a = np.maximum(lo[None, :], r[:, None])
    b = np.broadcast_to(hi, a.shape)
    live = b > a
    s_a = _sqrt_clip(a * a - r2)
    s_b = _sqrt_clip(b * b - r2)
    # The guard keeps L finite where a = r = 0. Its weight is 0 there (r^2 in
    # the forward sum, c0 = F'(0) = 0 in dasch3), so the product is exactly 0.
    log_ratio = np.log(np.maximum(b + s_b, _LOG_GUARD)) - np.log(
        np.maximum(a + s_a, _LOG_GUARD)
    )
    return (
        np.where(live, s_b - s_a, 0.0),
        np.where(live, log_ratio, 0.0),
        np.where(live, b * s_b - a * s_a, 0.0),
    )


def _samples(m: int, first: float, step: float) -> np.ndarray:
    return first + step * np.arange(m)


def _read_only(op: np.ndarray) -> np.ndarray:
    op.flags.writeable = False
    return op


def _hat_columns(x: np.ndarray, step: float, w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Operator on the samples v of a piecewise-linear interpolant from segment weights.

    On [x_j, x_j+1] the interpolant is c0 + c1 x with
    c0 = (x_j+1 v_j - x_j v_j+1) / step and c1 = (v_j+1 - v_j) / step. A
    segment integral w0_j c0 + w1_j c1 therefore gives v_j the weight
    (x_j+1 w0_j - w1_j) / step and v_j+1 the weight (w1_j - x_j w0_j) / step:
    two column blocks, one shifted by a sample.
    """
    op = np.zeros((w0.shape[0], len(x)))
    op[:, :-1] = (x[1:] * w0 - w1) / step
    op[:, 1:] += (w1 - x[:-1] * w0) / step
    return op


def _gradient_matrix(m: int, step: float, even: bool) -> scipy.sparse.dia_array:
    """Tridiagonal G with G @ f == np.gradient(f, step).

    With even, row 0 is zero: an even function's F'(0) vanishes identically.
    """
    lower = np.full(m - 1, -0.5 / step)
    diag = np.zeros(m)
    upper = np.full(m - 1, 0.5 / step)
    # one-sided differences at the two ends
    diag[0], upper[0] = (0.0, 0.0) if even else (-1.0 / step, 1.0 / step)
    lower[-1], diag[-1] = -1.0 / step, 1.0 / step
    return scipy.sparse.diags_array([lower, diag, upper], offsets=[-1, 0, 1])


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _forward_operator(m: int, first: float, step: float) -> np.ndarray:
    """A with F(x_i) = (A @ n)_i on the samples x of the profile itself.

    n is piecewise linear over [x_0, x_last] and 0 beyond; inside x_0 it
    continues flat at n[0] (symmetry about the axis). On a segment
    n = c0 + c1 rho, whose kernel integral is c0 S + c1 (T + y^2 L) / 2.
    """
    x = _samples(m, first, step)
    s, log_ratio, t = _kernel_moments(x[:-1], x[1:], x)
    op = _hat_columns(x, step, s, 0.5 * (t + (x * x)[:, None] * log_ratio))
    if first > 0.0:
        # the flat core [0, x_0] is one more segment, with c0 = n[0] and c1 = 0
        op[:, 0] += _kernel_moments(np.zeros(1), x[:1], x)[0][:, 0]
    return _read_only(2.0 * op)


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _dasch3_operator(m: int, first: float, step: float) -> np.ndarray:
    """D with n = D @ F: three-point F', then the exact kernel integral of its interpolant.

    On a segment F' = c0 + c1 y, whose kernel integral is c0 L + c1 S.
    """
    x = _samples(m, first, step)
    s, log_ratio, _ = _kernel_moments(x[:-1], x[1:], x)
    kernel = _hat_columns(x, step, log_ratio, s) / -math.pi
    return _read_only(kernel @ _gradient_matrix(m, step, even=first == 0.0))


@lru_cache(maxsize=_CACHED_GEOMETRIES)
def _onion_operator(m: int, first: float, step: float) -> np.ndarray:
    """Upper-triangular P with F = P @ n for n constant on the ring around each sample."""
    y = _samples(m, first, step)
    edges_lo = np.maximum(y - 0.5 * step, 0.0)
    edges_hi = y + 0.5 * step
    yy = y[:, None]
    b = edges_hi[None, :]
    a = np.maximum(edges_lo[None, :], yy)
    path = 2.0 * (_sqrt_clip(b * b - yy * yy) - _sqrt_clip(a * a - yy * yy))
    return _read_only(np.where(b > a, path, 0.0))


def forward_abel(profile: RadialProfile) -> ColumnSlice:
    """Project a radial profile; returns the full symmetric slice.

    Warns when the profile has not decayed at its outer edge, since the
    transform then truncates real mass.
    """
    rho, n = profile.rho, profile.values
    peak = float(np.max(np.abs(n))) if n.size else 0.0
    if peak > 0.0 and abs(n[-1]) > _EDGE_WARN_FRACTION * peak:
        warnings.warn(
            "radial profile has not decayed at the outer edge; "
            "projection truncates the tail",
            NonDecayingWarning,
            stacklevel=2,
        )
    f_half = _forward_operator(len(rho), float(rho[0]), profile.step) @ n
    if rho[0] == 0.0:
        y = np.concatenate((-rho[:0:-1], rho))
        vals = np.concatenate((f_half[:0:-1], f_half))
    else:
        y = np.concatenate((-rho[::-1], rho))
        vals = np.concatenate((f_half[::-1], f_half))
    return ColumnSlice(y, vals)


def center_and_symmetrize(slc: ColumnSlice, center: float | None = None) -> ColumnSlice:
    """Locate the slice center and fold the two halves together.

    The center comes from a parabolic fit through the extremum of the
    baseline-subtracted signal (centroid fallback for flat tops). Output is
    the half-slice on y_k = (k + 1/2) step, linearly resampled and averaged.
    """
    y, v = slc.y, slc.values
    step = slc.step
    n_edge = max(2, len(v) // 10)
    baseline = 0.5 * (float(np.mean(v[:n_edge])) + float(np.mean(v[-n_edge:])))
    dev = np.abs(v - baseline)
    if float(np.max(dev)) == 0.0:
        raise CenterNotFound("slice is constant; no feature to center on")
    if center is None:
        k = int(np.argmax(dev))
        if 0 < k < len(v) - 1:
            d2 = dev[k - 1] - 2.0 * dev[k] + dev[k + 1]
            if d2 < -1e-30 * max(1.0, dev[k]):
                center = float(y[k] + 0.5 * step * (dev[k - 1] - dev[k + 1]) / d2)
            else:
                # flat extremum: intensity-weighted centroid of the top half
                top = dev >= 0.5 * dev[k]
                center = float(np.sum(y[top] * dev[top]) / np.sum(dev[top]))
        else:
            center = float(y[k])

    span = min(center - y[0], y[-1] - center)
    n_half = int(math.floor(span / step - 0.5)) + 1
    if n_half < 4:
        raise CenterNotFound("detected center leaves fewer than 4 usable samples")
    y_half = (np.arange(n_half) + 0.5) * step
    right = np.interp(center + y_half, y, v)
    left = np.interp(center - y_half, y, v)
    return ColumnSlice(y_half, 0.5 * (right + left))


def _require_half_grid(slc: ColumnSlice) -> None:
    """Reject a slice whose reconstruction RadialProfile would not accept."""
    if not _starts_half_grid(float(slc.y[0]), slc.step):
        raise ValidationError(
            "inverse transform needs a centered half-slice, y starting at 0 or at "
            "half a spacing; run center_and_symmetrize first"
        )


def _negative_mass_fraction(rho: np.ndarray, n: np.ndarray) -> float:
    wr = np.abs(n) * rho
    neg = float(np.sum(wr[n < 0.0]))
    # neg + the rest, not one sum over all: a second summation order could
    # round the total below neg and put an all-negative result above 1.
    total = neg + float(np.sum(wr[n >= 0.0]))
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
    merely wiggles below zero near the axis.
    """
    _require_half_grid(slc)
    y, f = slc.y, slc.values
    peak = float(np.max(np.abs(f))) if f.size else 0.0
    if peak > 0.0 and abs(f[-1]) > _EDGE_WARN_FRACTION * peak:
        warnings.warn(
            "slice has not decayed at its outer edge; inversion assumes zero beyond",
            NonDecayingWarning,
            stacklevel=2,
        )
    geometry = (len(y), float(y[0]), slc.step)
    if method == "dasch3":
        n = _dasch3_operator(*geometry) @ f
    elif method == "onion":
        n = solve_triangular(_onion_operator(*geometry), f, lower=False)
    else:
        raise ValidationError(f"unknown inverse method {method!r}")
    frac = _negative_mass_fraction(y, n)
    if frac > noise_reject:
        raise TooNoisy(
            f"negative reconstructed mass fraction {frac:.2f} exceeds {noise_reject}"
        )
    return RadialProfile(y, n)
