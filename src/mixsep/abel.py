"""Forward and inverse Abel transforms for column-density slices.

The forward transform maps a radial profile n(rho) to the line-of-sight
projection F(y) = 2 int_y^inf n(rho) rho drho / sqrt(rho^2 - y^2); the
inverse recovers n(rho) = -(1/pi) int_rho^inf F'(y) dy / sqrt(y^2 - rho^2).
Both integrate a piecewise-linear interpolant against the exact kernel
antiderivatives on every sample interval, so the inverse-square-root
singularity never meets a quadrature node. One helper, _kernel_moments,
evaluates those antiderivatives for every (point, interval) pair at once;
the forward transform (linear n) and dasch3 (linear F') are two weighted
sums of its output.

Two inverse methods: "dasch3" (three-point derivative, then the exact
kernel integral; Dasch, Appl. Opt. 31, 1146 (1992)) and "onion" (onion
peeling: triangular solve of annular path lengths).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    CenterNotFound,
    NonDecayingWarning,
    TooNoisy,
    ValidationError,
)

_EDGE_WARN_FRACTION = 1.0e-3
_LOG_GUARD = 1.0e-300


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


@dataclass(frozen=True)
class RadialProfile:
    """Half-profile n(rho); rho uniform ascending, first sample at 0 or d/2."""

    rho: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        step = _check_uniform(self.rho, "rho")
        r0 = float(self.rho[0])
        if not (abs(r0) < 1e-12 * step or abs(r0 - 0.5 * step) < 1e-9 * step):
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


def _forward_half(rho: np.ndarray, n: np.ndarray, y: np.ndarray) -> np.ndarray:
    """F(y) for y >= 0 from piecewise-linear n over [rho_0, rho_last], 0 beyond.

    Inside rho_0 the profile continues flat at n[0] (symmetry about the axis).
    On each segment n = c0 + c1 rho, whose kernel integral is
    c0 S + c1 (T + y^2 L) / 2.
    """
    c1 = np.diff(n) / np.diff(rho)
    c0 = n[:-1] - c1 * rho[:-1]
    lo, hi = rho[:-1], rho[1:]
    if rho[0] > 0.0:
        lo, hi = np.r_[0.0, lo], np.r_[rho[0], hi]
        c0, c1 = np.r_[n[0], c0], np.r_[0.0, c1]
    s, log_ratio, t = _kernel_moments(lo, hi, y)
    return 2.0 * np.sum(c0 * s + 0.5 * c1 * (t + (y * y)[:, None] * log_ratio), axis=1)


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
    f_half = _forward_half(rho, n, rho)
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
    if slc.y[0] < 0.0:
        raise ValidationError(
            "inverse transform needs a centered half-slice (y >= 0); "
            "run center_and_symmetrize first"
        )


def _negative_mass_fraction(rho: np.ndarray, n: np.ndarray) -> float:
    wr = np.abs(n) * rho
    total = float(np.sum(wr))
    if total == 0.0:
        return 0.0
    neg = float(np.sum(wr[n < 0.0]))
    return neg / total


def _inverse_dasch3(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    step = float(y[1] - y[0])
    fp = np.gradient(f, step)
    if y[0] == 0.0:
        fp[0] = 0.0  # even function: F'(0) vanishes identically
    # piecewise-linear F' on [y_j, y_j+1]: c0 + c1 * y
    c1 = np.diff(fp) / step
    c0 = fp[:-1] - c1 * y[:-1]
    s, log_ratio, _ = _kernel_moments(y[:-1], y[1:], y)
    return -np.sum(c0 * log_ratio + c1 * s, axis=1) / math.pi


def _inverse_onion(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    step = float(y[1] - y[0])
    edges_lo = np.maximum(y - 0.5 * step, 0.0)
    edges_hi = y + 0.5 * step
    m = len(y)
    yy = y[:, None]
    b = edges_hi[None, :]
    a = np.maximum(edges_lo[None, :], yy)
    path = 2.0 * (_sqrt_clip(b * b - yy * yy) - _sqrt_clip(a * a - yy * yy))
    path = np.where(b > a, path, 0.0)
    return solve_triangular(path, f, lower=False)


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
    if method == "dasch3":
        n = _inverse_dasch3(y, f)
    elif method == "onion":
        n = _inverse_onion(y, f)
    else:
        raise ValidationError(f"unknown inverse method {method!r}")
    frac = _negative_mass_fraction(y, n)
    if frac > noise_reject:
        raise TooNoisy(
            f"negative reconstructed mass fraction {frac:.2f} exceeds {noise_reject}"
        )
    return RadialProfile(y, n)
