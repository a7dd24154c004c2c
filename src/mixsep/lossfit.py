"""Fitting measured atom-number decays and smoothing loss coefficients.

fit_gamma extracts the initial per-atom loss rate from the early part of
a decay; fit_l3 extracts a three-body coefficient from a thermal-cloud
decay where the loss is quadratic in the remaining atom number; smooth_l3
runs a locally weighted regression through (a_bf, L3) measurements with a
bootstrap confidence band. The regression's weights depend on a_bf and sigma,
not on L3, so it is a linear smoother (Cleveland, JASA 74, 829 (1979)): smooth_l3 builds
its matrix once and gets the fit and every bootstrap replicate as products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit

from .errors import (
    FitDiverged,
    InsufficientData,
    NonPositiveInput,
    OutOfDomain,
    TooFewPoints,
    ValidationError,
)
from .physics import SpeciesParams
from .profiles import thermal_peak_coefficient

SMOOTH_DOMAIN_A0 = (80.0, 2100.0)
# Points of the smoothed curve, evenly spaced in log a_bf over the data.
_SMOOTH_N_EVAL = 60


@dataclass(frozen=True)
class DecaySeries:
    """Atom number versus hold time, with optional per-point uncertainties."""

    times: np.ndarray
    numbers: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        n = np.asarray(self.numbers, dtype=float)
        if t.ndim != 1 or t.shape != n.shape:
            raise ValidationError("times and numbers must be 1-d and equal length")
        if t.size < 3:
            raise TooFewPoints("a decay series needs at least 3 points")
        if np.any(np.diff(t) <= 0.0):
            raise ValidationError("times must be strictly ascending")
        if np.any(~np.isfinite(t)) or np.any(~np.isfinite(n)):
            raise ValidationError("times and numbers must be finite")
        if np.any(n <= 0.0):
            raise NonPositiveInput("atom numbers must be positive")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "numbers", n)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            if s.shape != t.shape:
                raise ValidationError("sigma must match times in length")
            if np.any(s <= 0.0) or np.any(~np.isfinite(s)):
                raise NonPositiveInput("sigma values must be positive and finite")
            object.__setattr__(self, "sigma", s)


@dataclass(frozen=True)
class GammaFit:
    """Initial per-atom loss rate gamma = -(dN/dt)/N at t=0."""

    gamma: float
    gamma_stderr: float
    n0: float
    slope: float
    n_used: int
    decaying: bool


@dataclass(frozen=True)
class L3Fit:
    """Three-body coefficient from a quadratic-in-N decay fit."""

    l3: float
    l3_stderr: float
    n0: float
    n0_stderr: float
    rate_constant: float
    rate_stderr: float
    temperature: float
    n_f_peak: float
    overlap_factor: float


def fit_gamma(series: DecaySeries, window_fraction: float = 0.7) -> GammaFit:
    """Weighted linear fit of the early decay; gamma = -slope / N(0).

    Only points with N >= window_fraction * N[0] enter the fit, so the
    rate is the initial one rather than an average over the whole curve.
    """
    if not 0.0 < window_fraction < 1.0:
        raise ValidationError("window_fraction must lie in (0, 1)")
    t, n = series.times, series.numbers
    keep = n >= window_fraction * n[0]
    keep[0] = True
    if int(np.sum(keep)) < 3:
        raise TooFewPoints(
            "fewer than 3 points above the window threshold; "
            "widen window_fraction or take denser early data"
        )
    tt, nn = t[keep], n[keep]
    if series.sigma is not None:
        w = 1.0 / series.sigma[keep] ** 2
    else:
        w = np.ones_like(tt)

    # weighted least squares for n = a + b t
    sw = np.sum(w)
    swt = np.sum(w * tt)
    swtt = np.sum(w * tt * tt)
    swn = np.sum(w * nn)
    swtn = np.sum(w * tt * nn)
    det = sw * swtt - swt * swt
    if det <= 0.0:
        raise FitDiverged("degenerate time samples in gamma fit")
    a = (swtt * swn - swt * swtn) / det
    b = (sw * swtn - swt * swn) / det

    resid = nn - (a + b * tt)
    dof = len(tt) - 2
    if series.sigma is not None:
        var_scale = 1.0
    else:
        var_scale = float(np.sum(w * resid * resid) / dof) if dof > 0 else 0.0
    var_a = var_scale * swtt / det
    var_b = var_scale * sw / det
    cov_ab = -var_scale * swt / det

    if a <= 0.0:
        raise FitDiverged("fitted N(0) is not positive")
    gamma = -b / a
    # delta method for g = -b/a
    var_g = (b * b / a**4) * var_a + var_b / (a * a) - (2.0 * b / a**3) * cov_ab
    stderr = math.sqrt(max(var_g, 0.0))
    return GammaFit(
        gamma=gamma,
        gamma_stderr=stderr,
        n0=a,
        slope=b,
        n_used=len(tt),
        decaying=bool(b < 0.0),
    )


def _decay_model(t, n0, k):
    return n0 / (1.0 + k * n0 * t)


def fit_l3(
    series: DecaySeries,
    species: SpeciesParams,
    temperature: float,
    n_f_peak: float,
    overlap_factor: float = 1.0,
) -> L3Fit:
    """Extract L3 from a thermal-cloud decay.

    The loss channel is fermion + two thermal atoms, so dN/dt = -k N^2
    with k = L3 * n_f_peak * c_T / sqrt(8), where c_T N is the thermal
    peak density at the given temperature. Inverting the fitted k gives
    L3. overlap_factor divides out a known density-overlap reduction.
    """
    if temperature <= 0.0:
        raise NonPositiveInput("temperature must be positive")
    if n_f_peak <= 0.0:
        raise NonPositiveInput("fermion peak density must be positive")
    if not 0.0 < overlap_factor <= 1.0:
        raise ValidationError("overlap_factor must lie in (0, 1]")
    t, n = series.times, series.numbers
    if len(t) < 4:
        raise TooFewPoints("L3 fit needs at least 4 points")

    n0_guess = float(n[0])
    # crude k from the endpoints of 1/N, clamped positive
    k_guess = (1.0 / n[-1] - 1.0 / n[0]) / max(t[-1] - t[0], 1e-300)
    k_guess = max(k_guess, 1e-12 / n0_guess / max(t[-1], 1e-300))
    sigma = series.sigma
    try:
        popt, pcov = curve_fit(
            _decay_model,
            t,
            n,
            p0=(n0_guess, k_guess),
            sigma=sigma,
            absolute_sigma=sigma is not None,
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise FitDiverged(f"decay fit did not converge: {exc}") from exc
    n0_fit, k_fit = float(popt[0]), float(popt[1])
    if not np.all(np.isfinite(pcov)):
        raise FitDiverged("decay fit covariance is not finite")
    if n0_fit <= 0.0 or k_fit <= 0.0:
        raise FitDiverged("decay fit produced non-positive parameters")
    n0_err = float(math.sqrt(max(pcov[0, 0], 0.0)))
    k_err = float(math.sqrt(max(pcov[1, 1], 0.0)))

    c_t = thermal_peak_coefficient(species, temperature)
    scale = math.sqrt(8.0) / (n_f_peak * c_t * overlap_factor)
    return L3Fit(
        l3=k_fit * scale,
        l3_stderr=k_err * scale,
        n0=n0_fit,
        n0_stderr=n0_err,
        rate_constant=k_fit,
        rate_stderr=k_err,
        temperature=temperature,
        n_f_peak=n_f_peak,
        overlap_factor=overlap_factor,
    )


@dataclass(frozen=True)
class SmoothedCurve:
    """Locally weighted fit of L3(a_bf) with a bootstrap band, log-log space."""

    a_bf_a0: np.ndarray
    l3: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    span: float
    n_boot: int
    seed: int
    points: tuple = field(default=(), repr=False)

    def lookup(self, a_bf_a0: float) -> float:
        """Log-log interpolation of the smoothed curve at one point."""
        grid = self.a_bf_a0
        if not grid[0] <= a_bf_a0 <= grid[-1]:
            raise OutOfDomain(
                f"a_bf = {a_bf_a0:g} a0 outside smoothed range "
                f"[{grid[0]:g}, {grid[-1]:g}] a0"
            )
        return float(
            np.exp(np.interp(math.log(a_bf_a0), np.log(grid), np.log(self.l3)))
        )


def _smoother_matrix(
    x: np.ndarray, w_meas: np.ndarray, x_eval: np.ndarray, span: float
) -> np.ndarray:
    """LOESS as a linear map: the local-linear fit at x_eval is S @ y.

    Row j weights the k = max(ceil(span n), 3) nearest points by tricube
    distance times w_meas and evaluates the weighted line at x_eval[j]. The
    weights, and both fallbacks, depend on x only.
    """
    k = max(int(math.ceil(span * len(x))), 3)
    dx = x[None, :] - x_eval[:, None]
    d = np.abs(dx)
    h = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
    h = np.where(h == 0.0, np.maximum(np.max(d, axis=1, keepdims=True), 1e-300), h)
    u = np.clip(d / h, 0.0, 1.0)
    w = (1.0 - u**3) ** 3 * w_meas
    # Fewer than two points inside the window: measurement weights alone.
    w = np.where(np.sum(w > 0.0, axis=1, keepdims=True) < 2, w_meas, w)
    sw = np.sum(w, axis=1, keepdims=True)
    swx = np.sum(w * dx, axis=1, keepdims=True)
    swxx = np.sum(w * dx * dx, axis=1, keepdims=True)
    det = sw * swxx - swx * swx
    # Degenerate determinant: the weighted mean.
    flat = det <= 1e-300 * np.maximum(sw * swxx, 1.0)
    return np.where(flat, w / sw, w * (swxx - swx * dx) / np.where(flat, 1.0, det))


def smooth_l3(
    a_bf_a0: np.ndarray,
    l3: np.ndarray,
    sigma: np.ndarray | None = None,
    span: float = 0.5,
    n_boot: int = 1000,
    seed: int = 0,
) -> SmoothedCurve:
    """Smooth L3 measurements against interspecies scattering length.

    The regression runs in log-log space with tricube distance weights
    times inverse-variance measurement weights. The 95 percent band comes
    from a residual bootstrap around the fitted curve.
    """
    a = np.asarray(a_bf_a0, dtype=float)
    v = np.asarray(l3, dtype=float)
    if a.ndim != 1 or a.shape != v.shape:
        raise ValidationError("a_bf_a0 and l3 must be 1-d and equal length")
    if len(a) < 6:
        raise TooFewPoints("smoothing needs at least 6 measurements")
    if n_boot < 1:
        raise ValidationError(f"n_boot must be at least 1, got {n_boot}")
    if np.any(v <= 0.0):
        raise NonPositiveInput("L3 values must be positive")
    lo, hi = SMOOTH_DOMAIN_A0
    if np.any(a < lo) or np.any(a > hi):
        raise OutOfDomain(f"scattering lengths must lie in [{lo:g}, {hi:g}] a0")
    order = np.argsort(a)
    a, v = a[order], v[order]
    if np.any(np.diff(a) <= 0.0):
        raise ValidationError("duplicate scattering lengths in input")
    if sigma is not None:
        s = np.asarray(sigma, dtype=float)[order]
        if np.any(s <= 0.0):
            raise NonPositiveInput("sigma values must be positive")
        s_log = s / v
    else:
        s_log = np.ones_like(v)
    w_meas = 1.0 / s_log**2

    x = np.log(a)
    y = np.log(v)
    x_eval = np.linspace(x[0], x[-1], _SMOOTH_N_EVAL)

    smoother = _smoother_matrix(x, w_meas, x_eval, span)
    fit_eval = smoother @ y
    if not np.all(np.isfinite(fit_eval)):
        raise InsufficientData("smoothed curve is not finite; data too sparse")
    fit_data = _smoother_matrix(x, w_meas, x, span) @ y
    std_resid = (y - fit_data) / s_log

    rng = np.random.default_rng(seed)
    draws = np.array([rng.choice(std_resid, size=len(x)) for _ in range(n_boot)])
    boot = (fit_data + draws * s_log) @ smoother.T
    band_lo = np.minimum(np.percentile(boot, 2.5, axis=0), fit_eval)
    band_hi = np.maximum(np.percentile(boot, 97.5, axis=0), fit_eval)

    return SmoothedCurve(
        a_bf_a0=np.exp(x_eval),
        l3=np.exp(fit_eval),
        band_lo=np.exp(band_lo),
        band_hi=np.exp(band_hi),
        span=span,
        n_boot=n_boot,
        seed=seed,
        points=tuple(zip(a.tolist(), v.tolist())),
    )
