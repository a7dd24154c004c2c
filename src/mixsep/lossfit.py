"""Fitting measured atom-number decays and smoothing loss coefficients.

fit_gamma extracts the initial per-atom loss rate from the early part of
a decay; fit_l3 extracts a three-body coefficient from a thermal-cloud
decay where the loss is quadratic in the remaining atom number; smooth_l3
runs a locally weighted regression through (a_bf, L3) measurements with a
bootstrap confidence band. The regression's weights depend on a_bf and sigma,
not on L3, so it is a linear smoother (Cleveland, JASA 74, 829 (1979)): smooth_l3 builds
its matrix once and gets the fit and every bootstrap replicate as products.

Both decay fits are weighted least squares written out for their model, with
no general optimizer. fit_gamma fits a straight line in closed form (_line_fit).
fit_l3 fits the hyperbola N = n0 / (1 + k n0 t). It starts from the same
closed-form line fit of 1/N against t, then takes Gauss-Newton steps with the
analytic Jacobian, each a 2x2 solve from one Gram product, shortened where a
step turns back on the one before and halved where it would leave the model's
domain 1 + k n0 t > 0, until each step is at most 1e-12 of its parameter or
1e-10 of its standard error. Its covariance is the inverse normal matrix at
the solution, scaled by cost / (M - 2) when the series has no sigma: the
convention of scipy.optimize.curve_fit with absolute_sigma set exactly when
sigma is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
# fit_l3 stops once each step is at most _FIT_STEP_RTOL of its parameter or
# _FIT_STEP_SE of its standard error, and gives up after _FIT_MAX_STEPS steps.
# Gauss-Newton contracts only linearly on large residuals: on 4-point decays
# with 20-30% noise, about 4 fits in 10,000 take more than 50 steps, and the
# slowest of 400,000 took 339.
_FIT_STEP_RTOL = 1.0e-12
_FIT_STEP_SE = 1.0e-10
_FIT_MAX_STEPS = 500
# A 2x2 normal matrix with det at most this share of a00 a11 is singular:
# the determinant's own rounding error is a few eps a00 a11.
_SINGULAR_RTOL = 4.0 * np.finfo(float).eps


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


def _line_from_sums(sw: float, swx: float, swxx: float, swy: float, swxy: float):
    """Weighted least-squares line y = a + b x from its weighted sums.

    Returns a, b and det = sw swxx - swx^2; the inverse normal matrix is
    [[swxx, -swx], [-swx, sw]] / det.
    """
    det = sw * swxx - swx * swx
    if det <= 0.0:
        raise FitDiverged("degenerate time samples in a line fit")
    a = (swxx * swy - swx * swxy) / det
    b = (sw * swxy - swx * swy) / det
    return a, b, det


def _line_fit(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted least-squares line y = a + b x in closed form.

    Returns a, b, the sums sw, swx, swxx and det = sw swxx - swx^2.
    """
    wx = w * x
    sw = w.sum()
    swx = wx.sum()
    swxx = (wx * x).sum()
    a, b, det = _line_from_sums(sw, swx, swxx, (w * y).sum(), (wx * y).sum())
    return a, b, sw, swx, swxx, det


def fit_gamma(series: DecaySeries, window_fraction: float = 0.7) -> GammaFit:
    """Weighted linear fit of the early decay; gamma = -slope / N(0).

    Only points with N >= window_fraction * N[0] enter the fit, so the
    rate is the initial one rather than an average over the whole curve.
    """
    if not 0.0 < window_fraction < 1.0:
        raise ValidationError("window_fraction must lie in (0, 1)")
    t, n = series.times, series.numbers
    # n[0] > 0 and window_fraction < 1 keep the first point
    keep = n >= window_fraction * n[0]
    if np.count_nonzero(keep) < 3:
        raise TooFewPoints(
            "fewer than 3 points above the window threshold; "
            "widen window_fraction or take denser early data"
        )
    tt, nn = t[keep], n[keep]
    w = 1.0 / series.sigma[keep] ** 2 if series.sigma is not None else np.ones_like(tt)
    a, b, sw, swt, swtt, det = _line_fit(tt, nn, w)
    if series.sigma is not None:
        var_scale = 1.0
    else:
        resid = nn - (a + b * tt)
        var_scale = float(np.sum(w * resid * resid) / (len(tt) - 2))
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


def _hyperbola_gram(t, n, inv_sigma, basis, n0: float, k: float, work: np.ndarray):
    """J^T W J, J^T W r and r.r of N = n0 / (1 + k n0 t) at (n0, k), from one product.

    With D = 1 + k n0 t the Jacobian columns are dN/dn0 = 1/D^2 = (N/n0)^2
    and dN/dk = -n0^2 t / D^2 = -t N^2, so J^T is N^2 times basis, the rows
    1/sigma and -t/sigma, with the first row divided by n0^2. work (3, M)
    receives N^2 basis and the whitened residual r = (n - N) / sigma; the
    division by n0^2 is applied to the entries of their Gram matrix. Returns
    (a00, a01, a11), (g0, g1) and r.r.
    """
    f = n0 / (1.0 + (k * n0) * t)
    np.multiply(f * f, basis, out=work[:2])
    np.subtract(n, f, out=work[2])
    work[2] *= inv_sigma
    (b00, b01, c0), (_, a11, g1), (_, _, rr) = np.dot(work, work.T).tolist()
    scale = 1.0 / (n0 * n0)
    return (b00 * scale * scale, b01 * scale, a11), (c0 * scale, g1), rr


def _in_domain(n0: float, k: float, t_first: float, t_last: float) -> bool:
    """Whether n0 and k are finite and D = 1 + k n0 t > 0 at every sample.

    D is monotonic in t, so the two ends bound it.
    """
    kn0 = k * n0
    return (math.isfinite(n0) and math.isfinite(k)
            and 1.0 + kn0 * t_first > 0.0 and 1.0 + kn0 * t_last > 0.0)


def _negligible(step: float, value: float, variance: float) -> bool:
    """Whether a step is at most 1e-12 of its parameter or 1e-10 of its standard error."""
    return abs(step) <= _FIT_STEP_RTOL * abs(value) or step * step <= _FIT_STEP_SE**2 * variance


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

    N(t) = n0 / (1 + k n0 t) is fitted by weighted least squares (weights
    1/sigma^2, or 1 without sigma). The start is the closed-form line fit
    of 1/N against t with weights N^4 / sigma^2; where that line's intercept
    is not positive, n0 starts at N[0] instead, k at the line's slope.
    Gauss-Newton steps follow, each the closed-form solve of the 2x2 normal
    equations; a step that turns back on the one before by rho of its
    length is shortened by 1 + rho, which damps the oscillation of fits with
    large residuals, and a step that would make 1 + k n0 t <= 0 at a sample
    is halved until it does not. The fit stops at the first point where
    each step is at most 1e-12 of its parameter or 1e-10 of its standard
    error (the second rule ends fits whose rounding floor lies above the
    first). It raises FitDiverged on a constant series, a start that is not
    finite or has 1 + k n0 t <= 0 at a sample, a singular normal matrix, no
    stop within 500 steps, or a non-positive n0 or k. The errors come from
    (J^T W J)^-1 at the solution: as it stands with sigma (taken as
    absolute), scaled by cost / (M - 2) without.
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

    if (n == n[0]).all():
        # The fit would be k = 0, which rounding tips to either sign.
        raise FitDiverged("atom numbers are constant; the series shows no decay")
    inv_sigma = 1.0 / series.sigma if series.sigma is not None else np.ones_like(t)
    basis = np.array((inv_sigma, -t * inv_sigma))
    work = np.empty((3, len(t)))

    # 1/N = 1/n0 + k t is a line, and 1/N has variance sigma^2 / N^4: its
    # whitened rows are u, u t and u / N with u = (N / N[0])^2 / sigma.
    u = np.divide(n, n[0], out=work[0])
    u *= u
    u *= inv_sigma
    np.multiply(u, t, out=work[1])
    np.divide(u, n, out=work[2])
    (sw, swt, swy), (_, swtt, swty), _ = np.dot(work, work.T).tolist()
    a, k, _ = _line_from_sums(sw, swt, swtt, swy, swty)
    # A line with no positive intercept gives no n0: N(0) is taken as it was
    # measured. At the weighted mean time the line is the weighted mean of
    # 1/N > 0, so on holds from t >= 0 its slope k is positive and the start
    # lies in the model's domain.
    n0 = 1.0 / a if a > 0.0 else float(n[0])
    t_ends = float(t[0]), float(t[-1])
    if not _in_domain(n0, k, *t_ends):
        raise FitDiverged(
            "decay fit start lies outside the model's domain (non-finite, or 1 + k n0 t <= 0)"
        )
    p0 = p1 = 0.0  # the step taken before
    for _ in range(_FIT_MAX_STEPS):
        (a00, a01, a11), (g0, g1), rr = _hyperbola_gram(t, n, inv_sigma, basis, n0, k, work)
        det = a00 * a11 - a01 * a01
        if not det > _SINGULAR_RTOL * a00 * a11:
            raise FitDiverged("decay fit normal matrix is singular")
        # pcov = (J^T W J)^-1, scaled by the residual variance without sigma
        var_scale = 1.0 if series.sigma is not None else rr / (len(t) - 2)
        var_n0, var_k = var_scale * a11 / det, var_scale * a00 / det
        s0, s1 = (a11 * g0 - a01 * g1) / det, (a00 * g1 - a01 * g0) / det
        if _negligible(s0, n0, var_n0) and _negligible(s1, k, var_k):
            break
        # A step that turns back on the one before overshot. Were each step
        # -rho times the one before (in the metric J^T W J), the minimum
        # would lie s / (1 + rho) along this one.
        back = a00 * s0 * p0 + a01 * (s0 * p1 + s1 * p0) + a11 * s1 * p1
        if back < 0.0:
            shrink = 1.0 - back / (a00 * p0 * p0 + 2.0 * a01 * p0 * p1 + a11 * p1 * p1)
            s0, s1 = s0 / shrink, s1 / shrink
        # A step that crosses D = 0 at a sample leaves the model. The iterate
        # lies strictly inside, so halving a finite step ends.
        while not _in_domain(n0 + s0, k + s1, *t_ends):
            if not (math.isfinite(s0) and math.isfinite(s1)):
                raise FitDiverged("decay fit step is not finite")
            s0, s1 = 0.5 * s0, 0.5 * s1
        n0, k = n0 + s0, k + s1
        p0, p1 = s0, s1
    else:
        raise FitDiverged(f"decay fit did not converge in {_FIT_MAX_STEPS} steps")

    if not (math.isfinite(var_n0) and math.isfinite(var_k)):
        raise FitDiverged("decay fit covariance is not finite")
    if n0 <= 0.0 or k <= 0.0:
        raise FitDiverged("decay fit produced non-positive parameters")
    n0_err = math.sqrt(max(var_n0, 0.0))
    k_err = math.sqrt(max(var_k, 0.0))

    c_t = thermal_peak_coefficient(species, temperature)
    scale = math.sqrt(8.0) / (n_f_peak * c_t * overlap_factor)
    return L3Fit(
        l3=k * scale,
        l3_stderr=k_err * scale,
        n0=n0,
        n0_stderr=n0_err,
        rate_constant=k,
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
    draws = rng.choice(std_resid, size=(n_boot, len(x)))
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
