"""Decay-rate fits, three-body coefficient extraction, LOESS smoothing."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

from mixsep.config import default_scenario
from mixsep.errors import (
    FitDiverged,
    NonPositiveInput,
    OutOfDomain,
    TooFewPoints,
    ValidationError,
)
from mixsep.lossfit import (
    SMOOTH_DOMAIN_A0,
    DecaySeries,
    _smoother_matrix,
    fit_gamma,
    fit_l3,
    smooth_l3,
)
from mixsep.profiles import thermal_peak_coefficient

SPECIES = default_scenario().bosons


class TestDecaySeries:
    def test_minimum_points(self):
        with pytest.raises(TooFewPoints):
            DecaySeries(np.array([0.0, 1.0]), np.array([5.0, 4.0]))

    def test_times_ascending(self):
        with pytest.raises(ValidationError):
            DecaySeries(np.array([0.0, 2.0, 1.0]), np.array([5.0, 4.0, 3.0]))

    def test_numbers_positive(self):
        with pytest.raises(NonPositiveInput):
            DecaySeries(np.array([0.0, 1.0, 2.0]), np.array([5.0, 0.0, 3.0]))

    def test_finite(self):
        with pytest.raises(ValidationError):
            DecaySeries(np.array([0.0, 1.0, 2.0]), np.array([5.0, np.nan, 3.0]))

    def test_sigma_shape_and_sign(self):
        t = np.array([0.0, 1.0, 2.0])
        n = np.array([5.0, 4.0, 3.0])
        with pytest.raises(ValidationError):
            DecaySeries(t, n, sigma=np.array([1.0, 1.0]))
        with pytest.raises(NonPositiveInput):
            DecaySeries(t, n, sigma=np.array([1.0, -1.0, 1.0]))


class TestFitGamma:
    def test_exact_on_linear_decay(self):
        t = np.linspace(0.0, 3.0, 12)
        n0, gamma = 1.0e5, 0.08
        series = DecaySeries(t, n0 * (1.0 - gamma * t))
        fit = fit_gamma(series)
        assert fit.gamma == pytest.approx(gamma, rel=1e-12, abs=0.0)
        assert fit.n0 == pytest.approx(n0, rel=1e-12)
        assert fit.decaying
        assert fit.gamma_stderr < 1e-10 * gamma
        assert fit.n_used == 12

    def test_window_keeps_early_points(self):
        # quadratic decay: only points with N >= 0.7 N(0) enter
        t = np.linspace(0.0, 1.0, 11)
        n = 1.0e5 / (1.0 + 1.0 * t)
        fit = fit_gamma(DecaySeries(t, n), window_fraction=0.7)
        assert fit.n_used == 5
        # a secant through a convex decay curve underestimates the
        # initial rate k = 1, but not by much over a 30% window
        assert 0.6 < fit.gamma < 1.0
        assert fit.decaying

    def test_window_fraction_validated(self):
        series = DecaySeries(np.arange(5.0), np.full(5, 10.0))
        for bad in (0.0, 1.0, -0.3):
            with pytest.raises(ValidationError):
                fit_gamma(series, window_fraction=bad)

    def test_too_steep_decay(self):
        series = DecaySeries(
            np.array([0.0, 1.0, 2.0, 3.0]), np.array([100.0, 60.0, 30.0, 10.0])
        )
        with pytest.raises(TooFewPoints):
            fit_gamma(series)

    def test_rising_numbers_flagged(self):
        t = np.linspace(0.0, 3.0, 8)
        fit = fit_gamma(DecaySeries(t, 1.0e4 * (1.0 + 0.05 * t)), window_fraction=0.5)
        assert not fit.decaying
        assert fit.gamma < 0.0

    def test_sigma_downweights_outlier(self):
        t = np.linspace(0.0, 3.0, 10)
        n = 1.0e5 * (1.0 - 0.08 * t)
        bumped = n.copy()
        bumped[4] *= 1.15
        sig = np.full(10, 1.0e3)
        sig[4] = 1.0e9
        weighted = fit_gamma(DecaySeries(t, bumped, sigma=sig))
        flat = fit_gamma(DecaySeries(t, bumped))
        assert abs(weighted.gamma - 0.08) < 1e-6
        assert abs(flat.gamma - 0.08) > 1e-3
        assert weighted.gamma_stderr > 0.0

    def test_negative_intercept_diverges(self):
        series = DecaySeries(
            np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1000.0])
        )
        with pytest.raises(FitDiverged):
            fit_gamma(series, window_fraction=0.5)


class TestFitL3:
    T = 440e-9
    NF = 4.5e18  # m^-3

    def series_for(self, l3, n0=2.0e5, n_pts=12, t_max=5.0):
        c_t = thermal_peak_coefficient(SPECIES, self.T)
        k = l3 * self.NF * c_t / math.sqrt(8.0)
        t = np.linspace(0.0, t_max, n_pts)
        return DecaySeries(t, n0 / (1.0 + k * n0 * t)), k

    def test_noiseless_round_trip(self):
        l3_true = 1.0e-37  # m^6/s
        series, k = self.series_for(l3_true)
        fit = fit_l3(series, SPECIES, self.T, self.NF)
        assert fit.l3 == pytest.approx(l3_true, rel=1e-6, abs=0.0)
        assert fit.rate_constant == pytest.approx(k, rel=1e-6)
        assert fit.n0 == pytest.approx(2.0e5, rel=1e-6)

    def test_overlap_factor_divides(self):
        series, _ = self.series_for(1.0e-37)
        full = fit_l3(series, SPECIES, self.T, self.NF, overlap_factor=1.0)
        half = fit_l3(series, SPECIES, self.T, self.NF, overlap_factor=0.5)
        assert half.l3 == pytest.approx(2.0 * full.l3, rel=1e-12, abs=0.0)

    def test_noisy_recovery_within_errors(self):
        l3_true = 1.0e-37
        series, _ = self.series_for(l3_true)
        rng = np.random.default_rng(8)
        noisy = series.numbers * (1.0 + 0.05 * rng.standard_normal(len(series.times)))
        sig = 0.05 * series.numbers
        fit = fit_l3(
            DecaySeries(series.times, noisy, sigma=sig), SPECIES, self.T, self.NF
        )
        assert fit.l3_stderr > 0.0
        assert abs(fit.l3 - l3_true) < 3.0 * fit.l3_stderr

    def test_input_guards(self):
        series, _ = self.series_for(1.0e-37)
        with pytest.raises(NonPositiveInput):
            fit_l3(series, SPECIES, -1.0, self.NF)
        with pytest.raises(NonPositiveInput):
            fit_l3(series, SPECIES, self.T, 0.0)
        with pytest.raises(ValidationError):
            fit_l3(series, SPECIES, self.T, self.NF, overlap_factor=1.5)

    @pytest.mark.parametrize(
        "temperature, n_f_peak, name",
        [(math.nan, NF, "temperature"), (math.inf, NF, "temperature"),
         (T, math.inf, "n_f_peak"), (T, math.nan, "n_f_peak")],
    )
    def test_non_finite_inputs_raise(self, temperature, n_f_peak, name):
        # nan and inf once passed the <= 0 checks: l3 = nan at temperature
        # nan, 0.0 at n_f_peak inf, ZeroDivisionError at temperature inf
        series, _ = self.series_for(1.0e-37)
        with pytest.raises(NonPositiveInput, match=name):
            fit_l3(series, SPECIES, temperature, n_f_peak)

    def test_too_few_points(self):
        short = DecaySeries(np.array([0.0, 1.0, 2.0]), np.array([9.0, 8.0, 7.0]))
        with pytest.raises(TooFewPoints):
            fit_l3(short, SPECIES, self.T, self.NF)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "numbers, sigma_share, match",
        [
            # rising: the least-squares k is negative
            (1.0e5 * (1.0 + 0.05 * np.arange(12.0)), None, "non-positive"),
            (np.full(12, 1.0e5), None, "constant"),
            (np.full(12, 1.0e5), 0.02, "constant"),
            # sigma pins the line of 1/N to the middle two points, which
            # crosses 0 before the last sample: 1 + k n0 t <= 0 there
            (1.0 / np.array([1.0, 0.9, 0.1, 0.05]), np.array([1.0, 1e-6, 1e-6, 1.0]), "domain"),
        ],
        ids=["rising", "flat", "flat-sigma", "d-negative"],
    )
    def test_diverges_without_a_warning(self, numbers, sigma_share, match):
        t = np.arange(float(len(numbers)))
        sigma = None if sigma_share is None else sigma_share * numbers
        with pytest.raises(FitDiverged, match=match):
            fit_l3(DecaySeries(t, numbers, sigma=sigma), SPECIES, self.T, self.NF)


def _hyperbola(t, n0, k):
    return n0 / (1.0 + k * n0 * t)


@pytest.mark.parametrize("with_sigma", [True, False], ids=["sigma", "no-sigma"])
@pytest.mark.parametrize("seed", range(6))
def test_fit_l3_is_the_least_squares_solution(seed, with_sigma):
    # The same weighted least squares as a tightly converged curve_fit, with
    # its covariance convention: absolute sigma, else scaled by cost/(M - 2).
    T, NF = TestFitL3.T, TestFitL3.NF
    c_t = thermal_peak_coefficient(SPECIES, T)
    scale = math.sqrt(8.0) / (NF * c_t)
    k_true = 1.0e-37 / scale
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 25))
    t = np.linspace(0.0, rng.uniform(2.0, 10.0), m)
    clean = _hyperbola(t, 2.0e5, k_true)
    n = clean * (1.0 + 0.05 * rng.standard_normal(m))
    sigma = 0.05 * clean if with_sigma else None
    fit = fit_l3(DecaySeries(t, n, sigma=sigma), SPECIES, T, NF)
    popt, pcov = curve_fit(
        _hyperbola, t, n, p0=(n[0], k_true), sigma=sigma,
        absolute_sigma=with_sigma, ftol=1e-14, xtol=1e-14,
    )
    assert fit.l3 == pytest.approx(popt[1] * scale, rel=1e-6, abs=0.0)
    assert fit.n0 == pytest.approx(popt[0], rel=1e-6)
    assert fit.l3_stderr == pytest.approx(math.sqrt(pcov[1, 1]) * scale, rel=1e-4, abs=0.0)
    assert fit.n0_stderr == pytest.approx(math.sqrt(pcov[0, 0]), rel=1e-4)

    inv_sigma = 1.0 / sigma if with_sigma else np.ones(m)

    def whitened_residual(n0, k):
        return (n - _hyperbola(t, n0, k)) * inv_sigma

    r = whitened_residual(fit.n0, fit.rate_constant)
    assert r @ r <= (1.0 + 1e-12) * np.sum(whitened_residual(*popt) ** 2)
    # scaled gradient: the cosine between the residual and each Jacobian column
    d = 1.0 + fit.rate_constant * fit.n0 * t
    for col in (inv_sigma / d**2, -(fit.n0**2) * t * inv_sigma / d**2):
        assert abs(col @ r) <= 1e-9 * np.linalg.norm(col) * np.linalg.norm(r)



# Two decays on which a fit of undamped Gauss-Newton steps, stopped only at
# steps of 1e-12 of each parameter, gave up after 50 steps while curve_fit
# converged: 30% noise on 6 points, where each step overshoots and turns back
# on the one before, shrinking by only about 0.7; and 0.1% noise on 5 points,
# where k is 2000 times smaller than its standard error and the rounding floor
# of its step lies above 1e-12 of it. Two more, each 20-30% noise on 4 points
# with a low first point, once raised "left the model's domain": the second
# Gauss-Newton step crosses 1 + k n0 t = 0 at the last sample. The last,
# 20-30% noise on 4 points with a low third point, takes 93 steps, each
# shorter than the one before by a steady factor: it once gave up at the
# 50-step cap. The three "negative-intercept" ones, 20-30% noise on 4 points
# with a low first point, once raised "start has a non-positive N(0)": the
# weighted line fit of 1/N against t crosses 0 before t = 0.
# Each is (times, numbers, sigma, k start).
HARD_DECAYS = {
    "overshooting-steps": (
        [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        [312157.8456730891, 143824.04459701525, 116942.76593085186,
         96063.47908481023, 212302.95721027572, 225281.38138884527],
        [60000.0, 56603.773584905655, 53571.428571428565,
         50847.457627118645, 48387.096774193546, 46153.84615384615],
        3.0e-7,
    ),
    "rounding-floor": (
        [0.0, 1.25, 2.5, 3.75, 5.0],
        [200023.0627810021, 199770.47663482226, 199809.25018625215,
         199917.43213617406, 199949.37330093156],
        [200.0, 199.9850011249156, 199.97000449932509,
         199.9550101227224, 199.94001799460165],
        3.0e-10,
    ),
    "domain-crossing-step": (
        [0.0, 1.0, 2.0, 3.0],
        [79250.73561471252, 242956.9257957877, 96227.8833198134, 85774.23691022284],
        [51268.43678056079, 42723.69731713399, 36620.31198611485, 32042.772987850494],
        1.0e-6,
    ),
    "domain-crossing-step-long-hold": (
        [0.0, 3.3333333333333335, 6.666666666666667, 10.0],
        [29616.88719757578, 193281.59654790978, 123399.60821065554, 73362.98757183318],
        [52114.928669880865, 39086.19650241064, 31268.95720192852, 26057.464334940432],
        5.0e-7,
    ),
    "slow-linear-contraction": (
        [0.0, 2.564450004402674, 5.128900008805348, 7.693350013208022],
        [116444.25101279352, 55103.01564260541, 8972.042213196031, 60447.10071401044],
        [58312.73907985419, 31347.166202251647, 21434.982490702187, 16285.422821304279],
        1.6772087999487534e-06,
    ),
    "negative-intercept-1": (
        [0.0, 2.6902520732597215, 5.380504146519443, 8.070756219779165],
        [5485.612541097877, 18254.606149481373, 8298.29033452425, 3591.878607764737],
        [13685.964247749396, 4213.7248205988735, 2490.2141830229693, 1767.3338686886116],
        1.6599796100107218e-05,
    ),
    "negative-intercept-2": (
        [0.0, 2.5396914470200316, 5.079382894040063, 7.619074341060095],
        [31460.087843636396, 76867.2274556567, 19106.876813254887, 22749.34588396989],
        [54451.44962940725, 19208.94850188713, 11661.378308766294, 8371.896880437893],
        3.7577194061652277e-06,
    ),
    "negative-intercept-3": (
        [0.0, 2.156658865386944, 4.313317730773888, 6.469976596160833],
        [46833.35559724357, 88616.2518410422, 41160.156177000004, 23820.354076527467],
        [52145.67287864461, 21812.639801027464, 13790.647737456751, 10082.592374030279],
        3.3528602005369454e-06,
    ),
}


@pytest.mark.parametrize("name", [k for k in sorted(HARD_DECAYS) if "intercept" in k])
def test_negative_intercept_decays_have_no_line_start(name):
    # the weighted line of 1/N (weights N^4 / sigma^2) has no positive
    # intercept, so its reciprocal gives no N(0) to start from
    t, n, sigma, _ = (np.array(v) for v in HARD_DECAYS[name])
    assert np.polyfit(t, 1.0 / n, 1, w=n**2 / sigma)[1] <= 0.0


@pytest.mark.parametrize("name", sorted(HARD_DECAYS))
def test_hard_decays_fit_to_the_least_squares_solution(name):
    t, n, sigma, k_start = HARD_DECAYS[name]
    t, n, sigma = np.array(t), np.array(n), np.array(sigma)
    fit = fit_l3(DecaySeries(t, n, sigma=sigma), SPECIES, TestFitL3.T, TestFitL3.NF)
    popt, pcov = curve_fit(
        _hyperbola, t, n, p0=(n[0], k_start), sigma=sigma,
        absolute_sigma=True, ftol=1e-14, xtol=1e-14,
    )
    assert abs(fit.rate_constant - popt[1]) <= 1e-6 * math.sqrt(pcov[1, 1])
    r = (n - _hyperbola(t, fit.n0, fit.rate_constant)) / sigma
    d = 1.0 + fit.rate_constant * fit.n0 * t
    jac = np.array((1.0 / (sigma * d**2), -(fit.n0**2) * t / (sigma * d**2)))
    for col in jac:
        assert abs(col @ r) <= 1e-9 * np.linalg.norm(col) * np.linalg.norm(r)
    # curve_fit's finite-difference Jacobian gives the covariance only to about
    # 1% on the second series; the analytic one is the reference
    cov = np.linalg.inv(jac @ jac.T)
    assert fit.rate_stderr == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-6, abs=0.0)
    assert fit.n0_stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-6)


class TestSmoothL3:
    def power_law(self, n=12, amp=1.0e-25, p=2.0):
        a = np.geomspace(100.0, 2000.0, n)
        return a, amp * (a / 1000.0) ** p

    def test_reproduces_power_law_exactly(self):
        # a power law is a straight line in log-log space, which local
        # linear regression fits with zero residual
        a, l3 = self.power_law()
        curve = smooth_l3(a, l3, n_boot=50)
        expect = 1.0e-25 * (curve.a_bf_a0 / 1000.0) ** 2.0
        np.testing.assert_allclose(curve.l3, expect, rtol=1e-10)
        np.testing.assert_allclose(curve.band_lo, curve.l3, rtol=1e-9)
        np.testing.assert_allclose(curve.band_hi, curve.l3, rtol=1e-9)

    def test_scale_equivariance(self):
        a, l3 = self.power_law()
        rng = np.random.default_rng(3)
        l3 = l3 * np.exp(0.1 * rng.standard_normal(len(a)))
        c1 = smooth_l3(a, l3, n_boot=80, seed=5)
        c2 = smooth_l3(a, 7.5 * l3, n_boot=80, seed=5)
        np.testing.assert_allclose(c2.l3, 7.5 * c1.l3, rtol=1e-12)
        np.testing.assert_allclose(c2.band_hi, 7.5 * c1.band_hi, rtol=1e-12)

    def test_band_contains_fit(self):
        a, l3 = self.power_law()
        rng = np.random.default_rng(4)
        l3 = l3 * np.exp(0.2 * rng.standard_normal(len(a)))
        curve = smooth_l3(a, l3, n_boot=100)
        assert np.all(curve.band_lo <= curve.l3)
        assert np.all(curve.l3 <= curve.band_hi)

    def test_sigma_downweights_outlier(self):
        a, l3 = self.power_law()
        bumped = l3.copy()
        bumped[6] *= 3.0
        sig = 0.05 * bumped
        sig[6] = 10.0 * bumped[6]
        expect = 1.0e-25 * (a / 1000.0) ** 2.0
        with_sig = smooth_l3(a, bumped, sigma=sig, n_boot=50)
        without = smooth_l3(a, bumped, n_boot=50)
        dev_w = np.max(np.abs(np.log(with_sig.l3 / (1.0e-25 * (with_sig.a_bf_a0 / 1000.0) ** 2))))
        dev_f = np.max(np.abs(np.log(without.l3 / (1.0e-25 * (without.a_bf_a0 / 1000.0) ** 2))))
        assert dev_w < 0.3 * dev_f

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n_boot", [1, 7, 1000])
    def test_bootstrap_draws_match_row_by_row_draws(self, monkeypatch, seed, n_boot):
        # One (n_boot, n) draw must give the band bytes of n_boot draws of n.
        a, l3 = self.power_law()
        l3 = l3 * np.exp(0.2 * np.random.default_rng(seed + 10).standard_normal(len(a)))
        fast = smooth_l3(a, l3, n_boot=n_boot, seed=seed)

        default_rng = np.random.default_rng

        class LoopForm:
            """The draws as n_boot calls of one replicate each, whatever size is asked."""

            def __init__(self, seed):
                self._rng = default_rng(seed)

            def choice(self, values, size):
                return np.array(
                    [self._rng.choice(values, size=len(values)) for _ in range(n_boot)]
                )

        monkeypatch.setattr(np.random, "default_rng", LoopForm)
        slow = smooth_l3(a, l3, n_boot=n_boot, seed=seed)
        assert fast.band_lo.tobytes() == slow.band_lo.tobytes()
        assert fast.band_hi.tobytes() == slow.band_hi.tobytes()

    def test_lookup_log_interpolates(self):
        a, l3 = self.power_law()
        curve = smooth_l3(a, l3, n_boot=20)
        assert curve.lookup(700.0) == pytest.approx(
            1.0e-25 * 0.7**2, rel=1e-9, abs=0.0
        )
        with pytest.raises(OutOfDomain):
            curve.lookup(50.0)
        with pytest.raises(OutOfDomain):
            curve.lookup(2050.0)

    def test_deterministic_in_seed(self):
        a, l3 = self.power_law()
        rng = np.random.default_rng(9)
        l3 = l3 * np.exp(0.15 * rng.standard_normal(len(a)))
        c1 = smooth_l3(a, l3, n_boot=60, seed=2)
        c2 = smooth_l3(a, l3, n_boot=60, seed=2)
        c3 = smooth_l3(a, l3, n_boot=60, seed=3)
        np.testing.assert_array_equal(c1.band_lo, c2.band_lo)
        assert not np.array_equal(c1.band_lo, c3.band_lo)

    def test_input_validation(self):
        a, l3 = self.power_law(n=5)
        with pytest.raises(TooFewPoints):
            smooth_l3(a, l3)
        a, l3 = self.power_law()
        with pytest.raises(NonPositiveInput):
            smooth_l3(a, np.where(np.arange(12) == 3, -1.0, 1.0) * l3)
        with pytest.raises(OutOfDomain):
            smooth_l3(a * 0.5, l3)  # drops below 80 a0
        dup = a.copy()
        dup[5] = dup[4]
        with pytest.raises(ValidationError):
            smooth_l3(dup, l3)
        for n_boot in (0, -3):
            with pytest.raises(ValidationError, match="n_boot"):
                smooth_l3(a, l3, n_boot=n_boot)
        # span is a share of the points: past 1 it asked for more neighbours
        # than there are, and at or below 0 it silently smoothed over 3
        for span in (0.0, -1.0, 1.5, 5.0, math.nan):
            with pytest.raises(ValidationError, match="span"):
                smooth_l3(a, l3, span=span, n_boot=10)
        # numpy's generator raised its own ValueError on a negative seed
        with pytest.raises(ValidationError, match="seed"):
            smooth_l3(a, l3, n_boot=10, seed=-1)

    @pytest.mark.parametrize("column", ["a_bf_a0", "l3", "sigma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_raise(self, column, bad):
        # a nan once passed every check and ended in InsufficientData
        # ("data too sparse") after a RuntimeWarning
        a, l3 = self.power_law()
        data = {"a_bf_a0": a.copy(), "l3": l3.copy(), "sigma": 0.1 * l3}
        data[column][3] = bad
        error = NonPositiveInput if column == "sigma" else ValidationError
        name = "L3" if column == "l3" else column
        with pytest.raises(error, match=f"{name} values must be .*finite"):
            smooth_l3(**data, n_boot=10)

    def test_domain_constant(self):
        assert SMOOTH_DOMAIN_A0 == (80.0, 2100.0)

    def test_points_recorded_sorted(self):
        a, l3 = self.power_law(n=8)
        perm = np.random.default_rng(1).permutation(8)
        curve = smooth_l3(a[perm], l3[perm], n_boot=10)
        stored_a = np.array([p[0] for p in curve.points])
        np.testing.assert_allclose(stored_a, a, rtol=1e-12)


# ---------------------------------------------------------------------------
# property: the smoother matrix is the local-linear fit


def _local_linear_fit(x, y, w_meas, x0, span):
    """Tricube-weighted least-squares line through the nearest points, at x0."""
    k = max(math.ceil(span * len(x)), 3)
    d = np.abs(x - x0)
    h = np.sort(d)[k - 1]
    root_w = np.sqrt(w_meas * (1.0 - np.clip(d / h, 0.0, 1.0) ** 3) ** 3)
    design = np.column_stack((np.ones_like(x), x - x0)) * root_w[:, None]
    return np.linalg.lstsq(design, y * root_w, rcond=None)[0][0]


@settings(derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(6, 30), span=st.floats(0.2, 1.0))
def test_smoother_matrix_is_local_linear_fit(data, n, span):
    # at least 4 points per window, so that 3 carry weight and the line is determined
    assume(math.ceil(span * n) >= 4)
    def column(lo, hi):
        return data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    x = np.cumsum(column(0.05, 1.0))
    y = np.array(column(-1.0, 1.0))
    w_meas = np.array(column(0.2, 5.0))
    x_eval = np.concatenate((x, np.linspace(x[0], x[-1], 17)))
    got = _smoother_matrix(x, w_meas, x_eval, span) @ y
    ref = [_local_linear_fit(x, y, w_meas, x0, span) for x0 in x_eval]
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(y)))
