"""Forward/inverse Abel transforms against closed-form projection pairs."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from mixsep import abel
from mixsep.abel import (
    ColumnSlice,
    RadialProfile,
    center_and_symmetrize,
    forward_abel,
    inverse_abel,
)
from mixsep.errors import (
    CenterNotFound,
    NonDecayingWarning,
    TooNoisy,
    ValidationError,
)

SIG = 4e-6
N0 = 5e18


def gaussian_profile(h, n, start_half=True):
    rho = (np.arange(n) + (0.5 if start_half else 0.0)) * h
    return RadialProfile(rho, N0 * np.exp(-(rho**2) / SIG**2))


def gaussian_slice_exact(y):
    # projection of N0 exp(-rho^2/sig^2) is N0 sig sqrt(pi) exp(-y^2/sig^2)
    return N0 * SIG * math.sqrt(math.pi) * np.exp(-(y**2) / SIG**2)


class TestContainers:
    def test_too_few_samples(self):
        with pytest.raises(ValidationError):
            RadialProfile(np.array([0.0, 1.0, 2.0]), np.zeros(3))

    def test_non_uniform(self):
        with pytest.raises(ValidationError):
            RadialProfile(np.array([0.0, 1.0, 2.5, 3.0]), np.zeros(4))

    def test_descending(self):
        with pytest.raises(ValidationError):
            ColumnSlice(np.array([3.0, 2.0, 1.0, 0.0]), np.zeros(4))

    def test_bad_start_offset(self):
        with pytest.raises(ValidationError):
            RadialProfile(np.array([0.7, 1.7, 2.7, 3.7]), np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ColumnSlice(np.arange(5.0), np.zeros(4))

    def test_valid_starts(self):
        RadialProfile(np.arange(4.0), np.ones(4))
        RadialProfile(np.arange(4.0) + 0.5, np.ones(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls", [RadialProfile, ColumnSlice])
    def test_non_finite_values_rejected(self, cls, bad):
        values = np.ones(6)
        values[3] = bad
        with pytest.raises(ValidationError, match="values must be finite"):
            cls(np.arange(6.0) + 0.5, values)

    @pytest.mark.parametrize(
        "x", [[-math.inf, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0, math.nan]], ids=["-inf", "nan"]
    )
    @pytest.mark.parametrize("cls", [RadialProfile, ColumnSlice])
    def test_non_finite_samples_rejected(self, cls, x):
        with pytest.raises(ValidationError, match="samples must be finite"):
            cls(np.array(x), np.ones(4))


def _allclose_accepts(x: np.ndarray) -> bool:
    """The former grid check: strictly ascending, and np.allclose on the spacings."""
    with np.errstate(invalid="ignore"):
        d = np.diff(x)
    return not np.any(d <= 0.0) and bool(np.allclose(d, d[0], rtol=1.0e-8, atol=0.0))


# Spacing deviations around the 1e-8 bound, and samples replaced by nan or inf.
_jitters = st.sampled_from([0.0, 0.5e-8, 0.99e-8, 1e-8, 1.01e-8, -1e-8, -1.01e-8, 3e-8, 1e-3])
_specials = st.tuples(st.integers(0, 11), st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    m=st.integers(4, 12),
    first=st.floats(-1e3, 1e3),
    step=st.floats(1e-6, 1e3),
    jitter=st.lists(_jitters, min_size=11, max_size=11),
    specials=st.lists(_specials, max_size=2),
)
def test_uniform_check_accepts_exactly_what_allclose_did(m, first, step, jitter, specials):
    spacing = step * (1.0 + np.array(jitter[: m - 1]))
    x = first + np.concatenate(([0.0], np.cumsum(spacing)))
    for i, value in specials:
        x[i % m] = value
    try:
        abel._check_uniform(x, "x")
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == _allclose_accepts(x)


class TestForward:
    def test_gaussian_matches_closed_form(self):
        prof = gaussian_profile(SIG / 10, 50)
        slc = forward_abel(prof)
        expect = gaussian_slice_exact(slc.y)
        assert np.max(np.abs(slc.values - expect)) < 2e-3 * expect.max()

    def test_output_symmetric(self):
        slc = forward_abel(gaussian_profile(SIG / 10, 50))
        np.testing.assert_allclose(slc.values, slc.values[::-1], rtol=1e-12)
        np.testing.assert_allclose(slc.y, -slc.y[::-1], atol=1e-20)

    def test_disk_chord_length(self):
        # uniform disk projects to 2 n0 sqrt(R^2 - y^2)
        h = 0.4e-6
        radius = 12e-6
        rho = (np.arange(60) + 0.5) * h
        n = np.where(rho < radius, N0, 0.0)
        slc = forward_abel(RadialProfile(rho, n))
        expect = 2.0 * N0 * np.sqrt(np.clip(radius**2 - slc.y**2, 0.0, None))
        away = np.abs(np.abs(slc.y) - radius) > 3 * h
        assert np.max(np.abs(slc.values - expect)[away]) < 2e-3 * (2.0 * N0 * radius)

    def test_mass_conserved(self):
        prof = gaussian_profile(SIG / 10, 50)
        slc = forward_abel(prof)
        area_slice = float(np.sum(slc.values)) * slc.step
        area_radial = 2.0 * math.pi * float(np.sum(prof.values * prof.rho)) * prof.step
        assert area_slice == pytest.approx(area_radial, rel=2e-3)

    def test_zero_start_grid(self):
        prof = gaussian_profile(SIG / 10, 50, start_half=False)
        slc = forward_abel(prof)
        assert len(slc.y) == 99
        assert slc.values[49] == pytest.approx(gaussian_slice_exact(0.0), rel=2e-3)

    def test_undecayed_profile_warns(self):
        rho = (np.arange(20) + 0.5) * (SIG / 10)  # cut at 2 sigma
        with pytest.warns(NonDecayingWarning):
            forward_abel(RadialProfile(rho, N0 * np.exp(-(rho**2) / SIG**2)))


class TestRoundTrip:
    @pytest.mark.parametrize("method,tol", [("dasch3", 0.02), ("onion", 0.003)])
    def test_gaussian(self, method, tol):
        prof = gaussian_profile(SIG / 20, 100)
        half = center_and_symmetrize(forward_abel(prof))
        rec = inverse_abel(half, method=method)
        truth = N0 * np.exp(-(rec.rho**2) / SIG**2)
        l2 = math.sqrt(float(np.sum((rec.values - truth) ** 2) / np.sum(truth**2)))
        assert l2 < tol

    def test_zero_start_slice(self):
        h = SIG / 20
        y = np.arange(100) * h
        slc = ColumnSlice(y, gaussian_slice_exact(y))
        rec = inverse_abel(slc, method="dasch3")
        truth = N0 * np.exp(-(rec.rho**2) / SIG**2)
        assert rec.rho[0] == 0.0
        l2 = math.sqrt(float(np.sum((rec.values - truth) ** 2) / np.sum(truth**2)))
        assert l2 < 0.02

    def test_inverse_is_linear(self):
        h = SIG / 20
        y = (np.arange(100) + 0.5) * h
        f1 = gaussian_slice_exact(y)
        f2 = N0 * 1.5 * SIG * math.sqrt(math.pi) * np.exp(-(y**2) / (1.5 * SIG) ** 2)
        combo = inverse_abel(ColumnSlice(y, 2.0 * f1 - 0.5 * f2), noise_reject=1.0)
        a = inverse_abel(ColumnSlice(y, f1), noise_reject=1.0)
        b = inverse_abel(ColumnSlice(y, f2), noise_reject=1.0)
        np.testing.assert_allclose(
            combo.values, 2.0 * a.values - 0.5 * b.values, rtol=1e-10, atol=1e-6 * N0
        )


class TestCentering:
    def test_fold_preserves_symmetric_slice(self):
        slc = forward_abel(gaussian_profile(SIG / 10, 50))
        half = center_and_symmetrize(slc)
        assert half.y[0] == pytest.approx(0.5 * half.step)
        expect = gaussian_slice_exact(half.y)
        assert np.max(np.abs(half.values - expect)) < 3e-3 * expect.max()

    def test_subpixel_offset_recovered(self):
        h = SIG / 10
        delta = 0.3 * h
        rho = (np.arange(50) + 0.5) * h
        y = np.concatenate((-rho[::-1], rho)) + delta
        slc = ColumnSlice(y, gaussian_slice_exact(y - delta))
        half = center_and_symmetrize(slc)
        expect = gaussian_slice_exact(half.y)
        assert np.max(np.abs(half.values - expect)) < 5e-3 * expect.max()

    def test_explicit_center(self):
        h = SIG / 10
        rho = (np.arange(50) + 0.5) * h
        y = np.concatenate((-rho[::-1], rho))
        slc = ColumnSlice(y, gaussian_slice_exact(y))
        half = center_and_symmetrize(slc, center=0.0)
        expect = gaussian_slice_exact(half.y)
        assert np.max(np.abs(half.values - expect)) < 3e-3 * expect.max()

    @pytest.mark.parametrize("center", [None, 0.0], ids=["detected", "explicit"])
    @pytest.mark.parametrize("m", [64, 1024, 4096])
    def test_keeps_the_outermost_sample(self, m, center):
        # the grid forward_abel gives a profile on (k + 1/2) 0.025, where
        # span / step rounds just below m - 1/2 at 64 and 1024 samples; the
        # floor once dropped the last sample there
        rho = (np.arange(m) + 0.5) * 0.025
        y = np.concatenate((-rho[::-1], rho))
        slc = ColumnSlice(y, np.exp(-((4.0 * y / rho[-1]) ** 2)))
        half = center_and_symmetrize(slc, center=center)
        assert np.array_equal(half.y, (np.arange(m) + 0.5) * slc.step)

    def test_constant_slice_has_no_center(self):
        with pytest.raises(CenterNotFound):
            center_and_symmetrize(ColumnSlice(np.arange(20.0), np.full(20, 3.3)))

    def test_center_too_close_to_edge(self):
        y = np.arange(20.0)
        v = np.exp(-((y - 1.0) ** 2))
        with pytest.raises(CenterNotFound):
            center_and_symmetrize(ColumnSlice(y, v))

    @pytest.mark.parametrize("scale", [1e-35, 1.0])
    def test_flat_extremum_takes_the_top_half_centroid(self, scale):
        # A plateau, at any scale, is centered at the intensity-weighted
        # centroid of the samples at least half as far from the baseline as
        # the extremum, not by a parabola through its first sample.
        y = np.arange(40.0) - 19.5
        v = scale * np.minimum(np.sqrt(np.clip(1.0 - np.abs(y - 2.3) / 12.0, 0.0, None)), 0.8)
        dev = np.abs(v - 0.5 * (np.mean(v[:4]) + np.mean(v[-4:])))
        top = dev >= 0.5 * dev.max()
        centroid = float(np.sum(y[top] * dev[top]) / np.sum(dev[top]))
        detected = center_and_symmetrize(ColumnSlice(y, v))
        explicit = center_and_symmetrize(ColumnSlice(y, v), center=centroid)
        np.testing.assert_array_equal(detected.y, explicit.y)
        np.testing.assert_array_equal(detected.values, explicit.values)

    @pytest.mark.parametrize("peak", [0.0, 19.0])
    def test_extremum_on_an_edge_sample_has_no_center(self, peak):
        y = np.arange(20.0)
        with pytest.raises(CenterNotFound, match="fewer than 4 usable samples"):
            center_and_symmetrize(ColumnSlice(y, np.exp(-((y - peak) ** 2) / 50.0)))

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_raises(self, center):
        # nan and inf once reached int(math.floor(...)) and raised ValueError
        # and OverflowError from there
        y = np.arange(-10.0, 10.0) + 0.5
        with pytest.raises(ValidationError, match="center must be finite"):
            center_and_symmetrize(ColumnSlice(y, np.exp(-(y**2))), center=center)


class TestInverseGuards:
    def test_uncentered_slice_rejected(self):
        y = np.linspace(-5.0, 5.0, 21)
        with pytest.raises(ValidationError, match="center_and_symmetrize"):
            inverse_abel(ColumnSlice(y, np.exp(-(y**2))))

    @pytest.mark.parametrize("method", ["dasch3", "onion"])
    def test_slice_starting_past_the_axis_rejected_up_front(self, method):
        # three steps out: y >= 0 throughout, but no RadialProfile starts there
        y = (np.arange(20) + 3.0) * 1.0
        operator = {"dasch3": abel._dasch3_operator, "onion": abel._onion_inverse}[method]
        built = operator.cache_info().misses
        with pytest.raises(ValidationError, match="y starting at 0 or at half a spacing"):
            inverse_abel(ColumnSlice(y, np.exp(-(y**2))), method=method)
        assert operator.cache_info().misses == built

    def test_unknown_method(self):
        y = (np.arange(20) + 0.5) * 1.0
        with pytest.raises(ValidationError, match="method"):
            inverse_abel(ColumnSlice(y, np.exp(-(y**2))), method="hansenlaw")

    @pytest.mark.parametrize("noise_reject", [-1.0, -1e-12, math.nan])
    def test_negative_noise_reject_raises(self, noise_reject):
        # a negative bound rejected every inversion as TooNoisy
        y = (np.arange(60) + 0.5) * (SIG / 10)
        with pytest.raises(ValidationError, match="noise_reject"):
            inverse_abel(ColumnSlice(y, gaussian_slice_exact(y)), noise_reject=noise_reject)

    def test_pure_noise_rejected(self):
        rng = np.random.default_rng(0)
        y = (np.arange(60) + 0.5) * (SIG / 10)
        noise = ColumnSlice(y, rng.standard_normal(60))
        with pytest.raises(TooNoisy), warnings.catch_warnings():
            warnings.simplefilter("ignore", NonDecayingWarning)
            inverse_abel(noise)

    def test_all_negative_result_passes_full_reject_bound(self):
        # an all-negative reconstruction has a negative-mass fraction of
        # exactly 1, which noise_reject=1.0 accepts in any summation order
        y = np.arange(8.0)
        f = np.zeros(8)
        f[-1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonDecayingWarning)
            rec = inverse_abel(ColumnSlice(y, f), method="dasch3", noise_reject=1.0)
        assert np.all(rec.values <= 0.0)

    def test_undecayed_slice_warns(self):
        y = (np.arange(20) + 0.5) * (SIG / 10)
        with pytest.warns(NonDecayingWarning):
            inverse_abel(ColumnSlice(y, gaussian_slice_exact(y)), noise_reject=1.0)


def test_hole_depth_survives_noise():
    # depleted sea: the depth of the dip must survive projection, 2% pixel
    # noise, and reconstruction; template fit in rho keeps the axis noise
    # amplification out of the estimate
    radius, width, depth = 20e-6, 3e-6, 0.9
    h = 0.5e-6
    rho = (np.arange(48) + 0.5) * h
    sea = 1.2e18 * np.clip(1.0 - (rho / radius) ** 2, 0.0, None) ** 1.5
    dip = np.exp(-(rho**2) / width**2)
    slc = forward_abel(RadialProfile(rho, sea * (1.0 - depth * dip)))
    rng = np.random.default_rng(11)
    noisy = slc.values + 0.02 * float(np.max(slc.values)) * rng.standard_normal(
        slc.values.shape
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonDecayingWarning)
        half = center_and_symmetrize(ColumnSlice(slc.y, noisy), center=0.0)
        rec = inverse_abel(half, method="dasch3", noise_reject=0.6)
    sea_r = np.interp(rec.rho, rho, sea)
    dip_r = np.exp(-(rec.rho**2) / width**2)
    d_hat = float(
        np.sum(rec.rho * sea_r * dip_r * (sea_r - rec.values))
        / np.sum(rec.rho * (sea_r * dip_r) ** 2)
    )
    assert d_hat == pytest.approx(depth, rel=0.15)


# ---------------------------------------------------------------------------
# properties: the vectorized kernels against a per-point scalar reference


def _forward_reference(rho, n):
    """F(y_k) at every rho sample, one segment and one point at a time."""
    segments = []
    if rho[0] > 0.0:
        segments.append((0.0, rho[0], n[0], 0.0))
    for j in range(len(rho) - 1):
        c1 = (n[j + 1] - n[j]) / (rho[j + 1] - rho[j])
        segments.append((rho[j], rho[j + 1], n[j] - c1 * rho[j], c1))
    out = []
    for y in rho:
        total = 0.0
        for lo, b, c0, c1 in segments:
            a = max(lo, y)
            if b <= a:
                continue
            s_a = math.sqrt(max(a * a - y * y, 0.0))
            s_b = math.sqrt(b * b - y * y)
            # int (c0 + c1 r) r / sqrt(r^2 - y^2) dr over [a, b]
            log_term = y * y * math.log((b + s_b) / (a + s_a)) if y > 0.0 else 0.0
            total += c0 * (s_b - s_a) + 0.5 * c1 * (b * s_b - a * s_a + log_term)
        out.append(2.0 * total)
    return np.array(out)


def _dasch3_reference(y, f):
    """-(1/pi) int_r F'(t) dt / sqrt(t^2 - r^2) for piecewise-linear F', per point."""
    step = y[1] - y[0]
    fp = np.gradient(f, step)
    if y[0] == 0.0:
        fp[0] = 0.0
    out = []
    for r in y:
        total = 0.0
        for j in range(len(y) - 1):
            a, b = max(y[j], r), y[j + 1]
            if b <= a:
                continue
            c1 = (fp[j + 1] - fp[j]) / step
            c0 = fp[j] - c1 * y[j]
            s_a = math.sqrt(max(a * a - r * r, 0.0))
            s_b = math.sqrt(b * b - r * r)
            # c0 is exactly 0 on the one segment whose log term diverges (r = a = 0)
            log_term = c0 * math.log((b + s_b) / (a + s_a)) if c0 != 0.0 else 0.0
            total += log_term + c1 * (s_b - s_a)
        out.append(-total / math.pi)
    return np.array(out)


# Rounding in both forms grows like len**2 on sign-alternating profiles: 1.4e-13
# of the peak at 20 samples, 5e-13 at 40.
abel_samples = st.lists(
    st.floats(-1.0, 1.0, allow_subnormal=False), min_size=4, max_size=20
)


@pytest.mark.filterwarnings("ignore::mixsep.errors.NonDecayingWarning")
@settings(derandomize=True, deadline=None)
@given(values=abel_samples, step=st.floats(0.01, 100.0), half=st.booleans())
def test_forward_matches_scalar_reference(values, step, half):
    n = np.array(values)
    rho = (np.arange(len(n)) + (0.5 if half else 0.0)) * step
    got = forward_abel(RadialProfile(rho, n)).values[-len(n):]
    ref = _forward_reference(rho, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore::mixsep.errors.NonDecayingWarning")
@settings(derandomize=True, deadline=None)
@given(values=abel_samples, step=st.floats(0.01, 100.0), half=st.booleans())
def test_dasch3_matches_scalar_reference(values, step, half):
    f = np.array(values)
    y = (np.arange(len(f)) + (0.5 if half else 0.0)) * step
    got = inverse_abel(ColumnSlice(y, f), method="dasch3", noise_reject=1.0).values
    ref = _dasch3_reference(y, f)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _onion_reference(y, f):
    """Back substitution through the annular path lengths, one ring at a time."""
    step = y[1] - y[0]

    def chord(i, j):
        # path at height y_i through the ring [y_j - step/2, y_j + step/2]
        hi = y[j] + 0.5 * step
        a = max(y[j] - 0.5 * step, 0.0, y[i])
        if hi <= a:
            return 0.0
        return 2.0 * (math.sqrt(hi * hi - y[i] * y[i]) - math.sqrt(max(a * a - y[i] * y[i], 0.0)))

    n = [0.0] * len(y)
    for i in reversed(range(len(y))):
        outer = sum(chord(i, j) * n[j] for j in range(i + 1, len(y)))
        n[i] = (f[i] - outer) / chord(i, i)
    return np.array(n)


@pytest.mark.filterwarnings("ignore::mixsep.errors.NonDecayingWarning")
@settings(derandomize=True, deadline=None)
@given(values=abel_samples, step=st.floats(0.01, 100.0), half=st.booleans())
def test_onion_matches_scalar_reference(values, step, half):
    f = np.array(values)
    y = (np.arange(len(f)) + (0.5 if half else 0.0)) * step
    got = inverse_abel(ColumnSlice(y, f), method="onion", noise_reject=1.0).values
    ref = _onion_reference(y, f)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# Two profiles of one length, and the coefficients of their combination.
abel_pairs = st.integers(4, 20).flatmap(
    lambda n: st.tuples(
        *(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=n, max_size=n)
          for _ in range(2))
    )
)
coefficients = st.floats(-2.0, 2.0, allow_subnormal=False)


@pytest.mark.filterwarnings("ignore::mixsep.errors.NonDecayingWarning")
@settings(derandomize=True, deadline=None)
@given(pair=abel_pairs, a=coefficients, b=coefficients,
       step=st.floats(0.01, 100.0), half=st.booleans())
def test_transforms_are_linear(pair, a, b, step, half):
    # T(a f1 + b f2) = a T(f1) + b T(f2), to rounding on the scale of the two terms
    f1, f2 = (np.array(v) for v in pair)
    x = (np.arange(len(f1)) + (0.5 if half else 0.0)) * step
    transforms = {
        "forward": lambda v: forward_abel(RadialProfile(x, v)).values,
        "dasch3": lambda v: inverse_abel(ColumnSlice(x, v), "dasch3", noise_reject=1.0).values,
        "onion": lambda v: inverse_abel(ColumnSlice(x, v), "onion", noise_reject=1.0).values,
    }
    for name, transform in transforms.items():
        t1, t2 = transform(f1), transform(f2)
        got = transform(a * f1 + b * f2)
        scale = abs(a) * np.max(np.abs(t1)) + abs(b) * np.max(np.abs(t2))
        assert np.max(np.abs(got - (a * t1 + b * t2))) <= 1e-12 * scale, name


# ---------------------------------------------------------------------------
# the per-geometry operator caches

OPERATORS = {
    "forward": abel._forward_operator,
    "dasch3": abel._dasch3_operator,
    "onion": abel._onion_inverse,
}


def _transform(name, x, v):
    if name == "forward":
        return forward_abel(RadialProfile(x, v)).values[-len(v):]
    return inverse_abel(ColumnSlice(x, v), method=name, noise_reject=1.0).values


REFERENCES = {
    "forward": _forward_reference,
    "dasch3": _dasch3_reference,
    "onion": _onion_reference,
}


@pytest.mark.filterwarnings("ignore::mixsep.errors.NonDecayingWarning")
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_cached_operator_gives_the_bytes_of_a_fresh_build(name):
    x = (np.arange(30) + 0.5) * 0.7
    v = np.random.default_rng(5).standard_normal(30)
    warm = _transform(name, x, v)
    OPERATORS[name].cache_clear()
    cold = _transform(name, x, v)
    assert OPERATORS[name].cache_info().misses == 1
    assert _transform(name, x, v).tobytes() == cold.tobytes() == warm.tobytes()


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_geometries_differing_in_first_sample_do_not_share_an_operator(name):
    # Equal length and step. The containers only admit a grid starting at 0
    # or step/2, so the operators are applied directly to reach 3 step too.
    step, m = 0.3, 12
    firsts = (0.0, 0.5 * step, 3.0 * step)
    v = np.random.default_rng(6).standard_normal(m)
    OPERATORS[name].cache_clear()
    for first in firsts:
        got = OPERATORS[name](m, first, step) @ v
        ref = REFERENCES[name](first + np.arange(m) * step, v)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), first
    assert OPERATORS[name].cache_info().misses == len(firsts)


@pytest.mark.parametrize("half", [False, True], ids=["zero-start", "half-start"])
@pytest.mark.parametrize("m", [4, 5, 128, 1024])
def test_dasch3_operator_matches_the_sparse_product(m, half):
    # The operator was once kernel @ G with G a scipy.sparse tridiagonal.
    step = 0.37
    first = 0.5 * step if half else 0.0
    x = first + step * np.arange(m)
    s, log_ratio, _ = abel._kernel_moments(x[:-1], x[1:], x)
    kernel = abel._hat_columns(step, log_ratio, s - x[:-1] * log_ratio) / -math.pi
    lower, diag, upper = np.full(m - 1, -0.5 / step), np.zeros(m), np.full(m - 1, 0.5 / step)
    # one-sided at both ends; row 0 is zero on a grid from 0, where F'(0) = 0
    diag[0], upper[0] = (-1.0 / step, 1.0 / step) if half else (0.0, 0.0)
    lower[-1], diag[-1] = -1.0 / step, 1.0 / step
    ref = kernel @ scipy.sparse.diags_array([lower, diag, upper], offsets=[-1, 0, 1])
    abel._dasch3_operator.cache_clear()
    got = abel._dasch3_operator(m, first, step)
    abel._dasch3_operator.cache_clear()
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_cached_operator_is_read_only(name):
    op = OPERATORS[name](8, 0.5, 1.0)
    with pytest.raises(ValueError):
        op[0, 0] = 1.0


@pytest.mark.parametrize("half", [False, True], ids=["zero-start", "half-start"])
@pytest.mark.parametrize("m", [4, 5, 128, 1024])
def test_onion_product_matches_a_triangular_solve(m, half):
    # onion was once a triangular solve with the path matrix on every call
    step = 0.37
    first = 0.5 * step if half else 0.0
    f = np.random.default_rng(m).standard_normal(m)
    ref = solve_triangular(abel._onion_paths(m, first, step), f, lower=False)
    got = abel._onion_inverse(m, first, step) @ f
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_onion_operator_keeps_fortran_order():
    # the layout in which P^-1 @ F has always summed
    assert abel._onion_inverse(16, 0.5, 1.0).flags.f_contiguous


def test_onion_bytes_do_not_depend_on_the_blas_thread_count():
    code = (
        "import hashlib, numpy as np\n"
        "from mixsep import abel\n"
        "h = hashlib.sha256()\n"
        "for m in (5, 128, 1024):\n"
        "    op = abel._onion_inverse(m, 0.5, 0.37)\n"
        "    h.update(op.tobytes(order='A'))\n"
        "    h.update((op @ np.random.default_rng(m).standard_normal(m)).tobytes())\n"
        "print(h.hexdigest())\n"
    )
    src = str(Path(abel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def _raised(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "short"])
@pytest.mark.parametrize("cls", [RadialProfile, ColumnSlice])
def test_derived_containers_raise_what_the_public_constructors_raise(cls, bad):
    grid = (np.arange(6) + 0.5) * 0.25
    values = np.ones(6)
    if bad == "short":
        values = values[:5]
    else:
        values[2] = bad
    message = _raised(lambda: cls(grid, values))
    assert message is not None
    assert _raised(lambda: abel._on_checked_grid(cls, grid, values)) == message


def test_derived_containers_keep_the_public_constructors_result():
    rng = np.random.default_rng(12)
    y = np.arange(-40, 41) * 0.25
    slc = ColumnSlice(y, np.exp(-(y**2)) + 1e-5 * rng.standard_normal(y.size))
    half = center_and_symmetrize(slc)
    assert isinstance(half, ColumnSlice)
    public = ColumnSlice(half.y, half.values)
    assert half.step == public.step and half.y.tobytes() == public.y.tobytes()
    for method in ("dasch3", "onion"):
        rec = inverse_abel(half, method=method, noise_reject=1.0)
        assert isinstance(rec, RadialProfile)
        public = RadialProfile(rec.rho, rec.values)
        assert rec.rho is half.y and rec.values.tobytes() == public.values.tobytes()


# ---------------------------------------------------------------------------
# rounding: the operators against a long-double evaluation of the same integrals

LONG = np.longdouble


def _moments_long(x, r):
    """S, L and T of every segment of x seen from the point r, in long double."""
    a, b = np.maximum(x[:-1], r), x[1:]
    live = b > a
    s_a = np.sqrt((a - r) * (a + r))
    s_b = np.sqrt(np.clip((b - r) * (b + r), 0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(live, (b - a) * (b + a) / (s_a + s_b), 0)
        log_ratio = np.where(live & (a > 0), np.log1p((b - a + s) / (a + s_a)), 0)
    return s, log_ratio, np.where(live, (b - a) * s_b + a * s, 0)


def _forward_long(x, v):
    x, v = x.astype(LONG), v.astype(LONG)
    c1 = np.diff(v) / (x[1] - x[0])
    out = []
    for r in x:
        s, log_ratio, t = _moments_long(x, r)
        out.append(2 * np.sum(v[:-1] * s + c1 * (0.5 * (t + r * r * log_ratio) - x[:-1] * s)))
    return np.array(out)


def _dasch3_long(x, f):
    x, f = x.astype(LONG), f.astype(LONG)
    fp = np.gradient(f, x[1] - x[0])
    if x[0] == 0:
        fp[0] = 0
    c1 = np.diff(fp) / (x[1] - x[0])
    pi = 4 * np.arctan(LONG(1))
    out = []
    for r in x:
        s, log_ratio, _ = _moments_long(x, r)
        out.append(-np.sum(fp[:-1] * log_ratio + c1 * (s - x[:-1] * log_ratio)) / pi)
    return np.array(out)


# On these draws, worst of both starts at 128 / 1024 samples: forward 2.2e-14 /
# 1.8e-13 and dasch3 3.7e-15 / 1.2e-14 of the peak. With each moment the
# difference of two large terms they were 7.0e-13 / 6.4e-11 and 6.8e-13 /
# 1.6e-11.
@pytest.mark.skipif(np.finfo(LONG).eps > 1e-18, reason="long double is no wider than double")
@pytest.mark.parametrize("half", [False, True], ids=["zero-start", "half-start"])
@pytest.mark.parametrize("m", [128, 1024])
def test_white_noise_transforms_match_long_double(m, half):
    step = 0.37
    x = (np.arange(m) + (0.5 if half else 0.0)) * step
    v = np.random.default_rng(m + half).standard_normal(m)
    for got, ref in (
        (abel._forward_operator(m, x[0], step) @ v, _forward_long(x, v)),
        (abel._dasch3_operator(m, x[0], step) @ v, _dasch3_long(x, v)),
    ):
        assert float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))) <= 5e-13
