"""Acceptance gate: every headline tolerance the package promises, checked
end to end with one printed verdict line per item.

The heavy fixtures (a 13-point two-mode sweep at 128x256 and the default
full-mode ground state) are session-scoped, so the whole file costs one
pipeline run plus seconds.
"""

import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mixsep.abel import (
    ColumnSlice,
    RadialProfile,
    center_and_symmetrize,
    forward_abel,
    inverse_abel,
)
from mixsep.config import default_scenario, parse_config
from mixsep.constants import A_BOHR
from mixsep.errors import NonDecayingWarning
from mixsep.grid import integrate_product
from mixsep.lossfit import DecaySeries, fit_gamma, fit_l3
from mixsep.overlap import omega_eff, omega_from_measurement
from mixsep.physics import coupling_bb, critical_scattering_length, healing_length
from mixsep.pipeline import read_table, run_figure3_pipeline
from mixsep.profiles import (
    ThermalCloudParams,
    bec_tf_profile,
    fra_peak_quantities,
    grid_for_scenario,
    thermal_bose_profile,
    thermal_peak_coefficient,
)
from mixsep.solver import SolverOptions, minimize

SC = default_scenario()

# effective overlap of the fully separated shell state relative to the
# overlapping reference, from the closed-form density profiles
SEPARATED_PLATEAU = 0.024858262700762513


def report(capsys, num, ok, desc, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[{num:>2}/12] {'PASS' if ok else 'FAIL'} {desc}{tail}")
    assert ok, f"{desc}{tail}"


@pytest.fixture(scope="session")
def sweep_run(tmp_path_factory):
    """Two-mode overlap sweep over 12 log-spaced points plus 1480 a0."""
    points = sorted(set(np.geomspace(100.0, 2000.0, 12)) | {1480.0})
    text = "[sweep]\na_bf_list_a0 = " + ", ".join(repr(float(p)) for p in points) + "\n"
    cfg = parse_config(text)
    captured = {}

    def progress(mode, idx, a_bf, gs):
        if mode == "full" and gs is not None and abs(a_bf / A_BOHR - 1480.0) < 1e-9:
            captured["nf_center_1480"] = gs.n_f.center_value()

    t0 = time.perf_counter()
    csv_path, manifest_path = run_figure3_pipeline(
        cfg, tmp_path_factory.mktemp("sweep"), progress
    )
    seconds = time.perf_counter() - t0
    meta, header, data = read_table(csv_path)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    return SimpleNamespace(
        meta=meta,
        a=cols["a_bf[a0]"],
        full=cols["omega_eff_full"],
        tf=cols["omega_eff_tf"],
        seconds=seconds,
        nf_center_1480=captured["nf_center_1480"],
        geom_points=np.geomspace(100.0, 2000.0, 12),
    )


@pytest.fixture(scope="session")
def default_state():
    """Full-mode ground state of the non-interacting default scenario."""
    grid = grid_for_scenario(SC, 128, 256)
    t0 = time.perf_counter()
    gs = minimize(SC, grid, SolverOptions(mode="full"))
    return SimpleNamespace(gs=gs, seconds=time.perf_counter() - t0)


def test_criterion_01_separation_threshold(capsys):
    crit = critical_scattering_length(60.9 * A_BOHR, 1.2e12 * 1.0e6) / A_BOHR
    err = abs(crit / 600.0 - 1.0)
    report(
        capsys, 1, err < 0.02,
        "separation threshold at 1.2e12 cm^-3 within 2% of 600 a0",
        f"got {crit:.4f} a0, off by {err:.2%}",
    )


def test_criterion_02_healing_length(capsys):
    xi = healing_length(40.0 * 1.2e12 * 1.0e6, 60.9 * A_BOHR)
    err = abs(xi / 0.50e-6 - 1.0)
    report(
        capsys, 2, err < 0.05,
        "condensate healing length within 5% of 0.50 um",
        f"got {xi * 1e6:.4f} um, off by {err:.2%}",
    )


def test_criterion_03_condensate_square_integral(capsys):
    t0 = time.perf_counter()
    grid = grid_for_scenario(SC, 256, 512)
    field, mu_cal = bec_tf_profile(SC.bosons, SC.condensate_number, grid)
    nhat = mu_cal / coupling_bb(SC.bosons.a_intra, SC.bosons.mass)
    lhs = integrate_product(field, field)
    rhs = (4.0 / 7.0) * SC.condensate_number * nhat
    dt = time.perf_counter() - t0
    err = abs(lhs / rhs - 1.0)
    report(
        capsys, 3, err < 1e-3 and dt < 10.0,
        "condensate density square integral matches (4/7) N n_peak to 0.1%",
        f"off by {err:.2e} in {dt:.2f}s on 256x512",
    )


def test_criterion_04_thermal_square_integral(capsys):
    t0 = time.perf_counter()
    grid = grid_for_scenario(SC, 128, 256)
    tp = ThermalCloudParams(SC.bosons, SC.n_bosons, SC.condensate_fraction)
    f1, _ = thermal_bose_profile(tp, grid)
    f2, _ = thermal_bose_profile(tp, grid.refined(2))
    lhs = (4.0 * integrate_product(f2, f2) - integrate_product(f1, f1)) / 3.0
    rhs = tp.second_moment_integral()
    dt = time.perf_counter() - t0
    err = abs(lhs / rhs - 1.0)
    report(
        capsys, 4, err < 1e-6 and dt < 10.0,
        "thermal density square integral matches n_t N_t / sqrt(8) to 1e-6",
        f"off by {err:.2e} in {dt:.2f}s",
    )


def test_criterion_05_default_ground_state(capsys, default_state):
    gs, dt = default_state.gs, default_state.seconds
    peaks = fra_peak_quantities(SC)
    nb_err = abs(gs.n_b.peak() / peaks.n_b_peak - 1.0)
    nf_err = abs(gs.n_f.peak() / peaks.n_f_peak - 1.0)
    h = gs.energy_history
    monotone = bool(np.all(np.diff(h) <= np.abs(h[:-1]) * 1e-12 + 1e-300))
    nb_cons = abs(gs.n_b.integrate() / SC.condensate_number - 1.0)
    nf_cons = abs(gs.n_f.integrate() / SC.n_fermions - 1.0)
    ok = (
        gs.converged
        and nb_err < 0.02
        and nf_err < 0.02
        and monotone
        and nb_cons < 1e-12
        and nf_cons < 1e-12
        and dt < 300.0
    )
    report(
        capsys, 5, ok,
        "non-interacting minimization: peaks to 2%, monotone energy, numbers to 1e-12",
        f"peak errs {nb_err:.2%}/{nf_err:.2%}, {gs.iterations} iters in {dt:.1f}s",
    )


def test_criterion_06_tf_plateau(capsys, sweep_run):
    crit = float(sweep_run.meta["critical_a_bf_a0"])
    mask = sweep_run.a >= 1.5 * crit
    vals = sweep_run.tf[mask]
    err = float(np.max(np.abs(vals / SEPARATED_PLATEAU - 1.0)))
    # the curve must actually drop: well below threshold it sits far above
    # the plateau it settles onto
    drops = bool(np.all(sweep_run.tf[sweep_run.a < 0.5 * crit] > 5.0 * SEPARATED_PLATEAU))
    ok = err < 0.05 and drops and sweep_run.seconds < 1800.0
    report(
        capsys, 6, ok,
        "separated-regime overlap plateau within 5% of the closed-form value",
        f"{mask.sum()} points, worst off by {err:.2%}, sweep took {sweep_run.seconds:.0f}s",
    )


def test_criterion_07_full_mode_curve(capsys, sweep_run):
    # restrict to the 12 log-spaced points so the second difference in
    # log a_bf is taken on a uniform grid
    sel = np.array(
        [np.any(np.isclose(a, sweep_run.geom_points, rtol=1e-12)) for a in sweep_run.a]
    )
    log_om = np.log(sweep_run.full[sel])
    d2 = np.diff(log_om, n=2)
    spikes = [
        i
        for i in range(1, len(d2) - 1)
        if abs(d2[i]) > 0.25
        and d2[i] * d2[i - 1] < 0.0
        and d2[i] * d2[i + 1] < 0.0
    ]
    smooth = float(np.max(np.abs(d2))) < 0.5 and not spikes

    band = (sweep_run.a >= 600.0) & (sweep_run.a <= 1500.0)
    above_tf = bool(np.all(sweep_run.full[band] > sweep_run.tf[band]))

    at_1000 = math.exp(
        np.interp(math.log(1000.0), np.log(sweep_run.a), np.log(sweep_run.full))
    )
    in_window = 0.02 <= at_1000 <= 0.15

    ok = smooth and above_tf and in_window and sweep_run.seconds < 3600.0
    report(
        capsys, 7, ok,
        "full-mode overlap curve is smooth, exceeds the sharp-interface one, "
        "and sits in [0.02, 0.15] at 1000 a0",
        f"max |d2 ln| {np.max(np.abs(d2)):.3f}, value at 1000 a0 {at_1000:.4f}",
    )


def test_criterion_08_central_depletion(capsys, sweep_run, default_state):
    ref = default_state.gs.n_f.center_value()
    ratio = sweep_run.nf_center_1480 / ref
    report(
        capsys, 8, ratio < 0.05,
        "central fermion density at 1480 a0 below 5% of its non-interacting value",
        f"ratio {ratio:.2e}",
    )


def test_criterion_09_abel_reconstruction(capsys):
    t0 = time.perf_counter()
    sig, n0 = 4e-6, 5e18
    h = sig / 20.0
    rho = (np.arange(100) + 0.5) * h
    prof = RadialProfile(rho, n0 * np.exp(-(rho**2) / sig**2))
    half = center_and_symmetrize(forward_abel(prof))
    l2 = {}
    for method in ("dasch3", "onion"):
        rec = inverse_abel(half, method=method)
        truth = n0 * np.exp(-(rec.rho**2) / sig**2)
        l2[method] = math.sqrt(
            float(np.sum((rec.values - truth) ** 2) / np.sum(truth**2))
        )
    round_trip_ok = all(v < 0.01 for v in l2.values())

    radius, width, depth = 20e-6, 3e-6, 0.9
    rho = (np.arange(48) + 0.5) * 0.5e-6
    sea = 1.2e18 * np.clip(1.0 - (rho / radius) ** 2, 0.0, None) ** 1.5
    dip = np.exp(-(rho**2) / width**2)
    slc = forward_abel(RadialProfile(rho, sea * (1.0 - depth * dip)))
    rng = np.random.default_rng(11)
    noisy = slc.values + 0.02 * float(np.max(slc.values)) * rng.standard_normal(
        slc.values.shape
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonDecayingWarning)
        rec = inverse_abel(
            center_and_symmetrize(ColumnSlice(slc.y, noisy), center=0.0),
            noise_reject=0.6,
        )
    sea_r = np.interp(rec.rho, rho, sea)
    dip_r = np.exp(-(rec.rho**2) / width**2)
    d_hat = float(
        np.sum(rec.rho * sea_r * dip_r * (sea_r - rec.values))
        / np.sum(rec.rho * (sea_r * dip_r) ** 2)
    )
    depth_err = abs(d_hat / depth - 1.0)
    dt = time.perf_counter() - t0
    ok = round_trip_ok and depth_err < 0.15 and dt < 10.0
    report(
        capsys, 9, ok,
        "projection round trip under 1% and hole depth recovered to 15% at 2% noise",
        f"L2 {l2['dasch3']:.3%}/{l2['onion']:.3%}, depth off by {depth_err:.2%}, {dt:.2f}s",
    )


def test_criterion_10_rate_fits(capsys):
    t0 = time.perf_counter()
    t = np.linspace(0.0, 3.0, 12)
    lin = fit_gamma(DecaySeries(t, 1.0e5 * (1.0 - 0.08 * t)))
    gamma_exact = abs(lin.gamma / 0.08 - 1.0) < 1e-10

    temp, nf_peak, l3_true = 440e-9, 4.5e18, 1.0e-37
    c_t = thermal_peak_coefficient(SC.bosons, temp)
    k = l3_true * nf_peak * c_t / math.sqrt(8.0)
    times = np.linspace(0.0, 5.0, 12)
    model = 2.0e5 / (1.0 + k * 2.0e5 * times)
    clean = fit_l3(DecaySeries(times, model), SC.bosons, temp, nf_peak)
    noiseless_ok = abs(clean.l3 / l3_true - 1.0) < 0.01

    rng = np.random.default_rng(2024)
    hits = 0
    trials = 500
    for _ in range(trials):
        noisy = model * (1.0 + 0.05 * rng.standard_normal(model.shape))
        fit = fit_l3(
            DecaySeries(times, noisy, sigma=0.05 * model), SC.bosons, temp, nf_peak
        )
        if abs(fit.l3 - l3_true) < 2.0 * fit.l3_stderr:
            hits += 1
    coverage = hits / trials
    dt = time.perf_counter() - t0
    ok = gamma_exact and noiseless_ok and coverage >= 0.93 and dt < 120.0
    report(
        capsys, 10, ok,
        "loss fits: exact linear rate, 1% noiseless L3, 2-sigma coverage >= 93%",
        f"coverage {coverage:.1%} over {trials} draws in {dt:.1f}s",
    )


def test_criterion_11_measurement_identity(capsys):
    rng = np.random.default_rng(7)
    exact = 0
    trials = 1000
    for _ in range(trials):
        gamma = float(rng.uniform(1e-3, 10.0))
        l3 = float(rng.uniform(1e-39, 1e-36))
        nf = float(rng.uniform(1e17, 1e19))
        nb = float(rng.uniform(1e18, 1e20))
        lhs = omega_eff(gamma, l3, nf, nb, 0.0, 1.0, 1.0)
        rhs = omega_from_measurement(gamma, l3, nf, nb)
        exact += lhs == rhs
    report(
        capsys, 11, exact == trials,
        "pure-condensate overlap equals the measurement form bit for bit",
        f"{exact}/{trials} draws identical",
    )


def test_criterion_12_deterministic_outputs(capsys, tmp_path):
    cfg_text = (
        "[grid]\nn_rho = 48\nn_z = 96\n"
        "[sweep]\na_bf_list_a0 = 100, 700, 1600\n"
        "[solver]\n"
    )
    outputs = []
    for run in ("one", "two"):
        cfg = parse_config(cfg_text)
        csv_path, manifest_path = run_figure3_pipeline(cfg, tmp_path / run)
        outputs.append((csv_path, manifest_path))
    csv_same = outputs[0][0].read_bytes() == outputs[1][0].read_bytes()
    snap_same = (
        (tmp_path / "one" / "config_snapshot.cfg").read_bytes()
        == (tmp_path / "two" / "config_snapshot.cfg").read_bytes()
    )
    import json

    manifests = [
        json.loads(p.read_text(encoding="utf-8")) for _, p in outputs
    ]
    for m in manifests:
        m.pop("created_utc")
    ok = csv_same and snap_same and manifests[0] == manifests[1]
    report(
        capsys, 12, ok,
        "repeated runs produce byte-identical tables and equivalent manifests",
        f"csv identical: {csv_same}, snapshot identical: {snap_same}",
    )
