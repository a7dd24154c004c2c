"""The benchmark's workloads: set-up, one timed operation, and output checks.

Each workload is one closed-loop caller in one process: it calls the
package's public functions, waits for the result, checks it outside the
timed region, and calls again. Inputs come only from the workload seed.

fig3_sweep   run_figure3_pipeline in both solver modes at a_bf = 300, 800
             and 1480 a0 (mixed, just past the ~600 a0 threshold, deep
             separated), default solver settings, on a 64x128 grid so that
             one sweep fits a run. Sweep-level changes show here.
solve_fine   one cold full-mode minimize at 256x512, a_bf = 0. Field arrays
             (1 MB) and their temporaries overflow the per-core L2, so the
             per-iteration kernel cost dominates.
analysis     no solver: forward Abel of every non-empty row of a depleted
             Fermi-sea image, 2% noise, inversion by dasch3 and onion, a
             batch of decay fits, and one bootstrap smoothing. Python-loop
             bound; every solver change should leave it unchanged.
"""

from __future__ import annotations

import math
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mixsep import abel, config, functional, lossfit, pipeline, profiles, solver
from mixsep.constants import A_BOHR
from mixsep.errors import MixsepError, NonDecayingWarning, ResolutionWarning

import spans

warnings.simplefilter("ignore", ResolutionWarning)
warnings.simplefilter("ignore", NonDecayingWarning)

ATOM_RTOL = 1.0e-12     # atom-number conservation of every returned state
RISE_RTOL = 1.0e-12     # the solver's own acceptance slack on energy rises
# Energies (J) reached at the seed commit: for each point the highest over
# seeds 1-10, and the share by which a state may exceed it. That share is
# 1e-9, or twice the seed-to-seed range where the warm-start noise moves the
# result: tf-mode flows past the threshold settle into one of several
# domain arrangements whose energies differ by up to 4.1e-5.
REFERENCE_ENERGY = {
    "fig3_sweep": {
        "full@0": (1.0021923568852845e-24, 1.0e-09),
        "full@300": (1.0038864772244316e-24, 1.0e-09),
        "full@800": (1.0046692374672185e-24, 1.0e-09),
        "full@1480": (1.0048882455309951e-24, 6.9e-09),
        "tf@0": (1.0016091833891374e-24, 1.0e-09),
        "tf@300": (1.0032417399580172e-24, 1.0e-09),
        "tf@800": (1.0036160477219107e-24, 8.3e-05),
        "tf@1480": (1.0036160396581975e-24, 8.3e-05),
    },
    "solve_fine": {
        "full@0": (1.002248226476725e-24, 1.0e-09),
    },
}

TF_PLATEAU = 0.024858    # omega_eff_tf deep in the separated regime
TF_PLATEAU_RTOL = 0.05

FIG3_GRID = (64, 128)
FIG3_A_BF = (300.0, 800.0, 1480.0)
FINE_GRID = (256, 512)

ANALYSIS_GRID = (128, 256)
HOLE_DEPTH = 0.9
HOLE_WIDTH = 0.35          # hole radii as a share of the fermion TF radii
PIXEL_NOISE = 0.02         # share of each projected row's peak
# Negative reconstructed mass the noisy inversions may carry (the default
# 0.2 rejects edge rows with few cells at 2% noise; the worst over seeds
# 1-5 is 0.38).
NOISE_REJECT = 0.6
ROUND_TRIP_EVERY = 4       # noiseless round trip on every 4th row
# Relative L2 error of a noiseless round trip. dasch3's three-point
# derivative reaches 2.5% on the 14-cell rows at the cloud's axial edge.
ROUND_TRIP_RTOL = {"dasch3": 0.03, "onion": 0.01}
N_DECAYS = 500
DECAY_POINTS = 16
DECAY_NOISE = 0.02
DECAY_T = 440e-9           # K
DECAY_NF = 4.5e18          # m^-3
DECAY_L3 = 1.0e-37         # m^6/s
DECAY_N0 = 2.0e5
DECAY_T_MAX = 5.0          # s
COVERAGE_MIN = 0.90        # share of fit_l3 results within 2 sigma of the truth
GAMMA_RANGE = (0.5, 1.2)   # fit_gamma over the true initial rate
N_SMOOTH = 14
SMOOTH_SCATTER = 0.1
N_BOOT = 1000


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Outcome:
    """What one operation produced, as the run loop needs it."""

    residual: float
    iterations: dict = field(default_factory=dict)   # solver.iterations[.mode]
    rejected: int = 0
    points: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# solver-side checks


def state_key(gs) -> str:
    return f"{gs.mode}@{gs.scenario.a_bf / A_BOHR:.0f}"


def relative_residual(gs) -> float:
    """max over species of ||H u - mu u||_w / (|mu| ||u||_w) at the returned state."""
    grid = gs.grid
    w = grid.weights
    params = functional.functional_params(gs.scenario, grid, gs.mode)
    psi = np.sqrt(gs.n_b.values)
    phi = np.sqrt(gs.n_f.values)
    h_psi, h_phi = functional.apply_hamiltonians(
        params, psi, phi, functional.KineticStencil(grid)
    )
    worst = 0.0
    for u, hu in ((psi, h_psi), (phi, h_phi)):
        norm2 = float(np.sum(w * u * u))
        if norm2 == 0.0:
            continue
        mu = float(np.sum(w * u * hu)) / norm2
        r = hu - mu * u
        worst = max(worst, math.sqrt(float(np.sum(w * r * r)) / norm2) / abs(mu))
    return worst


def rejected_steps(gs) -> int:
    return gs.iterations - len(gs.energy_history) + int(gs.converged)


def state_problems(gs, reference: dict) -> list[str]:
    problems = []
    if not gs.converged:
        problems.append(f"not converged after {gs.iterations} iterations")
    sc = gs.scenario
    for fld, target in ((gs.n_b, sc.condensate_number), (gs.n_f, sc.n_fermions)):
        if target > 0.0:
            err = abs(fld.integrate() - target) / target
            if err > ATOM_RTOL:
                problems.append(f"{fld.species} number off by {err:.2e}")
    hist = gs.energy_history
    if np.any(np.diff(hist) > RISE_RTOL * np.abs(hist[:-1])):
        problems.append("energy history rises")
    ref, rtol = reference[state_key(gs)]
    if gs.energy > ref * (1.0 + rtol):
        problems.append(f"energy {gs.energy:.12e} above seed {ref:.12e}")
    return problems


def solver_outcome(states) -> Outcome:
    its = {"solver.iterations": 0, "solver.iterations.full": 0, "solver.iterations.tf": 0}
    rejected = 0
    points = []
    for gs in states:
        its["solver.iterations"] += gs.iterations
        its[f"solver.iterations.{gs.mode}"] += gs.iterations
        rejected += rejected_steps(gs)
        points.append(
            {"point": state_key(gs), "iterations": gs.iterations, "energy_j": gs.energy}
        )
    residual = max(relative_residual(gs) for gs in states) if states else math.nan
    return Outcome(residual=residual, iterations=its, rejected=rejected, points=points)


# ---------------------------------------------------------------------------
# fig3_sweep


class Fig3Sweep:
    name = "fig3_sweep"

    def __init__(self, seed: int, workdir: Path):
        n_rho, n_z = FIG3_GRID
        text = (
            f"[grid]\nn_rho = {n_rho}\nn_z = {n_z}\n"
            f"[solver]\nseed = {seed}\n"
            f"[sweep]\na_bf_list_a0 = {', '.join(f'{a:g}' for a in FIG3_A_BF)}\n"
        )
        self.config = config.parse_config(text, source="perfbench")
        self.grid = profiles.grid_for_scenario(
            self.config.scenario, n_rho, n_z, self.config.box_factor
        )
        self.out_dir = workdir
        self.expected = [
            f"{mode}@{a:.0f}" for mode in ("full", "tf") for a in (0.0,) + FIG3_A_BF
        ]

    def run(self):
        states: list = []
        with spans.collecting_states(states):
            csv_path, _ = pipeline.run_figure3_pipeline(self.config, self.out_dir)
        return states, csv_path

    def check(self, result, tally: Tally) -> Outcome:
        states, csv_path = result
        _, header, data = pipeline.read_table(csv_path)
        row = {float(r[0]): dict(zip(header, r)) for r in data}
        by_key = {state_key(gs): gs for gs in states}
        for key in self.expected:
            gs = by_key.get(key)
            if gs is None:
                tally.record(key, ["solve raised"])
                continue
            problems = state_problems(gs, REFERENCE_ENERGY[self.name])
            if key == "tf@1480":
                tf = row[1480.0]["omega_eff_tf"]
                if not abs(tf - TF_PLATEAU) <= TF_PLATEAU_RTOL * TF_PLATEAU:
                    problems.append(f"tf plateau {tf:.6g} not within 5% of {TF_PLATEAU}")
            if key == "full@800":
                full, tf = row[800.0]["omega_eff_full"], row[800.0]["omega_eff_tf"]
                if not full > tf:
                    problems.append(f"full {full:.6g} not above tf {tf:.6g} at 800 a0")
            tally.record(key, problems)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return solver_outcome(states)


# ---------------------------------------------------------------------------
# solve_fine


class SolveFine:
    name = "solve_fine"

    def __init__(self, seed: int, workdir: Path):
        n_rho, n_z = FINE_GRID
        self.config = config.parse_config(
            f"[grid]\nn_rho = {n_rho}\nn_z = {n_z}\n", source="perfbench"
        )
        self.scenario = self.config.scenario.with_a_bf(0.0)
        self.grid = profiles.grid_for_scenario(
            self.scenario, n_rho, n_z, self.config.box_factor
        )

    def run(self):
        return solver.minimize(self.scenario, self.grid, self.config.solver)

    def check(self, gs, tally: Tally) -> Outcome:
        tally.record(state_key(gs), state_problems(gs, REFERENCE_ENERGY[self.name]))
        return solver_outcome([gs])


# ---------------------------------------------------------------------------
# analysis


def _attempt(fn, *args, **kwargs):
    """(result, None), or (None, reason) when the package raises."""
    try:
        return fn(*args, **kwargs), None
    except MixsepError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _relative_error(rec, rho, truth) -> float:
    t = np.interp(rec.rho, rho, truth)
    return float(np.linalg.norm(rec.values - t) / np.linalg.norm(t))


class Analysis:
    name = "analysis"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        scenario = config.parse_config("", source="perfbench").scenario
        n_rho, n_z = ANALYSIS_GRID
        grid = profiles.grid_for_scenario(scenario, n_rho, n_z)
        sea, e_f = profiles.fermi_tf_profile(scenario.fermions, scenario.n_fermions, grid)
        r_rho, r_z = profiles.tf_radii(e_f, scenario.fermions)
        hole = 1.0 - HOLE_DEPTH * np.exp(
            -((grid.rho[:, None] / (HOLE_WIDTH * r_rho)) ** 2)
            - (grid.z[None, :] / (HOLE_WIDTH * r_z)) ** 2
        )
        image = sea.values * hole
        self.rho = grid.rho
        self.rows = [image[:, j] for j in range(n_z) if np.any(image[:, j] > 0.0)]

        rng = np.random.default_rng(seed)
        n_y = 2 * n_rho
        self.row_noise = rng.standard_normal((len(self.rows), n_y))

        self.species = scenario.bosons
        c_t = profiles.thermal_peak_coefficient(self.species, DECAY_T)
        self.k_true = DECAY_L3 * DECAY_NF * c_t / math.sqrt(8.0)
        t = np.linspace(0.0, DECAY_T_MAX, DECAY_POINTS)
        clean = DECAY_N0 / (1.0 + self.k_true * DECAY_N0 * t)
        self.decays = [
            lossfit.DecaySeries(
                t,
                clean * (1.0 + DECAY_NOISE * rng.standard_normal(t.size)),
                sigma=DECAY_NOISE * clean,
            )
            for _ in range(N_DECAYS)
        ]

        self.smooth_a = np.geomspace(100.0, 2000.0, N_SMOOTH)
        truth = 1.0e-25 * (self.smooth_a / 1000.0) ** 2
        self.smooth_l3 = truth * np.exp(SMOOTH_SCATTER * rng.standard_normal(N_SMOOTH))
        self.smooth_sigma = SMOOTH_SCATTER * self.smooth_l3

    def run(self):
        rows = []
        for j, n in enumerate(self.rows):
            slc = abel.forward_abel(abel.RadialProfile(self.rho, n))
            noisy = abel.ColumnSlice(
                slc.y, slc.values + PIXEL_NOISE * float(np.max(slc.values)) * self.row_noise[j]
            )
            half = abel.center_and_symmetrize(noisy, center=0.0)
            entry = {
                m: _attempt(abel.inverse_abel, half, method=m, noise_reject=NOISE_REJECT)
                for m in ("dasch3", "onion")
            }
            if j % ROUND_TRIP_EVERY == 0:
                clean = abel.center_and_symmetrize(slc, center=0.0)
                entry.update(
                    {f"{m}.clean": _attempt(abel.inverse_abel, clean, method=m)
                     for m in ("dasch3", "onion")}
                )
            rows.append(entry)
        fits = []
        for series in self.decays:
            fits.append((_attempt(lossfit.fit_gamma, series),
                         _attempt(lossfit.fit_l3, series, self.species, DECAY_T, DECAY_NF)))
        curve = lossfit.smooth_l3(
            self.smooth_a, self.smooth_l3, self.smooth_sigma, n_boot=N_BOOT, seed=self.seed
        )
        return rows, fits, curve

    def check(self, result, tally: Tally) -> Outcome:
        rows, fits, curve = result
        worst = 0.0
        for j, entry in enumerate(rows):
            for method, (rec, err) in entry.items():
                problems = [err] if err else []
                if rec is not None and method.endswith(".clean"):
                    rel = _relative_error(rec, self.rho, self.rows[j])
                    worst = max(worst, rel)
                    if rel > ROUND_TRIP_RTOL[method.split(".")[0]]:
                        problems.append(f"noiseless round trip off by {rel:.3%}")
                tally.record(f"row {j} {method}", problems)

        gamma_true = self.k_true * DECAY_N0
        covered = 0
        for i, ((g, g_err), (l3, l3_err)) in enumerate(fits):
            problems = [g_err] if g_err else []
            if g is not None:
                ratio = g.gamma / gamma_true
                if not (g.decaying and GAMMA_RANGE[0] <= ratio <= GAMMA_RANGE[1]):
                    problems.append(f"gamma {ratio:.3f} of the true initial rate")
            tally.record(f"fit_gamma {i}", problems)
            problems = [l3_err] if l3_err else []
            if l3 is not None:
                if not (math.isfinite(l3.l3) and l3.l3_stderr > 0.0):
                    problems.append("non-finite L3 or error")
                elif abs(l3.l3 - DECAY_L3) <= 2.0 * l3.l3_stderr:
                    covered += 1
            tally.record(f"fit_l3 {i}", problems)
        coverage = covered / len(fits)
        if coverage < COVERAGE_MIN:
            tally.failed += 1
            tally.reasons.append(f"fit_l3 2-sigma coverage {coverage:.3f} < {COVERAGE_MIN}")

        inside = np.all(curve.band_lo <= curve.l3) and np.all(curve.l3 <= curve.band_hi)
        tally.record("smooth_l3", [] if inside else ["band does not contain the fit"])
        return Outcome(residual=worst)


WORKLOADS = {cls.name: cls for cls in (Fig3Sweep, SolveFine, Analysis)}
