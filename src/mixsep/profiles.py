"""Noninteracting reference profiles of the trapped mixture.

Three building blocks: the Thomas-Fermi Fermi sea n_f ~ (E_F - V)^(3/2),
the Thomas-Fermi condensate n_b = (mu - V)/g_bb, and the thermal bosonic
cloud (Gaussian by default, semiclassical polylog as an option). Builders
return fields whose grid quadrature hits the target atom number to 1e-9
relative: the closed-form chemical potential / Fermi energy is recalibrated
against the actual midpoint sum, so discretization never leaks into atom
numbers. The uncalibrated closed forms remain available as plain functions
and are what enters the loss-formula denominators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .constants import HBAR, K_B, TWO_PI, ZETA_3
from .errors import GridTooSmall, NonPositiveInput, ResolutionWarning, ValidationError
from .grid import DensityField, Grid2D, grid_for_box
from .physics import SpeciesParams, coupling_bb, fermi_wavenumber, healing_length
from .scenario import MixtureScenario

# Fermi TF density prefactor: n = C_F * (2 m (E_F - V) / hbar^2)^(3/2)
_SIX_PI2 = 6.0 * math.pi**2


def trap_potential(species: SpeciesParams, grid: Grid2D) -> np.ndarray:
    """Harmonic trap energy (J) at every cell center."""
    rho, z = grid.mesh()
    return 0.5 * species.mass * (
        (species.omega_rho * rho) ** 2 + (species.omega_z * z) ** 2
    )


def fermi_energy_trap(n_fermions: float, species: SpeciesParams) -> float:
    """Trapped-gas Fermi energy E_F = hbar wbar (6 N)^(1/3), in J."""
    if n_fermions < 1.0:
        raise NonPositiveInput("need at least one fermion")
    return HBAR * species.omega_bar * (6.0 * n_fermions) ** (1.0 / 3.0)


def fermi_peak_density(e_fermi: float, species: SpeciesParams) -> float:
    return (2.0 * species.mass * e_fermi / HBAR**2) ** 1.5 / _SIX_PI2


def tf_chemical_potential(n_condensed: float, species: SpeciesParams) -> float:
    """Condensate TF chemical potential, in J."""
    if n_condensed == 0.0:
        return 0.0
    if species.a_intra <= 0.0:
        raise NonPositiveInput("TF condensate needs a repulsive a_intra")
    a_ho = math.sqrt(HBAR / (species.mass * species.omega_bar))
    return 0.5 * HBAR * species.omega_bar * (
        15.0 * n_condensed * species.a_intra / a_ho
    ) ** 0.4


def condensation_temperature(n_total: float, species: SpeciesParams) -> float:
    """Ideal-gas T_c of the trapped Bose cloud, in K."""
    return HBAR * species.omega_bar * (n_total / ZETA_3) ** (1.0 / 3.0) / K_B


def thermal_peak_coefficient(species: SpeciesParams, temperature: float) -> float:
    """Peak thermal density per atom: (m wbar^2 / 2 pi k_B T)^(3/2), m^-3."""
    if temperature <= 0.0:
        raise NonPositiveInput("temperature must be positive")
    return (
        species.mass * species.omega_bar**2 / (TWO_PI * K_B * temperature)
    ) ** 1.5


def tf_radii(energy: float, species: SpeciesParams) -> tuple[float, float]:
    """(radial, axial) extent where the trap potential reaches `energy`."""
    r = math.sqrt(2.0 * energy / species.mass) / species.omega_rho
    z = math.sqrt(2.0 * energy / species.mass) / species.omega_z
    return r, z


@dataclass(frozen=True)
class ThermalCloudParams:
    """Thermal bosonic component of a partially condensed cloud.

    With a measured condensate fraction beta, the ideal-gas relation fixes
    T = T_c (1 - beta)^(1/3). An explicit temperature overrides that (needed
    for fully thermal clouds, where beta alone says nothing about T).
    """

    species: SpeciesParams
    n_total: float
    condensate_fraction: float
    temperature: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.condensate_fraction <= 1.0:
            raise ValidationError("condensate_fraction must be in [0, 1]")

    @property
    def t_crit(self) -> float:
        return condensation_temperature(self.n_total, self.species)

    @property
    def t(self) -> float:
        if self.temperature is not None:
            return self.temperature
        return self.t_crit * (1.0 - self.condensate_fraction) ** (1.0 / 3.0)

    @property
    def n_thermal(self) -> float:
        return (1.0 - self.condensate_fraction) * self.n_total

    @property
    def peak_density(self) -> float:
        """Closed-form peak n_t = coeff * N_thermal, in m^-3."""
        if self.n_thermal == 0.0:
            return 0.0
        return thermal_peak_coefficient(self.species, self.t) * self.n_thermal

    def second_moment_integral(self) -> float:
        """Closed-form Gaussian identity: integral of n_t^2 = peak * N_t / sqrt(8)."""
        return self.peak_density * self.n_thermal / math.sqrt(8.0)


def _check_box(grid: Grid2D, r_rho: float, r_z: float, label: str) -> None:
    if r_rho > grid.rho_max or r_z > grid.z_half:
        raise GridTooSmall(
            f"{label} cloud extent ({r_rho:.3e}, {r_z:.3e}) m exceeds grid box "
            f"({grid.rho_max:.3e}, {grid.z_half:.3e}) m"
        )


def _calibrate(number, target: float, *args) -> float:
    """The ratio s in [0.5, 1.6] at which number(s, *args) equals target.

    The root-find runs on a dimensionless ratio because brentq's xtol is
    absolute and would swallow the whole bracket at SI energy scales
    (~1e-29 J). The arrays go in through brentq's args, not a closure:
    scipy wraps the function in a closure that refers to itself, and that
    reference cycle would keep whatever the function captured (two
    full-grid arrays per cold solve) alive until the next full garbage
    collection.
    """
    return brentq(
        lambda s, *a: number(s, *a) - target, 0.5, 1.6, args=args,
        xtol=1e-15, rtol=1e-14, maxiter=200,
    )


def _fermi_number(s: float, e0: float, pref: float, v: np.ndarray, w: np.ndarray) -> float:
    """Atom number of the TF Fermi sea at E_F = s e0."""
    return float(np.sum(pref * np.clip(s * e0 - v, 0.0, None) ** 1.5 * w))


def _bec_number(s: float, mu0: float, g: float, v: np.ndarray, w: np.ndarray) -> float:
    """Atom number of the TF condensate at mu = s mu0."""
    return float(np.sum(np.clip(s * mu0 - v, 0.0, None) / g * w))


def fermi_tf_profile(
    species: SpeciesParams, n_fermions: float, grid: Grid2D
) -> tuple[DensityField, float]:
    """Thomas-Fermi Fermi sea on the grid.

    Returns (field, E_F). E_F is calibrated so the grid quadrature of the
    field equals n_fermions to 1e-9 relative; it differs from
    fermi_energy_trap by the quadrature correction, O(spacing^2).
    """
    e0 = fermi_energy_trap(n_fermions, species)
    _check_box(grid, *tf_radii(e0, species), label="fermion")
    v = trap_potential(species, grid)
    pref = (2.0 * species.mass / HBAR**2) ** 1.5 / _SIX_PI2
    e_cal = e0 * _calibrate(_fermi_number, n_fermions, e0, pref, v, grid.weights)
    field = DensityField(grid, pref * np.clip(e_cal - v, 0.0, None) ** 1.5, "fermions")
    return field, float(e_cal)


def bec_tf_profile(
    species: SpeciesParams, n_condensed: float, grid: Grid2D
) -> tuple[DensityField, float]:
    """Thomas-Fermi condensate on the grid; returns (field, mu), mu calibrated.

    A zero atom number is a legitimate limit and returns the zero field.
    """
    if n_condensed == 0.0:
        return DensityField(grid, np.zeros((grid.n_rho, grid.n_z)), "bosons"), 0.0
    mu0 = tf_chemical_potential(n_condensed, species)
    r_rho, r_z = tf_radii(mu0, species)
    _check_box(grid, r_rho, r_z, label="condensate")
    if r_rho < 8.0 * grid.d_rho:
        warnings.warn(
            f"condensate TF radius {r_rho:.3e} m spans fewer than 8 radial cells",
            ResolutionWarning,
            stacklevel=2,
        )
    v = trap_potential(species, grid)
    g = coupling_bb(species.a_intra, species.mass)
    mu_cal = mu0 * _calibrate(_bec_number, n_condensed, mu0, g, v, grid.weights)
    field = DensityField(grid, np.clip(mu_cal - v, 0.0, None) / g, "bosons")
    return field, float(mu_cal)


def thermal_bose_profile(
    params: ThermalCloudParams, grid: Grid2D
) -> tuple[DensityField, float]:
    """Gaussian thermal cloud; returns (field, peak). Amplitude calibrated."""
    n_t = params.n_thermal
    if n_t == 0.0:
        return DensityField(grid, np.zeros((grid.n_rho, grid.n_z)), "thermal"), 0.0
    v = trap_potential(params.species, grid)
    shape = np.exp(-v / (K_B * params.t))
    raw = float(np.sum(shape * grid.weights))
    peak = n_t / raw
    return DensityField(grid, peak * shape, "thermal"), peak


# Semiclassical variant: polylog g_{3/2} of the local Boltzmann factor.
# Series for small fugacity argument, Robinson expansion near saturation.
_ZETA_32 = 2.612375348685488
_ZETA_12 = -1.460354508809587
_ZETA_M12 = -0.207886224977355
_ZETA_M32 = -0.025485201889833


def polylog_32_exp(a: np.ndarray) -> np.ndarray:
    """g_{3/2}(exp(-a)) for a >= 0, elementwise; ~1e-6 absolute accuracy."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    near = a <= 0.25
    af = a[near]
    out[near] = (
        -2.0 * np.sqrt(math.pi * af)
        + _ZETA_32
        - _ZETA_12 * af
        + _ZETA_M12 * af * af / 2.0
        - _ZETA_M32 * af**3 / 6.0
    )
    x = np.exp(-a[~near])
    acc = np.zeros_like(x)
    xk = np.ones_like(x)
    for k in range(1, 91):
        xk = xk * x
        acc += xk / k**1.5
    out[~near] = acc
    return out


def thermal_bose_profile_semiclassical(
    params: ThermalCloudParams,
    grid: Grid2D,
    extra_potential: np.ndarray | None = None,
) -> tuple[DensityField, float]:
    """Saturated-Bose-gas thermal cloud, amplitude-calibrated.

    extra_potential adds mean-field shifts (J) on top of the trap; the shape
    is g_{3/2}(exp(-(V - min V)/kT)) evaluated once, not self-consistently.
    """
    n_t = params.n_thermal
    if n_t == 0.0:
        return DensityField(grid, np.zeros((grid.n_rho, grid.n_z)), "thermal"), 0.0
    v = trap_potential(params.species, grid)
    if extra_potential is not None:
        v = v + extra_potential
    a = (v - float(np.min(v))) / (K_B * params.t)
    shape = polylog_32_exp(a)
    raw = float(np.sum(shape * grid.weights))
    scale = n_t / raw
    return DensityField(grid, scale * shape, "thermal"), float(scale * np.max(shape))


@dataclass(frozen=True)
class PeakQuantities:
    """Closed-form peak values of the noninteracting reference profiles."""

    n_f_peak: float     # m^-3
    n_b_peak: float     # m^-3
    n_t_peak: float     # m^-3
    k_fermi: float      # m^-1
    e_fermi: float      # J
    temperature: float  # K
    t_crit: float       # K


def fra_peak_quantities(scenario: MixtureScenario) -> PeakQuantities:
    """Reference peaks entering the loss-rate denominators.

    These are grid-independent closed forms of the noninteracting profiles;
    the fixed-reservoir approximation treats the Fermi sea as this constant
    peak density across the bosonic clouds.
    """
    e_f = fermi_energy_trap(scenario.n_fermions, scenario.fermions)
    n_f = fermi_peak_density(e_f, scenario.fermions)
    mu = tf_chemical_potential(scenario.condensate_number, scenario.bosons)
    g = coupling_bb(scenario.bosons.a_intra, scenario.bosons.mass)
    n_b = mu / g if scenario.condensate_number > 0.0 else 0.0
    thermal = ThermalCloudParams(
        scenario.bosons, scenario.n_bosons, scenario.condensate_fraction
    )
    return PeakQuantities(
        n_f_peak=n_f,
        n_b_peak=n_b,
        n_t_peak=thermal.peak_density,
        k_fermi=fermi_wavenumber(n_f),
        e_fermi=e_f,
        temperature=thermal.t,
        t_crit=thermal.t_crit,
    )


def grid_for_scenario(
    scenario: MixtureScenario,
    n_rho: int = 128,
    n_z: int = 256,
    box_factor: float = 1.3,
) -> Grid2D:
    """Grid sized to box_factor times the largest TF radius.

    Warns when the radial spacing is coarser than a quarter healing length
    at the reference condensate peak.
    """
    e_f = fermi_energy_trap(scenario.n_fermions, scenario.fermions)
    rf_rho, rf_z = tf_radii(e_f, scenario.fermions)
    rb_rho = rb_z = 0.0
    if scenario.condensate_number > 0.0:
        mu = tf_chemical_potential(scenario.condensate_number, scenario.bosons)
        rb_rho, rb_z = tf_radii(mu, scenario.bosons)
    grid = grid_for_box(
        box_factor * max(rf_rho, rb_rho),
        box_factor * max(rf_z, rb_z),
        n_rho,
        n_z,
    )
    peaks_nb = fra_peak_quantities(scenario).n_b_peak
    if peaks_nb > 0.0:
        xi = healing_length(peaks_nb, scenario.bosons.a_intra)
        if grid.d_rho > 0.25 * xi:
            warnings.warn(
                f"radial spacing {grid.d_rho:.3e} m exceeds xi/4 = {0.25 * xi:.3e} m; "
                "interface structure will be under-resolved",
                ResolutionWarning,
                stacklevel=2,
            )
    return grid
