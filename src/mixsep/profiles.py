"""Noninteracting reference profiles of the trapped mixture.

Three building blocks: the Thomas-Fermi Fermi sea n_f ~ (E_F - V)^(3/2),
the Thomas-Fermi condensate n_b = (mu - V)/g_bb, and the thermal bosonic
cloud (Gaussian by default, semiclassical polylog as an option). Builders
return fields whose grid quadrature hits the target atom number to 1e-14
relative; the TF builders get there by Newton's method on the z > 0 half of
the grid, so discretization never leaks into atom numbers. The closed forms
remain plain functions and are what enters the loss-formula denominators.
The thermal cloud's temperature follows from the condensate fraction, and
ThermalCloudParams.n_thermal is the package's one count of thermal atoms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, K_B, TWO_PI, ZETA_3
from .errors import GridTooSmall, NonPositiveInput, ResolutionWarning, ValidationError
from .grid import DensityField, Grid2D, grid_for_box, unfold
from .physics import SpeciesParams, coupling_bb, fermi_wavenumber, healing_length
from .scenario import MixtureScenario

# Fermi TF density prefactor: n = C_F * (2 m (E_F - V) / hbar^2)^(3/2)
_SIX_PI2 = 6.0 * math.pi**2


def _harmonic(species: SpeciesParams, rho: np.ndarray, z: np.ndarray) -> np.ndarray:
    return 0.5 * species.mass * ((species.omega_rho * rho) ** 2 + (species.omega_z * z) ** 2)


def trap_potential(species: SpeciesParams, grid: Grid2D) -> np.ndarray:
    """Harmonic trap energy (J) at every cell center."""
    return _harmonic(species, *grid.mesh())


def half_trap_potential(species: SpeciesParams, grid: Grid2D) -> np.ndarray:
    """trap_potential's n_z/2 columns with z > 0, in Fortran order, to the same bits.

    It is the transpose of the C-order (z, rho) array the same formula
    gives, so no full-grid potential is built and nothing is copied.
    """
    return _harmonic(species, grid.rho[None, :], grid.z[grid.n_z // 2:, None]).T


def fermi_energy_trap(n_fermions: float, species: SpeciesParams) -> float:
    """Trapped-gas Fermi energy E_F = hbar wbar (6 N)^(1/3), in J."""
    if not 1.0 <= n_fermions < math.inf:
        raise NonPositiveInput(f"need a finite number of at least one fermion, got {n_fermions}")
    return HBAR * species.omega_bar * (6.0 * n_fermions) ** (1.0 / 3.0)


def fermi_peak_density(e_fermi: float, species: SpeciesParams) -> float:
    return (2.0 * species.mass * e_fermi / HBAR**2) ** 1.5 / _SIX_PI2


def tf_chemical_potential(n_condensed: float, species: SpeciesParams) -> float:
    """Condensate TF chemical potential, in J."""
    if not 0.0 <= n_condensed < math.inf:
        raise NonPositiveInput(f"need a finite, non-negative condensate number, got {n_condensed}")
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
    T = T_c (1 - beta)^(1/3); a fully thermal cloud (beta = 0) sits at T_c.
    """

    species: SpeciesParams
    n_total: float
    condensate_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.condensate_fraction <= 1.0:
            raise ValidationError("condensate_fraction must be in [0, 1]")

    @property
    def t_crit(self) -> float:
        return condensation_temperature(self.n_total, self.species)

    @property
    def t(self) -> float:
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


def _calibrate_half(number, target: float, e: float, species: SpeciesParams, grid: Grid2D):
    """(e, v): the energy at which number(e, v, w)[0] is target, and the trap potential v.

    Both on the z > 0 half of grid; v has trap_potential's bits, in a fresh
    array. number gives the cells' atom number at e and its slope, a sum of
    w (e - v)_+^p with p >= 1: convex and increasing, so Newton from the
    closed-form e falls on the root from above after its first step. Only
    that step can leave the cells below 1.6 e, selected once; it, or a start
    where no cell holds atoms, raises GridTooSmall. Convergence is quadratic:
    a step of at most 1e-14 e leaves e at the root to rounding, and ends it.
    """
    v = _harmonic(species, grid.rho[:, None], grid.z[None, grid.n_z // 2:])
    top = 1.6 * e
    inside = v < top
    vi, w = v[inside], grid.weights[:, grid.n_z // 2:][inside]
    while True:
        n, slope = number(e, vi, w)
        if slope == 0.0:
            raise GridTooSmall(f"no cell center lies inside the cloud at {e:.3e} J")
        step = (n - target) / slope
        e -= step
        if e > top:
            raise GridTooSmall(f"calibration left the cells below {top:.3e} J")
        if abs(step) <= 1e-14 * e:
            return float(e), v


def _fermi_number(e: float, v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Atom number of the TF Fermi sea at E_F = e and its slope, over the density prefactor."""
    d = np.maximum(e - v, 0.0)
    root = np.sqrt(d)
    return np.einsum("i,i->", w, d * root), 1.5 * np.einsum("i,i->", w, root)


def _bec_number(mu: float, v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Atom number of the TF condensate at chemical potential mu and its slope, times g."""
    return np.einsum("i,i->", w, np.maximum(mu - v, 0.0)), np.einsum("i,i->", w, v < mu)


def fermi_tf_profile(
    species: SpeciesParams, n_fermions: float, grid: Grid2D
) -> tuple[DensityField, float]:
    """Thomas-Fermi Fermi sea on the grid.

    Returns (field, E_F); the field is built on the z > 0 half (_calibrate_half)
    and mirrored, symmetric in z to the bit. E_F differs from fermi_energy_trap
    by the quadrature correction, O(spacing^2).
    """
    e0 = fermi_energy_trap(n_fermions, species)
    _check_box(grid, *tf_radii(e0, species), label="fermion")
    pref = (2.0 * species.mass / HBAR**2) ** 1.5 / _SIX_PI2
    e_cal, v = _calibrate_half(_fermi_number, 0.5 * n_fermions / pref, e0, species, grid)
    d = np.maximum(e_cal - v, 0.0, out=v)
    return DensityField(grid, unfold(pref * (d * np.sqrt(d))), "fermions"), e_cal


def bec_tf_profile(
    species: SpeciesParams, n_condensed: float, grid: Grid2D
) -> tuple[DensityField, float]:
    """Thomas-Fermi condensate on the grid; returns (field, mu), mu calibrated.

    Built as fermi_tf_profile is. A zero atom number is a legitimate limit
    and returns the zero field.
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
    g = coupling_bb(species.a_intra, species.mass)
    mu_cal, v = _calibrate_half(_bec_number, 0.5 * n_condensed * g, mu0, species, grid)
    return DensityField(grid, unfold(np.maximum(mu_cal - v, 0.0, out=v) / g), "bosons"), mu_cal


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
