"""Scattering, Fermi-gas, and stability relations for the K-Li mixture.

Covers the magnetic-field map a_bf(B) of the interspecies Feshbach
resonance, the Fermi wavenumber of the trapped sea, mean-field coupling
constants, the condensate healing length, and the phase-separation
threshold a_bf > 1.15 * sqrt(a_bb / k_F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import HBAR, TWO_PI
from .errors import NonPositiveInput, PoleAtResonance


@dataclass(frozen=True)
class SpeciesParams:
    """One trapped species.

    mass is in kg; trap frequencies are angular (rad/s). a_intra is the
    intraspecies scattering length in meters (0.0 for a polarized Fermi gas,
    where s-wave contact interactions are frozen out).
    """

    name: str
    mass: float
    omega_rho: float
    omega_z: float
    a_intra: float = 0.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise NonPositiveInput(f"mass must be positive, got {self.mass}")
        if self.omega_rho <= 0.0 or self.omega_z <= 0.0:
            raise NonPositiveInput("trap frequencies must be positive")
        if not 0.0 < self.omega_bar < math.inf:
            raise NonPositiveInput(
                f"{self.name} trap frequencies {self.omega_rho:.4g} and {self.omega_z:.4g} "
                "rad/s have no positive finite mean"
            )
        if self.a_intra > 0.0 and coupling_bb(self.a_intra, self.mass) <= 0.0:
            raise NonPositiveInput(
                f"{self.name} scattering length {self.a_intra:.4g} m gives no positive coupling"
            )

    @property
    def omega_bar(self) -> float:
        """Geometric-mean angular trap frequency."""
        return (self.omega_rho * self.omega_rho * self.omega_z) ** (1.0 / 3.0)


# Guard half-width (G) around a resonance's b0 inside which the dispersive
# formula is meaningless.
POLE_EPS = 1.0e-6


@dataclass(frozen=True)
class FeshbachResonance:
    """Interspecies resonance: a(B) = a_bg * (1 - delta / (B - b0)).

    b0 and delta in Gauss, a_bg in meters; the shipped one is the config's.
    """

    b0: float
    delta: float
    a_bg: float

    def __post_init__(self):
        if self.delta == 0.0:
            raise NonPositiveInput("resonance width delta must be nonzero")


def scattering_length(res: FeshbachResonance, b_field: float) -> float:
    """Interspecies a_bf at magnetic field b_field (Gauss), in meters."""
    detuning = b_field - res.b0
    if abs(detuning) < POLE_EPS:
        raise PoleAtResonance(
            f"B = {b_field} G is within {POLE_EPS} G of the pole at {res.b0} G"
        )
    return res.a_bg * (1.0 - res.delta / detuning)


def fermi_wavenumber(n_f: float) -> float:
    """Peak Fermi wavenumber k_F = (6 pi^2 n_f)^(1/3) for density n_f (m^-3)."""
    if n_f <= 0.0:
        raise NonPositiveInput(f"fermion density must be positive, got {n_f}")
    return (6.0 * math.pi**2 * n_f) ** (1.0 / 3.0)


def coupling_bb(a_bb: float, mass_b: float) -> float:
    """Intraspecies boson coupling g_bb = 4 pi hbar^2 a_bb / m_b (J m^3)."""
    return 2.0 * TWO_PI * HBAR * HBAR * a_bb / mass_b


def coupling_bf(a_bf: float, mass_b: float, mass_f: float) -> float:
    """Interspecies coupling g_bf = 2 pi hbar^2 a_bf / m_r (J m^3)."""
    m_red = mass_b * mass_f / (mass_b + mass_f)
    return TWO_PI * HBAR * HBAR * a_bf / m_red


def healing_length(n_b: float, a_bb: float) -> float:
    """Condensate healing length xi = (8 pi n_b a_bb)^(-1/2), in meters."""
    if n_b <= 0.0 or a_bb <= 0.0:
        raise NonPositiveInput("healing length needs positive density and a_bb")
    return 1.0 / math.sqrt(4.0 * TWO_PI * n_b * a_bb)


def critical_scattering_length(a_bb: float, n_f: float) -> float:
    """Phase-separation threshold a_bf = 1.15 sqrt(a_bb / k_F), in meters.

    Above this value the repulsion overcomes the quantum pressures and the
    condensate expels the Fermi sea.
    """
    if a_bb <= 0.0:
        raise NonPositiveInput(f"a_bb must be positive, got {a_bb}")
    k_f = fermi_wavenumber(n_f)
    return 1.15 * math.sqrt(a_bb / k_f)


def is_phase_separated(a_bf: float, a_bb: float, n_f: float) -> bool:
    return a_bf > critical_scattering_length(a_bb, n_f)
