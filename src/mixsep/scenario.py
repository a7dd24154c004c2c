"""Scenario record: which mixture, how many atoms, at what interaction.

A MixtureScenario holds both species, the atom numbers, the condensate
fraction and the interspecies scattering length. The shipped mixture (2.9e4
potassium atoms at 50% condensate fraction inside 1.4e5 lithium atoms in a
291 x 41.6 Hz lithium trap) is the config's defaults: see
config.default_scenario. Potassium sees the same optical trap scaled by the
mass ratio and its relative polarizability, boson_frequency_scale below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import ATOMIC_MASS
from .errors import ValidationError
from .physics import SpeciesParams

MASS_K41 = 41.0 * ATOMIC_MASS
MASS_LI6 = 6.0 * ATOMIC_MASS

# Optical-trap frequency scale factor of K relative to Li at equal laser
# power: sqrt(m_Li/m_K) from the mass, times the relative polarizability.
POLARIZABILITY_FACTOR = 1.30


def boson_frequency_scale(mass_b: float = MASS_K41,
                          mass_f: float = MASS_LI6,
                          polarizability: float = POLARIZABILITY_FACTOR) -> float:
    return math.sqrt(mass_f / mass_b) * polarizability


@dataclass(frozen=True)
class MixtureScenario:
    bosons: SpeciesParams
    fermions: SpeciesParams
    n_bosons: float
    n_fermions: float
    condensate_fraction: float
    a_bf: float = 0.0            # m
    alpha: float = 1.5           # thermal/condensate loss-weight ratio
    thermal_model: str = "gaussian"

    def __post_init__(self):
        for name in ("n_bosons", "n_fermions", "alpha", "a_bf"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_bosons < 0.0 or self.n_fermions < 1.0:
            raise ValidationError("need n_bosons >= 0 and n_fermions >= 1")
        if not 0.0 <= self.condensate_fraction <= 1.0:
            raise ValidationError("condensate_fraction must be in [0, 1]")
        if self.alpha <= 0.0:
            raise ValidationError("alpha must be positive")
        if self.thermal_model not in ("gaussian", "semiclassical"):
            raise ValidationError(f"unknown thermal model {self.thermal_model!r}")

    @property
    def condensate_number(self) -> float:
        return self.condensate_fraction * self.n_bosons

    def with_a_bf(self, a_bf: float) -> "MixtureScenario":
        return replace(self, a_bf=a_bf)

