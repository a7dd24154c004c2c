"""Physical constants (CODATA 2018) and unit conversions.

Internal convention: SI everywhere inside the package. Experiment-facing
units (Bohr radii, Gauss, nK, Hz, cm^-3) are converted at the boundaries,
temperatures and frequencies with the helpers below.
"""

from __future__ import annotations

HBAR = 1.054571817e-34      # J s
K_B = 1.380649e-23          # J / K
A_BOHR = 5.29177210903e-11  # m
ATOMIC_MASS = 1.66053906660e-27  # kg

TWO_PI = 6.283185307179586

# Riemann zeta(3), for the ideal-gas condensation temperature.
ZETA_3 = 1.2020569031595943


def nk_to_joule(t_nk: float) -> float:
    return t_nk * 1.0e-9 * K_B


def joule_to_nk(e: float) -> float:
    return e / (1.0e-9 * K_B)


def hz_to_angular(nu: float) -> float:
    return TWO_PI * nu
