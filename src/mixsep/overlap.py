"""Overlap factors and predicted three-body loss rates.

The measured normalized loss rate gamma relates to the three-body
coefficient through overlap factors between the small bosonic clouds and
the wide Fermi sea:

    Omega     = I[n_f n_b^2] / I[ref_f ref_b^2]          (zero-T ratio)
    Omega     = 7 gamma / (2 n_f n_b L3)                 (measurement form)
    Ndot      = -L3 I[n_f (alpha/2 n_b^2 + alpha n_b n_t + n_t^2)]
    Omega_eff = gamma / (L3 n_f ((2/7) alpha n_b beta
                + alpha n_t beta + n_t (1-beta) / sqrt(8)))

Peak densities in the denominators are the closed-form noninteracting
reference values: that is the convention of the measurement analysis, and
model curves built here follow it. Consequently the fermion-thermal-thermal
channel in gamma_pred is evaluated in the fixed-reservoir approximation
(reservoir at its peak, Gaussian integral analytic) while the condensate
channels are true field quadratures; the field quadrature of the thermal
channel is still reported for inspection. In the fully separated limit the
condensate integrals vanish and Omega_eff lands exactly on the analytic
thermal-only fraction of the denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import A_BOHR
from .errors import NonPositiveInput, ZeroDenominator, ZeroReference
from .grid import DensityField, integrate_product, require_same_grid
from .profiles import (
    PeakQuantities,
    ThermalCloudParams,
    bec_tf_profile,
    fermi_tf_profile,
    fra_peak_quantities,
    thermal_bose_profile,
    thermal_bose_profile_semiclassical,
)
from .solver import GroundState

SQRT8 = math.sqrt(8.0)

# Thermal/condensate loss weighting: alpha = 2 for distinguishable thermal
# atoms reduced by the 1/2! exchange factor of the two identical condensed
# atoms; 3/2 once the measured intra-condensate correlation reduction is
# folded in. Scenario default is 3/2.

DEFAULT_L3 = 1.0e-37  # m^6/s (= 1e-25 cm^6/s), representative near the pole


def overlap_integral(n_f: DensityField, n_b: DensityField) -> float:
    """I = integral of n_f n_b^2 dV, in m^-6."""
    return integrate_product(n_f, n_b, powers=(1, 2))


def omega(n_f: DensityField, n_b: DensityField,
          ref_f: DensityField, ref_b: DensityField) -> float:
    """Zero-temperature overlap factor: interacting over noninteracting."""
    ref = overlap_integral(ref_f, ref_b)
    if ref <= 0.0:
        raise ZeroReference("reference overlap integral vanished")
    return overlap_integral(n_f, n_b) / ref


def eq6_denominator_rate(l3: float, n_f_peak: float, n_b_peak: float,
                         n_t_peak: float, beta: float, alpha: float) -> float:
    """gamma that Omega_eff normalizes against, s^-1."""
    return l3 * n_f_peak * (
        (2.0 / 7.0) * alpha * n_b_peak * beta
        + alpha * n_t_peak * beta
        + n_t_peak * (1.0 - beta) / SQRT8
    )


def omega_eff(gamma: float, l3: float, n_f_peak: float, n_b_peak: float,
              n_t_peak: float, beta: float, alpha: float) -> float:
    denom = eq6_denominator_rate(l3, n_f_peak, n_b_peak, n_t_peak, beta, alpha)
    if denom <= 0.0:
        raise ZeroDenominator("effective-overlap denominator is not positive")
    return gamma / denom


def omega_from_measurement(gamma: float, l3: float,
                           n_f_peak: float, n_b_peak: float) -> float:
    """Omega = 7 gamma / (2 n_f n_b L3), the pure-BEC analysis form.

    Shares the denominator code path with omega_eff, so omega_eff at
    beta = 1, alpha = 1, n_t = 0 reduces to this bit for bit.
    """
    return omega_eff(gamma, l3, n_f_peak, n_b_peak, 0.0, 1.0, 1.0)


def predicted_loss_rate(n_f: DensityField, n_b: DensityField,
                        n_t: DensityField, l3: float, alpha: float) -> float:
    """Normalized loss rate gamma = -Ndot/N from field quadratures, s^-1."""
    require_same_grid(n_f, n_b, n_t)
    if l3 < 0.0 or alpha <= 0.0:
        raise NonPositiveInput("need l3 >= 0 and alpha > 0")
    i_bb = integrate_product(n_f, n_b, powers=(1, 2))
    i_bt = integrate_product(n_f, n_b, n_t)
    i_tt = integrate_product(n_f, n_t, powers=(1, 2))
    n_total = n_b.integrate() + n_t.integrate()
    if n_total <= 0.0:
        raise ZeroDenominator("no bosons: loss rate undefined")
    n_dot = -l3 * (0.5 * alpha * i_bb + alpha * i_bt + i_tt)
    return -n_dot / n_total


@dataclass(frozen=True)
class OverlapReport:
    a_bf: float
    alpha: float
    beta: float
    i_bb: float          # integral n_f n_b^2, fields (m^-6)
    i_bt: float          # integral n_f n_b n_t, fields (m^-6)
    i_tt_fields: float   # integral n_f n_t^2, fields (m^-6)
    i_tt_fra: float      # reservoir-peak convention value (m^-6)
    omega: float
    omega_eff: float
    gamma_pred: float    # s^-1
    l3: float            # m^6/s
    n_f_peak: float
    n_b_peak: float
    n_t_peak: float
    thermal_model: str

    def as_dict(self) -> dict:
        return {
            "a_bf[a0]": self.a_bf / A_BOHR,
            "alpha": self.alpha,
            "beta": self.beta,
            "I_bb[m^-6]": self.i_bb,
            "I_bt[m^-6]": self.i_bt,
            "I_tt_fields[m^-6]": self.i_tt_fields,
            "I_tt_fra[m^-6]": self.i_tt_fra,
            "Omega": self.omega,
            "Omega_eff": self.omega_eff,
            "gamma_pred[1/s]": self.gamma_pred,
            "L3[cm^6/s]": self.l3 * 1.0e12,
            "n_f_peak[cm^-3]": self.n_f_peak * 1.0e-6,
            "n_b_peak[cm^-3]": self.n_b_peak * 1.0e-6,
            "n_t_peak[cm^-3]": self.n_t_peak * 1.0e-6,
            "thermal_model": self.thermal_model,
        }


def reference_fields(gs: GroundState) -> tuple[DensityField, DensityField]:
    """Noninteracting TF fields of the same scenario on the same grid."""
    sc = gs.scenario
    ref_b, _ = bec_tf_profile(sc.bosons, sc.condensate_number, gs.grid)
    ref_f, _ = fermi_tf_profile(sc.fermions, sc.n_fermions, gs.grid)
    return ref_f, ref_b


def thermal_field_for(gs: GroundState) -> DensityField:
    """Thermal cloud on the ground-state grid per the scenario's model."""
    sc = gs.scenario
    params = ThermalCloudParams(sc.bosons, sc.n_bosons, sc.condensate_fraction)
    if sc.thermal_model == "semiclassical":
        from .physics import coupling_bb, coupling_bf

        extra = (
            2.0 * coupling_bb(sc.bosons.a_intra, sc.bosons.mass) * gs.n_b.values
            + coupling_bf(sc.a_bf, sc.bosons.mass, sc.fermions.mass) * gs.n_f.values
        )
        field, _ = thermal_bose_profile_semiclassical(params, gs.grid, extra)
    else:
        field, _ = thermal_bose_profile(params, gs.grid)
    return field


def omega_eff_from_ground_state(
    gs: GroundState,
    l3: float = DEFAULT_L3,
    alpha: float | None = None,
    thermal: DensityField | None = None,
    reference: tuple[DensityField, DensityField] | None = None,
    peaks: PeakQuantities | None = None,
) -> OverlapReport:
    """Full overlap report for one converged ground state."""
    sc = gs.scenario
    if alpha is None:
        alpha = sc.alpha
    if thermal is None:
        thermal = thermal_field_for(gs)
    if reference is None:
        reference = reference_fields(gs)
    if peaks is None:
        peaks = fra_peak_quantities(sc)
    ref_f, ref_b = reference
    beta = sc.condensate_fraction

    i_bb = integrate_product(gs.n_f, gs.n_b, powers=(1, 2))
    i_bt = integrate_product(gs.n_f, gs.n_b, thermal)
    i_tt_fields = integrate_product(gs.n_f, thermal, powers=(1, 2))
    cloud = ThermalCloudParams(sc.bosons, sc.n_bosons, beta)
    i_tt_fra = peaks.n_f_peak * cloud.second_moment_integral()

    n_total = sc.n_bosons
    gamma_pred = l3 * (0.5 * alpha * i_bb + alpha * i_bt + i_tt_fra) / n_total
    return OverlapReport(
        a_bf=sc.a_bf,
        alpha=alpha,
        beta=beta,
        i_bb=i_bb,
        i_bt=i_bt,
        i_tt_fields=i_tt_fields,
        i_tt_fra=i_tt_fra,
        omega=omega(gs.n_f, gs.n_b, ref_f, ref_b) if sc.condensate_number > 0 else 0.0,
        omega_eff=omega_eff(
            gamma_pred, l3, peaks.n_f_peak, peaks.n_b_peak, peaks.n_t_peak, beta, alpha
        ),
        gamma_pred=gamma_pred,
        l3=l3,
        n_f_peak=peaks.n_f_peak,
        n_b_peak=peaks.n_b_peak,
        n_t_peak=peaks.n_t_peak,
        thermal_model=sc.thermal_model,
    )
