"""Overlap factors and the predicted three-body loss rate of a ground state.

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

omega_eff_from_ground_state is the one place gamma_pred = -Ndot / N_b is
formed. It takes each integral once, I[n_f n_b^2] included, and Omega is
that integral over the reference one, as omega() computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import A_BOHR
from .errors import NonPositiveInput, ZeroDenominator, ZeroReference
from .grid import DensityField, Grid2D, integrate_product
from .physics import coupling_bb, coupling_bf
from .profiles import (
    PeakQuantities,
    ThermalCloudParams,
    bec_tf_profile,
    fermi_tf_profile,
    fra_peak_quantities,
    thermal_bose_profile,
    thermal_bose_profile_semiclassical,
)
from .scenario import MixtureScenario
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
    return _over_reference(overlap_integral(n_f, n_b), ref_f, ref_b)


def _over_reference(i_bb: float, ref_f: DensityField, ref_b: DensityField) -> float:
    """i_bb over the reference overlap integral I[ref_f ref_b^2]."""
    ref = overlap_integral(ref_f, ref_b)
    if ref <= 0.0:
        raise ZeroReference("reference overlap integral vanished")
    return i_bb / ref


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


def reference_fields(scenario: MixtureScenario,
                     grid: Grid2D) -> tuple[DensityField, DensityField]:
    """Noninteracting TF fields (ref_f, ref_b) of the scenario on the grid."""
    ref_b, _ = bec_tf_profile(scenario.bosons, scenario.condensate_number, grid)
    ref_f, _ = fermi_tf_profile(scenario.fermions, scenario.n_fermions, grid)
    return ref_f, ref_b


def thermal_field_for(gs: GroundState, cloud: ThermalCloudParams) -> DensityField:
    """Thermal cloud on the ground-state grid per the scenario's model.

    cloud is the scenario's thermal component, ThermalCloudParams(bosons,
    n_bosons, condensate_fraction).
    """
    sc = gs.scenario
    if sc.thermal_model == "semiclassical":
        extra = (
            2.0 * coupling_bb(sc.bosons.a_intra, sc.bosons.mass) * gs.n_b.values
            + coupling_bf(sc.a_bf, sc.bosons.mass, sc.fermions.mass) * gs.n_f.values
        )
        field, _ = thermal_bose_profile_semiclassical(cloud, gs.grid, extra)
    else:
        field, _ = thermal_bose_profile(cloud, gs.grid)
    return field


def require_bosons(scenario: MixtureScenario) -> None:
    """Raise NonPositiveInput unless scenario has bosons, whose loss rate
    gamma = -Ndot / N_b the overlap report forms."""
    if scenario.n_bosons <= 0.0:
        raise NonPositiveInput(
            f"n_bosons must be positive for a loss rate, got {scenario.n_bosons!r}"
        )


def omega_eff_from_ground_state(
    gs: GroundState,
    l3: float = DEFAULT_L3,
    alpha: float | None = None,
    reference: tuple[DensityField, DensityField] | None = None,
    peaks: PeakQuantities | None = None,
) -> OverlapReport:
    """Full overlap report for one converged ground state.

    Raises NonPositiveInput for a mixture with no bosons (require_bosons),
    for an l3 or alpha outside (0, inf), and for a predicted loss rate that
    overflows.
    """
    sc = gs.scenario
    require_bosons(sc)
    if alpha is None:
        alpha = sc.alpha
    for name, value in (("l3", l3), ("alpha", alpha)):
        if not 0.0 < value < math.inf:
            raise NonPositiveInput(f"{name} must be positive and finite, got {value!r}")
    beta = sc.condensate_fraction
    cloud = ThermalCloudParams(sc.bosons, sc.n_bosons, beta)
    thermal = thermal_field_for(gs, cloud)
    if reference is None:
        reference = reference_fields(sc, gs.grid)
    if peaks is None:
        peaks = fra_peak_quantities(sc)

    i_bb = overlap_integral(gs.n_f, gs.n_b)
    i_bt = integrate_product(gs.n_f, gs.n_b, thermal)
    i_tt_fields = integrate_product(gs.n_f, thermal, powers=(1, 2))
    i_tt_fra = peaks.n_f_peak * cloud.second_moment_integral()

    n_total = sc.n_bosons
    gamma_pred = l3 * (0.5 * alpha * i_bb + alpha * i_bt + i_tt_fra) / n_total
    if not math.isfinite(gamma_pred):
        raise NonPositiveInput(f"predicted loss rate {gamma_pred!r} is not finite "
                               f"(l3 = {l3!r}, alpha = {alpha!r})")
    return OverlapReport(
        a_bf=sc.a_bf,
        alpha=alpha,
        beta=beta,
        i_bb=i_bb,
        i_bt=i_bt,
        i_tt_fields=i_tt_fields,
        i_tt_fra=i_tt_fra,
        omega=_over_reference(i_bb, *reference) if sc.condensate_number > 0 else 0.0,
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
