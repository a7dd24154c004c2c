"""Ground-state density profiles and loss observables of a trapped
repulsive Bose-Fermi mixture: imaginary-time mean-field solver, overlap
factors, three-body loss fitting, and Abel reconstruction."""

from .abel import (
    ColumnSlice,
    RadialProfile,
    center_and_symmetrize,
    forward_abel,
    inverse_abel,
)
from .config import RunConfig, default_config, load_config, parse_config, serialize_config
from .errors import InputError, MixsepError, NumericsError, OutputError
from .grid import DensityField, Grid2D
from .lossfit import DecaySeries, SmoothedCurve, fit_gamma, fit_l3, smooth_l3
from .overlap import (
    OverlapReport,
    omega,
    omega_eff,
    omega_eff_from_ground_state,
    omega_from_measurement,
    overlap_integral,
    predicted_loss_rate,
)
from .physics import (
    FeshbachResonance,
    SpeciesParams,
    critical_scattering_length,
    fermi_energy_from_density,
    fermi_wavenumber,
    healing_length,
    is_phase_separated,
)
from .pipeline import (
    RunManifest,
    emit_plot_data,
    load_ground_state,
    run_figure3_pipeline,
    run_overlap_sweep,
    save_ground_state,
    sweep_ground_states,
    verify_manifest,
)
from .profiles import (
    ThermalCloudParams,
    bec_tf_profile,
    fermi_tf_profile,
    fra_peak_quantities,
    grid_for_scenario,
    thermal_bose_profile,
)
from .scenario import MixtureScenario, default_resonance, default_scenario
from .solver import GroundState, SolverOptions, interface_thickness, minimize

try:
    from importlib.metadata import version as _version

    __version__ = _version("mixsep")
except Exception:
    __version__ = "0.1.0"

__all__ = [
    "ColumnSlice",
    "DecaySeries",
    "DensityField",
    "FeshbachResonance",
    "GroundState",
    "Grid2D",
    "InputError",
    "MixsepError",
    "MixtureScenario",
    "NumericsError",
    "OutputError",
    "OverlapReport",
    "RadialProfile",
    "RunConfig",
    "RunManifest",
    "SmoothedCurve",
    "SolverOptions",
    "SpeciesParams",
    "ThermalCloudParams",
    "bec_tf_profile",
    "center_and_symmetrize",
    "critical_scattering_length",
    "default_config",
    "default_resonance",
    "default_scenario",
    "emit_plot_data",
    "fermi_energy_from_density",
    "fermi_tf_profile",
    "fermi_wavenumber",
    "fit_gamma",
    "fit_l3",
    "forward_abel",
    "fra_peak_quantities",
    "grid_for_scenario",
    "healing_length",
    "interface_thickness",
    "inverse_abel",
    "is_phase_separated",
    "load_config",
    "load_ground_state",
    "minimize",
    "omega",
    "omega_eff",
    "omega_eff_from_ground_state",
    "omega_from_measurement",
    "overlap_integral",
    "parse_config",
    "predicted_loss_rate",
    "run_figure3_pipeline",
    "run_overlap_sweep",
    "save_ground_state",
    "serialize_config",
    "smooth_l3",
    "sweep_ground_states",
    "thermal_bose_profile",
    "verify_manifest",
]
