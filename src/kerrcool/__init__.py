"""Kerr-cavity enhanced dynamical backaction cooling toolkit."""

from .params import (
    TAU,
    BranchPolicy,
    OperatingPoint,
    SystemParams,
    bose_occupation,
    bath_temperature,
    default_params,
    params_from_config,
    serialize_config,
    CRITICAL_POWER_FRACTION,
)
from .steady import (
    BifurcationData,
    Branch,
    SteadyState,
    bifurcation,
    critical_power,
    effective_kerr,
    mechanical_kerr,
    photon_branches,
    solve_steady,
    steady_at,
)
from .cavity import (
    PoleRegion,
    PoleStructure,
    RateReport,
    Spectrum,
    cavity_poles,
    driven_susceptibility,
    effective_skewness,
    exceptional_points,
    photon_spectrum,
    scattering_rates,
    skewness,
)
from .cooling import (
    CoolingReport,
    SelfEnergy,
    backaction_limit,
    cavity_self_energy,
    ground_state_feasible,
    integrate_mech_spectrum,
    mech_noise_spectrum,
    mechanical_poles,
    min_backaction,
    occupation,
    rate_occupation,
)
from .squeezing import (
    SqueezeSpec,
    correlators_from_chi,
    matched_squeeze,
    occupation_with_squeezing,
    optimal_phase,
    squeezed_backaction,
    squeezed_force_spectrum,
    squeezed_rates,
)
from .oracle import DynamicalMatrix, build_matrix, input_correlators, numeric_occupation, numeric_spectrum

__all__ = [name for name in dir() if not name.startswith("_")]
