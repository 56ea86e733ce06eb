"""Partial information rate decomposition for networks of Gaussian
(vector autoregressive) random processes.

The information rate shared by a target process and a set of source
processes is split into unique, redundant and synergistic components, per
frequency, within configurable spectral bands, and in the time domain.
"""

from .baselines import (
    gaussian_mi,
    instantaneous_info,
    mir_decomposition,
    static_pid,
    submodel_innovation,
    te_pid,
    transfer_entropy,
)
from .decomposition import (
    CoarseTerms,
    DecompositionResult,
    decompose,
    write_atoms_csv,
    write_coarse_csv,
    write_profiles_csv,
)
from .errors import (
    ArgumentError,
    CapabilityError,
    EstimationError,
    FormatError,
    NumericalError,
    PirdError,
    SpectralSingularityError,
    UnstableModelError,
)
from .lattice import (
    Atom,
    RedundancyLattice,
    enumerate_antichains,
)
from .spectral import (
    Band,
    FrequencyGrid,
    SpectralMatrix,
    integrate_band,
    integrate_full,
    parse_bands,
    psd_from_var,
    spectral_mir,
    transfer_function,
)
from .var import (
    Scenario,
    TimeSeriesMatrix,
    VarModel,
    build_scenario,
    fit_ols,
    is_stable,
    poles_to_coeffs,
    random_stable_var,
    select_order_aic,
    simulate,
    simulate_ensemble,
    zero_lag_covariance,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Band",
    "CoarseTerms",
    "DecompositionResult",
    "FrequencyGrid",
    "RedundancyLattice",
    "Scenario",
    "SpectralMatrix",
    "TimeSeriesMatrix",
    "VarModel",
    "ArgumentError",
    "CapabilityError",
    "EstimationError",
    "FormatError",
    "NumericalError",
    "PirdError",
    "SpectralSingularityError",
    "UnstableModelError",
    "build_scenario",
    "decompose",
    "enumerate_antichains",
    "fit_ols",
    "gaussian_mi",
    "instantaneous_info",
    "integrate_band",
    "integrate_full",
    "is_stable",
    "mir_decomposition",
    "parse_bands",
    "poles_to_coeffs",
    "psd_from_var",
    "random_stable_var",
    "select_order_aic",
    "simulate",
    "simulate_ensemble",
    "spectral_mir",
    "static_pid",
    "submodel_innovation",
    "te_pid",
    "transfer_entropy",
    "transfer_function",
    "write_atoms_csv",
    "write_coarse_csv",
    "write_profiles_csv",
    "zero_lag_covariance",
]
