import pird

#: The public API. A name joins or leaves it on purpose, with this list.
PUBLIC = [
    "ArgumentError",
    "Atom",
    "Band",
    "CapabilityError",
    "CoarseTerms",
    "DecompositionResult",
    "EstimationError",
    "FormatError",
    "FrequencyGrid",
    "NumericalError",
    "PirdError",
    "RedundancyLattice",
    "Scenario",
    "SpectralMatrix",
    "SpectralProfile",
    "SpectralSingularityError",
    "TimeSeriesMatrix",
    "UnstableModelError",
    "VarModel",
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


def test_public_api_is_the_listed_names():
    assert sorted(pird.__all__) == PUBLIC
    assert len(set(pird.__all__)) == len(pird.__all__)
    for name in PUBLIC:
        assert getattr(pird, name) is not None, name
