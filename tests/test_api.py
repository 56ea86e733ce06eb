import dataclasses
from functools import cached_property

import numpy as np
import pytest

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


#: The public fields of a :class:`pird.DecompositionResult`: its span axis
#: is three arrays, full axis first, named by ``span_labels``.
RESULT_FIELDS = [
    "atom_pi_spans",
    "atom_redundancy_spans",
    "bands",
    "coarse",
    "grid",
    "joint_profile",
    "lattice",
    "marginal_profiles",
    "mir_spans",
    "names",
    "sources",
    "target",
]

#: Its public properties, each read from the fields.
RESULT_PROPERTIES = [
    "atom_pi",
    "atom_pi_time",
    "atom_redundancy",
    "joint_mir",
    "source_names",
    "span_labels",
]


def test_result_attributes_are_the_listed_names():
    fields = [f.name for f in dataclasses.fields(pird.DecompositionResult)]
    assert sorted(name for name in fields if not name.startswith("_")) == RESULT_FIELDS
    properties = [
        name for name, value in vars(pird.DecompositionResult).items()
        if isinstance(value, (property, cached_property)) and not name.startswith("_")
    ]
    assert sorted(properties) == RESULT_PROPERTIES


# ---------------------------------------------------------------------------
# One channel rule for every entry that takes channels

_SIM3 = pird.build_scenario(pird.Scenario("sim3"))  # channels 0..3
_PSD = pird.psd_from_var(_SIM3, pird.FrequencyGrid(n_points=65))

#: Each public entry taking channels, called as ``entry(target, sources)``;
#: ``submodel_innovation`` has no target and takes the sources alone.
CHANNEL_ENTRIES = {
    "decompose": lambda t, s: pird.decompose(_PSD, t, s),
    "spectral_mir": lambda t, s: pird.spectral_mir(_PSD, t, s),
    "gaussian_mi": lambda t, s: pird.gaussian_mi(pird.zero_lag_covariance(_SIM3), t, s),
    "static_pid": lambda t, s: pird.static_pid(_SIM3, t, s),
    "te_pid": lambda t, s: pird.te_pid(_SIM3, t, s),
    "transfer_entropy": lambda t, s: pird.transfer_entropy(_SIM3, s, t),
    "instantaneous_info": lambda t, s: pird.instantaneous_info(_SIM3, s, t),
    "mir_decomposition": lambda t, s: pird.mir_decomposition(_SIM3, t, s),
    "submodel_innovation": lambda t, s: pird.submodel_innovation(_SIM3, s),
}

#: Bad (target, sources) choices; the ones after the first five name a bad target.
BAD_CHANNELS = {
    "float source": (0, [1.7, 2]),
    "out-of-range source": (0, [1, 4]),
    "negative source": (0, [-1, 2]),
    "empty sources": (0, []),
    "string sources": (0, "12"),
    "float target": (0.5, [1, 2]),
    "out-of-range target": (4, [1, 2]),
    "target is a source": (1, [1, 2]),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry in CHANNEL_ENTRIES
        for k, case in enumerate(BAD_CHANNELS)
        if entry != "submodel_innovation" or k < 5
    ],
)
def test_every_channel_entry_rejects_a_bad_channel_choice(entry, case):
    with pytest.raises(pird.ArgumentError):
        CHANNEL_ENTRIES[entry](*BAD_CHANNELS[case])


@pytest.mark.parametrize(
    "target, message",
    [
        (0.5, "target channel must be an integer index, got 0.5"),
        ("0", "target channel must be an integer index, got '0'"),
        (4, "target channel 4 out of range 0..3"),
        (-1, "target channel -1 out of range 0..3"),
    ],
)
def test_a_bad_target_is_named_as_one_channel(target, message):
    # transfer_entropy takes a set of targets and keeps the set's wording
    one_target = [e for e in CHANNEL_ENTRIES if e not in ("transfer_entropy", "submodel_innovation")]
    for entry in one_target:
        with pytest.raises(pird.ArgumentError) as err:
            CHANNEL_ENTRIES[entry](target, [1, 2])
        assert str(err.value) == message, entry


def test_every_channel_entry_takes_numpy_integers():
    target, sources = np.int64(0), np.array([1, 2])
    for entry, call in CHANNEL_ENTRIES.items():
        assert call(target, sources) is not None, entry
    same = pird.decompose(_PSD, 0, [2, 1, 2]).joint_mir
    assert pird.decompose(_PSD, target, sources).joint_mir == same


@pytest.mark.parametrize(
    "bands, message",
    [
        ("B1:0.1-0.2", "got 'B'; pird.parse_bands reads a band string"),
        ([pird.Band(0.1, 0.2, "x"), (0.1, 0.2, "x")], "got \\(0.1, 0.2, 'x'\\)$"),
    ],
    ids=["band string", "tuple"],
)
def test_decompose_takes_bands_as_band_objects(bands, message):
    with pytest.raises(pird.ArgumentError, match=message):
        pird.decompose(_PSD, 0, bands=bands)


def test_decompose_of_a_one_channel_spectrum_needs_a_source():
    model = pird.VarModel(coeffs=[[[0.5]]], sigma=[[1.0]])
    psd = pird.psd_from_var(model, pird.FrequencyGrid(n_points=65))
    with pytest.raises(pird.ArgumentError, match="at least one source channel"):
        pird.decompose(psd, 0)
