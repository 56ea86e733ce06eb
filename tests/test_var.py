import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pird import (
    ArgumentError,
    EstimationError,
    FormatError,
    FrequencyGrid,
    Scenario,
    TimeSeriesMatrix,
    UnstableModelError,
    VarModel,
    build_scenario,
    fit_ols,
    is_stable,
    poles_to_coeffs,
    random_stable_var,
    select_order_aic,
    simulate,
    simulate_ensemble,
    SpectralMatrix,
    zero_lag_covariance,
)
from pird import var as var_module
from pird.var import STABILITY_EPS, ar_coeffs_from_poles

from conftest import make_model_set
from oracles import autocovariance_sequence, row_major_lagged_r


def scalar_ar(coeffs, var=1.0):
    p = len(coeffs)
    return VarModel(
        coeffs=np.array(coeffs, dtype=float).reshape(p, 1, 1),
        sigma=np.array([[var]]),
    )


# ---------------------------------------------------------------------------
# pole placement and scenarios


def test_poles_to_coeffs_benchmark_values():
    a1, a2 = poles_to_coeffs(0.8, 0.3)
    assert a1 == pytest.approx(2 * 0.8 * np.cos(2 * np.pi * 0.3), abs=1e-15)
    assert a1 == pytest.approx(-0.494, abs=5e-4)
    assert a2 == pytest.approx(-0.64, abs=1e-15)
    b1, b2 = poles_to_coeffs(0.9, 0.1)
    assert b1 == pytest.approx(1.456, abs=5e-4)
    assert b2 == pytest.approx(-0.81, abs=1e-15)


def test_poles_to_coeffs_edge_cases():
    assert poles_to_coeffs(0.0, 0.25) == (0.0, 0.0)
    with pytest.raises(UnstableModelError):
        poles_to_coeffs(1.0, 0.1)
    with pytest.raises(ArgumentError):
        poles_to_coeffs(0.5, 0.7, fs=1.0)  # beyond Nyquist


def test_ar_coeffs_from_poles_is_polynomial_product():
    pairs = [(0.5, 0.1), (0.75, 0.3)]
    got = ar_coeffs_from_poles(pairs)
    # oracle: multiply the two characteristic polynomials directly
    a1, a2 = poles_to_coeffs(*pairs[0])
    b1, b2 = poles_to_coeffs(*pairs[1])
    poly = np.polymul([1.0, -a1, -a2], [1.0, -b1, -b2])
    assert np.allclose(got, -poly[1:], atol=1e-15)
    single = ar_coeffs_from_poles([(0.8, 0.3)])
    assert np.allclose(single, poles_to_coeffs(0.8, 0.3), atol=1e-15)


def test_sim1_structure_at_zero_coupling():
    m = build_scenario(Scenario("sim1", {"c": 0.0}))
    assert m.order == 4 and m.dim == 3
    assert np.all(m.coeffs == 0.0)
    expected = np.eye(3) * 0.2 + 0.8
    assert np.allclose(m.sigma, expected, atol=1e-15)
    assert m.names == ("Y", "X1", "X2")


def test_sim1_structure_general_coupling():
    c = 0.6
    m = build_scenario(Scenario("sim1", {"c": c}))
    assert m.coeffs[0][0, 1] == pytest.approx(c)  # X1 -> Y at lag 1
    assert m.coeffs[1][0, 2] == pytest.approx(c)  # X2 -> Y at lag 2
    a1, a2 = poles_to_coeffs(c, 0.1)
    assert m.coeffs[0][1, 1] == pytest.approx(a1, abs=1e-15)
    assert m.coeffs[1][1, 1] == pytest.approx(a2, abs=1e-15)
    own = ar_coeffs_from_poles([(c, 0.1), (1.125 * c, 0.3)])
    assert np.allclose([m.coeffs[k][2, 2] for k in range(4)], own, atol=1e-15)
    off = m.sigma[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.8 - c, atol=1e-15)
    assert np.allclose(np.diag(m.sigma), 1.0, atol=0)
    assert is_stable(m)


def test_sim2_structure():
    m0 = build_scenario(Scenario("sim2", {"c": 0.0}))
    assert m0.coeffs[0][0, 1] == pytest.approx(0.8)  # X1 -> Y
    assert m0.coeffs[0][1, 0] == 0.0  # Y -> X1 absent
    assert m0.coeffs[0][0, 2] == pytest.approx(1.6)
    assert np.allclose(m0.sigma, np.eye(3))
    m8 = build_scenario(Scenario("sim2", {"c": 0.8}))
    assert m8.coeffs[0][0, 1] == pytest.approx(0.0)
    assert m8.coeffs[0][1, 0] == pytest.approx(0.8)
    assert m8.coeffs[0][2, 0] == pytest.approx(1.6)
    for c in np.linspace(0.0, 0.8, 9):
        assert is_stable(build_scenario(Scenario("sim2", {"c": float(c)})))


def test_sim3_structure():
    m = build_scenario(Scenario("sim3"))
    assert m.dim == 4 and m.order == 2
    assert m.coeffs[0][0, 1] == 1.0  # X1 -> Y
    assert m.coeffs[0][0, 3] == 1.0  # X3 -> Y
    assert m.coeffs[0][2, 1] == 1.0  # X1 -> X2
    assert np.allclose(m.sigma, np.eye(4))
    assert is_stable(m)


def test_scenario_validation():
    with pytest.raises(ArgumentError, match="outside"):
        build_scenario(Scenario("sim1", {"c": 0.9}))
    with pytest.raises(ArgumentError, match="requires parameter c"):
        build_scenario(Scenario("sim2"))
    with pytest.raises(ArgumentError, match="no parameters"):
        build_scenario(Scenario("sim3", {"c": 0.1}))
    with pytest.raises(ArgumentError, match="unknown scenario"):
        build_scenario(Scenario("sim4"))
    with pytest.raises(ArgumentError, match="unknown parameters"):
        build_scenario(Scenario("sim1", {"c": 0.1, "rho": 2.0}))


# ---------------------------------------------------------------------------
# model type and stability


def test_varmodel_validation():
    with pytest.raises(ArgumentError, match="symmetric"):
        VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ArgumentError, match="positive definite"):
        VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ArgumentError, match="shape"):
        VarModel(coeffs=np.zeros((1, 3, 3)), sigma=np.eye(2))
    with pytest.raises(ArgumentError, match="names"):
        VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.eye(2), names=("a",))


@pytest.mark.parametrize("fs", [float("nan"), float("inf"), -1.0])
def test_sampling_rate_must_be_positive_and_finite(fs):
    with pytest.raises(ArgumentError, match="fs must be positive and finite"):
        VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.eye(2), fs=fs)
    with pytest.raises(ArgumentError, match="fs must be positive and finite"):
        TimeSeriesMatrix(samples=np.zeros((4, 2)), fs=fs)
    with pytest.raises(ArgumentError, match="fs must be positive and finite"):
        FrequencyGrid(fs=fs)
    # model.json holds what json.dumps writes for a float, NaN and Infinity included
    doc = json.loads(VarModel(coeffs=np.zeros((1, 2, 2)), sigma=np.eye(2)).to_json())
    doc["fs"] = fs
    with pytest.raises(ArgumentError, match="fs must be positive and finite"):
        VarModel.from_json(json.dumps(doc))


#: Channel names that the unquoted CSV outputs cannot hold, or that
#: ``--sources`` cannot address, each with the rule it breaks.
BAD_NAMES = [
    pytest.param(("Y", "a,b", "X2"), "cannot hold", id="comma"),
    pytest.param(("Y", 'a"b', "X2"), "cannot hold", id="double-quote"),
    pytest.param(("Y", "a\rb", "X2"), "cannot hold", id="carriage-return"),
    pytest.param(("Y", "a\nb", "X2"), "cannot hold", id="newline"),
    pytest.param(("Y", "X", "X"), "distinct", id="duplicate"),
    pytest.param(("Y", "", "X2"), "non-empty", id="empty"),
    pytest.param(("Y", 1, "X2"), "strings", id="not-a-string"),
]


@pytest.mark.parametrize("names, match", BAD_NAMES)
def test_channel_names_the_csv_outputs_cannot_hold_are_rejected(names, match):
    with pytest.raises(ArgumentError, match=match):
        VarModel(coeffs=np.zeros((0, 3, 3)), sigma=np.eye(3), names=names)
    with pytest.raises(ArgumentError, match=match):
        TimeSeriesMatrix(samples=np.zeros((4, 3)), names=names)
    grid = FrequencyGrid(n_points=3)
    with pytest.raises(ArgumentError, match=match):
        SpectralMatrix(grid=grid, mats=np.broadcast_to(np.eye(3), (3, 3, 3)), names=names)
    doc = json.loads(VarModel(coeffs=np.zeros((1, 3, 3)), sigma=np.eye(3)).to_json())
    doc["names"] = list(names)
    with pytest.raises(ArgumentError, match=match):
        VarModel.from_json(json.dumps(doc))


@pytest.mark.parametrize("names, match", [p for p in BAD_NAMES if p.id != "not-a-string"])
def test_load_csv_rejects_channel_names_the_csv_outputs_cannot_hold(tmp_path, names, match):
    path = tmp_path / "series.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)  # quotes the names that need it
        writer.writerow(names)
        writer.writerow(["1.0", "2.0", "3.0"])
    with pytest.raises(ArgumentError, match=match):
        TimeSeriesMatrix.load_csv(path)


@pytest.mark.parametrize("scale", [1e-20, 1e20])
def test_varmodel_symmetry_check_is_relative(scale):
    with pytest.raises(ArgumentError, match="symmetric"):
        VarModel(coeffs=np.zeros((0, 2, 2)), sigma=scale * np.array([[1.0, 0.5], [0.2, 1.0]]))


#: Each count argument given a non-integer or a value below its bound.
BAD_COUNTS = {
    "fit_ols order 1.5": lambda ts, m: fit_ols(ts, 1.5),
    "fit_ols order '2'": lambda ts, m: fit_ols(ts, "2"),
    "fit_ols order -1": lambda ts, m: fit_ols(ts, -1),
    "select_order_aic p_max 2.5": lambda ts, m: select_order_aic(ts, 2.5),
    "select_order_aic p_max 0": lambda ts, m: select_order_aic(ts, 0),
    "simulate n 2.5": lambda ts, m: simulate(m, 2.5),
    "simulate n 0": lambda ts, m: simulate(m, 0),
    "simulate burn_in 1.5": lambda ts, m: simulate(m, 10, burn_in=1.5),
    "simulate burn_in -1": lambda ts, m: simulate(m, 10, burn_in=-1),
    "simulate_ensemble n_series 0": lambda ts, m: simulate_ensemble(m, 10, n_series=0),
    "simulate_ensemble n_series -1": lambda ts, m: simulate_ensemble(m, 10, n_series=-1),
    "simulate_ensemble n_series 1.5": lambda ts, m: simulate_ensemble(m, 10, n_series=1.5),
}


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_counts_must_be_integers_within_bounds(case):
    m = scalar_ar([0.5])
    ts = simulate(m, 200, burn_in=10, seed=1)
    with pytest.raises(ArgumentError, match="must be an integer|must be >="):
        BAD_COUNTS[case](ts, m)


def test_counts_accept_integer_types():
    m = scalar_ar([0.5])
    ts = simulate(m, np.int64(200), burn_in=np.int16(10), seed=1)
    assert np.array_equal(ts.samples, simulate(m, 200, burn_in=10, seed=1).samples)
    assert np.array_equal(fit_ols(ts, np.int64(2)).coeffs, fit_ols(ts, 2).coeffs)
    assert select_order_aic(ts, np.int32(3)) == select_order_aic(ts, 3)
    assert simulate_ensemble(m, 10, n_series=np.int64(2)).shape == (2, 10, 1)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_varmodel_accepts_symmetric_sigma_at_extreme_scales(scale):
    sigma = scale * np.array([[1.0, 0.5], [0.5, 1.0]])
    m = VarModel(coeffs=np.zeros((0, 2, 2)), sigma=sigma)
    assert np.array_equal(m.sigma, sigma)


@pytest.mark.parametrize("field", ["coeffs", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_varmodel_rejects_non_finite_entries(field, bad):
    # Rejected before any arithmetic on them: no eigvals or Cholesky
    # error and no RuntimeWarning escapes.
    parts = {"coeffs": np.full((1, 2, 2), 0.1), "sigma": np.eye(2)}
    parts[field][..., 1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match=f"{field} must be finite"):
            VarModel(**parts)
        doc = json.loads(VarModel(coeffs=np.full((1, 2, 2), 0.1), sigma=np.eye(2)).to_json())
        doc[field] = parts[field].tolist()
        with pytest.raises(ArgumentError, match=f"{field} must be finite"):
            VarModel.from_json(json.dumps(doc))


def test_is_stable():
    assert is_stable(VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.eye(2)))
    # the one threshold: radius below 1 - STABILITY_EPS
    assert is_stable(scalar_ar([1.0 - 2.0 * STABILITY_EPS]))
    assert not is_stable(scalar_ar([1.0 - STABILITY_EPS / 2.0]))
    assert not is_stable(scalar_ar([1.0]))
    assert is_stable(build_scenario(Scenario("sim3")))


def test_spectral_radius_is_computed_once_per_model(monkeypatch):
    m = scalar_ar(list(poles_to_coeffs(0.8, 0.3)))
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
    assert m.spectral_radius == pytest.approx(0.8, abs=1e-12)
    assert is_stable(m) and m.spectral_radius == pytest.approx(0.8, abs=1e-12)
    zero_lag_covariance(m)
    assert len(calls) == 1
    # a model with other coefficients is another model: its own solve
    assert scalar_ar([0.5]).spectral_radius == pytest.approx(0.5, abs=1e-15)
    assert len(calls) == 2


def test_companion_matrix_eigenvalues_match_poles():
    m = scalar_ar(list(poles_to_coeffs(0.8, 0.3)))
    eig = np.linalg.eigvals(m.companion())
    assert np.allclose(sorted(np.abs(eig)), [0.8, 0.8], atol=1e-12)


def test_random_stable_var_hits_requested_radius():
    for seed in range(5):
        m = random_stable_var(3, 3, seed=seed, radius=0.7)
        assert m.spectral_radius == pytest.approx(0.7, abs=1e-8)
        assert np.allclose(np.diag(m.sigma), 1.0)
        assert is_stable(m)
    white = random_stable_var(4, 0, seed=1)
    assert white.order == 0


# ---------------------------------------------------------------------------
# simulation


def test_simulate_is_deterministic():
    m = build_scenario(Scenario("sim2", {"c": 0.3}))
    a = simulate(m, 500, burn_in=100, seed=42)
    b = simulate(m, 500, burn_in=100, seed=42)
    assert np.array_equal(a.samples, b.samples)
    c = simulate(m, 500, burn_in=100, seed=43)
    assert not np.array_equal(a.samples, c.samples)


def test_simulate_white_noise_covariance():
    m = VarModel(coeffs=np.zeros((0, 3, 3)), sigma=np.eye(3))
    n = 40_000
    ts = simulate(m, n, burn_in=10, seed=11)
    cov = np.cov(ts.samples.T)
    assert np.max(np.abs(cov - np.eye(3))) < 5.0 / np.sqrt(n)


def test_simulate_ar1_stationary_variance():
    m = scalar_ar([0.5])
    ts = simulate(m, 1_000_000, burn_in=1000, seed=3)
    target = 1.0 / (1.0 - 0.25)
    assert ts.samples.var() == pytest.approx(target, rel=0.01)


def test_simulate_correlated_innovations():
    sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
    m = VarModel(coeffs=np.zeros((0, 2, 2)), sigma=sigma)
    ts = simulate(m, 60_000, burn_in=10, seed=5)
    cov = np.cov(ts.samples.T)
    assert np.max(np.abs(cov - sigma)) < 0.025


def test_simulate_refuses_unstable():
    with pytest.raises(UnstableModelError):
        simulate(scalar_ar([1.01]), 100)


def test_simulate_ensemble_shapes_and_determinism():
    m = build_scenario(Scenario("sim3"))
    ens = simulate_ensemble(m, 256, burn_in=64, seed=9, n_series=3)
    assert ens.shape == (3, 256, 4)
    assert not np.array_equal(ens[0], ens[1])  # independent streams
    again = simulate_ensemble(m, 256, burn_in=64, seed=9, n_series=3)
    assert np.array_equal(ens, again)
    single = simulate(m, 256, burn_in=64, seed=9)
    assert np.array_equal(
        single.samples, simulate_ensemble(m, 256, burn_in=64, seed=9)[0]
    )


# ---------------------------------------------------------------------------
# identification


def test_fit_ols_recovers_sim3(sim3_model):
    ts = simulate(sim3_model, 100_000, burn_in=1000, seed=7)
    fit = fit_ols(ts, 2)
    assert np.max(np.abs(fit.coeffs - sim3_model.coeffs)) < 0.02
    assert np.max(np.abs(fit.sigma - sim3_model.sigma)) < 0.02


def test_fit_ols_order_zero_gives_sample_covariance():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((5000, 2))
    ts = TimeSeriesMatrix(samples=data, fs=1.0)
    fit = fit_ols(ts, 0)
    assert fit.order == 0
    centered = data - data.mean(axis=0)
    assert np.allclose(fit.sigma, centered.T @ centered / len(data), atol=1e-12)


def test_fit_ols_rejects_constant_column():
    rng = np.random.default_rng(1)
    data = np.column_stack([rng.standard_normal(1000), np.full(1000, 2.5)])
    with pytest.raises(EstimationError, match="condition number"):
        fit_ols(TimeSeriesMatrix(samples=data), 2)


def constant_series(column):
    """1000 normal samples of three channels, ``column`` 2.5 throughout."""
    data = np.random.default_rng(5).standard_normal((1000, 3))
    data[:, column] = 2.5
    return TimeSeriesMatrix(samples=data, names=("Y", "X1", "X2"))


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("order", [0, 1, "aic"])
def test_a_constant_channel_is_named_at_every_order(order, column):
    ts = constant_series(column)
    with pytest.raises(EstimationError, match=f"^channel '{ts.names[column]}' is constant"):
        select_order_aic(ts, 3) if order == "aic" else fit_ols(ts, order)


def test_order_zero_rejects_collinear_channels_of_any_units():
    # the sample covariance is singular: X2 = Y - 2 X1 exactly, up to rounding
    data = np.random.default_rng(6).standard_normal((1000, 3))
    data[:, 2] = data[:, 0] - 2.0 * data[:, 1]
    for units in ([1.0, 1.0, 1.0], [1e-6, 1.0, 1e6]):
        with pytest.raises(EstimationError, match="rank deficient"):
            fit_ols(TimeSeriesMatrix(samples=data * units), 0)


def test_too_few_samples_stay_an_argument_error_before_the_constant_check():
    ts = TimeSeriesMatrix(samples=[[1.0, 2.0]])
    with pytest.raises(ArgumentError, match="need more than"):
        fit_ols(ts, 0)
    with pytest.raises(ArgumentError, match="infeasible"):
        select_order_aic(ts, 1)


def test_rank_check_rejects_proportional_channels_of_any_units():
    # unit-norm columns make the two channels the same column
    x = np.random.default_rng(2).standard_normal(1000)
    ts = TimeSeriesMatrix(samples=np.column_stack([x, 1e6 * x]))
    with pytest.raises(EstimationError, match="rank deficient"):
        fit_ols(ts, 2)
    with pytest.raises(EstimationError, match="rank deficient"):
        select_order_aic(ts, 3)


def lagged_stack(z, p, t0):
    """``[z[t-1], ..., z[t-p] | z[t]]`` for ``t = t0 .. L-1``, formed."""
    n = len(z)
    return np.hstack([z[t0 - k : n - k] for k in range(1, p + 1)] + [z[t0:]])


def sign_fixed(r):
    """R with every row scaled to a nonnegative diagonal entry."""
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return r * d[:, None]


BLOCK = var_module._QR_BLOCK

LAGGED_R_SHAPES = [
    (100, 3, 2),  # below one block
    (BLOCK, 3, 2),  # exactly one block
    (BLOCK + 1, 3, 2),  # one block plus one row
    (BLOCK + 5, 3, 4),  # last block: 5 rows, 15 columns
    (BLOCK + 1, 1, 3),  # one channel
    (3 * BLOCK + 7, 4, 1),  # one lag, several blocks
]


def lagged_r_input(rows, q, p):
    rng = np.random.default_rng(rows + q + p)
    t0 = p + 2
    return rng.standard_normal((t0 + rows, q)), t0


@pytest.mark.parametrize("rows, q, p", LAGGED_R_SHAPES)
def test_lagged_r_equals_direct_qr(rows, q, p):
    z, t0 = lagged_r_input(rows, q, p)
    got = var_module._lagged_r(z, p, t0)
    want = np.linalg.qr(lagged_stack(z, p, t0), mode="r")
    assert got.shape == want.shape == ((p + 1) * q, (p + 1) * q)
    err = np.max(np.abs(sign_fixed(got) - sign_fixed(want)))
    assert err <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("rows, q, p", LAGGED_R_SHAPES + [(5 * BLOCK + 3, 4, 10)])
def test_lagged_r_equals_the_row_major_blocks_bit_for_bit(rows, q, p):
    # the column-major blocks hand LAPACK the same numbers
    z, t0 = lagged_r_input(rows, q, p)
    want = row_major_lagged_r(z, p, t0, BLOCK)
    assert np.array_equal(var_module._lagged_r(z, p, t0), want)


def scaled_series(q, p, exponents, seed):
    """A VAR(p) series of ``q`` channels, unscaled and with channel ``j``
    multiplied by ``10**exponents[j]``; the factors as the third item."""
    ts = simulate(random_stable_var(q, p, seed=seed, radius=0.95), 3000, seed=1)
    d = 10.0 ** np.asarray(exponents[:q], dtype=float)
    return ts, TimeSeriesMatrix(samples=ts.samples * d, fs=ts.fs, names=ts.names), d


SCALED_SERIES = dict(
    q=st.integers(2, 5),
    p=st.integers(1, 3),
    exponents=st.lists(st.integers(-6, 6), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=25, deadline=None)
@given(**SCALED_SERIES)
# channels 1e-6, 1 and 1e6: raw columns read condition number 3.8e12
@example(q=3, p=2, exponents=[-6, 0, 6, 0, 0], seed=4)
def test_fit_ols_is_equivariant_under_channel_scaling(q, p, exponents, seed):
    ts, scaled, d = scaled_series(q, p, exponents, seed)
    want, got = fit_ols(ts, p), fit_ols(scaled, p)
    # the scaled model is D A_k D^-1 with innovations D sigma D
    coeffs = got.coeffs / d[:, None] * d
    sigma = got.sigma / np.outer(d, d)
    assert np.max(np.abs(coeffs - want.coeffs)) <= 1e-12 * np.max(np.abs(want.coeffs))
    assert np.max(np.abs(sigma - want.sigma)) <= 1e-12 * np.max(np.abs(want.sigma))


@settings(max_examples=25, deadline=None)
@given(**SCALED_SERIES)
@example(q=3, p=2, exponents=[-6, 0, 6, 0, 0], seed=4)
def test_select_order_aic_is_invariant_under_channel_scaling(q, p, exponents, seed):
    # every AIC value moves by the same 2 sum(ln d), so its steps do not
    ts, scaled, _ = scaled_series(q, p, exponents, seed)
    order, curve = select_order_aic(ts, 5)
    scaled_order, scaled_curve = select_order_aic(scaled, 5)
    assert scaled_order == order
    assert np.max(np.abs(np.diff(scaled_curve) - np.diff(curve))) <= 1e-12


def explicit_ols_fit(ts, p):
    """Coefficients and residual covariance from one ``lstsq`` call, the
    reference for the fit from the triangular factor."""
    z = ts.samples - ts.samples.mean(axis=0)
    n, q = z.shape
    y = z[p:]
    x = lagged_stack(z, p, p)[:, : p * q]
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    coeffs = np.stack([beta[(k - 1) * q : k * q].T for k in range(1, p + 1)])
    return coeffs, resid.T @ resid / (n - p)


@pytest.mark.parametrize("radius", [0.7, 0.9999])
def test_fit_ols_matches_explicit_lstsq(radius):
    m = random_stable_var(3, 3, seed=5, radius=radius)
    ts = simulate(m, 6000, burn_in=2000, seed=6)
    fit = fit_ols(ts, 3)
    coeffs, sigma = explicit_ols_fit(ts, 3)
    assert np.max(np.abs(fit.coeffs - coeffs)) <= 1e-12
    assert np.max(np.abs(fit.sigma - sigma)) <= 1e-12 * np.max(np.abs(sigma))


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_fit_path_memory_does_not_grow_with_the_order():
    # the 100,000 x 44 lag matrix alone would take 35 MB; numpy reports
    # its buffers to tracemalloc
    ts = TimeSeriesMatrix(samples=np.random.default_rng(8).standard_normal((100_000, 4)))
    assert traced_peak_mb(select_order_aic, ts, 10) <= 16.0
    assert traced_peak_mb(fit_ols, ts, 10) <= 16.0


def test_fit_ols_needs_enough_rows():
    ts = TimeSeriesMatrix(samples=np.random.default_rng(2).standard_normal((8, 2)))
    with pytest.raises(ArgumentError, match="samples"):
        fit_ols(ts, 4)


def test_select_order_aic_finds_true_order():
    m = random_stable_var(3, 2, seed=21, radius=0.75)
    hits = 0
    for seed in range(5):
        ts = simulate(m, 20_000, burn_in=500, seed=seed)
        p_star, curve = select_order_aic(ts, 6)
        assert len(curve) == 6
        hits += p_star == 2
    assert hits >= 4


def test_select_order_aic_single_candidate():
    ts = simulate(scalar_ar([0.5]), 2000, burn_in=100, seed=1)
    p_star, curve = select_order_aic(ts, 1)
    assert p_star == 1 and len(curve) == 1


def explicit_ols_aic(ts, p_max):
    """AIC(p) for p = 1..p_max from one ``lstsq`` fit per order on the
    common sample, the reference for the nested-QR sweep."""
    z = ts.samples - ts.samples.mean(axis=0)
    n, q = z.shape
    l_eff = n - p_max
    curve = []
    for p in range(1, p_max + 1):
        y = z[p_max:]
        x = np.hstack([z[p_max - k : n - k] for k in range(1, p + 1)])
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ beta
        sigma = resid.T @ resid / l_eff
        curve.append(np.log(np.linalg.det(sigma)) + 2.0 * p * q * q / l_eff)
    return curve


def test_select_order_matches_explicit_ols_fits():
    # the nested-QR sweep must equal per-order OLS on the common sample
    m = random_stable_var(2, 2, seed=3, radius=0.6)
    ts = simulate(m, 3000, burn_in=200, seed=4)
    _, curve = select_order_aic(ts, 4)
    assert curve == pytest.approx(explicit_ols_aic(ts, 4), rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_select_order_aic_near_the_unit_circle(seed):
    # y.T y grows like 1 / (1 - radius) while the residual does not, so
    # subtracting the explained part from it would cancel most digits
    m = random_stable_var(3, 2, seed=seed, radius=0.9999)
    ts = simulate(m, 5000, burn_in=1000, seed=seed)
    _, curve = select_order_aic(ts, 4)
    assert np.max(np.abs(np.subtract(curve, explicit_ols_aic(ts, 4)))) <= 1e-13


def test_white_noise_picks_no_significant_coefficients():
    rng = np.random.default_rng(17)
    ts = TimeSeriesMatrix(samples=rng.standard_normal((20_000, 2)))
    p_star, _ = select_order_aic(ts, 5)
    fit = fit_ols(ts, p_star)
    # standard errors from the regression: cov(vec B) = sigma (x) (X'X)^-1
    z = ts.samples - ts.samples.mean(axis=0)
    n, q = z.shape
    x = np.hstack([z[p_star - k : n - k] for k in range(1, p_star + 1)])
    xtx_inv = np.linalg.inv(x.T @ x)
    se = np.sqrt(np.outer(np.diag(fit.sigma), np.diag(xtx_inv)))  # (q, pq)
    for k in range(p_star):
        block = np.abs(fit.coeffs[k])
        assert np.all(block <= 3.0 * se[:, k * q : (k + 1) * q].T.reshape(q, q).T + 1e-12)


# ---------------------------------------------------------------------------
# covariance structure


def test_zero_lag_covariance_white_model():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    m = VarModel(coeffs=np.zeros((0, 2, 2)), sigma=sigma)
    assert np.allclose(zero_lag_covariance(m), sigma, atol=1e-14)


def test_zero_lag_covariance_ar1_closed_form():
    g0 = zero_lag_covariance(scalar_ar([0.5]))
    assert g0[0, 0] == pytest.approx(1.0 / 0.75, rel=1e-12)


def test_zero_lag_covariance_sim1_c0():
    m = build_scenario(Scenario("sim1", {"c": 0.0}))
    assert np.allclose(zero_lag_covariance(m), m.sigma, atol=1e-12)


def test_zero_lag_covariance_matches_long_simulation():
    m = random_stable_var(3, 2, seed=8, radius=0.8)
    g0 = zero_lag_covariance(m)
    ts = simulate(m, 400_000, burn_in=2000, seed=13)
    sample = np.cov(ts.samples.T)
    assert np.max(np.abs(sample - g0) / np.abs(np.diag(g0)).max()) < 0.01


def test_zero_lag_covariance_refuses_unstable():
    with pytest.raises(UnstableModelError):
        zero_lag_covariance(scalar_ar([1.02]))


def test_autocovariance_white_model():
    m = VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.eye(2))
    gammas = autocovariance_sequence(m, 4)
    assert np.allclose(gammas[0], np.eye(2))
    for g in gammas[1:]:
        assert np.allclose(g, 0.0)


def test_autocovariance_ar1_geometric_decay():
    gammas = autocovariance_sequence(scalar_ar([0.5]), 10)
    for k, g in enumerate(gammas):
        assert g[0, 0] == pytest.approx((1.0 / 0.75) * 0.5**k, rel=1e-12)


def test_autocovariance_yule_walker_residuals():
    for m in make_model_set(count=6, seed=55):
        if m.order == 0:
            continue
        k_max = 20
        gammas = autocovariance_sequence(m, k_max)

        def gamma(k):
            return gammas[k] if k >= 0 else gammas[-k].T

        for k in range(1, k_max + 1):
            pred = sum(
                m.coeffs[j - 1] @ gamma(k - j) for j in range(1, m.order + 1)
            )
            assert np.max(np.abs(gammas[k] - pred)) < 1e-10


def test_autocovariance_decays():
    m = build_scenario(Scenario("sim3"))
    gammas = autocovariance_sequence(m, 400)
    assert np.max(np.abs(gammas[400])) < 1e-6 * np.max(np.abs(gammas[0]))


# ---------------------------------------------------------------------------
# serialization


def test_timeseries_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ts = TimeSeriesMatrix(samples=rng.standard_normal((50, 3)), fs=4.0, names=("a", "b", "c"))
    path = tmp_path / "series.csv"
    ts.save_csv(path)
    back = TimeSeriesMatrix.load_csv(path, fs=4.0)
    assert back.names == ("a", "b", "c")
    assert np.array_equal(back.samples, ts.samples)


def test_timeseries_csv_format_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(FormatError, match="channel names"):
        TimeSeriesMatrix.load_csv(p)
    p.write_text("a,b\n1.0,oops\n")
    with pytest.raises(FormatError, match="non-numeric"):
        TimeSeriesMatrix.load_csv(p)
    p.write_text("a,b\n1.0\n")
    with pytest.raises(FormatError, match="cells"):
        TimeSeriesMatrix.load_csv(p)
    p.write_text("")
    with pytest.raises(FormatError, match="empty"):
        TimeSeriesMatrix.load_csv(p)


def reference_load_csv(path):
    """The cell-by-cell reader that the one-call ``np.loadtxt`` path
    replaced: ``csv`` rows, ``float()`` per cell, a leading byte-order mark
    dropped."""
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        rows = list(reader)
    header = [h.strip() for h in header]
    for h in header:
        try:
            float(h)
        except ValueError:
            continue
        raise FormatError(f"{path}: first row must hold channel names, found numeric cell")
    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: non-numeric cell {cell!r} at row {i + 2}, column {header[j]!r}"
                ) from None
    return TimeSeriesMatrix(samples=data, fs=1.0, names=tuple(header))


def _outcome(load, path):
    try:
        ts = load(path)
    except Exception as exc:  # the error type and message are the outcome
        return type(exc).__name__, str(exc)
    return ts.names, ts.samples.shape, ts.samples.tobytes()


CSV_CASES = {
    "plain": "a,b\n1,2\n3,4\n",
    "no final newline": "a,b\n1,2\n3,4",
    "one column": "a\n1\n2\n",
    "one row": "a,b,c\n1,2,3\n",
    "signs and exponents": "a,b\n-1e-3,+2.5E2\n.5,7.\n",
    "spaces and tabs": "a , b\n 1 ,\t2 \n",
    "CRLF": "a,b\r\n1,2\r\n3,4\r\n",
    "CR only": "a,b\r1,2\r3,4\r",
    "BOM": "\ufeffa,b\n1,2\n",
    "blank line": "a,b\n1,2\n\n3,4\n",
    "trailing blank line": "a,b\n1,2\n\n",
    "blank body": "a,b\n\n\n",
    "whitespace line": "a,b\n1,2\n  \n",
    "quoted cells": 'a,b\n"1",2\n"3","4"\n',
    "multi-line quoted cell": 'a,b\n"1\n",2\n',
    "quoted header": '"a,x",b\n1,2\n',
    "comment cell": "a,b\n1,2 # note\n",
    "comment line": "a,b\n# note\n1,2\n",
    "hex": "a,b\n0x10,2\n",
    "underscore": "a,b\n1_0,2\n",
    "Infinity": "a,b\nInfinity,2\n",
    "nan": "a,b\nnan,1\n",
    "trailing comma": "a,b\n1,2,\n",
    "empty cell": "a,b\n1,\n",
    "ragged": "a,b\n1\n",
    "non-numeric": "a,b\n1.0,oops\n",
    "numeric header": "1.0,2.0\n3,4\n",
    "header only": "a,b\n",
    "header without newline": "a,b",
    "empty file": "",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_load_csv_matches_cell_by_cell_reader(tmp_path, case):
    # Same samples or the same error as the csv/float() scan, whichever
    # path (one loadtxt call or the scan) the file takes, and no warning.
    path = tmp_path / "series.csv"
    path.write_bytes(CSV_CASES[case].encode("utf-8"))
    assert _outcome(TimeSeriesMatrix.load_csv, path) == _outcome(reference_load_csv, path)


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # Spreadsheet exports often start with a UTF-8 byte-order mark; it is
    # not part of the first channel's name.
    path = tmp_path / "series.csv"
    path.write_bytes(b"\xef\xbb\xbfY,X1\n1.5,2\n-3,4\n")
    ts = TimeSeriesMatrix.load_csv(path)
    assert ts.names == ("Y", "X1")
    assert np.array_equal(ts.samples, [[1.5, 2.0], [-3.0, 4.0]])


def test_load_csv_reads_conformant_files_in_one_call(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    ts = TimeSeriesMatrix(samples=rng.standard_normal((300, 4)), names=("w", "x", "y", "z"))
    path = tmp_path / "series.csv"
    ts.save_csv(path)

    def no_scan(*args):
        raise AssertionError("conformant file fell back to the cell-by-cell scan")

    monkeypatch.setattr(var_module, "_scan_body", no_scan)
    assert np.array_equal(TimeSeriesMatrix.load_csv(path).samples, ts.samples)


def test_model_json_round_trip():
    m = build_scenario(Scenario("sim1", {"c": 0.5}))
    doc = json.loads(m.to_json())
    assert doc["dim"] == 3 and doc["order"] == 4
    back = VarModel.from_json(m.to_json())
    assert np.allclose(back.coeffs, m.coeffs, atol=0)
    assert np.allclose(back.sigma, m.sigma, atol=0)
    assert back.names == m.names and back.fs == m.fs


@pytest.mark.parametrize("changes", [
    {"dim": 5, "order": 3}, {"dim": 5}, {"dim": 1}, {"order": 3}, {"order": 0}, {"dim": "2"},
])
def test_model_json_dim_and_order_must_match_the_arrays(changes):
    doc = json.loads(VarModel(coeffs=np.full((1, 2, 2), 0.1), sigma=np.eye(2)).to_json())
    doc.update(changes)
    with pytest.raises(FormatError, match="disagree with 2 sigma rows and 1 lag matrices"):
        VarModel.from_json(json.dumps(doc))
    # a white model states order 0 and an empty lag list
    white = VarModel.from_json(VarModel(coeffs=np.zeros((0, 3, 3)), sigma=np.eye(3)).to_json())
    assert (white.dim, white.order) == (3, 0)


def test_model_json_error():
    with pytest.raises(FormatError):
        VarModel.from_json("{not json")
    with pytest.raises(FormatError):
        VarModel.from_json('{"dim": 2}')
