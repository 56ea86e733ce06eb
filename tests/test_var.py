import csv
import json

import numpy as np
import pytest

from pird import (
    ArgumentError,
    EstimationError,
    FormatError,
    Scenario,
    TimeSeriesMatrix,
    UnstableModelError,
    VarModel,
    autocovariance_sequence,
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
from pird import var as var_module
from pird.var import ar_coeffs_from_poles

from conftest import make_model_set


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


def test_is_stable():
    assert is_stable(VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.eye(2)))
    assert is_stable(scalar_ar([0.99]), eps=0.005)
    assert not is_stable(scalar_ar([0.999]), eps=0.005)
    assert is_stable(build_scenario(Scenario("sim3")))


def test_companion_matrix_eigenvalues_match_poles():
    m = scalar_ar(list(poles_to_coeffs(0.8, 0.3)))
    eig = np.linalg.eigvals(m.companion())
    assert np.allclose(sorted(np.abs(eig)), [0.8, 0.8], atol=1e-12)


def test_random_stable_var_hits_requested_radius():
    for seed in range(5):
        m = random_stable_var(3, 3, seed=seed, radius=0.7)
        assert m.spectral_radius() == pytest.approx(0.7, abs=1e-8)
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


def test_select_order_matches_explicit_ols_fits():
    # the nested-QR sweep must equal per-order OLS on the common sample
    m = random_stable_var(2, 2, seed=3, radius=0.6)
    ts = simulate(m, 3000, burn_in=200, seed=4)
    p_max = 4
    _, curve = select_order_aic(ts, p_max)
    z = ts.samples - ts.samples.mean(axis=0)
    n, q = z.shape
    l_eff = n - p_max
    for p in range(1, p_max + 1):
        y = z[p_max:]
        x = np.hstack([z[p_max - k : n - k] for k in range(1, p + 1)])
        beta, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ beta
        sigma = resid.T @ resid / l_eff
        aic = np.log(np.linalg.det(sigma)) + 2.0 * p * q * q / l_eff
        assert curve[p - 1] == pytest.approx(aic, rel=1e-9)


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
    replaced: ``csv`` rows, ``float()`` per cell."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
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


def test_model_json_error():
    with pytest.raises(FormatError):
        VarModel.from_json("{not json")
    with pytest.raises(FormatError):
        VarModel.from_json('{"dim": 2}')
