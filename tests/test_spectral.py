import numpy as np
import pytest

from pird import (
    ArgumentError,
    Band,
    FrequencyGrid,
    Scenario,
    SpectralMatrix,
    SpectralProfile,
    SpectralSingularityError,
    UnstableModelError,
    VarModel,
    build_scenario,
    integrate_band,
    integrate_full,
    parse_bands,
    psd_from_var,
    spectral_mir,
    transfer_function,
    zero_lag_covariance,
)

from pird.spectral import integrate_band_rows

from conftest import make_model_set, reference_band_integral


def scalar_ar(coeffs, var=1.0):
    p = len(coeffs)
    return VarModel(
        coeffs=np.array(coeffs, dtype=float).reshape(p, 1, 1),
        sigma=np.array([[var]]),
    )


WHITE_080 = VarModel(
    coeffs=np.zeros((0, 3, 3)), sigma=np.eye(3) * 0.2 + 0.8, names=("Y", "X1", "X2")
)


def test_grid_endpoints_and_mapping():
    grid = FrequencyGrid(fs=4.0, n_points=101)
    assert grid.omegas[0] == 0.0 and grid.omegas[-1] == pytest.approx(np.pi)
    assert np.all(np.diff(grid.omegas) > 0)
    assert grid.hz[-1] == pytest.approx(2.0)  # Nyquist
    with pytest.raises(ArgumentError):
        FrequencyGrid(fs=1.0, n_points=1)
    with pytest.raises(ArgumentError):
        FrequencyGrid(fs=-1.0)


def test_transfer_function_identity_for_white_model(grid):
    h = transfer_function(WHITE_080, grid)
    assert np.allclose(h, np.eye(3), atol=0)


def test_transfer_function_ar1_gain(grid):
    h = transfer_function(scalar_ar([0.5]), grid)
    assert abs(h[0, 0, 0]) ** 2 == pytest.approx(4.0, rel=1e-12)
    # real at the Nyquist frequency for any real-coefficient model
    m = build_scenario(Scenario("sim3"))
    h3 = transfer_function(m, grid)
    assert np.max(np.abs(h3[-1].imag)) < 1e-12


def test_transfer_function_refuses_unstable(grid):
    with pytest.raises(UnstableModelError):
        transfer_function(scalar_ar([1.05]), grid)


def test_psd_white_identity(grid):
    m = VarModel(coeffs=np.zeros((0, 2, 2)), sigma=np.eye(2))
    psd = psd_from_var(m, grid)
    assert np.allclose(psd.mats, np.eye(2), atol=0)


def test_psd_ar1_values(grid):
    psd = psd_from_var(scalar_ar([0.5]), grid)
    assert psd.mats[0, 0, 0].real == pytest.approx(4.0, rel=1e-12)
    assert psd.mats[-1, 0, 0].real == pytest.approx(1.0 / 2.25, rel=1e-12)


def test_psd_invariants_on_random_models(grid):
    for m in make_model_set(count=8, seed=77):
        psd = psd_from_var(m, grid)  # construction validates the invariants
        diags = np.diagonal(psd.mats, axis1=1, axis2=2)
        assert np.all(diags.real > 0)
        assert np.max(np.abs(diags.imag)) < 1e-12 * np.max(diags.real)


def test_wiener_khinchin_consistency(grid):
    for m in make_model_set(count=6, seed=31) + [build_scenario(Scenario("sim3"))]:
        gamma0 = zero_lag_covariance(m)
        psd = psd_from_var(m, grid)
        for ch in range(m.dim):
            profile = SpectralProfile(grid=grid, values=psd.mats[:, ch, ch].real)
            integral = integrate_full(profile)
            assert abs(integral - gamma0[ch, ch]) < 1e-3 * gamma0[ch, ch]


def test_spectral_matrix_validation(grid):
    mats = np.tile(np.eye(2, dtype=complex), (grid.n_points, 1, 1))
    mats[5, 0, 1] = 0.5  # breaks Hermitian symmetry
    with pytest.raises(Exception, match="Hermitian"):
        SpectralMatrix(grid=grid, mats=mats)


def test_spectral_mir_independent_blocks(grid):
    sigma = np.diag([1.0, 2.0, 3.0])
    m = VarModel(coeffs=np.zeros((0, 3, 3)), sigma=sigma)
    profile = spectral_mir(psd_from_var(m, grid), 0, [1, 2])
    assert np.max(np.abs(profile.values)) < 1e-14


def test_spectral_mir_flat_correlated_case(grid):
    # white processes with pairwise correlation 0.8: flat profiles with
    # closed-form Gaussian MI values
    psd = psd_from_var(WHITE_080, grid)
    single = spectral_mir(psd, 0, [1])
    expected_single = -0.5 * np.log(1.0 - 0.8**2)
    assert np.allclose(single.values, expected_single, atol=1e-12)
    joint = spectral_mir(psd, 0, [1, 2])
    expected_joint = 0.5 * np.log(0.36 / 0.104)
    assert np.allclose(joint.values, expected_joint, atol=1e-12)


def test_spectral_mir_nonnegative_and_monotone(grid):
    for m in make_model_set(count=8, seed=99):
        if m.dim < 3:
            continue
        psd = psd_from_var(m, grid)
        small = spectral_mir(psd, 0, [1]).values
        big = spectral_mir(psd, 0, [1, 2]).values
        assert small.min() >= -1e-10
        assert big.min() >= -1e-10
        assert np.all(big - small >= -1e-10)


def test_spectral_mir_argument_errors(grid):
    psd = psd_from_var(WHITE_080, grid)
    with pytest.raises(ArgumentError):
        spectral_mir(psd, 0, [0, 1])
    with pytest.raises(ArgumentError):
        spectral_mir(psd, 0, [])
    with pytest.raises(ArgumentError):
        spectral_mir(psd, 5, [1])


def test_spectral_mir_determinant_floor():
    grid = FrequencyGrid(fs=1.0, n_points=4)
    tiny = np.tile(np.eye(3, dtype=complex) * 1e-101, (4, 1, 1))
    psd = SpectralMatrix(grid=grid, mats=tiny)
    with pytest.raises(SpectralSingularityError, match="Hz"):
        spectral_mir(psd, 0, [1, 2])


def test_diagonal_loading(grid):
    psd = psd_from_var(WHITE_080, grid)
    loaded = psd.with_diagonal_loading(0.01)
    base = spectral_mir(psd, 0, [1, 2]).values
    soft = spectral_mir(loaded, 0, [1, 2]).values
    assert np.all(soft < base)  # loading shrinks dependence
    with pytest.raises(ArgumentError):
        psd.with_diagonal_loading(-0.1)


def test_integrate_full_constant(grid):
    profile = SpectralProfile(grid=grid, values=np.full(grid.n_points, 0.73))
    assert integrate_full(profile) == pytest.approx(0.73, abs=1e-15)


def test_integrate_full_flat_joint_value(grid):
    psd = psd_from_var(WHITE_080, grid)
    joint = spectral_mir(psd, 0, [1, 2])
    assert integrate_full(joint) == pytest.approx(0.5 * np.log(0.36 / 0.104), abs=1e-12)


def test_grid_doubling_convergence(sim3_model):
    vals = []
    for n_points in (2049, 4097):
        grid = FrequencyGrid(fs=1.0, n_points=n_points)
        psd = psd_from_var(sim3_model, grid)
        vals.append(integrate_full(spectral_mir(psd, 0, [1, 2, 3])))
    assert abs(vals[1] - vals[0]) < 1e-6


def test_integrate_band_full_range_equals_full(grid):
    rng = np.random.default_rng(5)
    profile = SpectralProfile(grid=grid, values=rng.uniform(0, 2, grid.n_points))
    band = Band(0.0, 0.5, "ALL")
    assert integrate_band(profile, band) == pytest.approx(
        integrate_full(profile), abs=1e-15
    )


def test_integrate_band_proportionality(grid):
    profile = SpectralProfile(grid=grid, values=np.full(grid.n_points, 1.4))
    assert integrate_band(profile, Band(0.0, 0.25, "half")) == pytest.approx(
        0.7, abs=1e-12
    )
    # narrow band inside a single grid cell
    lo, hi = 0.10001, 0.10002
    got = integrate_band(profile, Band(lo, hi, "narrow"))
    assert got == pytest.approx(1.4 * (hi - lo) / 0.5, rel=1e-9)


def test_band_partition_sums_to_full(grid):
    rng = np.random.default_rng(6)
    profile = SpectralProfile(grid=grid, values=rng.uniform(0, 3, grid.n_points))
    cuts = [0.0, 0.0371, 0.123456, 0.25, 0.41, 0.5]
    total = sum(
        integrate_band(profile, Band(a, b, f"b{i}"))
        for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))
    )
    assert abs(total - integrate_full(profile)) < 1e-9


def test_band_validation(grid):
    profile = SpectralProfile(grid=grid, values=np.zeros(grid.n_points))
    with pytest.raises(ArgumentError):
        Band(0.3, 0.2, "bad")
    with pytest.raises(ArgumentError, match="Nyquist"):
        integrate_band(profile, Band(0.1, 0.6, "beyond"))


def _random_band(rng, grid, kind):
    """A band of the given kind on ``grid``: edges on grid points, both
    edges inside one grid cell, the upper edge at (or within 1e-13 of)
    Nyquist, or anywhere."""
    nyq = grid.fs / 2.0
    hz = grid.hz
    n = grid.n_points
    if kind == "on-grid":
        i, j = sorted(rng.choice(n, size=2, replace=False))
        return Band(float(hz[i]), float(hz[j]), kind)
    if kind == "one-cell":
        i = int(rng.integers(0, n - 1))
        lo, hi = np.sort(rng.uniform(hz[i], hz[i + 1], size=2))
        if lo == hi:
            hi = float(hz[i + 1])
        return Band(float(lo), float(hi), kind)
    if kind == "nyquist":
        lo = float(rng.choice([0.0, rng.uniform(0.0, nyq), hz[rng.integers(0, n - 1)]]))
        return Band(lo, nyq + float(rng.choice([0.0, 1e-13])), kind)
    lo, hi = np.sort(rng.uniform(0.0, nyq, size=2))
    return Band(float(lo), float(hi), kind)


def test_integrate_band_rows_equals_per_row_interp_reference():
    # The row integrator must reproduce np.interp + 1-D np.trapezoid bit
    # for bit on every row, with edges on, between and beyond grid points.
    rng = np.random.default_rng(2049)
    kinds = ("on-grid", "one-cell", "nyquist", "anywhere")
    exact_edges = 0
    for case in range(2000):
        n = int(rng.choice([2, 3, 5, 17, 257, 2049, 4097, int(rng.integers(2, 4098))]))
        fs = float(rng.choice([1.0, 2.0, 2.7, 0.3, 250.0]))
        grid = FrequencyGrid(fs=fs, n_points=n)
        band = _random_band(rng, grid, kinds[case % len(kinds)])
        rows = rng.standard_normal((int(rng.integers(1, 6)), n))
        rows[:, rng.random(n) < 0.1] = 0.0
        if case % 3 == 0:  # the layout of the input must not matter
            rows = np.asfortranarray(rows)
        got = integrate_band_rows(rows, grid, band)
        want = np.array([reference_band_integral(row, grid, band) for row in rows])
        assert np.array_equal(got, want), (n, fs, band)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (n, fs, band)
        profile = SpectralProfile(grid=grid, values=rows[0])
        assert integrate_band(profile, band) == want[0]
        w_lo = 2.0 * np.pi * band.lo / fs
        exact_edges += bool(np.any(grid.omegas == w_lo)) and band.lo > 0.0
    # A fair share of the lower edges fall exactly on interior grid points.
    assert exact_edges > 100


def test_sim3_band_concentration(sim3_model, grid):
    # the 0.3 Hz oscillation in X1 confines most of its shared rate to B2
    psd = psd_from_var(sim3_model, grid)
    profile = spectral_mir(psd, 0, [1])
    full = integrate_full(profile)
    b2 = integrate_band(profile, Band(0.15, 0.4, "B2"))
    assert b2 >= 0.8 * full


def test_profile_csv_export(tmp_path, grid):
    rng = np.random.default_rng(8)
    profile = SpectralProfile(grid=grid, values=rng.uniform(0, 1, grid.n_points))
    path = tmp_path / "profile.csv"
    profile.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "f_hz,value"
    assert len(lines) == grid.n_points + 1
    f, v = lines[1].split(",")
    assert float(f) == 0.0 and float(v) == pytest.approx(profile.values[0], rel=1e-11)


def test_parse_bands():
    bands = parse_bands("LF:0.04-0.15,HF:0.15-0.4")
    assert [b.label for b in bands] == ["LF", "HF"]
    assert bands[0].lo == 0.04 and bands[1].hi == 0.4
    with pytest.raises(ArgumentError):
        parse_bands("nonsense")
