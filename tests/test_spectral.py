import copy
import itertools
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pird import (
    ArgumentError,
    Band,
    FrequencyGrid,
    NumericalError,
    Scenario,
    SpectralMatrix,
    SpectralSingularityError,
    UnstableModelError,
    VarModel,
    build_scenario,
    integrate_band,
    integrate_full,
    mir_decomposition,
    parse_bands,
    psd_from_var,
    random_stable_var,
    spectral_mir,
    transfer_function,
    zero_lag_covariance,
)

from pird import spectral
from pird.spectral import integrate_rows, quadrature_weights, spectral_mir_rows

from conftest import make_model_set, reference_band_integral
from oracles import block_transfer_function, element_series


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
    with pytest.raises(ArgumentError, match="fs must be a real number, got '1'"):
        FrequencyGrid(fs="1")


@pytest.mark.parametrize("n_points", [2.5, 65.0, np.float64(65.0), "65", None])
def test_grid_rejects_a_non_integer_point_count(n_points):
    # rejected when built, not at the first read of ``omegas``
    with pytest.raises(ArgumentError, match="n_points must be an integer"):
        FrequencyGrid(n_points=n_points)


def test_grid_takes_a_numpy_integer_point_count():
    assert FrequencyGrid(n_points=np.int64(65)).omegas.shape == (65,)
    assert np.array_equal(FrequencyGrid(n_points=np.int32(65)).omegas, FrequencyGrid(n_points=65).omegas)


GRID_BANDS = (None, Band(0.04, 0.15, "B1"), Band(0.0, 0.4, "low"), Band(0.3, 1.0, "top"))


def _grid_arrays(grid):
    """Every array a grid keeps, by name, in a fixed order of first use:
    lag orders 4, then 1, then 2, so a shorter table is asked for after a
    longer one."""
    arrays = {"omegas": grid.omegas, "hz": grid.hz}
    arrays.update({f"lag_phases({p})": grid.lag_phases(p) for p in (4, 1, 2)})
    arrays.update({f"weights({b})": quadrature_weights(grid, b) for b in GRID_BANDS})
    return arrays


def _trapezoid_weights_formula(grid, band):
    """The weights of the trapezoid rule over ``band``, written out as in
    the docstring of ``quadrature_weights``."""
    omegas = np.linspace(0.0, np.pi, grid.n_points)
    lo, hi = 0.0, np.pi
    if band is not None:
        lo, hi = 2.0 * np.pi * band.lo / grid.fs, min(2.0 * np.pi * band.hi / grid.fs, np.pi)
    left, right = omegas[:-1], omegas[1:]
    a, b = (np.minimum(np.maximum(left, edge), right) for edge in (lo, hi))
    t = ((a - left) + (b - left)) / (right - left)
    half = (b - a) / (2.0 * np.pi)
    w = np.zeros(grid.n_points)
    w[:-1] = half * (2.0 - t)
    w[1:] += half * t
    return w


def test_grid_arrays_are_read_only_and_computed_once():
    grid = FrequencyGrid(fs=2.0, n_points=129)
    first, again = _grid_arrays(grid), _grid_arrays(grid)
    for name, array in first.items():
        assert again[name] is array, name
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(AttributeError):
        grid.omegas = np.zeros(129)


def test_grid_arrays_equal_their_formulas_bit_for_bit():
    grid = FrequencyGrid(fs=2.0, n_points=129)
    arrays = _grid_arrays(grid)
    omegas = np.linspace(0.0, np.pi, 129)
    want = {"omegas": omegas, "hz": omegas * 2.0 / (2.0 * np.pi)}
    for p in (4, 1, 2):
        angles = np.outer(-np.arange(1, p + 1), omegas)
        # cos and sin of -omega k as they are, -0.0 imaginary parts included
        want[f"lag_phases({p})"] = phases = np.empty((p, 129), dtype=complex)
        phases.real, phases.imag = np.cos(angles), np.sin(angles)
        assert np.allclose(arrays[f"lag_phases({p})"], np.exp(1j * angles), rtol=0, atol=1e-15)
    for band in GRID_BANDS:
        want[f"weights({band})"] = _trapezoid_weights_formula(grid, band)
    for name, array in arrays.items():
        assert array.dtype == want[name].dtype and array.shape == want[name].shape, name
        assert array.tobytes() == want[name].tobytes(), name


def test_a_grid_keeps_its_value_after_computing_its_arrays():
    used, fresh = FrequencyGrid(fs=2.0, n_points=129), FrequencyGrid(fs=2.0, n_points=129)
    before = repr(used), hash(used)
    arrays = _grid_arrays(used)
    assert used == fresh and hash(used) == hash(fresh) == before[1]
    assert repr(used) == repr(fresh) == before[0] == "FrequencyGrid(fs=2.0, n_points=129)"
    assert {used: 1}[fresh] == 1
    # A copy computes its own arrays: equal values, read-only again.
    for other in (copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))):
        assert other == used
        for name, array in _grid_arrays(other).items():
            assert array is not arrays[name] and not array.flags.writeable, name
            assert array.tobytes() == arrays[name].tobytes(), name


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
    # the message of the one stability guard, naming the caller and the radius
    with pytest.raises(UnstableModelError) as raised:
        transfer_function(scalar_ar([1.05]), grid)
    assert str(raised.value) == (
        "transfer_function requires a stable model (companion spectral radius 1.050000)"
    )


def test_transfer_function_right_factor(grid):
    right = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0], [2.0, 0.0, 1.0]])[:, :2]
    want = transfer_function(WHITE_080, grid) @ right
    assert np.array_equal(transfer_function(WHITE_080, grid, right), want)
    for bad in (np.eye(2), np.ones(3), np.ones((3, 2, 1))):
        with pytest.raises(ArgumentError, match=r"right must have shape \(3, K\)"):
            transfer_function(WHITE_080, grid, bad)


def lapack_system(model, grid):
    """``I - A(omega)`` as ``(n_points, Q, Q)`` matrices, built per
    frequency by a matmul of the lag phases with the coefficients."""
    p, q = model.order, model.dim
    mats = np.broadcast_to(np.eye(q, dtype=complex), (grid.n_points, q, q)).copy()
    if p > 0:
        phases = np.exp(-1j * np.outer(grid.omegas, np.arange(1, p + 1)))
        mats -= (phases @ model.coeffs.reshape(p, q * q)).reshape(-1, q, q)
    return mats


def lapack_psd(model, grid):
    """``B B*`` with ``B`` from one LAPACK solve per frequency against the
    Cholesky factor of sigma, and the condition number of each system."""
    mats = lapack_system(model, grid)
    b = np.linalg.solve(mats, np.linalg.cholesky(model.sigma))
    return b @ b.conj().transpose(0, 2, 1), np.linalg.cond(mats)


#: A stable 2-channel VAR(1) (companion radius 0.5, a double root) whose
#: ``I - A(0)`` has an exact zero in its leading entry: elimination without
#: row exchanges divides by zero at the first grid point.
PIVOT_MODEL = VarModel(coeffs=[[[1.0, -1.0], [0.25, 0.0]]], sigma=np.eye(2))


def test_transfer_function_pivots_past_a_zero_leading_entry(grid):
    assert PIVOT_MODEL.spectral_radius == pytest.approx(0.5)
    mats = lapack_system(PIVOT_MODEL, grid)
    assert mats[0, 0, 0] == 0.0
    h = transfer_function(PIVOT_MODEL, grid)
    # I - A(0) = [[0, 1], [-1/4, 1]]: one row exchange leaves it triangular.
    assert np.array_equal(h[0], [[4.0, -4.0], [1.0, 0.0]])
    want = np.linalg.inv(mats)
    rows = np.linalg.norm(want, axis=2)[:, :, None]
    assert np.max(np.abs(h - want) / rows) <= 16 * EPS * np.max(np.linalg.cond(mats))


def _oracle_models():
    models = make_model_set(count=20, seed=2024)
    models += [build_scenario(Scenario(sim, {"c": c})) for sim in ("sim1", "sim2")
               for c in (0.0, 0.2, 0.4, 0.6, 0.8)]
    models += [build_scenario(Scenario("sim3")), WHITE_080, PIVOT_MODEL]
    models += [random_stable_var(q, p, seed=q, radius=0.999) for q, p in ((2, 1), (3, 2), (5, 2))]
    models += [random_stable_var(8, 5, seed=8, radius=0.9)]
    return models


def test_spectrum_matches_the_lapack_reference(grid):
    # Both are backward-stable Gaussian eliminations with partial pivoting,
    # so each one's forward error is a small multiple of eps times the
    # condition number kappa of I - A(omega). In coherence scale (each P_ij
    # over sqrt(P_ii P_jj), each row of H over its norm) they agree within
    # 16 eps kappa at every frequency; the largest seen is 5 eps kappa.
    for model in _oracle_models():
        want, kappa = lapack_psd(model, grid)
        bound = 16 * EPS * kappa[:, None, None]
        psd = psd_from_var(model, grid)
        root = np.sqrt(np.diagonal(want, axis1=1, axis2=2).real)
        assert np.all(np.abs(psd.mats - want) <= bound * root[:, :, None] * root[:, None, :])
        h, h_want = transfer_function(model, grid), np.linalg.inv(lapack_system(model, grid))
        assert np.all(np.abs(h - h_want) <= bound * np.linalg.norm(h_want, axis=2)[:, :, None])
        # The Gram construction is exactly Hermitian with a real diagonal,
        # and passes the full validation that it skips.
        assert np.array_equal(psd.mats, psd.mats.conj().transpose(0, 2, 1))
        SpectralMatrix(psd.grid, psd.mats, psd.names)


#: Rows 1 and 2 of column 0 of ``I - A(omega)`` hold the same entry at
#: every frequency, and below about 0.09 Hz it is larger than row 0's: the
#: first step pivots on an exact tie there, which the upper row must win.
TIE_MODEL = VarModel(
    coeffs=[[[0.5, 0.0, 0.0], [0.8, 0.3, 0.1], [0.8, -0.2, 0.4]]],
    sigma=[[1.0, 0.3, 0.0], [0.3, 2.0, 0.5], [0.0, 0.5, 1.5]],
)
#: Row 1 of column 0 is larger than row 0 below about 0.15 Hz only, so the
#: first step exchanges rows at some frequencies but not at all of them.
PARTIAL_PIVOT_MODEL = VarModel(coeffs=[[[0.5, 0.3], [0.8, 0.2]]], sigma=[[1.0, 0.3], [0.3, 2.0]])


def test_the_pivot_models_tie_and_pivot_where_they_claim(grid):
    def first_column(model):
        # -A(omega)[:, 0] as transfer_function builds it; its row 0 gains the 1.
        col = np.tensordot(-model.coeffs[:, :, 0], grid.lag_phases(1), axes=(0, 0))
        col[0] += 1.0
        return col

    col = first_column(TIE_MODEL)
    assert np.array_equal(col[1], col[2])
    ties = np.abs(col[1]) > np.abs(col[0])
    assert 0 < ties.sum() < grid.n_points
    col = first_column(PARTIAL_PIVOT_MODEL)
    pivots = np.abs(col[1]) > np.abs(col[0])
    assert 0 < pivots.sum() < grid.n_points


def test_transfer_function_equals_the_block_elimination_bit_for_bit(grid):
    for model in _oracle_models() + [TIE_MODEL, PARTIAL_PIVOT_MODEL]:
        for right in (None, np.linalg.cholesky(model.sigma), np.ones((model.dim, 2))):
            got = transfer_function(model, grid, right)
            assert got.tobytes() == block_transfer_function(model, grid, right).tobytes()


def test_psd_from_var_equals_the_gram_of_the_block_elimination(grid, monkeypatch):
    models = _oracle_models() + [TIE_MODEL, PARTIAL_PIVOT_MODEL]
    got = [psd_from_var(model, grid).mats for model in models]
    monkeypatch.setattr(spectral, "transfer_function", block_transfer_function)
    for model, mats in zip(models, got):
        assert mats.tobytes() == psd_from_var(model, grid).mats.tobytes()


@pytest.mark.parametrize("coupling, layer", [(1e308, "transfer function"), (1e154, "spectral matrix")])
def test_psd_from_var_overflow_raises_naming_a_frequency(coupling, layer):
    # Stable (both eigenvalues 0.5), but H(0) holds 4 * coupling: with 1e308
    # the solve overflows, with 1e154 only the products |H_01|^2 do.
    model = VarModel(coeffs=[[[0.5, coupling], [0.0, 0.5]]], sigma=np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning escapes
        with pytest.raises(NumericalError, match=rf"^{layer} .* at f = 0 Hz"):
            psd_from_var(model, FrequencyGrid(n_points=257))


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
        psd = psd_from_var(m, grid)  # checks finiteness and a positive diagonal
        diags = np.diagonal(psd.mats, axis1=1, axis2=2)
        assert np.all(diags.real > 0)
        assert np.max(np.abs(diags.imag)) < 1e-12 * np.max(diags.real)


def test_wiener_khinchin_consistency(grid):
    for m in make_model_set(count=6, seed=31) + [build_scenario(Scenario("sim3"))]:
        gamma0 = zero_lag_covariance(m)
        psd = psd_from_var(m, grid)
        for ch in range(m.dim):
            integral = integrate_full(psd.mats[:, ch, ch].real)
            assert abs(integral - gamma0[ch, ch]) < 1e-3 * gamma0[ch, ch]


def test_spectral_matrix_validation(grid):
    mats = np.tile(np.eye(2, dtype=complex), (grid.n_points, 1, 1))
    mats[5, 0, 1] = 0.5  # breaks Hermitian symmetry
    with pytest.raises(Exception, match="Hermitian"):
        SpectralMatrix(grid=grid, mats=mats)


def test_spectral_matrix_owns_its_array(grid):
    # The caller's complex array is copied, not frozen in place, so a later
    # write to it (or through a view of it) leaves the checked spectrum alone.
    base = np.tile(np.eye(2, dtype=complex), (grid.n_points, 1, 1))
    psd = SpectralMatrix(grid=grid, mats=base[:])
    assert base.flags.writeable and not np.shares_memory(base, psd.mats)
    base[0, 0, 1] = 5.0
    assert psd.mats[0, 0, 1] == 0.0
    assert np.array_equal(psd.mats, psd.mats.conj().transpose(0, 2, 1))
    assert not psd.mats.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        psd.mats[0, 0, 0] = 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_spectral_matrix_rejects_non_finite_entries(grid, bad):
    mats = np.tile(np.eye(2, dtype=complex), (grid.n_points, 1, 1))
    mats[3, 1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic on it
        with pytest.raises(NumericalError, match=f"non-finite entry at f = {grid.hz[3]:.6g} Hz"):
            SpectralMatrix(grid=grid, mats=mats)


def test_spectral_matrix_rejects_a_nonpositive_diagonal_naming_its_frequency(grid):
    mats = np.tile(np.eye(2, dtype=complex), (grid.n_points, 1, 1))
    mats[7, 1, 1] = 0.0
    with pytest.raises(NumericalError, match=f"nonpositive diagonal entry at f = {grid.hz[7]:.6g} Hz"):
        SpectralMatrix(grid=grid, mats=mats)
    # A model whose innovation variance is the smallest subnormal: its
    # spectrum 5e-324 / |1 + 0.5 e^{-j omega}|^2 underflows to 0 at f = 0.
    tiny = VarModel(coeffs=[[[-0.5]]], sigma=[[5e-324]])
    with pytest.raises(NumericalError, match="nonpositive diagonal entry at f = 0 Hz"):
        psd_from_var(tiny, FrequencyGrid(n_points=5))


def test_spectral_mir_independent_blocks(grid):
    sigma = np.diag([1.0, 2.0, 3.0])
    m = VarModel(coeffs=np.zeros((0, 3, 3)), sigma=sigma)
    profile = spectral_mir(psd_from_var(m, grid), 0, [1, 2])
    assert np.max(np.abs(profile)) < 1e-14


def test_spectral_mir_flat_correlated_case(grid):
    # white processes with pairwise correlation 0.8: flat profiles with
    # closed-form Gaussian MI values
    psd = psd_from_var(WHITE_080, grid)
    single = spectral_mir(psd, 0, [1])
    expected_single = -0.5 * np.log(1.0 - 0.8**2)
    assert np.allclose(single, expected_single, atol=1e-12)
    joint = spectral_mir(psd, 0, [1, 2])
    expected_joint = 0.5 * np.log(0.36 / 0.104)
    assert np.allclose(joint, expected_joint, atol=1e-12)


def test_spectral_mir_nonnegative_and_monotone(grid):
    for m in make_model_set(count=8, seed=99):
        if m.dim < 3:
            continue
        psd = psd_from_var(m, grid)
        small = spectral_mir(psd, 0, [1])
        big = spectral_mir(psd, 0, [1, 2])
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
    # The floor applies to the block in coherence form. A target equal to a
    # source at one frequency makes it exactly singular there (a zero pivot).
    grid = FrequencyGrid(fs=1.0, n_points=4)
    mats = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
    mats[2, :2, :2] = 1.0
    with pytest.raises(SpectralSingularityError, match="f = 0.333333 Hz"):
        spectral_mir(SpectralMatrix(grid=grid, mats=mats), 0, [1, 2])
    # A spectrum that is tiny but far from singular is not refused.
    tiny = np.tile(np.eye(3, dtype=complex) * 1e-101, (4, 1, 1))
    mir = spectral_mir(SpectralMatrix(grid=grid, mats=tiny), 0, [1, 2])
    assert np.array_equal(mir, np.zeros(4))


def _with_independent_channel(model, coeff=0.5):
    """``model`` with a last channel that is an AR(1) coupled to nothing:
    its coherence with every other channel is exactly zero."""
    p, q = max(model.order, 1), model.dim + 1
    coeffs = np.zeros((p, q, q))
    coeffs[:model.order, :-1, :-1] = model.coeffs
    coeffs[0, -1, -1] = coeff
    sigma = np.zeros((q, q))
    sigma[:-1, :-1] = model.sigma
    sigma[-1, -1] = 1.0
    return VarModel(coeffs=coeffs, sigma=sigma)


#: Target 0 of a 6-channel model whose channel 5 is independent of the rest.
MIR_ROWS_PSD = psd_from_var(
    _with_independent_channel(random_stable_var(5, 3, seed=41, radius=0.9)),
    FrequencyGrid(n_points=257),
)


@given(st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=6), min_size=1, max_size=10))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_spectral_mir_rows_equal_one_group_calls(groups):
    # Each row depends only on its own group's prefixes, so no choice or
    # order of the other groups moves a bit, signs of zero included.
    rows = spectral_mir_rows(MIR_ROWS_PSD, 0, groups)
    assert rows.shape == (len(groups), MIR_ROWS_PSD.grid.n_points)
    for row, group in zip(rows, groups):
        want = spectral_mir(MIR_ROWS_PSD, 0, group)
        assert np.array_equal(row, want), group
        assert np.array_equal(np.signbit(row), np.signbit(want)), group


def lapack_mir(psd, target, sources):
    """The MIR as ``-ln`` of the last pivot of a batched LAPACK Cholesky
    of each ``[S, T]`` block in coherence form."""
    idx = np.array([*sorted(sources), target])
    block = psd.mats[:, idx[:, None], idx]
    scale = 1.0 / np.sqrt(np.diagonal(block, axis1=1, axis2=2).real)
    coh = block * (scale[:, :, None] * scale[:, None, :])
    return -np.log(np.linalg.cholesky(coh)[:, -1, -1].real)


def test_spectral_mir_rows_match_a_batched_cholesky(grid):
    # The recursion sums in its own order. Both read the MIR off the
    # residual r = 1 - sum |L[T, j]|^2 = exp(-2 MIR), whose absolute roundoff
    # of a few eps becomes an error of about eps / (2 r) in -ln sqrt(r).
    for model in make_model_set(count=6, seed=5, max_dim=5) + [build_scenario(Scenario("sim3"))]:
        psd = psd_from_var(model, grid)
        groups = [g for size in range(1, model.dim) for g in
                  itertools.combinations(range(1, model.dim), size)]
        rows = spectral_mir_rows(psd, 0, groups)
        for row, group in zip(rows, groups):
            want = lapack_mir(psd, 0, group)
            bound = 32 * np.finfo(float).eps * np.exp(2.0 * want)
            assert np.all(np.abs(row - want) <= bound), group


def test_spectral_mir_rows_of_an_independent_source_are_minus_zero():
    # Coherence exactly 0 leaves r = 1 exactly, and -ln sqrt(1) is -0.0,
    # which profiles.csv prints as "-0".
    rows = spectral_mir_rows(MIR_ROWS_PSD, 0, [[5], [1], [1, 5]])
    assert np.all(rows[0] == 0.0) and np.all(np.signbit(rows[0]))
    assert np.all(rows[1] > 0.0)
    assert np.array_equal(rows[2], rows[1])


def _singular_psd(kind):
    """Four channels on 5 points, white except at f = 0.25 Hz (index 2):
    a zero source pivot (sources 1 and 2 equal), a zero target residual
    (target equal to source 1), or a residual below zero (a coherence of
    1 + 1e-12 between target and source 1, inside the validation's
    tolerance)."""
    grid = FrequencyGrid(fs=1.0, n_points=5)
    mats = np.tile(np.eye(4, dtype=complex), (5, 1, 1))
    a, b = (1, 2) if kind == "zero-pivot" else (0, 1)
    mats[2, a, b] = mats[2, b, a] = 1.0 + 1e-12 if kind == "negative-residual" else 1.0
    return SpectralMatrix(grid=grid, mats=mats)


# What each kind computes for det * r at the bad frequency: none is a tiny positive value.
SINGULAR_DET_R = {"zero-pivot": "nan", "zero-residual": "0", "negative-residual": r"-\d\.\d+e-\d+"}


@pytest.mark.parametrize("kind", ["zero-pivot", "zero-residual", "negative-residual"])
def test_spectral_mir_rows_singular_blocks(kind):
    psd, printed = _singular_psd(kind), SINGULAR_DET_R[kind]
    bad = [1, 2] if kind == "zero-pivot" else [1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning leaks
        # the groups before the bad one are fine
        assert np.array_equal(spectral_mir_rows(psd, 0, [[3], [2, 3]]), np.zeros((2, 5)))
        # the message prints the computed det * r
        for groups, named in (([[3], bad], bad), ([[3], [1, 2, 3]], [1, 2, 3])):
            with pytest.raises(SpectralSingularityError, match=(
                rf"target 0 and sources \[{', '.join(map(str, named))}\] singular "
                rf"to working precision \(normalised determinant {printed}, where at least "
                rf"1e-300 is needed\) at f = 0.25 Hz"
            )):
                spectral_mir_rows(psd, 0, groups)
        with pytest.raises(SpectralSingularityError, match="f = 0.25 Hz"):
            spectral_mir(psd, 0, bad)
        # the message says what the floor means for the route
        with pytest.raises(SpectralSingularityError, match=(
            r"singular to working precision .* limits this route to an MIR near 18 nats"
        )):
            spectral_mir(psd, 0, bad)


# The exact element reference: every source set of each model, target 0.
SERIES_MODELS = {
    "sim1": build_scenario(Scenario("sim1", {"c": 0.4})),
    "sim2": build_scenario(Scenario("sim2", {"c": 0.4})),
    "sim3": build_scenario(Scenario("sim3")),
    **{f"random M={m} p={p}": random_stable_var(m + 1, p, seed=10 * m + p, radius=0.9)
       for m in (2, 3, 4) for p in (1, 3)},
}


def source_sets(model):
    sources = range(1, model.dim)
    return [c for size in sources for c in itertools.combinations(sources, size)]


@pytest.mark.parametrize("name", SERIES_MODELS)
def test_spectral_mir_equals_the_exact_element_series(name):
    model = SERIES_MODELS[name]
    psd = psd_from_var(model, FrequencyGrid(n_points=257))
    for chans in source_sets(model):
        g0, c = element_series(model, 0, chans)
        series = g0 + np.cos(np.outer(psd.grid.omegas, np.arange(1, len(c) + 1))) @ c
        assert np.abs(series - spectral_mir(psd, 0, chans)).max() <= 1e-13, chans


@pytest.mark.parametrize("name", SERIES_MODELS)
def test_element_series_constant_term_is_the_mir_split(name):
    # the Kolmogorov-Szego value: the integral of the MIR over the axis
    model = SERIES_MODELS[name]
    for chans in source_sets(model):
        g0, _ = element_series(model, 0, chans)
        assert abs(g0 - sum(mir_decomposition(model, 0, chans))) <= 1e-12, chans


def test_spectral_mir_rows_names_the_first_singular_group_in_groups_order():
    # Sources 2 and 3 are equal at 0.125 Hz, and the target equals source 1
    # at 0.375 and 0.5 Hz: the first singular group asked for is named,
    # at its own first bad frequency, wherever the others are singular.
    grid = FrequencyGrid(fs=1.0, n_points=5)
    mats = np.tile(np.eye(4, dtype=complex), (5, 1, 1))
    mats[1, 2, 3] = mats[1, 3, 2] = 1.0
    mats[3:, 0, 1] = mats[3:, 1, 0] = 1.0
    psd = SpectralMatrix(grid=grid, mats=mats)
    for groups, named, hz in (
        ([[3], [1], [2, 3]], "[1]", "0.375"),
        ([[3], [2, 3], [1]], "[2, 3]", "0.125"),
        ([[1, 2], [2, 3]], "[1, 2]", "0.375"),
    ):
        with pytest.raises(SpectralSingularityError, match=(
            rf"sources {re.escape(named)} singular .* at f = {hz} Hz"
        )):
            spectral_mir_rows(psd, 0, groups)


def test_spectral_mir_rows_argument_errors():
    psd = psd_from_var(WHITE_080, FrequencyGrid(n_points=5))
    for groups in ([[1], [0, 1]], [[1], []], [[1], [3]]):
        with pytest.raises(ArgumentError):
            spectral_mir_rows(psd, 0, groups)
    with pytest.raises(ArgumentError):
        spectral_mir_rows(psd, 5, [[1]])


def test_diagonal_loading(grid):
    psd = psd_from_var(WHITE_080, grid)
    loaded = psd.with_diagonal_loading(0.01)
    base = spectral_mir(psd, 0, [1, 2])
    soft = spectral_mir(loaded, 0, [1, 2])
    assert np.all(soft < base)  # loading shrinks dependence
    with pytest.raises(ArgumentError):
        psd.with_diagonal_loading(-0.1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ArgumentError, match="finite and nonnegative"):
            psd.with_diagonal_loading(bad)
    assert np.array_equal(psd.with_diagonal_loading(0.0).mats, psd.mats)


@pytest.mark.parametrize("given", [False, True])
def test_diagonal_loading_adds_the_scaled_identity(given):
    # A model spectrum, or the same matrices supplied by the user.
    psd = psd_from_var(random_stable_var(4, 2, seed=8), FrequencyGrid(n_points=33))
    if given:
        psd = SpectralMatrix(grid=psd.grid, mats=np.array(psd.mats), names=psd.names)
    delta = 0.03
    traces = np.trace(psd.mats, axis1=1, axis2=2).real / 4
    loaded = psd.with_diagonal_loading(delta)
    assert np.array_equal(loaded.mats, psd.mats + delta * traces[:, None, None] * np.eye(4))
    assert not loaded.mats.flags.writeable
    assert not np.shares_memory(loaded.mats, psd.mats)
    assert (loaded.grid, loaded.names) == (psd.grid, psd.names)


def test_diagonal_loading_that_overflows_is_a_numerical_error():
    # delta * trace/Q overflows, and times the zeros of I it is NaN
    model = VarModel(coeffs=[0.5 * np.eye(3)], sigma=4.0 * np.eye(3))
    psd = psd_from_var(model, FrequencyGrid(n_points=9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning escapes
        with pytest.raises(NumericalError, match="non-finite entry"):
            psd.with_diagonal_loading(1e308)


def test_integrate_full_constant(grid):
    profile = np.full(grid.n_points, 0.73)
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
    profile = rng.uniform(0, 2, grid.n_points)
    band = Band(0.0, 0.5, "ALL")
    assert integrate_band(profile, band, grid.fs) == pytest.approx(
        integrate_full(profile), abs=1e-15
    )


def test_integrate_band_proportionality(grid):
    profile = np.full(grid.n_points, 1.4)
    assert integrate_band(profile, Band(0.0, 0.25, "half"), grid.fs) == pytest.approx(
        0.7, abs=1e-12
    )
    # narrow band inside a single grid cell
    lo, hi = 0.10001, 0.10002
    got = integrate_band(profile, Band(lo, hi, "narrow"), grid.fs)
    assert got == pytest.approx(1.4 * (hi - lo) / 0.5, rel=1e-9)


def test_band_partition_sums_to_full(grid):
    rng = np.random.default_rng(6)
    profile = rng.uniform(0, 3, grid.n_points)
    cuts = [0.0, 0.0371, 0.123456, 0.25, 0.41, 0.5]
    total = sum(
        integrate_band(profile, Band(a, b, f"b{i}"), grid.fs)
        for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))
    )
    assert abs(total - integrate_full(profile)) < 1e-9


def test_band_validation(grid):
    profile = np.zeros(grid.n_points)
    with pytest.raises(ArgumentError):
        Band(0.3, 0.2, "bad")
    for lo, hi in (("0.1", 0.2), (None, 0.2), (0.1, 0.2j)):
        with pytest.raises(ArgumentError, match="must be a real number"):
            Band(lo, hi, "x")
    with pytest.raises(ArgumentError, match="Nyquist"):
        integrate_band(profile, Band(0.1, 0.6, "beyond"), grid.fs)


@pytest.mark.parametrize(
    "values",
    [np.ones((2, 65)), np.ones((65, 1)), np.ones(1), np.array(0.5),
     np.r_[0.0, np.nan, 1.0], np.r_[0.0, np.inf, 1.0]],
    ids=["2-D", "column", "one point", "scalar", "NaN", "inf"],
)
def test_integrators_take_one_finite_row_of_two_points_or_more(values):
    with pytest.raises(ArgumentError, match="finite 1-D row"):
        integrate_full(values)
    with pytest.raises(ArgumentError, match="finite 1-D row"):
        integrate_band(values, Band(0.0, 0.25, "low"), 1.0)


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


EPS = np.finfo(float).eps


def test_quadrature_weights_match_the_per_row_interp_reference():
    # The band weights reproduce np.interp + 1-D np.trapezoid on every row
    # to roundoff, with edges on, between and beyond grid points, and
    # integrate_band is the engine's row integral bit for bit.
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
        got = integrate_rows(rows, [quadrature_weights(grid, band)])[0]
        want = np.array([reference_band_integral(row, grid, band) for row in rows])
        assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(rows).max(axis=1)), (n, fs, band)
        for row, value in zip(rows, got):
            one = integrate_band(row, band, fs)
            assert one == value and np.signbit(one) == np.signbit(value), (n, fs, band)
        w_lo = 2.0 * np.pi * band.lo / fs
        exact_edges += bool(np.any(grid.omegas == w_lo)) and band.lo > 0.0
    # A fair share of the lower edges fall exactly on interior grid points.
    assert exact_edges > 100


#: A random grid (n = 2..4097 points at one of several sampling rates) and
#: three cuts ``lo < mid < hi`` of its Nyquist range, as fractions.
WEIGHT_CASES = st.tuples(
    st.integers(2, 4097),
    st.sampled_from([1.0, 2.0, 2.7, 0.3, 250.0]),
    st.lists(
        st.floats(0.0, 1.0, allow_subnormal=False), min_size=3, max_size=3, unique=True
    ).map(sorted),
)
#: A coefficient of a linear profile, far from underflow.
COEFFS = st.floats(-10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-6)
WEIGHT_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _grid_and_bands(case):
    """The grid of a :data:`WEIGHT_CASES` draw and its bands [lo, mid],
    [mid, hi] and their union [lo, hi]."""
    n, fs, cuts = case
    lo, mid, hi = (c * fs / 2.0 for c in cuts)
    return FrequencyGrid(fs=fs, n_points=n), Band(lo, mid, "A"), Band(mid, hi, "B"), Band(lo, hi, "AB")


@WEIGHT_PROPERTY
@given(WEIGHT_CASES)
def test_full_axis_weights_are_nonnegative_and_sum_to_one(case):
    grid = _grid_and_bands(case)[0]
    w = quadrature_weights(grid)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= grid.n_points * EPS


@WEIGHT_PROPERTY
@given(WEIGHT_CASES)
def test_weights_of_adjacent_bands_add_up_to_their_union(case):
    grid, first, second, union = _grid_and_bands(case)
    w = [quadrature_weights(grid, band) for band in (first, second, union)]
    assert np.all(np.abs(w[0] + w[1] - w[2]) <= EPS)


@WEIGHT_PROPERTY
@given(WEIGHT_CASES, COEFFS, COEFFS)
def test_a_linear_profile_integrates_exactly(case, alpha, beta):
    # The trapezoid over the band is exact on f(omega) = alpha + beta * omega.
    grid, _, _, band = _grid_and_bands(case)
    a = 2.0 * np.pi * band.lo / grid.fs
    b = min(2.0 * np.pi * band.hi / grid.fs, np.pi)
    profile = alpha + beta * grid.omegas
    want = (b - a) * ((alpha + beta * a) + (alpha + beta * b)) / (2.0 * np.pi)
    scale = max(abs(alpha), abs(alpha + beta * np.pi))
    assert abs(integrate_band(profile, band, grid.fs) - want) <= 4 * EPS * scale


@WEIGHT_PROPERTY
@given(WEIGHT_CASES, st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_a_row_integrates_alike_alone_and_among_rows(case, n_rows, seed):
    grid, first, second, _ = _grid_and_bands(case)
    rows = np.random.default_rng(seed).standard_normal((n_rows, grid.n_points))
    weights = [quadrature_weights(grid, band) for band in (None, first, second)]
    together = integrate_rows(rows, weights)
    for k, row in enumerate(rows):
        alone = integrate_rows(row[None, :], weights)[:, 0]
        assert np.array_equal(alone, together[:, k])
        assert integrate_full(row) == together[0, k]
        assert [integrate_band(row, b, grid.fs) for b in (first, second)] == together[1:, k].tolist()


def test_sim3_band_concentration(sim3_model, grid):
    # the 0.3 Hz oscillation in X1 confines most of its shared rate to B2
    psd = psd_from_var(sim3_model, grid)
    profile = spectral_mir(psd, 0, [1])
    full = integrate_full(profile)
    b2 = integrate_band(profile, Band(0.15, 0.4, "B2"), grid.fs)
    assert b2 >= 0.8 * full


@pytest.mark.parametrize(
    "label, match",
    [("a,b", "cannot hold"), ('a"b', "cannot hold"), ("a\rb", "cannot hold"),
     ("a\nb", "cannot hold"), ("", "non-empty"), (None, "strings")],
    ids=["comma", "double-quote", "carriage-return", "newline", "empty", "not-a-string"],
)
def test_band_labels_follow_the_channel_name_rule(label, match):
    with pytest.raises(ArgumentError, match=match):
        Band(0.1, 0.2, label)


def test_parse_bands():
    bands = parse_bands("LF:0.04-0.15,HF:0.15-0.4")
    assert [b.label for b in bands] == ["LF", "HF"]
    assert bands[0].lo == 0.04 and bands[1].hi == 0.4
    with pytest.raises(ArgumentError):
        parse_bands("nonsense")


@pytest.mark.parametrize(
    "spec, edges",
    [("VLF:1e-3-0.04", (1e-3, 0.04)), ("LF:4e-2-1.5e-1", (0.04, 0.15)),
     ("HF:0.15-4E-1", (0.15, 0.4)), ("B:1.5e+1-2e1", (15.0, 20.0))],
)
def test_parse_bands_takes_edges_in_exponent_notation(spec, edges):
    [band] = parse_bands(spec)
    assert (band.lo, band.hi) == edges


@pytest.mark.parametrize(
    "spec, message",
    [("X:1e-3", "cannot parse band"), ("X:0.1-0.2-0.3", "cannot parse band"),
     ("X:0.1--0.2", "need 0 <= lo < hi"), ("X:-0.1-0.2", "need 0 <= lo < hi"),
     ("X:-1e-2-0.2", "need 0 <= lo < hi"), ("X:0.2-0.1", "need 0 <= lo < hi")],
)
def test_parse_bands_splits_at_the_one_hyphen_between_two_numbers(spec, message):
    with pytest.raises(ArgumentError, match=message):
        parse_bands(spec)
