import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pird import (
    ArgumentError,
    Band,
    EstimationError,
    FrequencyGrid,
    NumericalError,
    Scenario,
    UnstableModelError,
    VarModel,
    build_scenario,
    decompose,
    gaussian_mi,
    instantaneous_info,
    integrate_full,
    mir_decomposition,
    psd_from_var,
    random_stable_var,
    spectral_mir,
    static_pid,
    submodel_innovation,
    te_pid,
    transfer_entropy,
)
from pird import baselines, var
from pird.decomposition import write_coarse_csv
from pird.cli import _parse_sweep, main

from conftest import make_model_set
from oracles import autocovariance_sequence

COR08 = np.eye(3) * 0.2 + 0.8


# ---------------------------------------------------------------------------
# Gaussian MI


def test_gaussian_mi_independence():
    assert gaussian_mi(np.diag([1.0, 2.0, 3.0]), 0, [1, 2]) == pytest.approx(0.0, abs=1e-14)


def test_gaussian_mi_bivariate_correlation():
    cov = np.array([[1.0, 0.8], [0.8, 1.0]])
    assert gaussian_mi(cov, 0, [1]) == pytest.approx(-0.5 * np.log(0.36), abs=1e-14)


def test_gaussian_mi_joint_three_way():
    assert gaussian_mi(COR08, 0, [1, 2]) == pytest.approx(
        0.5 * np.log(0.36 / 0.104), abs=1e-13
    )


def test_gaussian_mi_input_validation():
    with pytest.raises(ArgumentError, match="positive definite"):
        gaussian_mi(np.array([[1.0, 1.0], [1.0, 1.0]]), 0, [1])
    with pytest.raises(ArgumentError, match="symmetric"):
        gaussian_mi(np.array([[1.0, 0.5], [0.1, 1.0]]), 0, [1])
    for not_a_matrix in (np.float64(1.0), np.ones(3), np.ones((2, 3))):
        with pytest.raises(ArgumentError, match="square"):
            gaussian_mi(not_a_matrix, 0, [1])


ASYMMETRIC = np.array([[1.0, 0.5, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])


@pytest.mark.parametrize("scale", [1e-20, 1e-10, 1.0, 1e10, 1e20])
def test_one_symmetry_rule_at_every_scale(scale):
    # The rule is relative to the largest entry, for a covariance and for
    # a model's innovation covariance alike.
    with pytest.raises(ArgumentError, match="covariance must be symmetric"):
        gaussian_mi(scale * ASYMMETRIC, 0, [1, 2])
    with pytest.raises(ArgumentError, match="sigma must be symmetric"):
        VarModel(coeffs=np.zeros((0, 3, 3)), sigma=scale * ASYMMETRIC)
    symmetric = scale * COR08
    assert gaussian_mi(symmetric, 0, [1, 2]) == pytest.approx(
        gaussian_mi(COR08, 0, [1, 2]), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gaussian_mi_rejects_a_non_finite_covariance_without_a_warning(bad):
    cov = COR08.copy()
    cov[1, 2] = cov[2, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="finite"):
            gaussian_mi(cov, 0, [1, 2])
    with pytest.raises(ArgumentError):
        gaussian_mi(np.eye(2), 0, [0])


def test_gaussian_mi_nonnegative_on_random_covariances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.standard_normal((4, 4))
        cov = w @ w.T + 0.5 * np.eye(4)
        assert gaussian_mi(cov, 0, [1, 2, 3]) >= -1e-12


# ---------------------------------------------------------------------------
# static PID


def test_static_pid_sim1_c0(grid):
    m = build_scenario(Scenario("sim1", {"c": 0.0}))
    res = static_pid(m, 0)
    assert res.redundancy == pytest.approx(-0.5 * np.log(0.36), abs=1e-12)
    assert res.unique == pytest.approx((0.0, 0.0), abs=1e-12)
    assert res.synergy == pytest.approx(
        0.5 * np.log(0.36 / 0.104) + 0.5 * np.log(0.36), abs=1e-12
    )
    # identical to the spectral route in the absence of dynamics
    pird = decompose(psd_from_var(m, grid), 0).coarse["FULL"]
    assert abs(res.redundancy - pird.redundancy) < 1e-6
    assert abs(res.synergy - pird.synergy) < 1e-6


def test_static_pid_uncorrelated_white_is_zero():
    m = VarModel(coeffs=np.zeros((0, 3, 3)), sigma=np.eye(3))
    res = static_pid(m, 0)
    for v in (res.joint_mir, res.redundancy, res.synergy, *res.unique):
        assert abs(v) < 1e-12


def test_static_pid_additivity_identity():
    for m in make_model_set(count=6, seed=3):
        if m.dim < 3:
            continue
        res = static_pid(m, 0)
        total = sum(res.unique) + res.redundancy + res.synergy
        assert abs(total - res.joint_mir) < 1e-10
        for u, mi in zip(res.unique, res.marginals):
            assert u == pytest.approx(mi - res.redundancy, abs=1e-12)


# ---------------------------------------------------------------------------
# transfer entropy


def test_te_joint_sim2_c0_closed_form():
    m = build_scenario(Scenario("sim2", {"c": 0.0}))
    te = transfer_entropy(m, [1, 2], 0)
    assert te == pytest.approx(0.5 * np.log(4.2), abs=1e-10)


def test_te_vanishes_without_coupling():
    m = build_scenario(Scenario("sim2", {"c": 0.8}))  # X -> Y links zeroed
    assert transfer_entropy(m, [1, 2], 0) < 1e-6
    assert transfer_entropy(m, [1], 0) < 1e-6


def test_te_marginal_sim2_c0_closed_forms():
    # the bivariate sub-models are exact here: var(Y)=4.2, and conditioning
    # on one source's past removes its own contribution
    m = build_scenario(Scenario("sim2", {"c": 0.0}))
    te1 = transfer_entropy(m, [1], 0)
    te2 = transfer_entropy(m, [2], 0)
    assert te1 == pytest.approx(0.5 * np.log(4.2 / (4.2 - 0.64)), abs=1e-10)
    assert te2 == pytest.approx(0.5 * np.log(4.2 / (4.2 - 2.56)), abs=1e-10)


def test_te_precondition_errors():
    m = build_scenario(Scenario("sim2", {"c": 0.2}))
    with pytest.raises(ArgumentError, match="target and source"):
        transfer_entropy(m, [0, 1], 0)
    with pytest.raises(ArgumentError):
        transfer_entropy(m, [], 0)
    with pytest.raises(ArgumentError, match="conditioning"):
        transfer_entropy(m, [1], 0, conditioning=[1])
    with pytest.raises(ArgumentError, match="at least one channel"):
        submodel_innovation(m, [])
    with pytest.raises(ArgumentError, match="out of range"):
        submodel_innovation(m, [0, 3])
    with pytest.raises(UnstableModelError):
        submodel_innovation(VarModel(coeffs=[[[1.02]]], sigma=[[1.0]]), [0])


# A unit-circle mode the observation cannot see: driven by noise, its
# variance grows without bound; undriven, the closed loop keeps it.
UNSEEN_UNIT_MODE = dict(
    a=np.diag([1.0, 0.5]), c=np.array([[0.0, 0.5]]), r=np.eye(1), s=np.zeros((2, 1))
)


@pytest.mark.parametrize("q", [np.eye(2), np.diag([0.0, 1.0])])
def test_dare_without_stabilising_solution_raises(q):
    with pytest.raises(np.linalg.LinAlgError):
        var._dare(q=q, **UNSEEN_UNIT_MODE)


def test_riccati_failure_is_estimation_error(monkeypatch, tmp_path):
    # A random walk that channel 0 does not see: past the stability guard,
    # the solver itself fails and the failure surfaces as EstimationError.
    walk = VarModel(coeffs=[[[0.5, 0.0], [0.0, 1.0]]], sigma=np.eye(2))
    monkeypatch.setattr(var, "_require_stable", lambda *args: None)
    with pytest.raises(EstimationError, match="Riccati"):
        submodel_innovation(walk, [0])
    monkeypatch.undo()

    # The CLI maps it to exit code 4.
    solve = var._dare
    monkeypatch.setattr(var, "_dare", lambda *args: solve(q=np.eye(2), **UNSEEN_UNIT_MODE))
    args = ["decompose", "--scenario", "sim2", "--c", "0.2", "--out", str(tmp_path)]
    assert main(args) == 4


def innovations_form(model, channels):
    """The Riccati equation :func:`submodel_innovation` solves, as
    ``(A, C, Q, R, S)`` in the channels' unit-innovation-variance scaling,
    and that scaling."""
    scale = 1.0 / np.sqrt(np.diag(model.sigma))
    state_scale = np.tile(scale, model.order)
    comp = state_scale[:, None] * model.companion() / state_scale[None, :]
    noise = np.zeros_like(comp)
    noise[: model.dim, : model.dim] = model.sigma * np.outer(scale, scale)
    chans = list(channels)
    return (comp, comp[chans], noise, noise[np.ix_(chans, chans)], noise[:, chans]), scale[chans]


def riccati_residual(a, c, q, r, s, p):
    gain = a @ p @ c.T + s
    resid = a @ p @ a.T - p - gain @ np.linalg.solve(r + c @ p @ c.T, gain.T) + q
    return np.abs(resid).max() / max(np.abs(p).max(), np.abs(q).max())


def test_submodel_innovation_matches_scipy_dare():
    rng = np.random.default_rng(606)
    for _ in range(15):
        m = random_stable_var(8, 5, rng, radius=float(rng.uniform(0.9, 0.995)))
        for _ in range(3):
            chans = sorted(rng.choice(8, int(rng.integers(1, 9)), replace=False).tolist())
            (a, c, q, r, s), scale = innovations_form(m, chans)
            p = scipy.linalg.solve_discrete_are(a.T, c.T, q, r, s=s)
            oracle = (c @ p @ c.T + r) / np.outer(scale, scale)
            sig = submodel_innovation(m, chans)
            assert np.abs(sig - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_doubling_solvers_near_the_unit_circle():
    rng = np.random.default_rng(999)
    for seed in range(4):
        m = random_stable_var(8, 5, seed=seed, radius=0.999)
        chans = sorted(rng.choice(8, int(rng.integers(1, 8)), replace=False).tolist())
        equation, _ = innovations_form(m, chans)
        a, c, q, r, s = equation
        oracle = scipy.linalg.solve_discrete_are(a.T, c.T, q, r, s=s)
        p = var._dare(*equation)
        assert riccati_residual(*equation, p) <= 1e-13
        assert np.abs(p - oracle).max() <= 1e-10 * np.abs(oracle).max()

        comp = m.companion()
        noise = np.zeros_like(comp)
        noise[:8, :8] = m.sigma
        oracle = scipy.linalg.solve_discrete_lyapunov(comp, noise)
        gamma = var._companion_covariance(m)
        lyap_resid = comp @ gamma @ comp.T + noise - gamma
        assert np.abs(lyap_resid).max() <= 1e-13 * np.abs(gamma).max()
        assert np.abs(gamma - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_te_vector_target(sim3_model):
    # transfer to a group: reduces the group's innovation determinant
    te = transfer_entropy(sim3_model, [1], [0, 2])
    assert te > 0.1
    no_link = transfer_entropy(sim3_model, [2], [3])
    assert no_link < 1e-8


def test_te_conditioning_changes_marginals(sim3_model):
    biv = transfer_entropy(sim3_model, [2], 0)
    cond = transfer_entropy(sim3_model, [2], 0, conditioning=[1, 3])
    # X2's apparent influence on Y disappears given X1 and X3
    assert biv > 0.01
    assert cond < 1e-6


def yule_walker_innovation(model, channels, order=256):
    """Residual covariance of the order-``order`` block Yule-Walker fit to
    the sub-process, from the model's exact autocovariances. It converges to
    the sub-process innovation covariance as the order grows."""
    d = len(channels)
    sub = [g[np.ix_(channels, channels)] for g in autocovariance_sequence(model, order)]
    lags = np.arange(order)[None, :] - np.arange(order)[:, None]  # (i, j) -> j - i
    blocks = np.array([sub[k] if k >= 0 else sub[-k].T for k in range(1 - order, order)])
    toeplitz = blocks[lags + order - 1].transpose(0, 2, 1, 3).reshape(order * d, order * d)
    cross = np.hstack(sub[1:])
    coefs = scipy.linalg.solve(toeplitz, cross.T, assume_a="pos").T
    return sub[0] - coefs @ cross.T


def test_submodel_innovation_matches_yule_walker_oracle(sim3_model, benchmark_models):
    models = [sim3_model, benchmark_models[1]] + make_model_set(count=10, seed=4242)
    for m in models:
        last = m.dim - 1
        for chans in ([0], [last], [0, last], list(range(1, m.dim)), list(range(m.dim))):
            oracle = yule_walker_innovation(m, chans)
            assert np.max(np.abs(submodel_innovation(m, chans) - oracle)) < 1e-10


def test_te_szegoe_quadrature_oracle(sim3_model):
    # independent route: innovation variances from the log-spectrum integral
    grid_n = 16385
    from pird import FrequencyGrid

    grid = FrequencyGrid(fs=1.0, n_points=grid_n)
    psd = psd_from_var(sim3_model, grid)

    def szegoe_logdet(channels):
        sub = psd.mats[np.ix_(range(grid_n), channels, channels)]
        sign, logdet = np.linalg.slogdet(sub)
        return np.trapezoid(logdet, grid.omegas) / np.pi

    # T_{X->Y}: reduced = {Y}, full = all channels
    ld_red = szegoe_logdet([0])
    ld_full_joint = szegoe_logdet([0, 1, 2, 3])
    ld_sources = szegoe_logdet([1, 2, 3])
    # det of the Y-innovation given everything = det(joint)/det(sources)
    te_oracle = 0.5 * (ld_red - (ld_full_joint - ld_sources))
    te = transfer_entropy(sim3_model, [1, 2, 3], 0)
    assert te == pytest.approx(te_oracle, abs=1e-7)


def test_submodel_innovation_full_set_recovers_sigma(sim3_model):
    sig = submodel_innovation(sim3_model, range(4))
    assert np.max(np.abs(sig - sim3_model.sigma)) < 1e-10


# ---------------------------------------------------------------------------
# instantaneous information


def test_instantaneous_info_diagonal_is_zero():
    m = build_scenario(Scenario("sim2", {"c": 0.5}))
    assert instantaneous_info(m, [1, 2], 0) == pytest.approx(0.0, abs=1e-14)


def test_instantaneous_info_sim1_c0_equals_joint_mir():
    m = build_scenario(Scenario("sim1", {"c": 0.0}))
    inst = instantaneous_info(m, [1, 2], 0)
    assert inst == pytest.approx(0.5 * np.log(0.36 / 0.104), abs=1e-13)


# ---------------------------------------------------------------------------
# TE PID


def test_te_pid_sim2_extremes():
    m8 = build_scenario(Scenario("sim2", {"c": 0.8}))
    res8 = te_pid(m8, 0)
    for v in (res8.joint_mir, res8.redundancy, res8.synergy, *res8.unique):
        assert abs(v) < 1e-6
    m0 = build_scenario(Scenario("sim2", {"c": 0.0}))
    res0 = te_pid(m0, 0)
    assert res0.joint_mir == pytest.approx(0.5 * np.log(4.2), abs=1e-9)
    total = sum(res0.unique) + res0.redundancy + res0.synergy
    assert abs(total - res0.joint_mir) < 1e-12


def test_te_pid_symmetric_sources_have_no_unique_share():
    # two identical sources both driving the target the same way
    a = np.zeros((1, 3, 3))
    a[0][0, 1] = 0.5
    a[0][0, 2] = 0.5
    m = VarModel(coeffs=a, sigma=np.eye(3))
    res = te_pid(m, 0)
    assert res.unique[0] == pytest.approx(0.0, abs=1e-10)
    assert res.unique[1] == pytest.approx(0.0, abs=1e-10)


def test_te_pid_conditioned_variant(sim3_model):
    biv = te_pid(sim3_model, 0)
    cond = te_pid(sim3_model, 0, conditioned=True)
    assert biv.joint_mir == pytest.approx(cond.joint_mir, abs=1e-12)
    assert biv.redundancy != pytest.approx(cond.redundancy, abs=1e-6)


def count_solver_members(monkeypatch):
    """Record each batch member the Riccati/Lyapunov solver is given, as the
    bytes of its observation matrix."""
    members = []
    solve = var._dare

    def counted(a, c, q, r, s, names=None):
        members.extend(member.tobytes() for member in c)
        return solve(a, c, q, r, s, names)

    monkeypatch.setattr(var, "_dare", counted)
    return members


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("conditioned", [False, True])
def test_te_pid_solves_each_distinct_submodel_once(monkeypatch, m, conditioned):
    # target-only, joint and one set per source (the target plus that source,
    # or conditioned, the target plus the other sources): M + 2 sets
    model = random_stable_var(m + 2, 2, seed=100 + m, radius=0.85)
    srcs = list(range(2, m + 2))
    expected_joint = transfer_entropy(model, srcs, 1)
    others = {s: [o for o in srcs if o != s] if conditioned else [] for s in srcs}
    expected_marginals = tuple(
        transfer_entropy(model, [s], 1, conditioning=others[s]) for s in srcs
    )
    members = count_solver_members(monkeypatch)
    res = te_pid(model, 1, srcs, conditioned=conditioned)
    assert len(members) == m + 2
    assert len(set(members)) == len(members)
    assert res.joint_mir == expected_joint
    assert res.marginals == expected_marginals


@pytest.mark.parametrize("target, sources", [(0, None), (2, [0, 3]), (1, [4])])
def test_mir_decomposition_solves_each_distinct_submodel_once(monkeypatch, target, sources):
    # the target alone, the sources alone and both together: 3 sets
    model = random_stable_var(5, 2, seed=31, radius=0.9)
    srcs = [c for c in range(5) if c != target] if sources is None else sources
    expected = (
        transfer_entropy(model, srcs, target),
        transfer_entropy(model, [target], srcs),
        instantaneous_info(model, srcs, target),
    )
    members = count_solver_members(monkeypatch)
    assert mir_decomposition(model, target, sources) == expected
    assert len(members) == len(set(members)) == 3


def test_a_static_sweep_solves_one_lyapunov_equation_per_model(monkeypatch, tmp_path):
    # The sim1 sweep reads each model's stationary covariance, the empty
    # channel set of the covariance table: no Riccati equation, no repeat.
    members = count_solver_members(monkeypatch)
    assert main(["bench", "--scenario", "sim1", "--grid", "65", "--out", str(tmp_path)]) == 0
    assert members == [b""] * len(_parse_sweep("0:0.05:0.8"))


def test_lyapunov_failure_is_estimation_error(monkeypatch):
    # A state that does not decay: the doubling cannot converge.
    solve = var._dare
    monkeypatch.setattr(var, "_dare", lambda a, *rest: solve(np.eye(a.shape[-1]) + 0.0 * a, *rest))
    with pytest.raises(EstimationError, match="^Lyapunov equation has no stable solution: "):
        var.zero_lag_covariance(random_stable_var(3, 2, seed=1))


def test_every_reference_quantity_refuses_an_unstable_model_alike():
    model = VarModel(coeffs=[np.diag([1.02, 0.5, 0.5])], sigma=np.eye(3))
    calls = (
        lambda: static_pid(model, 0), lambda: te_pid(model, 0), lambda: mir_decomposition(model, 0),
        lambda: instantaneous_info(model, [1, 2], 0), lambda: transfer_entropy(model, [1], 0),
        lambda: submodel_innovation(model, [0, 2]), lambda: var.zero_lag_covariance(model),
    )
    messages = set()
    for call in calls:
        with pytest.raises(UnstableModelError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {
        "the analytic covariance structure requires a stable model "
        "(companion spectral radius 1.020000)"
    }


@pytest.mark.parametrize("call", [
    lambda m: submodel_innovation(m, [2, 0]), lambda m: var.zero_lag_covariance(m),
])
def test_one_state_space_build_per_call(monkeypatch, call):
    model = random_stable_var(4, 3, seed=8, radius=0.9)
    expected = call(model)
    built = []
    build = var._state_space
    monkeypatch.setattr(var, "_state_space", lambda m: built.append(m) or build(m))
    for calls in (1, 2):
        assert np.array_equal(call(model), expected)
        assert built == [model] * calls


def test_static_pid_checks_the_stationary_covariance_once(monkeypatch):
    model = random_stable_var(5, 3, seed=12, radius=0.9)
    gamma = var.zero_lag_covariance(model)
    srcs = [1, 2, 4]
    expected = (gaussian_mi(gamma, 0, srcs), tuple(gaussian_mi(gamma, 0, [s]) for s in srcs))
    checked = []
    check = baselines._check_covariance
    monkeypatch.setattr(
        baselines, "_check_covariance", lambda cov, what: checked.append(cov) or check(cov, what)
    )
    res = static_pid(model, 0, srcs)
    assert len(checked) == 1
    assert (res.joint_mir, res.marginals) == expected


@pytest.mark.parametrize("scenario", ["sim1", "sim2"])
def test_sweep_batch_equals_the_single_model_path(scenario):
    # The sweep of `pird bench` solves all its models in one batch: each
    # member stops at its own convergence, so every value is bit for bit
    # the one-model value.
    cs = _parse_sweep("0:0.05:0.8")
    models = [build_scenario(Scenario(scenario, {"c": float(c)})) for c in cs]
    for conditioned in (False, True):
        assert baselines._te_pids(models, 0, None, conditioned) == [
            te_pid(m, 0, conditioned=conditioned) for m in models
        ]
    assert baselines._static_pids(models, 0, None) == [static_pid(m, 0) for m in models]


def test_mixed_batch_equals_the_single_model_path():
    # M = 2..4 sources, orders 0..3: the batch groups its equations by shape
    rng = np.random.default_rng(404)
    models = [
        random_stable_var(m + 1, order, seed=rng, radius=float(rng.uniform(0.3, 0.98)))
        for m in (2, 3, 4)
        for order in (0, 1, 2, 3)
    ]
    models = [models[k] for k in rng.permutation(len(models))]
    for conditioned in (False, True):
        assert baselines._te_pids(models, 0, None, conditioned) == [
            te_pid(m, 0, conditioned=conditioned) for m in models
        ]
    assert baselines._static_pids(models, 0, None) == [static_pid(m, 0) for m in models]


@pytest.mark.parametrize("scenario, shapes", [("sim1", 3), ("sim2", 1)])
def test_a_sweep_takes_one_stacked_slogdet_per_block_shape(monkeypatch, scenario, shapes):
    # sim2's transfers are all on the one target (1 x 1 blocks); sim1's
    # static MIs take 1 x 1 to 3 x 3 blocks of the stationary covariance.
    models = [build_scenario(Scenario(scenario, {"c": float(c)})) for c in _parse_sweep("0:0.05:0.8")]
    calls = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: calls.append(a.shape) or slogdet(a))
    if scenario == "sim1":
        baselines._static_pids(models, 0, None)
    else:
        baselines._te_pids(models, 0, None, False)
    assert len(calls) == shapes
    assert sum(shape[0] for shape in calls) == 6 * len(models)


def test_stacked_logdets_equal_one_slogdet_each():
    rng = np.random.default_rng(5)
    blocks = []
    for size in (1, 2, 3, 1, 4, 2, 3):
        w = rng.standard_normal((size, size + 2)) * 10.0 ** rng.uniform(-5, 5)
        blocks.append((f"block {len(blocks)}", w @ w.T))
    want = [float(np.linalg.slogdet(block)[1]) for _, block in blocks]
    assert baselines._logdets(blocks) == want
    # The first block in order that is not positive definite is named,
    # though a block of a shape stacked earlier fails too.
    blocks[2] = ("third", -blocks[2][1])
    blocks[3] = ("fourth", -blocks[3][1])
    with pytest.raises(NumericalError, match="^third is not positive definite"):
        baselines._logdets(blocks)


def test_te_nonnegative_across_models():
    for m in make_model_set(count=8, seed=71):
        srcs = list(range(1, m.dim))
        assert transfer_entropy(m, srcs, 0) >= -1e-10
        assert transfer_entropy(m, [0], srcs) >= -1e-10


# ---------------------------------------------------------------------------
# additive MIR split (the Geweke-style identity)


def test_mir_identity_on_benchmarks(grid, benchmark_models):
    for m in benchmark_models:
        psd = psd_from_var(m, grid)
        mir = integrate_full(spectral_mir(psd, 0, list(range(1, m.dim))))
        tx, ty, inst = mir_decomposition(m, 0)
        assert abs(mir - (tx + ty + inst)) < 1e-10


def test_mir_identity_on_random_models(grid):
    for m in make_model_set(count=10, seed=2025):
        psd = psd_from_var(m, grid)
        mir = integrate_full(spectral_mir(psd, 0, list(range(1, m.dim))))
        tx, ty, inst = mir_decomposition(m, 0)
        assert abs(mir - (tx + ty + inst)) < 1e-10
        assert tx >= -1e-10 and ty >= -1e-10 and inst >= -1e-10


def test_mir_identity_with_a_subset_of_sources(grid):
    # the instantaneous term must come from the innovations of the
    # target-plus-sources sub-process, not from the full model's sigma
    m = random_stable_var(8, 3, seed=8, radius=0.9)
    sources = [1, 3, 5, 7]
    mir = integrate_full(spectral_mir(psd_from_var(m, grid), 0, sources))
    tx, ty, inst = mir_decomposition(m, 0, sources)
    assert abs(mir - (tx + ty + inst)) < 1e-10


# ---------------------------------------------------------------------------
# properties over random models

# derandomize: every run draws the same examples, so the gate is reproducible
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def random_models(min_dim, radius):
    return st.builds(
        random_stable_var,
        dim=st.integers(min_dim, 5),
        order=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        radius=radius,
    )


@PROPERTY
@given(m=random_models(2, st.floats(0.95, 0.995)), data=st.data())
def test_mir_identity_near_the_unit_circle(m, data):
    n_sources = data.draw(st.integers(1, m.dim - 1))
    sources = list(range(1, 1 + n_sources))
    psd = psd_from_var(m, FrequencyGrid(fs=1.0, n_points=8193))
    mir = integrate_full(spectral_mir(psd, 0, sources))
    tx, ty, inst = mir_decomposition(m, 0, sources)
    assert abs(mir - (tx + ty + inst)) < 1e-12


@PROPERTY
@given(
    m=random_models(2, st.floats(0.3, 0.95)),
    log_scales=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
)
def test_te_invariant_under_channel_scaling(m, log_scales):
    d = 10.0 ** np.array(log_scales[: m.dim])
    scaled = VarModel(
        coeffs=d[:, None] * m.coeffs / d[None, :], sigma=m.sigma * np.outer(d, d)
    )
    srcs = list(range(1, m.dim))
    for args in ((srcs, 0), ([0], srcs), ([m.dim - 1], 0)):
        assert transfer_entropy(scaled, *args) == pytest.approx(
            transfer_entropy(m, *args), abs=1e-12
        )


@PROPERTY
@given(m=random_models(3, st.floats(0.3, 0.95)), data=st.data())
def test_te_pid_invariant_under_source_permutation(m, data):
    perm = [0] + data.draw(st.permutations(range(1, m.dim)))
    m_p = VarModel(coeffs=m.coeffs[:, perm][:, :, perm], sigma=m.sigma[np.ix_(perm, perm)])
    res, res_p = te_pid(m, 0), te_pid(m_p, 0)
    assert res_p.joint_mir == pytest.approx(res.joint_mir, abs=1e-12)
    assert res_p.redundancy == pytest.approx(res.redundancy, abs=1e-12)
    assert res_p.synergy == pytest.approx(res.synergy, abs=1e-12)
    for i, old in enumerate(perm[1:]):
        assert res_p.unique[i] == pytest.approx(res.unique[old - 1], abs=1e-12)


def in_units(model, factors):
    """``model`` with channel ``i`` multiplied by ``factors[i]``: lag
    matrices ``D A D^-1`` and innovation covariance ``D sigma D``."""
    d = np.diag(factors)
    return VarModel(coeffs=d @ model.coeffs @ np.diag(1.0 / factors), sigma=d @ model.sigma @ d)


def terms(res):
    return [*res.unique, res.redundancy, res.synergy, res.joint_mir, *res.marginals]


#: A valid model whose stationary covariance, with channel 3 in units 1e8
#: times larger, once failed a positive-definiteness test taken in the
#: channels' units.
SEED3 = random_stable_var(5, 4, seed=3, radius=0.95)


@PROPERTY
@given(
    m=st.builds(
        random_stable_var,
        dim=st.integers(3, 6),
        order=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        radius=st.floats(0.3, 0.95),
    ),
    log_factors=st.lists(st.integers(-10, 10), min_size=6, max_size=6),
)
@example(m=SEED3, log_factors=[0, 0, 0, -8, 0, 0])
def test_reference_pids_do_not_change_with_channel_units(m, log_factors):
    # The equations are solved at unit innovation variance and every
    # log-det is read there; only the covariances return in the channels'
    # units, as D X D of the unscaled ones.
    f = 10.0 ** np.array(log_factors[: m.dim], dtype=float)
    scaled = in_units(m, f)
    pids = (static_pid, te_pid, lambda mod, t: te_pid(mod, t, conditioned=True))
    pairs = [(terms(pid(scaled, 0)), terms(pid(m, 0))) for pid in pids]
    pairs.append((mir_decomposition(scaled, 0), mir_decomposition(m, 0)))
    for got, want in pairs:
        for value, expected in zip(got, want, strict=True):
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
    covariances = [(submodel_innovation(scaled, c), submodel_innovation(m, c), f[list(c)])
                   for c in ((0,), (1, m.dim - 1), range(m.dim))]
    covariances.append((var.zero_lag_covariance(scaled), var.zero_lag_covariance(m), f))
    for got, want, d in covariances:
        assert np.abs(got / np.outer(d, d) - want).max() <= 1e-12 * np.abs(want).max()


def test_a_white_model_takes_the_same_coordinates():
    # Variances far from 1: the order-0 tables are at unit innovation
    # variance too, so the covariances come back in the channels' units
    # and the PIDs are those of sigma.
    f = np.array([1e-6, 1e3, 1e8, 1.0])
    sigma = random_stable_var(4, 0, seed=8).sigma * np.outer(f, f)
    m = VarModel(coeffs=np.zeros((0, 4, 4)), sigma=sigma)
    for chans in ((0,), (1, 3), (0, 1, 2, 3)):
        block = sigma[np.ix_(chans, chans)]
        assert np.allclose(submodel_innovation(m, chans), block, rtol=1e-14, atol=0.0)
    assert np.allclose(var.zero_lag_covariance(m), sigma, rtol=1e-14, atol=0.0)
    srcs = [1, 2, 3]
    mis = [gaussian_mi(sigma, 0, srcs)] + [gaussian_mi(sigma, 0, [s]) for s in srcs]
    res = static_pid(m, 0)
    assert [res.joint_mir, *res.marginals] == pytest.approx(mis, rel=1e-12)
    assert terms(te_pid(m, 0)) == pytest.approx([0.0] * 9, abs=1e-14)
    assert mir_decomposition(m, 0) == pytest.approx((0.0, 0.0, mis[0]), rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# export rows


def read_rows(path):
    return [tuple(line.split(",")) for line in path.read_text().splitlines()[1:]]


def test_write_coarse_csv_one_source_writes_joint_rows_only(tmp_path):
    psd = psd_from_var(build_scenario(Scenario("sim3")), FrequencyGrid(n_points=513))
    res = decompose(psd, 0, [1], [Band(0.04, 0.15, "B1")])
    write_coarse_csv(res, tmp_path / "coarse.csv")
    assert read_rows(tmp_path / "coarse.csv") == [
        ("JointMIR", "FULL", f"{res.joint_mir:.12g}"),
        ("JointMIR", "B1", f"{res.mir_spans[res.span_labels.index('B1'), 0]:.12g}"),
    ]


def test_write_coarse_csv_schema(tmp_path):
    # U/R/S/Delta/JointMIR per band, FULL first, then each baseline's terms
    # on FULL with its prefix.
    model = build_scenario(Scenario("sim3"))
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = decompose(psd_from_var(model, FrequencyGrid(n_points=513)), 0, bands=bands)
    base = {"staticPID": static_pid(model, 0), "tePID": te_pid(model, 0)}
    sections = [("", label, res.coarse[label]) for label in ("FULL", "B1", "B2")]
    sections += [(f"{prefix}:", "FULL", terms) for prefix, terms in base.items()]
    names = ["U_X1", "U_X2", "U_X3", "R", "S", "Delta", "JointMIR"]
    for scale, unit in ((1.0, "nats"), (np.log(2.0), "bits")):
        path = tmp_path / f"coarse_{unit}.csv"
        write_coarse_csv(res, path, unit, base)
        assert path.read_text().splitlines()[0] == f"term,band,value_{unit}"
        assert read_rows(path) == [
            (prefix + name, label, f"{value / scale:.12g}")
            for prefix, label, t in sections
            for name, value in zip(
                names, [*t.unique, t.redundancy, t.synergy, t.delta, t.joint_mir], strict=True
            )
        ]
