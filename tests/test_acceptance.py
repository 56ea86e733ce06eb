"""Acceptance suite: every criterion asserts its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see
them as they go).
"""

import time
from contextlib import contextmanager
from itertools import chain, combinations

import numpy as np
import pytest

from pird import (
    Atom,
    Band,
    FrequencyGrid,
    Scenario,
    build_scenario,
    decompose,
    enumerate_antichains,
    fit_ols,
    integrate_full,
    mir_decomposition,
    psd_from_var,
    select_order_aic,
    simulate,
    simulate_ensemble,
    spectral_mir,
    static_pid,
    te_pid,
    zero_lag_covariance,
)
from pird.var import TimeSeriesMatrix

from conftest import make_model_set
from oracles import down_sets

B1 = Band(0.04, 0.15, "B1")
B2 = Band(0.15, 0.4, "B2")


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    note = f" [{elapsed:.2f}s]" if budget_s else ""
    print(f"ACCEPTANCE {number}: PASS - {description}{note}")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"


@pytest.fixture(scope="module")
def property_models(benchmark_models):
    return benchmark_models + make_model_set(count=50, seed=424242)


def test_criterion_1_closed_form_anchor(grid):
    with criterion(1, "sim1 c=0 closed-form coarse values", budget_s=1.0):
        joint_expected = 0.5 * np.log(0.36 / 0.104)
        r_expected = -0.5 * np.log(0.36)
        s_expected = joint_expected - r_expected
        model = build_scenario(Scenario("sim1", {"c": 0.0}))
        result = decompose(psd_from_var(model, grid), 0)
        terms = result.coarse["FULL"]
        assert abs(result.joint_mir - joint_expected) < 1e-6
        assert abs(terms.redundancy - r_expected) < 1e-6
        assert abs(terms.unique[0]) < 1e-6 and abs(terms.unique[1]) < 1e-6
        assert abs(terms.synergy - s_expected) < 1e-6
        pid = static_pid(model, 0)
        assert abs(terms.redundancy - pid.redundancy) < 1e-6
        assert abs(terms.synergy - pid.synergy) < 1e-6
        assert abs(terms.unique[0] - pid.unique[0]) < 1e-6
        assert abs(terms.unique[1] - pid.unique[1]) < 1e-6
        assert abs(result.joint_mir - pid.joint_mir) < 1e-6


def test_criterion_2_pointwise_min_never_exceeds_global_min(grid, property_models):
    with criterion(
        2, "integrated pointwise-min redundancy <= min of integrated rates", budget_s=30.0
    ):
        checked_equality = 0
        for model in property_models:
            result = decompose(psd_from_var(model, grid), 0)
            element_integral = {}

            def integral_of(element):
                if element not in element_integral:
                    channels = [result.sources[j - 1] for j in element]
                    element_integral[element] = integrate_full(
                        spectral_mir(psd_from_var(model, grid), 0, channels)
                    )
                return element_integral[element]

            is_iid = model.order == 0 or not np.any(model.coeffs)
            for i, atom in enumerate(result.lattice.atoms):
                mmi = min(integral_of(el) for el in atom.elements)
                smmi = result.atom_redundancy_spans[0, i]
                assert smmi <= mmi + 1e-12
                if is_iid:
                    assert abs(smmi - mmi) < 1e-9
                    checked_equality += 1
        assert checked_equality > 0


def test_criterion_3_redundancy_axioms(grid, property_models):
    with criterion(
        3, "weak symmetry, self-redundancy, monotonicity, non-negativity"
    ):
        for model in property_models:
            psd = psd_from_var(model, grid)
            m = model.dim - 1
            result = decompose(psd, 0)

            def redundancy(atom):
                return result.atom_redundancy[result.lattice.index(atom)]

            # self-redundancy: single-element atoms reproduce the MIR profile
            for j in range(1, m + 1):
                red = redundancy(Atom([(j,)]))
                direct = spectral_mir(psd, 0, [j])
                assert np.array_equal(red, direct)
                assert red.min() >= -1e-10
            if m < 2:
                continue
            # weak symmetry: permuted element order, bit-identical profile
            a = redundancy(Atom([(1,), (2,)]))
            b = redundancy(Atom([(2,), (1,)]))
            assert np.array_equal(a, b)
            # monotonicity: adding an element cannot raise the profile
            single = redundancy(Atom([(1,)]))
            assert np.all(a <= single + 1e-10)
            # subset equality: a superset element never changes the minimum
            superset = spectral_mir(psd, 0, [1, 2])
            assert np.max(np.abs(np.minimum(single, superset) - single)) <= 1e-10
            assert a.min() >= -1e-10


def test_criterion_4_integration_commutes_with_inversion(grid, sim3_model):
    with criterion(4, "invert-then-integrate equals integrate-then-invert (sim3)"):
        result = decompose(psd_from_var(sim3_model, grid), 0)
        assert len(result.lattice) == 18
        dual = result.lattice.invert_values(result.atom_redundancy_spans[0])
        assert np.max(np.abs(dual - result.atom_pi_spans[0])) < 1e-9


def test_criterion_5_mir_additive_split(grid, benchmark_models):
    with criterion(
        5, "integrated spectral MIR equals transfers plus instantaneous term"
    ):
        models = benchmark_models + make_model_set(count=20, seed=515151)
        for model in models:
            psd = psd_from_var(model, grid)
            mir = integrate_full(spectral_mir(psd, 0, list(range(1, model.dim))))
            tx, ty, inst = mir_decomposition(model, 0)
            assert abs(mir - (tx + ty + inst)) < 1e-10


def test_criterion_6_sim2_sweep(grid):
    with criterion(6, "sim2 coupling sweep against the TE PID", budget_s=60.0):
        cs = np.arange(0.0, 0.8001, 0.05)
        assert len(cs) == 17
        te_joint, pird_terms, te_terms = [], {}, {}
        for c in cs:
            model = build_scenario(Scenario("sim2", {"c": float(c)}))
            tep = te_pid(model, 0)
            te_joint.append(tep.joint_mir)
            result = decompose(psd_from_var(model, grid), 0)
            pird_terms[float(c)] = result.coarse["FULL"]
            te_terms[float(c)] = tep
        assert all(a >= b - 1e-12 for a, b in zip(te_joint[:-1], te_joint[1:]))
        tep8 = te_terms[0.8]
        for v in (tep8.joint_mir, tep8.redundancy, tep8.synergy, *tep8.unique):
            assert abs(v) < 1e-6
        full8 = pird_terms[0.8]
        assert full8.joint_mir > 0.1
        assert full8.redundancy > full8.synergy
        full0, tep0 = pird_terms[0.0], te_terms[0.0]
        assert full0.synergy > full0.redundancy
        assert abs(full0.redundancy - tep0.redundancy) < 1e-4
        assert abs(full0.synergy - tep0.synergy) < 1e-4
        assert abs(full0.unique[0] - tep0.unique[0]) < 1e-4
        assert abs(full0.unique[1] - tep0.unique[1]) < 1e-4
        assert abs(full0.joint_mir - tep0.joint_mir) < 1e-4


def test_criterion_7_sim3_band_structure(grid, sim3_model):
    with criterion(7, "sim3 unique/redundant/synergistic band structure", budget_s=10.0):
        result = decompose(psd_from_var(sim3_model, grid), 0, bands=[B1, B2])
        full = result.coarse["FULL"]
        assert abs(full.unique[1]) < 1e-6  # X2 contributes nothing uniquely
        assert result.coarse["B1"].delta < 0.0
        assert result.coarse["B2"].delta > 0.0
        # in-band mass of each unique term concentrates on its own rhythm
        u1_b1 = result.coarse["B1"].unique[0]
        u1_b2 = result.coarse["B2"].unique[0]
        assert u1_b2 >= 0.8 * (u1_b1 + u1_b2)
        u3_b1 = result.coarse["B1"].unique[2]
        u3_b2 = result.coarse["B2"].unique[2]
        assert u3_b1 >= 0.8 * (u3_b1 + u3_b2)


def test_criterion_8_reconstruction_identities(grid):
    with criterion(8, "pointwise, integrated and coarse reconstruction identities"):
        for scenario in (
            Scenario("sim1", {"c": 0.4}),
            Scenario("sim2", {"c": 0.4}),
            Scenario("sim3"),
        ):
            model = build_scenario(scenario)
            result = decompose(psd_from_var(model, grid), 0, bands=[B1, B2])
            resum = result.atom_pi.sum(axis=0)
            assert np.max(np.abs(resum - result.joint_profile)) < 1e-9
            assert abs(result.atom_pi_spans[0].sum() - result.joint_mir) < 1e-6
            for label, terms in result.coarse.items():
                total = sum(terms.unique) + terms.redundancy + terms.synergy
                assert abs(total - terms.joint_mir) < 1e-9


def test_criterion_9_lattice_correctness():
    with criterion(9, "atom counts and Moebius reconstruction residuals"):
        expected_counts = {1: 1, 2: 4, 3: 18, 4: 166}
        for m, count in expected_counts.items():
            lattice = enumerate_antichains(m)
            assert len(lattice) == count
            subsets = [
                frozenset(c)
                for size in range(1, m + 1)
                for c in combinations(range(1, m + 1), size)
            ]
            oracle = sum(
                1
                for collection in chain.from_iterable(
                    combinations(subsets, r) for r in range(1, len(subsets) + 1)
                )
                if all(not (a <= b or b <= a) for a, b in combinations(collection, 2))
            )
            assert oracle == count
        rng = np.random.default_rng(909090)
        for m in (1, 2, 3, 4):
            lattice = enumerate_antichains(m)
            strict = down_sets(lattice)
            for _ in range(25):
                values = rng.uniform(-1.0, 1.0, size=len(lattice))
                pi = lattice.invert_values(values)
                for i in range(len(lattice)):
                    resum = pi[i] + pi[list(strict[i])].sum()
                    assert abs(resum - values[i]) <= 1e-12 * max(1.0, abs(values[i]))


def test_criterion_10_numerical_infrastructure(grid, sim3_model):
    with criterion(10, "Wiener-Khinchin, grid convergence, OLS/AIC recovery", budget_s=120.0):
        # integrated spectrum against the Lyapunov covariance
        psd = psd_from_var(sim3_model, grid)
        gamma0 = zero_lag_covariance(sim3_model)
        for ch in range(sim3_model.dim):
            assert abs(integrate_full(psd.mats[:, ch, ch].real) - gamma0[ch, ch]) < 1e-3 * gamma0[ch, ch]

        # doubling the grid barely moves the joint rate
        fine = FrequencyGrid(fs=1.0, n_points=4097)
        coarse_val = integrate_full(spectral_mir(psd, 0, [1, 2, 3]))
        fine_val = integrate_full(
            spectral_mir(psd_from_var(sim3_model, fine), 0, [1, 2, 3])
        )
        assert abs(fine_val - coarse_val) < 1e-6

        # OLS recovery on a long realization
        ts = simulate(sim3_model, 100_000, burn_in=1000, seed=7)
        fitted = fit_ols(ts, 2)
        assert np.max(np.abs(fitted.coeffs - sim3_model.coeffs)) < 0.02
        assert np.max(np.abs(fitted.sigma - sim3_model.sigma)) < 0.02

        # AIC hits the benchmark VAR(2)'s order in at least 95 of 100 runs
        hits = 0
        for chunk in range(4):
            ensemble = simulate_ensemble(
                sim3_model, 100_000, burn_in=1000, seed=1000 + chunk, n_series=25
            )
            for series in ensemble:
                p_star, _ = select_order_aic(
                    TimeSeriesMatrix(samples=series, fs=1.0), 10
                )
                hits += p_star == 2
        assert hits >= 95

        # a white series yields no coefficient beyond three standard errors
        rng = np.random.default_rng(33)
        white = TimeSeriesMatrix(samples=rng.standard_normal((50_000, 2)))
        p_white, _ = select_order_aic(white, 5)
        fit_white = fit_ols(white, p_white)
        z = white.samples - white.samples.mean(axis=0)
        n, q = z.shape
        x = np.hstack([z[p_white - k : n - k] for k in range(1, p_white + 1)])
        xtx_inv = np.linalg.inv(x.T @ x)
        se_flat = np.sqrt(
            np.outer(np.diag(xtx_inv), np.diag(fit_white.sigma))
        )  # (p*q, q): rows follow the regressor layout
        for k in range(p_white):
            block_se = se_flat[k * q : (k + 1) * q, :].T  # (target, regressor)
            assert np.all(np.abs(fit_white.coeffs[k]) <= 3.0 * block_se + 1e-12)
