from pathlib import Path

import numpy as np
import pytest

from pird import (
    ArgumentError,
    Atom,
    Band,
    FrequencyGrid,
    Scenario,
    build_scenario,
    coarse_grained,
    decompose,
    integrate_full,
    VarModel,
    psd_from_var,
    random_stable_var,
    smmi_redundancy_profile,
    spectral_mir,
    spectral_pird,
    static_pid,
    te_pid,
    time_pird,
)
from pird.decomposition import (
    aggregate_coarse,
    write_atoms_csv,
    write_coarse_csv,
    write_profiles_csv,
)

from conftest import make_model_set

R_FLAT = -0.5 * np.log(1.0 - 0.8**2)  # white correlation-0.8 pair
J_FLAT = 0.5 * np.log(0.36 / 0.104)  # target vs both correlated sources


@pytest.fixture(scope="module")
def sim1_c0_psd(grid):
    return psd_from_var(build_scenario(Scenario("sim1", {"c": 0.0})), grid)


@pytest.fixture(scope="module")
def sim3_psd(grid, sim3_model):
    return psd_from_var(sim3_model, grid)


# ---------------------------------------------------------------------------
# redundancy profiles


def test_self_redundancy(sim3_psd):
    atom = Atom([(1,)])
    red = smmi_redundancy_profile(sim3_psd, 0, atom)
    direct = spectral_mir(sim3_psd, 0, [1])
    assert np.array_equal(red.values, direct.values)
    pair = Atom([(2, 3)])
    red2 = smmi_redundancy_profile(sim3_psd, 0, pair)
    assert np.array_equal(red2.values, spectral_mir(sim3_psd, 0, [2, 3]).values)


def test_redundancy_is_pointwise_min(sim3_psd):
    atom = Atom([(1,), (2, 3)])
    red = smmi_redundancy_profile(sim3_psd, 0, atom)
    a = spectral_mir(sim3_psd, 0, [1]).values
    b = spectral_mir(sim3_psd, 0, [2, 3]).values
    assert np.array_equal(red.values, np.minimum(a, b))
    assert np.all(red.values <= a) and np.all(red.values <= b)


def test_weak_symmetry_under_element_permutation(sim3_psd):
    # canonicalization makes permuted atoms identical objects, and the
    # profiles come out bit-for-bit equal
    a = Atom([(1,), (2, 3)])
    b = Atom([(2, 3), (1,)])
    assert a == b
    pa = smmi_redundancy_profile(sim3_psd, 0, a)
    pb = smmi_redundancy_profile(sim3_psd, 0, b)
    assert np.array_equal(pa.values, pb.values)


def test_monotonicity_and_subset_equality(sim3_psd):
    # adding an element can only lower the profile; adding a superset of an
    # existing element changes nothing (its MIR dominates pointwise)
    single = smmi_redundancy_profile(sim3_psd, 0, Atom([(1,)])).values
    widened = smmi_redundancy_profile(sim3_psd, 0, Atom([(1,), (2,)])).values
    assert np.all(widened <= single + 1e-10)
    superset = spectral_mir(sim3_psd, 0, [1, 2]).values
    assert np.all(np.minimum(single, superset) >= single - 1e-10)
    assert np.max(np.abs(np.minimum(single, superset) - single)) <= 1e-10


def test_redundancy_nonnegative(sim3_psd):
    lattice_atoms = spectral_pird(sim3_psd, 0).lattice.atoms
    for atom in lattice_atoms:
        red = smmi_redundancy_profile(sim3_psd, 0, atom)
        assert red.values.min() >= -1e-10


def test_element_index_out_of_range(sim1_c0_psd):
    with pytest.raises(ArgumentError, match="source"):
        smmi_redundancy_profile(sim1_c0_psd, 0, Atom([(3,)]))


def test_argmin_diagnostic(sim3_psd, sim1_c0_psd, grid):
    from pird import smmi_argmin_elements

    atom = Atom([(1,), (3,)])
    winners = smmi_argmin_elements(sim3_psd, 0, atom)
    i01 = int(np.argmin(np.abs(grid.hz - 0.1)))
    i03 = int(np.argmin(np.abs(grid.hz - 0.3)))
    assert winners[i01] == 0  # near 0.1 Hz the first element carries less
    assert winners[i03] == 1  # near 0.3 Hz the third source carries less
    # exact ties resolve to the lowest canonical element
    tied = smmi_argmin_elements(sim1_c0_psd, 0, Atom([(1,), (2,)]))
    assert np.all(tied == 0)


# ---------------------------------------------------------------------------
# spectral + time decomposition


def test_single_source_trivial_decomposition(sim3_psd):
    res = time_pird(spectral_pird(sim3_psd, 0, [1]))
    assert len(res.lattice) == 1
    assert np.array_equal(res.atom_pi[0], res.joint_profile.values)
    assert res.atom_pi_time[0] == pytest.approx(res.joint_mir, abs=1e-15)


def test_sim1_c0_flat_atoms(sim1_c0_psd):
    res = time_pird(spectral_pird(sim1_c0_psd, 0))
    by_atom = {str(a): res.atom_pi[i] for i, a in enumerate(res.lattice.atoms)}
    assert np.allclose(by_atom["{1}{2}"], R_FLAT, atol=1e-9)
    assert np.allclose(by_atom["{1}"], 0.0, atol=1e-9)
    assert np.allclose(by_atom["{2}"], 0.0, atol=1e-9)
    assert np.allclose(by_atom["{12}"], J_FLAT - R_FLAT, atol=1e-9)
    # flat spectra: time values equal the pointwise values
    assert res.joint_mir == pytest.approx(J_FLAT, abs=1e-9)
    idx = {str(a): i for i, a in enumerate(res.lattice.atoms)}
    assert res.atom_pi_time[idx["{1}{2}"]] == pytest.approx(R_FLAT, abs=1e-9)
    assert res.atom_pi_time[idx["{12}"]] == pytest.approx(J_FLAT - R_FLAT, abs=1e-9)


def test_pointwise_reconstruction(sim3_psd):
    res = spectral_pird(sim3_psd, 0)
    resum = res.atom_pi.sum(axis=0)
    assert np.max(np.abs(resum - res.joint_profile.values)) < 1e-9
    # redundancy equals the accumulated PI over each down-set, per frequency
    for i, atom in enumerate(res.lattice.atoms):
        acc = res.atom_pi[i] + res.atom_pi[list(res.lattice.down_sets[i])].sum(axis=0)
        assert np.max(np.abs(acc - res.atom_redundancy[i])) < 1e-9


def test_time_reconstruction_and_route_equivalence(sim3_psd):
    res = time_pird(spectral_pird(sim3_psd, 0))
    assert abs(res.atom_pi_time.sum() - res.joint_mir) < 1e-6
    dual = res.pi_time_from_redundancy()
    assert np.max(np.abs(dual - res.atom_pi_time)) < 1e-9


def test_sim3_low_band_dominated_by_third_source(sim3_psd, grid):
    res = spectral_pird(sim3_psd, 0)
    i01 = int(np.argmin(np.abs(grid.hz - 0.1)))
    pi_at_01 = res.atom_pi[:, i01]
    best = int(np.argmax(pi_at_01))
    assert str(res.lattice.atoms[best]) == "{3}"


def test_band_integrals_present(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = time_pird(spectral_pird(sim3_psd, 0), bands)
    assert set(res.atom_pi_bands) == {"B1", "B2"}
    assert res.joint_mir_bands["B1"] > 0
    # band values sum compatibly with the joint per band
    for label in ("B1", "B2"):
        assert abs(
            res.atom_pi_bands[label].sum() - res.joint_mir_bands[label]
        ) < 1e-9


def test_reserved_band_label(sim1_c0_psd):
    with pytest.raises(ArgumentError, match="reserved"):
        time_pird(spectral_pird(sim1_c0_psd, 0), [Band(0.1, 0.2, "FULL")])
    with pytest.raises(ArgumentError, match="duplicate"):
        time_pird(
            spectral_pird(sim1_c0_psd, 0),
            [Band(0.1, 0.2, "A"), Band(0.2, 0.3, "A")],
        )


# ---------------------------------------------------------------------------
# coarse graining


def test_sim1_c0_coarse_values(sim1_c0_psd):
    coarse = coarse_grained(sim1_c0_psd, 0)
    t = coarse.terms["FULL"]
    assert t.redundancy == pytest.approx(R_FLAT, abs=1e-9)
    assert t.unique[0] == pytest.approx(0.0, abs=1e-9)
    assert t.unique[1] == pytest.approx(0.0, abs=1e-9)
    assert t.synergy == pytest.approx(J_FLAT - R_FLAT, abs=1e-9)
    assert t.joint_mir == pytest.approx(J_FLAT, abs=1e-9)


@pytest.mark.parametrize("c", [0.0, 0.4, 0.8])
def test_m2_coarse_equals_lattice_atoms(grid, c):
    psd = psd_from_var(build_scenario(Scenario("sim1", {"c": c})), grid)
    res = time_pird(spectral_pird(psd, 0))
    idx = {str(a): i for i, a in enumerate(res.lattice.atoms)}
    for method in ("aggregate", "operational"):
        t = coarse_grained(psd, 0, method=method).terms["FULL"]
        assert abs(t.redundancy - res.atom_pi_time[idx["{1}{2}"]]) < 1e-9
        assert abs(t.unique[0] - res.atom_pi_time[idx["{1}"]]) < 1e-9
        assert abs(t.unique[1] - res.atom_pi_time[idx["{2}"]]) < 1e-9
        assert abs(t.synergy - res.atom_pi_time[idx["{12}"]]) < 1e-9


def test_coarse_identity_per_band(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    coarse = coarse_grained(sim3_psd, 0, bands=bands)
    for label, t in coarse.terms.items():
        assert abs(sum(t.unique) + t.redundancy + t.synergy - t.joint_mir) < 1e-9


def test_coarse_requires_two_sources(sim3_psd):
    with pytest.raises(ArgumentError, match="two sources"):
        coarse_grained(sim3_psd, 0, [1])
    with pytest.raises(ArgumentError, match="method"):
        coarse_grained(sim3_psd, 0, method="nope")


def test_operational_profiles_sign_structure(sim3_psd):
    coarse = coarse_grained(sim3_psd, 0, method="operational")
    assert np.all(coarse.u_profiles >= 0.0)
    assert coarse.r_profile.values.min() >= -1e-10


def test_sim1_dynamics_check(grid):
    # no dynamics: coarse PIRD equals the zero-lag PID
    m0 = build_scenario(Scenario("sim1", {"c": 0.0}))
    pird0 = coarse_grained(psd_from_var(m0, grid), 0).terms["FULL"]
    pid0 = static_pid(m0, 0)
    assert abs(pird0.redundancy - pid0.redundancy) < 1e-6
    assert abs(pird0.synergy - pid0.synergy) < 1e-6
    assert abs(pird0.unique[0] - pid0.unique[0]) < 1e-6
    assert abs(pird0.joint_mir - pid0.mi_joint) < 1e-6
    # strong dynamics: synergy dominates and both unique terms activate
    m8 = build_scenario(Scenario("sim1", {"c": 0.8}))
    t8 = coarse_grained(psd_from_var(m8, grid), 0).terms["FULL"]
    assert t8.synergy > t8.redundancy
    assert t8.unique[0] > 0 and t8.unique[1] > 0


def test_sim2_topology_check(grid):
    m0 = build_scenario(Scenario("sim2", {"c": 0.0}))
    pird0 = coarse_grained(psd_from_var(m0, grid), 0).terms["FULL"]
    tep0 = te_pid(m0, 0)
    assert abs(pird0.redundancy - tep0.redundancy) < 1e-4
    assert abs(pird0.synergy - tep0.synergy) < 1e-4
    assert abs(pird0.unique[0] - tep0.unique[0]) < 1e-4
    assert abs(pird0.unique[1] - tep0.unique[1]) < 1e-4
    m8 = build_scenario(Scenario("sim2", {"c": 0.8}))
    tep8 = te_pid(m8, 0)
    assert all(abs(v) < 1e-6 for v in (tep8.te_joint, tep8.redundancy, tep8.synergy))
    pird8 = coarse_grained(psd_from_var(m8, grid), 0).terms["FULL"]
    assert pird8.joint_mir > 0.1
    assert pird8.redundancy > pird8.synergy


def test_sim3_aggregated_structure(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = decompose(sim3_psd, 0, bands=bands)
    full = res.coarse["FULL"]
    assert abs(full.unique[1]) < 1e-6  # X2's information is all inherited
    assert res.coarse["B1"].delta < 0.0  # net synergy at the slow rhythm
    assert res.coarse["B2"].delta > 0.0  # net redundancy at the fast rhythm


def test_smmi_not_above_mmi(sim3_psd):
    res = time_pird(spectral_pird(sim3_psd, 0))
    for i, atom in enumerate(res.lattice.atoms):
        mmi = min(
            integrate_full(spectral_mir(sim3_psd, 0, [res.sources[j - 1] for j in el]))
            for el in atom.elements
        )
        assert res.atom_redundancy_time[i] <= mmi + 1e-12


def test_negative_atoms_are_reported_unclipped(grid):
    # Moebius inversion produces negative atoms; nothing may clip them
    for m in make_model_set(count=6, seed=404):
        if m.dim < 3:
            continue
        res = time_pird(spectral_pird(psd_from_var(m, grid), 0))
        assert abs(res.atom_pi_time.sum() - res.joint_mir) < 1e-6
        if np.any(res.atom_pi < 0):
            return
    pytest.skip("no negative atom found in the sampled models")


# ---------------------------------------------------------------------------
# exports


def test_csv_exports(tmp_path, sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = decompose(sim3_psd, 0, bands=bands)
    atoms_path = tmp_path / "atoms.csv"
    coarse_path = tmp_path / "coarse.csv"
    profiles_path = tmp_path / "profiles.csv"
    write_atoms_csv(res, atoms_path)
    write_coarse_csv(res, coarse_path)
    write_profiles_csv(res, profiles_path)

    atoms_lines = atoms_path.read_text().strip().splitlines()
    assert atoms_lines[0] == "atom,band,pi_nats,redundancy_nats"
    assert len(atoms_lines) == 1 + 18 * 3  # FULL + two bands per atom

    coarse_lines = coarse_path.read_text().strip().splitlines()
    assert coarse_lines[0] == "term,band,value_nats"
    terms = {tuple(line.split(",")[:2]) for line in coarse_lines[1:]}
    assert ("JointMIR", "FULL") in terms
    assert ("U_X2", "B1") in terms and ("Delta", "B2") in terms
    row = next(
        line for line in coarse_lines[1:] if line.startswith("JointMIR,FULL")
    )
    assert float(row.split(",")[2]) == pytest.approx(res.joint_mir, rel=1e-11)

    profiles_lines = profiles_path.read_text().strip().splitlines()
    assert profiles_lines[0] == "f_hz,atom_or_term,value"
    keys = {line.split(",")[1] for line in profiles_lines[1:]}
    assert {"{1}{2}{3}", "I_X1", "U_X3", "R", "S", "JointMIR"} <= keys


def reference_profiles_csv(result, path, scale=1.0):
    """The row-at-a-time writer that the block-template writer replaced:
    one ``.12g`` format per frequency and per value."""
    blocks = [(str(atom), result.atom_pi[i]) for i, atom in enumerate(result.lattice.atoms)]
    blocks += [(f"I_{n}", row) for n, row in zip(result.source_names, result.marginal_profiles)]
    if len(result.sources) >= 2:
        coarse = aggregate_coarse(result)
        blocks += [(f"U_{n}", row) for n, row in zip(result.source_names, coarse.u_profiles)]
        blocks += [("R", coarse.r_profile.values), ("S", coarse.s_profile.values)]
    blocks.append(("JointMIR", result.joint_profile.values))
    lines = ["f_hz,atom_or_term,value"]
    for key, values in blocks:
        for f, v in zip(result.grid.hz, values):
            lines.append(f"{f:.12g},{key},{v / scale:.12g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _profiles_case(case, grid):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    if case == "sim1":
        return decompose(psd_from_var(build_scenario(Scenario("sim1", {"c": 0.4})), grid), 0)
    if case == "sim3":
        return decompose(psd_from_var(build_scenario(Scenario("sim3")), grid), 0, bands=bands)
    model = random_stable_var(5, 3, seed=17, radius=0.9)
    if case == "var5-one-source":
        return decompose(psd_from_var(model, grid), 0, [3], bands=bands)
    if case == "var5":
        return decompose(psd_from_var(model, grid), 0, bands=bands)
    # channel names that are %-format directives must come out verbatim
    named = VarModel(
        coeffs=model.coeffs, sigma=model.sigma,
        names=("Y%", "X%s", "%(k)d", "50%%", "%.12g"),
    )
    return decompose(psd_from_var(named, grid), 0, bands=bands)


@pytest.mark.parametrize(
    "case, m",
    [("var5-one-source", 1), ("sim1", 2), ("sim3", 3), ("var5", 4), ("percent-names", 4)],
)
@pytest.mark.parametrize("scale", [1.0, np.log(2.0)])
def test_profiles_csv_matches_row_at_a_time_writer(tmp_path, grid, case, m, scale):
    res = _profiles_case(case, grid)
    assert len(res.sources) == m
    write_profiles_csv(res, tmp_path / "profiles.csv", scale)
    reference_profiles_csv(res, tmp_path / "reference.csv", scale)
    text = (tmp_path / "profiles.csv").read_bytes()
    assert text == (tmp_path / "reference.csv").read_bytes()
    blocks = len(res.lattice) + (2 * m + 3 if m >= 2 else m + 1)
    assert text.count(b"\n") == 1 + blocks * grid.n_points


def test_export_requires_time_part(tmp_path, sim1_c0_psd):
    res = spectral_pird(sim1_c0_psd, 0)
    with pytest.raises(ArgumentError, match="time_pird"):
        write_atoms_csv(res, tmp_path / "x.csv")


def test_aggregate_coarse_band_consistency(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = time_pird(spectral_pird(sim3_psd, 0), bands)
    coarse = aggregate_coarse(res)
    # group sums of band-integrated atoms match the terms exactly
    groups = res.lattice.coarse_groups()
    for label in ("B1", "B2"):
        t = coarse.terms[label]
        r_sum = sum(res.atom_pi_bands[label][i] for i in groups["redundant"])
        assert t.redundancy == pytest.approx(r_sum, abs=0)
