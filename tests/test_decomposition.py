import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pird import (
    ArgumentError,
    Atom,
    Band,
    FrequencyGrid,
    Scenario,
    build_scenario,
    decompose,
    integrate_band,
    integrate_full,
    VarModel,
    psd_from_var,
    random_stable_var,
    spectral_mir,
    static_pid,
    te_pid,
)
from pird import decomposition
from pird.decomposition import (
    _chain_pi,
    atomic_write_text,
    write_atoms_csv,
    write_coarse_csv,
    write_profiles_csv,
)

from pird.lattice import enumerate_antichains
from pird.spectral import integrate_rows, quadrature_weights

from conftest import make_model_set, reference_band_integral
from oracles import accumulated_chain, down_sets

R_FLAT = -0.5 * np.log(1.0 - 0.8**2)  # white correlation-0.8 pair
J_FLAT = 0.5 * np.log(0.36 / 0.104)  # target vs both correlated sources


@pytest.fixture(scope="module")
def sim1_c0_psd(grid):
    return psd_from_var(build_scenario(Scenario("sim1", {"c": 0.0})), grid)


@pytest.fixture(scope="module")
def sim3_psd(grid, sim3_model):
    return psd_from_var(sim3_model, grid)


@pytest.fixture(scope="module")
def sim3_result(sim3_psd):
    return decompose(sim3_psd, 0)


def redundancy_profile(result, atom):
    """One atom's redundancy rate profile, looked up in a decomposition."""
    return result.atom_redundancy[result.lattice.index(atom)]


# ---------------------------------------------------------------------------
# redundancy profiles


def test_self_redundancy(sim3_psd, sim3_result):
    red = redundancy_profile(sim3_result, Atom([(1,)]))
    direct = spectral_mir(sim3_psd, 0, [1])
    assert np.array_equal(red, direct)
    red2 = redundancy_profile(sim3_result, Atom([(2, 3)]))
    assert np.array_equal(red2, spectral_mir(sim3_psd, 0, [2, 3]))


def test_redundancy_is_pointwise_min(sim3_psd, sim3_result):
    red = redundancy_profile(sim3_result, Atom([(1,), (2, 3)]))
    a = spectral_mir(sim3_psd, 0, [1])
    b = spectral_mir(sim3_psd, 0, [2, 3])
    assert np.array_equal(red, np.minimum(a, b))
    assert np.all(red <= a) and np.all(red <= b)


def test_weak_symmetry_under_element_permutation(sim3_result):
    # canonicalization makes permuted atoms identical objects, so they
    # name the same row and the profiles come out bit-for-bit equal
    a = Atom([(1,), (2, 3)])
    b = Atom([(2, 3), (1,)])
    assert a == b
    assert sim3_result.lattice.index(a) == sim3_result.lattice.index(b)
    assert np.array_equal(redundancy_profile(sim3_result, a), redundancy_profile(sim3_result, b))


def test_monotonicity_and_subset_equality(sim3_psd, sim3_result):
    # adding an element can only lower the profile; adding a superset of an
    # existing element changes nothing (its MIR dominates pointwise)
    single = redundancy_profile(sim3_result, Atom([(1,)]))
    widened = redundancy_profile(sim3_result, Atom([(1,), (2,)]))
    assert np.all(widened <= single + 1e-10)
    superset = spectral_mir(sim3_psd, 0, [1, 2])
    assert np.all(np.minimum(single, superset) >= single - 1e-10)
    assert np.max(np.abs(np.minimum(single, superset) - single)) <= 1e-10


def test_redundancy_nonnegative(sim3_result):
    assert sim3_result.atom_redundancy.min() >= -1e-10


def test_element_index_out_of_range(sim1_c0_psd):
    # an atom naming a third source is not part of the two-source lattice
    with pytest.raises(ArgumentError, match="sources"):
        decompose(sim1_c0_psd, 0).lattice.index(Atom([(3,)]))


def test_sim3_redundancy_follows_the_weaker_source(sim3_psd, sim3_result, grid):
    red = redundancy_profile(sim3_result, Atom([(1,), (3,)]))
    x1 = spectral_mir(sim3_psd, 0, [1])
    x3 = spectral_mir(sim3_psd, 0, [3])
    i01 = int(np.argmin(np.abs(grid.hz - 0.1)))
    i03 = int(np.argmin(np.abs(grid.hz - 0.3)))
    assert red[i01] == x1[i01] < x3[i01]  # near 0.1 Hz X1 carries less
    assert red[i03] == x3[i03] < x1[i03]  # near 0.3 Hz X3 carries less


# ---------------------------------------------------------------------------
# spectral + time decomposition


def test_single_source_trivial_decomposition(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.3, 0.3001, "NARROW")]
    res = decompose(sim3_psd, 0, [1], bands)
    assert len(res.lattice) == 1
    assert np.array_equal(res.atom_pi[0], res.joint_profile)
    assert np.array_equal(res.atom_redundancy[0], res.joint_profile)
    assert res.atom_pi_spans[0, 0] == pytest.approx(res.joint_mir, abs=1e-15)
    assert res.coarse == {}
    # The one atom's chain integrals are the joint's, per span, and its
    # redundancy integrals are its PI integrals.
    bound = 1e-15 * res.joint_profile.max()
    spans = zip(res.atom_pi_spans, res.atom_redundancy_spans, res.mir_spans[:, 0], strict=True)
    for pi, red, joint in spans:
        assert abs(pi[0] - joint) <= bound
        assert red[0] == pi[0]


def test_sim1_c0_flat_atoms(sim1_c0_psd):
    res = decompose(sim1_c0_psd, 0)
    by_atom = {str(a): res.atom_pi[i] for i, a in enumerate(res.lattice.atoms)}
    assert np.allclose(by_atom["{1}{2}"], R_FLAT, atol=1e-9)
    assert np.allclose(by_atom["{1}"], 0.0, atol=1e-9)
    assert np.allclose(by_atom["{2}"], 0.0, atol=1e-9)
    assert np.allclose(by_atom["{12}"], J_FLAT - R_FLAT, atol=1e-9)
    # flat spectra: time values equal the pointwise values
    assert res.joint_mir == pytest.approx(J_FLAT, abs=1e-9)
    idx = {str(a): i for i, a in enumerate(res.lattice.atoms)}
    assert res.atom_pi_spans[0, idx["{1}{2}"]] == pytest.approx(R_FLAT, abs=1e-9)
    assert res.atom_pi_spans[0, idx["{12}"]] == pytest.approx(J_FLAT - R_FLAT, abs=1e-9)


def test_pointwise_reconstruction(sim3_result):
    res = sim3_result
    resum = res.atom_pi.sum(axis=0)
    assert np.max(np.abs(resum - res.joint_profile)) < 1e-9
    # redundancy equals the accumulated PI over each down-set, per frequency
    for i, below in enumerate(down_sets(res.lattice)):
        acc = res.atom_pi[i] + res.atom_pi[list(below)].sum(axis=0)
        assert np.max(np.abs(acc - res.atom_redundancy[i])) < 1e-9


def test_time_reconstruction_and_route_equivalence(sim3_result):
    res = sim3_result
    assert abs(res.atom_pi_spans[0].sum() - res.joint_mir) < 1e-6
    dual = res.lattice.invert_values(res.atom_redundancy_spans[0])
    assert np.max(np.abs(dual - res.atom_pi_spans[0])) < 1e-9


def test_sim3_low_band_dominated_by_third_source(sim3_result, grid):
    res = sim3_result
    i01 = int(np.argmin(np.abs(grid.hz - 0.1)))
    pi_at_01 = res.atom_pi[:, i01]
    best = int(np.argmax(pi_at_01))
    assert str(res.lattice.atoms[best]) == "{3}"


def test_band_integrals_present(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = decompose(sim3_psd, 0, bands=bands)
    assert res.span_labels == ("FULL", "B1", "B2")
    assert res.mir_spans[res.span_labels.index("B1"), 0] > 0
    # band values sum compatibly with the joint per band
    for label in ("B1", "B2"):
        k = res.span_labels.index(label)
        assert abs(
            res.atom_pi_spans[k].sum() - res.mir_spans[k, 0]
        ) < 1e-9


def test_reserved_band_label(sim1_c0_psd):
    with pytest.raises(ArgumentError, match="reserved"):
        decompose(sim1_c0_psd, 0, bands=[Band(0.1, 0.2, "FULL")])
    with pytest.raises(ArgumentError, match="duplicate"):
        decompose(sim1_c0_psd, 0, bands=[Band(0.1, 0.2, "A"), Band(0.2, 0.3, "A")])


@pytest.mark.parametrize("bands", [None, Band(0.1, 0.2, "A"), 3])
def test_non_iterable_bands_raise_an_argument_error(sim1_c0_psd, bands):
    with pytest.raises(ArgumentError, match=r"bands must be an iterable .*; pass \(\) for no bands"):
        decompose(sim1_c0_psd, 0, bands=bands)


def test_band_beyond_nyquist_raises_before_the_mir_kernel(sim1_c0_psd, monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("spectral_mir_rows ran before the band check")

    monkeypatch.setattr("pird.decomposition.spectral_mir_rows", kernel)
    with pytest.raises(ArgumentError, match="Nyquist"):
        decompose(sim1_c0_psd, 0, bands=[Band(0.1, 0.2, "A"), Band(0.3, 0.6, "B")])


# ---------------------------------------------------------------------------
# coarse graining


def test_coarse_row_names_every_term_in_order(sim3_result):
    t = sim3_result.coarse["FULL"]
    row = t.row(sim3_result.source_names)
    assert list(row) == ["U_X1", "U_X2", "U_X3", "R", "S", "Delta", "JointMIR"]
    assert list(row.values()) == [*t.unique, t.redundancy, t.synergy, t.delta, t.joint_mir]


@pytest.mark.parametrize("names", [("X1", "X2"), ("X1", "X2", "X3", "X4"), ("X1", "X1", "X2")])
def test_coarse_row_needs_one_distinct_name_per_unique_term(sim3_result, names):
    with pytest.raises(ArgumentError, match="are not 3 distinct source names"):
        sim3_result.coarse["FULL"].row(names)


def test_sim1_c0_coarse_values(sim1_c0_psd):
    t = decompose(sim1_c0_psd, 0).coarse["FULL"]
    assert t.redundancy == pytest.approx(R_FLAT, abs=1e-9)
    assert t.unique[0] == pytest.approx(0.0, abs=1e-9)
    assert t.unique[1] == pytest.approx(0.0, abs=1e-9)
    assert t.synergy == pytest.approx(J_FLAT - R_FLAT, abs=1e-9)
    assert t.joint_mir == pytest.approx(J_FLAT, abs=1e-9)


@pytest.mark.parametrize("c", [0.0, 0.4, 0.8])
def test_m2_coarse_equals_lattice_atoms(grid, c):
    res = decompose(psd_from_var(build_scenario(Scenario("sim1", {"c": c})), grid), 0)
    idx = {str(a): i for i, a in enumerate(res.lattice.atoms)}
    # the bottom-atom identities per frequency: r = min_m i_m, u_m = i_m - r,
    # s = joint - r - sum_m u_m; for two sources they are the four atoms
    r = res.marginal_profiles.min(axis=0)
    u = res.marginal_profiles - r
    s = res.joint_profile - r - u.sum(axis=0)

    def integral(row):
        return np.trapezoid(row, grid.omegas) / np.pi

    t = res.coarse["FULL"]
    for value in (t.redundancy, integral(r)):
        assert abs(value - res.atom_pi_spans[0, idx["{1}{2}"]]) < 1e-9
    for value in (t.unique[0], integral(u[0])):
        assert abs(value - res.atom_pi_spans[0, idx["{1}"]]) < 1e-9
    for value in (t.unique[1], integral(u[1])):
        assert abs(value - res.atom_pi_spans[0, idx["{2}"]]) < 1e-9
    for value in (t.synergy, integral(s)):
        assert abs(value - res.atom_pi_spans[0, idx["{12}"]]) < 1e-9


def test_coarse_identity_per_band(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    coarse = decompose(sim3_psd, 0, bands=bands).coarse
    assert list(coarse) == ["FULL", "B1", "B2"]
    for label, t in coarse.items():
        assert abs(sum(t.unique) + t.redundancy + t.synergy - t.joint_mir) < 1e-9


def test_coarse_requires_two_sources(sim3_psd):
    bands = [Band(0.04, 0.15, "B1")]
    assert decompose(sim3_psd, 0, [1], bands).coarse == {}
    assert list(decompose(sim3_psd, 0, [1, 2], bands).coarse) == ["FULL", "B1"]


def test_sim1_dynamics_check(grid):
    # no dynamics: coarse PIRD equals the zero-lag PID
    m0 = build_scenario(Scenario("sim1", {"c": 0.0}))
    pird0 = decompose(psd_from_var(m0, grid), 0).coarse["FULL"]
    pid0 = static_pid(m0, 0)
    assert abs(pird0.redundancy - pid0.redundancy) < 1e-6
    assert abs(pird0.synergy - pid0.synergy) < 1e-6
    assert abs(pird0.unique[0] - pid0.unique[0]) < 1e-6
    assert abs(pird0.joint_mir - pid0.joint_mir) < 1e-6
    # strong dynamics: synergy dominates and both unique terms activate
    m8 = build_scenario(Scenario("sim1", {"c": 0.8}))
    t8 = decompose(psd_from_var(m8, grid), 0).coarse["FULL"]
    assert t8.synergy > t8.redundancy
    assert t8.unique[0] > 0 and t8.unique[1] > 0


def test_sim2_topology_check(grid):
    m0 = build_scenario(Scenario("sim2", {"c": 0.0}))
    pird0 = decompose(psd_from_var(m0, grid), 0).coarse["FULL"]
    tep0 = te_pid(m0, 0)
    assert abs(pird0.redundancy - tep0.redundancy) < 1e-4
    assert abs(pird0.synergy - tep0.synergy) < 1e-4
    assert abs(pird0.unique[0] - tep0.unique[0]) < 1e-4
    assert abs(pird0.unique[1] - tep0.unique[1]) < 1e-4
    m8 = build_scenario(Scenario("sim2", {"c": 0.8}))
    tep8 = te_pid(m8, 0)
    assert all(abs(v) < 1e-6 for v in (tep8.joint_mir, tep8.redundancy, tep8.synergy))
    pird8 = decompose(psd_from_var(m8, grid), 0).coarse["FULL"]
    assert pird8.joint_mir > 0.1
    assert pird8.redundancy > pird8.synergy


def test_sim3_aggregated_structure(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = decompose(sim3_psd, 0, bands=bands)
    full = res.coarse["FULL"]
    assert abs(full.unique[1]) < 1e-6  # X2's information is all inherited
    assert res.coarse["B1"].delta < 0.0  # net synergy at the slow rhythm
    assert res.coarse["B2"].delta > 0.0  # net redundancy at the fast rhythm


def test_smmi_not_above_mmi(sim3_psd, sim3_result):
    res = sim3_result
    for i, atom in enumerate(res.lattice.atoms):
        mmi = min(
            integrate_full(spectral_mir(sim3_psd, 0, [res.sources[j - 1] for j in el]))
            for el in atom.elements
        )
        assert res.atom_redundancy_spans[0, i] <= mmi + 1e-12


def test_atoms_are_nonnegative_without_clipping(grid):
    # The chain's values are differences of sorted element rates: nonnegative
    # by construction (no sign bit, so no -0.0 either), at most E nonzero
    # atoms per frequency, and they still sum to the joint rate.
    for m in make_model_set(count=6, seed=404):
        if m.dim < 3:
            continue
        res = decompose(psd_from_var(m, grid), 0)
        assert abs(res.atom_pi_spans[0].sum() - res.joint_mir) < 1e-6
        assert not np.any(np.signbit(res.atom_pi))
        assert np.all(np.count_nonzero(res.atom_pi, axis=0) <= 2 ** len(res.sources) - 1)
        # nothing was clipped: the recursion on the same redundancy agrees
        oracle = res.lattice.invert_values(res.atom_redundancy)
        assert np.max(np.abs(res.atom_pi - oracle)) <= 1e-15 * res.joint_profile.max()


def test_result_is_frozen_all_the_way_down(sim1_c0_psd):
    res = decompose(sim1_c0_psd, 0, bands=[Band(0.1, 0.2, "A")])
    # The dense redundancy is built on first read, as the masked minimum:
    # bit for bit the per-atom minimum, signs of zero included (sim1 at
    # c = 0 has exact ties between elements).
    assert "atom_redundancy" not in vars(res)
    red = res.atom_redundancy
    assert red is res.atom_redundancy
    want = reference_engine(sim1_c0_psd, 0, res.sources, [])["atom_redundancy"]
    assert np.array_equal(red, want)
    assert np.array_equal(np.signbit(red), np.signbit(want))
    with pytest.raises(ValueError, match="read-only"):
        res.atom_pi[0, 0] = 5.0
    with pytest.raises(TypeError):
        res.coarse["FULL"] = None
    for array in (res.atom_redundancy, res.marginal_profiles, res.joint_profile,
                  res.atom_pi_spans, res.atom_redundancy_spans, res.mir_spans,
                  res.atom_pi_time):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5.0
    # The two row-0 reads view the span arrays.
    assert res.joint_mir == res.mir_spans[0, 0]
    assert res.atom_pi_time.base is res.atom_pi_spans


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


def test_writers_take_one_units_name(tmp_path, sim3_psd):
    # The scale comes with the units name: bits divide every value by ln 2.
    res = decompose(sim3_psd, 0)
    bits = float(np.log(2.0))
    write_atoms_csv(res, tmp_path / "atoms.csv", "bits")
    write_coarse_csv(res, tmp_path / "coarse.csv", "bits")
    write_profiles_csv(res, tmp_path / "profiles.csv", "bits")
    atoms = (tmp_path / "atoms.csv").read_text().splitlines()
    assert atoms[0] == "atom,band,pi_bits,redundancy_bits"
    assert atoms[1].split(",")[2:] == [
        f"{res.atom_pi_spans[0, 0] / bits:.12g}", f"{res.atom_redundancy_spans[0, 0] / bits:.12g}"
    ]
    coarse = (tmp_path / "coarse.csv").read_text().splitlines()
    assert coarse[0] == "term,band,value_bits"
    assert coarse[-1] == f"JointMIR,FULL,{res.joint_mir / bits:.12g}"
    profiles = (tmp_path / "profiles.csv").read_text().splitlines()
    assert profiles[-1].split(",")[2] == f"{res.joint_profile[-1] / bits:.12g}"
    for units in ("a,b", "BITS", "", None, 1.0):
        for writer in (write_atoms_csv, write_coarse_csv, write_profiles_csv):
            path = tmp_path / "bad.csv"
            with pytest.raises(ArgumentError, match="units"):
                writer(res, path, units)
            assert not path.exists()


def test_coarse_csv_checks_the_baseline_names(tmp_path, sim3_model, sim3_result):
    # A baseline name is a prefix of every term it writes, so it must be
    # CSV-safe like a channel name; a bad one fails before the file opens.
    base = static_pid(sim3_model, 0)
    path = tmp_path / "coarse.csv"
    for name in ('a,b"c', "a,b", 'a"b', "a\rb", "a\nb", "", None):
        with pytest.raises(ArgumentError, match="baseline name"):
            write_coarse_csv(sim3_result, path, "nats", {"staticPID": base, name: base})
        assert not path.exists()
    write_coarse_csv(sim3_result, path, "bits", {"staticPID": base, "tePID é%": base})
    rows = path.read_text(encoding="utf-8").splitlines()
    assert all(row.count(",") == 2 for row in rows)
    assert rows[-1].startswith("tePID é%:JointMIR,FULL,")


@pytest.mark.parametrize("existing", [False, True])
def test_coarse_csv_refuses_a_baseline_with_another_source_count(
    tmp_path, sim3_model, sim3_result, existing
):
    # A 2-source PID on a 3-source result would shift every term by one
    # row; it is refused before the file opens, and a target is left as it was.
    base = static_pid(sim3_model, 0, [1, 2])
    path = tmp_path / "coarse.csv"
    if existing:
        path.write_bytes(b"old,bytes\n")
    with pytest.raises(ArgumentError, match="are not 2 distinct source names"):
        write_coarse_csv(sim3_result, path, baselines={"staticPID": base})
    assert [p.name for p in tmp_path.iterdir()] == (["coarse.csv"] if existing else [])
    if existing:
        assert path.read_bytes() == b"old,bytes\n"


def test_writers_write_through_the_module_atomic_writer(tmp_path, monkeypatch, sim3_result):
    # Each writer calls this module's global atomic_write_text with the
    # target path as its first positional argument, where a wrapper bound
    # to that name sees every file and its size.
    calls = []

    def spy(*args, **kwargs):
        calls.append((args[0], kwargs))
        atomic_write_text(*args, **kwargs)

    monkeypatch.setattr(decomposition, "atomic_write_text", spy)
    for writer in (write_atoms_csv, write_coarse_csv, write_profiles_csv):
        path = tmp_path / f"{writer.__name__}.csv"
        writer(sim3_result, path)
        assert calls[-1] == (path, {}) and path.stat().st_size > 0
    assert len(calls) == 3


def reference_profile_blocks(result):
    """The ``(key, values)`` blocks of ``profiles.csv``, in file order."""
    blocks = [(str(atom), result.atom_pi[i]) for i, atom in enumerate(result.lattice.atoms)]
    blocks += [(f"I_{n}", row) for n, row in zip(result.source_names, result.marginal_profiles)]
    if len(result.sources) >= 2:
        groups = result.lattice.coarse_groups()
        keys = [(f"U_{n}", f"unique:{j}") for j, n in enumerate(result.source_names, start=1)]
        keys += [("R", "redundant"), ("S", "synergistic")]
        blocks += [(key, result.atom_pi[list(groups[g])].sum(axis=0)) for key, g in keys]
    blocks.append(("JointMIR", result.joint_profile))
    return blocks


def reference_profiles_csv(result, path, scale=1.0):
    """The row-at-a-time writer that the chunked writer replaced: one
    ``.12g`` format per frequency and per value."""
    lines = ["f_hz,atom_or_term,value"]
    for key, values in reference_profile_blocks(result):
        for f, v in zip(result.grid.hz, values):
            lines.append(f"{f:.12g},{key},{v / scale:.12g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _profiles_case(case, grid):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    if case == "sim1":
        return decompose(psd_from_var(build_scenario(Scenario("sim1", {"c": 0.4})), grid), 0)
    if case == "sim3":
        return decompose(psd_from_var(build_scenario(Scenario("sim3")), grid), 0, bands=bands)
    if case == "sim3-two-points":
        return decompose(psd_from_var(build_scenario(Scenario("sim3")), FrequencyGrid(n_points=2)), 0)
    if case == "independent-source":
        return decompose(psd_from_var(with_independent_source(SIM3, 1), grid), 0, bands=bands)
    if case == "var4-run-of-one":
        return decompose(psd_from_var(random_stable_var(4, 2, seed=10, radius=0.9), grid), 0)
    model = random_stable_var(5, 3, seed=17, radius=0.9)
    if case == "var5-one-source":
        return decompose(psd_from_var(model, grid), 0, [3], bands=bands)
    if case == "var5":
        return decompose(psd_from_var(model, grid), 0, bands=bands)
    # channel names that are %-format directives must come out verbatim;
    # non-ASCII names take more bytes than characters in every row
    names = {
        "percent-names": ("Y%", "X%s", "%(k)d", "50%%", "%.12g"),
        "non-ascii-names": ("Y", "Xé", "Ψ", "日本", "X%ü"),
    }[case]
    named = VarModel(coeffs=model.coeffs, sigma=model.sigma, names=names)
    return decompose(psd_from_var(named, grid), 0, bands=bands)


def _runs(values):
    """``(start, stop)`` of each run of values other than +0.0."""
    runs, start = [], None
    for i, v in enumerate(values.tolist() + [0.0]):
        plus_zero = v == 0.0 and math.copysign(1.0, v) > 0.0
        if start is None and not plus_zero:
            start = i
        elif start is not None and plus_zero:
            runs.append((start, i))
            start = None
    return runs


def _has_feature(feature, blocks, n):
    """Whether the profile blocks hold what a writer case is meant to test."""
    runs = [_runs(values) for _, values in blocks]
    if feature == "minus-zero":
        return any(np.any((values == 0.0) & np.signbit(values)) for _, values in blocks)
    if feature == "edge-runs":  # runs from the first and to the last point, not whole blocks
        return (any(r and r[0][0] == 0 and r[0][1] < n for r in runs)
                and any(r and r[-1][1] == n and r[-1][0] > 0 for r in runs))
    if feature == "run-of-one":  # between two zeros
        return any(b - a == 1 and 0 < a < n - 1 for r in runs for a, b in r)
    if feature == "all-zero-blocks":
        return any(not r for r in runs)
    assert feature == "two-points"
    return n == 2


#: What each writer case must contain, so that no case passes vacuously.
PROFILE_FEATURES = {
    "sim1": ("edge-runs",),
    "sim3": ("edge-runs", "all-zero-blocks"),
    "sim3-two-points": ("two-points", "all-zero-blocks"),
    "var4-run-of-one": ("run-of-one",),
    "var5": ("edge-runs", "all-zero-blocks"),
    "independent-source": ("minus-zero", "all-zero-blocks"),
}


@pytest.mark.parametrize(
    "case, m",
    [
        ("var5-one-source", 1), ("sim1", 2), ("sim3", 3), ("sim3-two-points", 3),
        ("var4-run-of-one", 3), ("var5", 4), ("independent-source", 4), ("percent-names", 4),
        ("non-ascii-names", 4),
    ],
)
@pytest.mark.parametrize("scale", [1.0, np.log(2.0)])
def test_profiles_csv_matches_row_at_a_time_writer(tmp_path, grid, case, m, scale):
    res = _profiles_case(case, grid)
    assert len(res.sources) == m
    n = res.grid.n_points
    for feature in PROFILE_FEATURES.get(case, ()):
        assert _has_feature(feature, reference_profile_blocks(res), n), feature
    write_profiles_csv(res, tmp_path / "profiles.csv", "nats" if scale == 1.0 else "bits")
    reference_profiles_csv(res, tmp_path / "reference.csv", scale)
    text = (tmp_path / "profiles.csv").read_bytes()
    assert text == (tmp_path / "reference.csv").read_bytes()
    blocks = len(res.lattice) + (2 * m + 3 if m >= 2 else m + 1)
    assert text.count(b"\n") == 1 + blocks * n
    if case == "independent-source":
        assert b",-0\n" in text


@pytest.mark.parametrize("case", ["sim1", "sim3-two-points", "var5", "independent-source"])
def test_profiles_group_rows_equal_the_fancy_index_sum(tmp_path, grid, monkeypatch, case):
    # Bit for bit, signs of zero included: the writer sums the U/R/S rows
    # from the chain, in rank order, which is the atom order of a reduction
    # of the dense rows along axis 0.
    res = _profiles_case(case, grid)
    written = {}
    chunks = decomposition._profile_chunks

    def capture(blocks, hz, scale):
        written.update(blocks)
        return chunks(blocks, hz, scale)

    monkeypatch.setattr(decomposition, "_profile_chunks", capture)
    write_profiles_csv(res, tmp_path / "profiles.csv")
    m = len(res.sources)
    labels = [f"unique:{j}" for j in range(1, m + 1)] + ["redundant", "synergistic"]
    groups = res.lattice.coarse_groups()
    for key, label in zip(res.coarse["FULL"].row(res.source_names), labels):
        want = res.atom_pi[list(groups.get(label, ()))].sum(axis=0)
        assert np.array_equal(written[key], want), key
        assert np.array_equal(np.signbit(written[key]), np.signbit(want)), key


def test_profiles_csv_memory_does_not_grow_with_the_file(tmp_path, grid):
    # M = 4 on 2049 points: a file of about 10.6 MB, written in chunks.
    res = _profiles_case("var5", grid)
    path = tmp_path / "profiles.csv"
    write_profiles_csv(res, path)
    tracemalloc.start()
    try:
        write_profiles_csv(res, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 10_000_000
    assert peak < size / 4, (peak, size)
    # The group sums add rows in place instead of copying each group.
    assert peak < 1_500_000, peak


@pytest.mark.parametrize("existing", [False, True])
def test_atomic_write_leaves_the_target_alone_when_the_chunks_raise(tmp_path, existing):
    target = tmp_path / "out.csv"
    if existing:
        target.write_bytes(b"old,bytes\n")

    def chunks():
        yield b"x" * (1 << 20)  # more than a write buffer: the temp file has bytes
        yield b"y\n"
        raise RuntimeError("formatting failed")

    with pytest.raises(RuntimeError, match="formatting failed"):
        atomic_write_text(target, chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.csv"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old,bytes\n"


def test_atomic_write_takes_bytes_chunks_only(tmp_path):
    # One chunk type: a str chunk after bytes fails like a raising chunk.
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,bytes\n")
    with pytest.raises(TypeError, match="bytes-like"):
        atomic_write_text(target, [b"x" * (1 << 20), "y\n"])
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_bytes() == b"old,bytes\n"
    atomic_write_text(target, ["é,%\n".encode(), b"", b"1\n"])
    assert target.read_text(encoding="utf-8") == "é,%\n1\n"


def test_aggregate_coarse_band_consistency(sim3_psd):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = decompose(sim3_psd, 0, bands=bands)
    # group sums of band-integrated atoms match the terms exactly
    groups = res.lattice.coarse_groups()
    for label in ("B1", "B2"):
        t = res.coarse[label]
        r_sum = sum(res.atom_pi_spans[res.span_labels.index(label), i] for i in groups["redundant"])
        assert t.redundancy == pytest.approx(r_sum, abs=0)


@pytest.mark.parametrize("fs", [1.0, 3.0, 4.0])
@pytest.mark.parametrize("seed", range(4))
def test_coarse_marginals_are_the_marginal_profile_integrals(fs, seed):
    # Bit for bit: the engine integrates the single-source rows with the
    # same row integrators integrate_full and integrate_band run on one row.
    model = random_stable_var(5, 1 + seed % 3, seed=300 + seed, radius=0.9)
    grid = FrequencyGrid(fs=fs, n_points=513)
    bands = [Band(0.0, 0.11 * fs, "A"), Band(0.13 * fs, 0.37 * fs, "B"),
             Band(0.4 * fs, 0.5 * fs, "C")]
    res = decompose(psd_from_var(model, grid), 0, None if seed % 2 else (1, 3), bands)
    rows = res.marginal_profiles
    assert res.coarse["FULL"].marginals == tuple(integrate_full(p) for p in rows)
    for band in bands:
        assert res.coarse[band.label].marginals == tuple(integrate_band(p, band, fs) for p in rows)


@pytest.mark.parametrize("case", ["sim1 c=0", "sim1 c=0.5", "sim2", "var6 seed=1", "var6 seed=2"])
def test_two_source_marginal_is_unique_plus_redundancy(case):
    # With M = 2 the single-source rate of {i} is PI({1}{2}) + PI({i}) at
    # every frequency, so its integral is U_i + R up to roundoff.
    psd, sources, bands = _engine_case(case)
    res = decompose(psd, 0, None if sources is None else sources[:2], bands)
    assert len(res.sources) == 2
    for terms in res.coarse.values():
        for marginal, unique in zip(terms.marginals, terms.unique, strict=True):
            assert abs(marginal - (unique + terms.redundancy)) <= 1e-14


def reference_engine(psd, target, sources, bands):
    """The per-atom engine the array engine replaced: each element's MIR
    profile from :func:`spectral_mir` (cached per element), a per-atom
    ``np.minimum.reduce``, and ``np.interp`` + 1-D trapezoid per row and
    band, and the coarse terms as Python sums over the coarse groups.
    Returns every array ``decompose`` produces, by name."""
    srcs = tuple(sorted(sources))
    m = len(srcs)
    lattice = enumerate_antichains(m)
    n = psd.grid.n_points
    cache = {}

    def profile(element):
        if element not in cache:
            chans = [srcs[i - 1] for i in element]
            cache[element] = spectral_mir(psd, target, chans)
        return cache[element]

    red = np.empty((len(lattice), n))
    for i, atom in enumerate(lattice.atoms):
        red[i] = np.minimum.reduce([profile(el) for el in atom.elements])
    pi = lattice.invert_values(red)
    joint = profile(tuple(range(1, m + 1)))
    out = {
        "atom_redundancy": red,
        "atom_pi": pi,
        "joint_profile": joint,
        "marginal_profiles": np.stack([profile((j,)) for j in range(1, m + 1)]),
    }

    def integrals(rows, band):
        if band is None:
            return np.trapezoid(rows, psd.grid.omegas, axis=1) / np.pi
        return np.array([reference_band_integral(row, psd.grid, band) for row in rows])

    spans = [("FULL", None), *((band.label, band) for band in bands)]
    for label, band in spans:
        out[f"pi:{label}"] = integrals(pi, band)
        out[f"redundancy:{label}"] = integrals(red, band)
        out[f"joint_mir:{label}"] = integrals(joint[None], band)
    if m >= 2:
        groups = lattice.coarse_groups()
        names = [f"unique:{j}" for j in range(1, m + 1)] + ["redundant", "synergistic"]
        for label, _ in spans:
            sums = [sum(out[f"pi:{label}"][i] for i in groups[g]) for g in names]
            out[f"coarse:{label}"] = np.array([*sums, *out[f"joint_mir:{label}"]])
    return out


def engine_arrays(result):
    """The arrays of a ``decompose`` result, keyed as :func:`reference_engine`."""
    out = {
        "atom_redundancy": result.atom_redundancy,
        "atom_pi": result.atom_pi,
        "joint_profile": result.joint_profile,
        "marginal_profiles": result.marginal_profiles,
    }
    for k, label in enumerate(result.span_labels):
        out[f"pi:{label}"] = result.atom_pi_spans[k]
        out[f"redundancy:{label}"] = result.atom_redundancy_spans[k]
        out[f"joint_mir:{label}"] = result.mir_spans[k, :1]
    for label, t in result.coarse.items():
        out[f"coarse:{label}"] = np.array([*t.unique, t.redundancy, t.synergy, t.joint_mir])
    return out


#: The keys of :func:`engine_arrays` that equal the reference bit for bit:
#: the profiles the engine takes from the MIR table by a masked minimum.
EXACT_KEYS = ("atom_redundancy", "joint_profile", "marginal_profiles")


def _engine_case(case):
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    grid = FrequencyGrid(fs=1.0, n_points=2049)
    if case.startswith("sim1"):
        c = float(case.split("=")[1])
        return psd_from_var(build_scenario(Scenario("sim1", {"c": c})), grid), None, []
    if case == "sim2":
        return psd_from_var(build_scenario(Scenario("sim2", {"c": 0.4})), grid), None, bands
    if case == "sim3":
        return psd_from_var(build_scenario(Scenario("sim3")), grid), None, bands
    if case == "sim3-fs2.7":
        fast = FrequencyGrid(fs=2.7, n_points=1025)
        odd = [Band(0.0, 0.3, "LO"), Band(0.3, 0.9, "MID"), Band(0.9, 1.35, "TOP")]
        return psd_from_var(build_scenario(Scenario("sim3")), fast), None, odd
    seed = int(case.split("=")[1])
    model = random_stable_var(6, 1 + seed % 4, seed=seed, radius=0.9)
    return psd_from_var(model, FrequencyGrid(n_points=513)), (1, 2, 4, 5), bands


@pytest.mark.parametrize(
    "case",
    ["sim1 c=0", "sim1 c=0.5", "sim2", "sim3", "sim3-fs2.7",
     "var6 seed=1", "var6 seed=2", "var6 seed=3"],
)
def test_decompose_equals_per_atom_reference_engine(case):
    # Redundancy, joint and marginal profiles bit for bit, signs of zero
    # included: the array engine compares in the same order as the per-atom
    # loops (sim1 at c = 0 has exact ties between elements). The PI outputs
    # come from the sorted element chain instead of the recursion, and the
    # integrals from quadrature weights instead of np.interp + np.trapezoid,
    # so they agree to roundoff of the joint rate.
    psd, sources, bands = _engine_case(case)
    result = decompose(psd, 0, sources, bands)
    want = reference_engine(psd, 0, result.sources, bands)
    got = engine_arrays(result)
    assert sorted(got) == sorted(want)
    bound = 1e-15 * result.joint_profile.max()
    for key, value in want.items():
        if key in EXACT_KEYS:
            assert np.array_equal(got[key], value), key
            assert np.array_equal(np.signbit(got[key]), np.signbit(value)), key
        else:
            assert np.max(np.abs(got[key] - value)) <= bound, key


def test_decompose_memory_peak():
    # M = 4 on 2049 points with two bands: the engine holds the E = 15
    # chain rows, not the dense (166, 2049) PI or redundancy (each 2.7 MB,
    # built on read).
    psd = psd_from_var(random_stable_var(5, 3, seed=31, radius=0.9), FrequencyGrid(n_points=2049))
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    decompose(psd, 0, bands=bands)  # fill the per-M caches
    tracemalloc.start()
    try:
        res = decompose(psd, 0, bands=bands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.lattice) == 166
    assert peak < 3_200_000, peak


def test_decompose_leaves_no_reference_cycles():
    # The engine's arrays go when the last reference does, not when the
    # garbage collector next runs: a cycle through the element-table walk
    # would keep every operation's arrays alive until then.
    psd = psd_from_var(random_stable_var(5, 2, seed=8, radius=0.9), GRID_513)
    bands = [Band(0.04, 0.15, "B1")]
    decompose(psd, 0, bands=bands)  # fill the per-M caches
    gc.collect()
    gc.disable()
    try:
        result = decompose(psd, 0, bands=bands)
        assert len(result.sources) == 4
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def scalar_chain(table, elements, lattice):
    """The sorted element chain one frequency at a time in plain Python:
    ``table[k]`` is the MIR profile of ``elements[k]``. Per frequency, take
    the monotone envelope (each element's largest value over its subsets),
    sort by (envelope, size), and walk the ranks from the bottom: rank k
    puts ``value_k - value_(k-1)`` on the atom of the minimal elements of
    the ranks k and above."""
    n_el, n = table.shape
    subsets = [[a for a in range(n_el) if set(elements[a]) <= set(elements[b])]
               for b in range(n_el)]
    atom_of = {}
    pi = np.zeros((len(lattice), n))
    for j in range(n):
        g = [float(table[k, j]) + 0.0 for k in range(n_el)]
        env = [max(g[a] for a in subsets[b]) for b in range(n_el)]
        ranked = sorted(range(n_el), key=lambda k: (env[k], len(elements[k])))
        below = 0.0
        for r, k in enumerate(ranked):
            up = frozenset(ranked[r:])
            if up not in atom_of:
                low = [elements[b] for b in up if not any(
                    a != b and a in up for a in subsets[b])]
                atom_of[up] = lattice.index(Atom(low))
            pi[atom_of[up], j] = env[k] - below
            below = env[k]
    return pi


@pytest.mark.parametrize("case", ["sim1 c=0", "sim3", "var6 seed=1", "independent"])
def test_atom_pi_equals_scalar_chain_reference(case):
    # Byte-exact: max is exact and each value is one subtraction, so the
    # vectorised chain must reproduce the scalar walk bit for bit.
    if case == "independent":
        psd, sources = psd_from_var(with_independent_source(SIM3, 1), GRID_513), None
    else:
        psd, sources, _ = _engine_case(case)
    result = decompose(psd, 0, sources)
    lattice = result.lattice
    elements = sorted({el for atom in lattice.atoms for el in atom.elements})
    table = np.stack([
        spectral_mir(psd, 0, [result.sources[i - 1] for i in el]) for el in elements
    ])
    want = scalar_chain(table, elements, lattice)
    assert np.array_equal(result.atom_pi, want)
    assert np.array_equal(np.signbit(result.atom_pi), np.signbit(want))


def test_chain_envelope_absorbs_monotonicity_roundoff():
    # With an independent source X1, {12} ties {2} exactly. Pushing {12}
    # one ulp below {2} breaks monotonicity the way roundoff could; the
    # envelope restores the tie, so the PI rates do not move by a bit.
    psd = psd_from_var(with_independent_source(SIM3, 1), GRID_513)
    lattice = enumerate_antichains(4)
    elements = lattice.elements
    table = np.stack([spectral_mir(psd, 0, list(el)) for el in elements])
    low, high = elements.index((2,)), elements.index((1, 2))
    assert np.array_equal(table[low], table[high])
    broken = table.copy()
    broken[high] = np.nextafter(table[high], -np.inf)
    pi = chain_profiles(broken, lattice)
    assert np.array_equal(pi, chain_profiles(table, lattice))
    assert np.array_equal(pi, scalar_chain(broken, list(elements), lattice))


@pytest.mark.parametrize(
    "case, m",
    [("var5-one-source", 1), ("sim1", 2), ("sim3", 3), ("sim3-two-points", 3), ("var5", 4),
     ("independent-source", 4)],
)
def test_atom_pi_is_built_on_first_read_as_the_eager_scatter(grid, case, m):
    res = _profiles_case(case, grid)
    assert len(res.sources) == m
    assert "atom_pi" not in vars(res)
    pi = res.atom_pi
    assert pi is res.atom_pi
    assert not pi.flags.writeable
    want = chain_profiles(res._table, res.lattice)
    assert np.array_equal(pi, want)
    assert np.array_equal(np.signbit(pi), np.signbit(want))


def chain_profiles(table, lattice):
    """The dense PI profiles of :func:`_chain_pi`'s chain, scattered as
    ``decompose`` scatters them."""
    at, delta = _chain_pi(table, lattice)
    pi = np.zeros((len(lattice), table.shape[1]))
    pi[at, np.arange(table.shape[1])] = delta
    return pi


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_pi_equals_the_accumulated_chain_bit_for_bit(m, seed):
    # Small integers tie exactly across ranks and within the envelope;
    # -0.0 entries check the +0.0 of an exactly independent source.
    lattice = enumerate_antichains(m)
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 4, size=(len(lattice.elements), 257)).astype(float)
    table[rng.random(table.shape) < 0.1] = -0.0
    at, delta = _chain_pi(table, lattice)
    want_at, want_delta = accumulated_chain(table, lattice)
    assert np.array_equal(at, want_at)
    assert delta.tobytes() == want_delta.tobytes()


# ---------------------------------------------------------------------------
# invariances of the decomposition

# derandomize: every run draws the same examples, so the gate is reproducible
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
SIM3 = build_scenario(Scenario("sim3"))
GRID_513 = FrequencyGrid(n_points=513)


def with_independent_source(model, position, coeff=0.5, var=1.0):
    """``model`` with a new channel at index ``position`` (1 .. dim) that is
    an AR(1) driven by its own noise and coupled to nothing: every element
    holding it ties analytically with the element without it."""
    q = model.dim
    old = [k for k in range(q + 1) if k != position]
    coeffs = np.zeros((max(model.order, 1), q + 1, q + 1))
    coeffs[np.ix_(range(model.order), old, old)] = model.coeffs
    coeffs[0, position, position] = coeff
    sigma = np.zeros((q + 1, q + 1))
    sigma[np.ix_(old, old)] = model.sigma
    sigma[position, position] = var
    return VarModel(coeffs=coeffs, sigma=sigma)
MODELS = st.one_of(
    st.just(SIM3),
    st.builds(
        random_stable_var,
        dim=st.integers(3, 5),
        order=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        radius=st.floats(0.3, 0.95),
    ),
)


def atom_values(model, sources=None):
    """Every atom's PI and redundancy rate, full axis and per band."""
    bands = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
    res = decompose(psd_from_var(model, FrequencyGrid(n_points=513)), 0, sources, bands)
    return np.concatenate([res.atom_pi_spans, res.atom_redundancy_spans]).ravel()


@PROPERTY
@given(model=MODELS, channel=st.integers(0, 4), k=st.integers(-150, 150))
@example(model=SIM3, channel=2, k=-150)
@example(model=SIM3, channel=0, k=150)
def test_atoms_invariant_under_channel_scaling(model, channel, k):
    d = np.ones(model.dim)
    d[channel % model.dim] = 10.0**k
    scaled = VarModel(
        coeffs=d[:, None] * model.coeffs / d[None, :], sigma=model.sigma * np.outer(d, d)
    )
    assert np.max(np.abs(atom_values(scaled) - atom_values(model))) <= 1e-12


@PROPERTY
@given(model=MODELS, coeff=st.floats(-0.9, 0.9), var=st.floats(1e-3, 1e3))
def test_atoms_unchanged_by_an_independent_non_source_channel(model, coeff, var):
    q = model.dim
    coeffs = np.zeros((model.order, q + 1, q + 1))
    coeffs[:, :q, :q] = model.coeffs
    coeffs[0, q, q] = coeff
    sigma = np.zeros((q + 1, q + 1))
    sigma[:q, :q] = model.sigma
    sigma[q, q] = var
    wider = VarModel(coeffs=coeffs, sigma=sigma)
    sources = list(range(1, q))
    assert np.max(np.abs(atom_values(wider, sources) - atom_values(model))) <= 1e-12


BANDS = [Band(0.04, 0.15, "B1"), Band(0.15, 0.4, "B2")]
#: sim3 and random VARs over 4 to 6 channels; the first four channels after
#: the target are the sources, so any further channel is a non-source.
WIDE_MODELS = st.one_of(
    st.just(SIM3),
    st.builds(
        random_stable_var,
        dim=st.integers(4, 6),
        order=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        radius=st.floats(0.3, 0.95),
    ),
)


def atom_table(model, target, sources):
    """Per atom: PI and redundancy rate over the full axis, B1 and B2."""
    res = decompose(psd_from_var(model, FrequencyGrid(n_points=513)), target, sources, BANDS)
    return res, np.concatenate([res.atom_pi_spans, res.atom_redundancy_spans]).T


@PROPERTY
@given(model=WIDE_MODELS, data=st.data())
@example(model=SIM3, data=None)
def test_atoms_equivariant_under_channel_relabelling(model, data):
    q = model.dim
    if data is None:
        perm = list(reversed(range(q)))
    else:
        perm = data.draw(st.permutations(range(q)))
    # channel k of the relabelled model is channel perm[k] of the original
    where = np.argsort(perm)
    sources = list(range(1, min(q, 5)))
    new_sources = sorted(int(where[c]) for c in sources)
    # source position i (1-based, sorted) moves to position image[i]
    image = {i: new_sources.index(where[c]) + 1 for i, c in enumerate(sources, start=1)}
    assume(any(image[i] != i for i in image))
    relabelled = VarModel(
        coeffs=model.coeffs[:, perm][:, :, perm], sigma=model.sigma[np.ix_(perm, perm)]
    )
    res, before = atom_table(model, 0, sources)
    res_new, after = atom_table(relabelled, int(where[0]), new_sources)
    for i, atom in enumerate(res.lattice.atoms):
        moved = Atom([[image[j] for j in el] for el in atom.elements])
        j = res_new.lattice.index(moved)
        assert np.max(np.abs(after[j] - before[i])) <= 1e-12, (str(atom), str(moved))


@PROPERTY
@given(model=MODELS, source=st.integers(1, 4))
def test_single_source_atom_is_the_spectral_mir_integral(model, source):
    psd = psd_from_var(model, FrequencyGrid(n_points=513))
    s = 1 + (source - 1) % (model.dim - 1)
    res = decompose(psd, 0, [s], BANDS)
    profile = spectral_mir(psd, 0, [s])
    wants = [integrate_full(profile), *(integrate_band(profile, b, psd.grid.fs) for b in BANDS)]
    pairs = zip(res.atom_pi_spans[:, 0], res.atom_redundancy_spans[:, 0], wants, strict=True)
    for pi, red, want in pairs:
        assert abs(pi - want) <= 1e-12
        assert abs(red - want) <= 1e-12
        assert abs(pi - red) <= 1e-12


#: sim3, random 3-5-channel VARs, and either with an independent source
#: added at a drawn position (the first four non-target channels are the
#: sources, so the independent one is always among them).
CHAIN_MODELS = st.one_of(
    MODELS,
    st.builds(
        with_independent_source,
        model=MODELS,
        position=st.integers(1, 3),
        coeff=st.floats(-0.9, 0.9),
        var=st.floats(1e-3, 1e3),
    ),
)


@PROPERTY
@given(model=CHAIN_MODELS)
@example(model=SIM3)
@example(model=with_independent_source(SIM3, 1))
def test_atom_pi_lies_on_a_chain_of_the_lattice(model):
    sources = list(range(1, min(model.dim, 5)))
    res = decompose(psd_from_var(model, GRID_513), 0, sources)
    pi, n_elements = res.atom_pi, 2 ** len(sources) - 1
    assert not np.any(np.signbit(pi))  # every value >= +0.0
    leq = res.lattice.weakly_below
    for j in range(pi.shape[1]):
        on = np.flatnonzero(pi[:, j])
        assert len(on) <= n_elements
        sub = leq[np.ix_(on, on)]
        assert np.all(sub | sub.T), j  # pairwise comparable: a chain
    oracle = res.lattice.invert_values(res.atom_redundancy)
    assert np.max(np.abs(pi - oracle)) <= 1e-15 * res.joint_profile.max()


#: Random stable VARs with M = 2..4 sources (the channels after the
#: target), grids down to two points, bands (in units of fs) down to a
#: small part of one grid cell, and sampling rates.
CHAIN_CASES = st.tuples(
    st.integers(2, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.floats(0.3, 0.95),
    st.integers(2, 1025),
    st.lists(
        st.tuples(st.floats(0.0, 0.5, exclude_max=True), st.booleans(), st.floats(1e-6, 1.0)),
        max_size=3,
    ),
    st.sampled_from([1.0, 0.3, 7.77]),
)


@PROPERTY
@given(case=CHAIN_CASES)
@example(case=(2, 1, 7, 0.9, 2, [(0.1, True, 0.01), (0.0, False, 1.0)], 1.0))
@example(case=(4, 3, 31, 0.9, 2049, [(0.04, False, 0.11 / 0.46), (0.3, True, 0.5)], 1.0))
@example(case=(4, 2, 5, 0.9, 1000, [(0.1, False, 0.5)], 7.77))
def test_chain_integrals_equal_the_dense_row_integrals(case):
    # The engine integrates the E-rank chain and takes the redundancy
    # integrals as the zeta sum of the PI integrals; both must agree with
    # the weighted row sums of the dense profiles, and the PI with the joint.
    m, order, seed, radius, n, drawn, fs = case
    grid = FrequencyGrid(fs=fs, n_points=n)
    cell = 0.5 / (n - 1)
    bands = []
    for k, (lo, narrow, share) in enumerate(drawn):
        hi = min(lo + share * (cell if narrow else 0.5 - lo), 0.5)
        assume(hi > lo)
        bands.append(Band(lo * fs, hi * fs, f"b{k}"))
    # The whole axis as a band, [0, fs/2]: the same span as FULL.
    bands.append(Band(0.0, fs / 2, "whole"))
    model = random_stable_var(m + 1, order, seed=seed, radius=radius)
    res = decompose(psd_from_var(model, grid), 0, range(1, m + 1), bands)
    weights = [quadrature_weights(grid, b) for b in (None, *bands)]
    pi, red = res.atom_pi_spans, res.atom_redundancy_spans
    bound = 1e-15 * res.joint_profile.max()
    assert np.max(np.abs(pi - integrate_rows(res.atom_pi, weights))) <= bound
    assert np.max(np.abs(red - integrate_rows(res.atom_redundancy, weights))) <= bound
    joints = res.mir_spans[:, 0].tolist()
    for row, joint in zip(pi, joints, strict=True):
        assert abs(row.sum() - joint) <= 1e-13
    # The joint row is integrated with the single-source rows, each summed
    # on its own: the public integrators give the same bits.
    assert joints == [integrate_full(res.joint_profile),
                      *(integrate_band(res.joint_profile, b, res.grid.fs) for b in bands)]
    # Every span array's row for the whole-axis band is row 0, bit for bit.
    for spans in (res.atom_pi_spans, res.atom_redundancy_spans, res.mir_spans):
        assert spans[-1].tobytes() == spans[0].tobytes()
