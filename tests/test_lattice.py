import dataclasses
import pickle
from itertools import chain, combinations

import numpy as np
import pytest

from pird import (
    ArgumentError,
    Atom,
    CapabilityError,
    enumerate_antichains,
)

from oracles import coarse_group, down_sets


def precedes(a, b):
    """Williams-Beer order, from sets: ``a`` precedes ``b`` iff every
    element of ``b`` has some element of ``a`` as a subset."""
    return all(any(set(ai) <= set(bj) for ai in a.elements) for bj in b.elements)


def top(m):
    """The greatest atom: the full source set as a single element."""
    return Atom([tuple(range(1, m + 1))])


def bottom(m):
    """The least atom: all singletons."""
    return Atom([(i,) for i in range(1, m + 1)])


def brute_force_antichains(m):
    """Independent oracle: all collections of nonempty subsets of {1..m}
    with no nested pair, as frozensets of frozensets."""
    subsets = [
        frozenset(c)
        for size in range(1, m + 1)
        for c in combinations(range(1, m + 1), size)
    ]
    found = set()
    for collection in chain.from_iterable(
        combinations(subsets, r) for r in range(1, len(subsets) + 1)
    ):
        if all(
            not (a <= b or b <= a) for a, b in combinations(collection, 2)
        ):
            found.add(frozenset(collection))
    return found


@pytest.mark.parametrize("m,count", [(1, 1), (2, 4), (3, 18), (4, 166)])
def test_atom_counts_match_brute_force(m, count):
    lattice = enumerate_antichains(m)
    oracle = brute_force_antichains(m)
    assert len(oracle) == count
    assert len(lattice) == count
    ours = {frozenset(frozenset(el) for el in a.elements) for a in lattice.atoms}
    assert ours == oracle


def test_m2_atoms_are_the_four_known_ones():
    lattice = enumerate_antichains(2)
    assert [str(a) for a in lattice.atoms] == ["{1}{2}", "{1}", "{2}", "{12}"]


def test_capability_limits():
    with pytest.raises(CapabilityError, match="1..4"):
        enumerate_antichains(5)
    with pytest.raises(CapabilityError):
        enumerate_antichains(0)


@pytest.mark.parametrize("m", [1.5, "2", None])
def test_source_count_must_be_an_integer(m):
    with pytest.raises(ArgumentError, match="must be an integer"):
        enumerate_antichains(m)


def test_source_count_accepts_integer_types_and_stays_a_capability_limit():
    assert enumerate_antichains(np.int64(3)) == enumerate_antichains(3)
    for m in (-1, 0, np.int64(5)):
        with pytest.raises(CapabilityError, match="1..4"):
            enumerate_antichains(m)


@pytest.mark.parametrize("elements", [[[1.5]], [["1"]], [(1,), (2.0,)]])
def test_atom_indices_must_be_integers(elements):
    with pytest.raises(ArgumentError, match="must be an integer"):
        Atom(elements)


def test_atom_canonical_form_and_equality():
    a = Atom([(2, 1), (3,)])
    b = Atom([[3], [1, 2]])
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == "{12}{3}"
    assert a.elements == ((1, 2), (3,))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_atom_label_is_built_once_and_stays_out_of_the_value(m):
    for atom in enumerate_antichains(m).atoms:
        label = str(atom)
        assert str(atom) is label and f"{atom}" is label
        assert label == "".join("{" + "".join(map(str, el)) + "}" for el in atom.elements)
        assert repr(atom) == f"Atom({label})"
        twin = Atom(reversed(atom.elements))
        assert twin == atom and hash(twin) == hash(atom)
        assert dataclasses.astuple(atom) == (atom.elements,)
        assert str(pickle.loads(pickle.dumps(atom))) == label


def test_atom_validation():
    with pytest.raises(ArgumentError):
        Atom([])
    with pytest.raises(ArgumentError):
        Atom([()])
    with pytest.raises(ArgumentError):
        Atom([(0,)])
    with pytest.raises(ArgumentError, match="antichain"):
        Atom([(1,), (1, 2)])


def test_precedes_examples():
    assert precedes(Atom([(1,), (2,)]), Atom([(1,)]))
    a = Atom([(1,), (2, 3)])
    assert precedes(a, a)
    assert not precedes(Atom([(1, 2)]), Atom([(1,)]))
    assert precedes(Atom([(1,)]), Atom([(1, 2)]))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_order_is_a_partial_order(m):
    lattice = enumerate_antichains(m)
    n = len(lattice)
    leq = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(lattice.atoms):
        for j, b in enumerate(lattice.atoms):
            leq[i, j] = precedes(a, b)
    assert leq.diagonal().all()  # reflexive
    assert not (leq & leq.T & ~np.eye(n, dtype=bool)).any()  # antisymmetric
    # transitive: leq[i,j] and leq[j,k] imply leq[i,k]
    closure = (leq.astype(int) @ leq.astype(int)) > 0
    assert not (closure & ~leq).any()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_top_bottom_and_downsets(m):
    lattice = enumerate_antichains(m)
    assert top(m) in lattice.atoms and bottom(m) in lattice.atoms
    for atom in lattice.atoms:
        assert precedes(atom, top(m))
        assert precedes(bottom(m), atom)
    # the down-sets hold exactly the strict predecessors
    strict = down_sets(lattice)
    for i, atom in enumerate(lattice.atoms):
        below = {
            j
            for j, b in enumerate(lattice.atoms)
            if b != atom and precedes(b, atom)
        }
        assert set(strict[i]) == below
        assert all(j < i for j in strict[i])  # topological order


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lattice_matches_precedes_reference(m):
    # Reference: the order from pairwise precedes calls, the atoms sorted by
    # strict-down-set size, ties broken by element tuples.
    atoms = [Atom(ac) for ac in brute_force_antichains(m)]
    n_below = [sum(precedes(b, a) for b in atoms) - 1 for a in atoms]
    order = sorted(range(len(atoms)), key=lambda i: (n_below[i], atoms[i].elements))
    atoms = [atoms[i] for i in order]
    strict = tuple(
        tuple(j for j, b in enumerate(atoms) if j != i and precedes(b, a))
        for i, a in enumerate(atoms)
    )
    lattice = enumerate_antichains(m)
    assert [str(a) for a in lattice.atoms] == [str(a) for a in atoms]
    assert down_sets(lattice) == strict


def test_lattice_index_rejects_foreign_atoms():
    lattice = enumerate_antichains(2)
    assert lattice.index(Atom([(1,), (2,)])) == 0
    with pytest.raises(ArgumentError, match="not part of the lattice over M=2"):
        lattice.index(Atom([(3,)]))
    with pytest.raises(ArgumentError, match="not part of the lattice"):
        lattice.index(Atom([(1, 2, 3)]))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_element_tables_match_sets(m):
    lattice = enumerate_antichains(m)
    elements = lattice.elements
    # every nonempty subset of {1..m}, by size, then lexicographically
    subsets = {el for atom in lattice.atoms for el in atom.elements}
    assert len(subsets) == 2**m - 1
    assert list(elements) == sorted(subsets, key=lambda el: (len(el), el))
    n = len(elements)
    assert lattice.member.shape == (len(lattice), n)
    for a, atom in enumerate(lattice.atoms):
        for k, el in enumerate(elements):
            assert lattice.member[a, k] == (el in atom.elements)
    # each mask maps to the atom whose up-set it is, every other mask to -1
    upset_of = {
        sum(1 << k for k, el in enumerate(elements)
            if any(set(low) <= set(el) for low in atom.elements)): a
        for a, atom in enumerate(lattice.atoms)
    }
    assert len(upset_of) == len(lattice)
    assert lattice.atom_of_upset.shape == (1 << n,)
    for mask in range(1 << n):
        assert lattice.atom_of_upset[mask] == upset_of.get(mask, -1)
    # per size from 2 up: the elements of that size, and their subsets one
    # source smaller, one per source dropped in ascending order
    assert len(lattice.smaller) == m - 1
    for size, (idx, subs) in zip(range(2, m + 1), lattice.smaller):
        assert [elements[k] for k in idx] == [el for el in elements if len(el) == size]
        for k, row in zip(idx, subs):
            assert [elements[j] for j in row] == [
                tuple(i for i in elements[k] if i != drop) for drop in elements[k]]
    # the order as a matrix: each atom's strict down-set and itself
    assert lattice.weakly_below.shape == (len(lattice), len(lattice))
    for a, atom in enumerate(lattice.atoms):
        below = {b for b, other in enumerate(lattice.atoms) if b != a and precedes(other, atom)}
        assert set(np.flatnonzero(lattice.weakly_below[a]).tolist()) == {a, *below}
    # each atom's coarse group by the singleton rule, numbered unique:1..m,
    # redundant, synergistic
    labels = [f"unique:{j}" for j in range(1, m + 1)] + ["redundant", "synergistic"]
    assert lattice.coarse_of.shape == (len(lattice),)
    assert [labels[g] for g in lattice.coarse_of.tolist()] == [
        coarse_group(atom) for atom in lattice.atoms]
    assert lattice.coarse_groups() == {
        label: tuple(i for i, atom in enumerate(lattice.atoms) if coarse_group(atom) == label)
        for label in labels if any(coarse_group(atom) == label for atom in lattice.atoms)}
    for array in (lattice.member, lattice.atom_of_upset, lattice.weakly_below, lattice.coarse_of,
                  *(x for pair in lattice.smaller for x in pair)):
        assert not array.flags.writeable


def test_element_tables_stay_out_of_equality():
    lattice = enumerate_antichains(3)
    fresh = enumerate_antichains.__wrapped__(3)
    assert fresh is not lattice
    assert fresh == lattice and hash(fresh) == hash(lattice)
    assert "member" not in repr(lattice)


def by_atom(lattice, values):
    """Atom-keyed values as an array in lattice order."""
    return np.array([values[atom] for atom in lattice.atoms])


def test_moebius_single_atom():
    lattice = enumerate_antichains(1)
    pi = lattice.invert_values(np.array([0.37]))
    assert pi[lattice.index(Atom([(1,)]))] == pytest.approx(0.37, abs=0)


def test_moebius_hand_worked_m2_case():
    lattice = enumerate_antichains(2)
    red = {
        Atom([(1,), (2,)]): 0.2,
        Atom([(1,)]): 0.5,
        Atom([(2,)]): 0.5,
        Atom([(1, 2)]): 0.7,
    }
    pi = dict(zip(lattice.atoms, lattice.invert_values(by_atom(lattice, red))))
    assert pi[Atom([(1,), (2,)])] == pytest.approx(0.2, abs=1e-15)
    assert pi[Atom([(1,)])] == pytest.approx(0.3, abs=1e-15)
    assert pi[Atom([(2,)])] == pytest.approx(0.3, abs=1e-15)
    assert pi[Atom([(1, 2)])] == pytest.approx(-0.1, abs=1e-15)
    # re-summing over down-sets recovers the input
    for atom, below in zip(lattice.atoms, down_sets(lattice)):
        total = pi[atom] + sum(pi[lattice.atoms[j]] for j in below)
        assert total == pytest.approx(red[atom], abs=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_moebius_constant_redundancy_telescopes(m):
    lattice = enumerate_antichains(m)
    c = 0.8125
    pi = lattice.invert_values(np.full(len(lattice), c))
    low = lattice.index(bottom(m))
    assert pi[low] == pytest.approx(c, abs=1e-14)
    for i in range(len(lattice)):
        if i != low:
            assert pi[i] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_moebius_reconstruction_random(m):
    lattice = enumerate_antichains(m)
    rng = np.random.default_rng(100 + m)
    strict = down_sets(lattice)
    for _ in range(25):
        values = rng.uniform(-1.0, 2.0, size=len(lattice))
        pi = lattice.invert_values(values)
        for i in range(len(lattice)):
            resum = pi[i] + pi[list(strict[i])].sum()
            assert abs(resum - values[i]) <= 1e-12 * max(1.0, abs(values[i]))
        # completeness: everything sums to the top redundancy
        top_idx = lattice.index(top(m))
        assert pi.sum() == pytest.approx(values[top_idx], abs=1e-12)


def test_invert_values_matches_dict_route_on_profiles():
    lattice = enumerate_antichains(3)
    rng = np.random.default_rng(7)
    profiles = rng.uniform(0.0, 1.0, size=(len(lattice), 5))
    pi = lattice.invert_values(profiles)
    # trailing axes are carried through: each column inverts on its own
    for col in range(5):
        by_column = lattice.invert_values(profiles[:, col])
        for i in range(len(lattice)):
            assert pi[i, col] == pytest.approx(by_column[i], abs=1e-14)


def test_moebius_missing_atom_raises():
    lattice = enumerate_antichains(2)
    with pytest.raises(ArgumentError, match="expected 4 redundancy rows"):
        lattice.invert_values(np.array([1.0]))


def test_moebius_nonfinite_raises():
    lattice = enumerate_antichains(1)
    with pytest.raises(ArgumentError, match="finite"):
        lattice.invert_values(np.array([float("nan")]))


def test_coarse_groups_m2():
    lattice = enumerate_antichains(2)
    assert coarse_group(Atom([(1,), (2,)])) == "redundant"
    assert coarse_group(Atom([(1,)])) == "unique:1"
    assert coarse_group(Atom([(2,)])) == "unique:2"
    assert coarse_group(Atom([(1, 2)])) == "synergistic"


def test_coarse_groups_m3_partition():
    lattice = enumerate_antichains(3)
    groups = lattice.coarse_groups()
    sizes = {k: len(v) for k, v in groups.items()}
    assert sizes == {
        "redundant": 4,
        "unique:1": 2,
        "unique:2": 2,
        "unique:3": 2,
        "synergistic": 8,
    }
    all_indices = sorted(i for idx in groups.values() for i in idx)
    assert all_indices == list(range(18))
    # the bottom atom is always redundant, the top synergistic
    assert coarse_group(bottom(3)) == "redundant"
    assert coarse_group(top(3)) == "synergistic"
