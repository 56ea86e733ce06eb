from itertools import chain, combinations

import numpy as np
import pytest

from pird import (
    ArgumentError,
    Atom,
    CapabilityError,
    enumerate_antichains,
    precedes,
)


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


def test_atom_canonical_form_and_equality():
    a = Atom([(2, 1), (3,)])
    b = Atom([[3], [1, 2]])
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == "{12}{3}"
    assert a.elements == ((1, 2), (3,))


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
    top, bottom = lattice.top, lattice.bottom
    assert top in lattice.atoms and bottom in lattice.atoms
    for atom in lattice.atoms:
        assert precedes(atom, top)
        assert precedes(bottom, atom)
    # down_sets hold exactly the strict predecessors
    for i, atom in enumerate(lattice.atoms):
        below = {
            j
            for j, b in enumerate(lattice.atoms)
            if b != atom and precedes(b, atom)
        }
        assert set(lattice.down_sets[i]) == below
        assert all(j < i for j in lattice.down_sets[i])  # topological order


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lattice_matches_precedes_reference(m):
    # Reference: the order from pairwise precedes calls, the atoms sorted by
    # strict-down-set size, ties broken by element tuples.
    atoms = [Atom(ac) for ac in brute_force_antichains(m)]
    n_below = [sum(precedes(b, a) for b in atoms) - 1 for a in atoms]
    order = sorted(range(len(atoms)), key=lambda i: (n_below[i], atoms[i].elements))
    atoms = [atoms[i] for i in order]
    down_sets = tuple(
        tuple(j for j, b in enumerate(atoms) if j != i and precedes(b, a))
        for i, a in enumerate(atoms)
    )
    lattice = enumerate_antichains(m)
    assert [str(a) for a in lattice.atoms] == [str(a) for a in atoms]
    assert lattice.down_sets == down_sets


def test_lattice_precedes_rejects_foreign_atoms():
    lattice = enumerate_antichains(2)
    with pytest.raises(ArgumentError, match="not part of the lattice"):
        lattice.precedes(Atom([(3,)]), Atom([(1,)]))


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
    for i, atom in enumerate(lattice.atoms):
        total = pi[atom] + sum(pi[lattice.atoms[j]] for j in lattice.down_sets[i])
        assert total == pytest.approx(red[atom], abs=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_moebius_constant_redundancy_telescopes(m):
    lattice = enumerate_antichains(m)
    c = 0.8125
    pi = lattice.invert_values(np.full(len(lattice), c))
    bottom = lattice.index(lattice.bottom)
    assert pi[bottom] == pytest.approx(c, abs=1e-14)
    for i in range(len(lattice)):
        if i != bottom:
            assert pi[i] == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_moebius_reconstruction_random(m):
    lattice = enumerate_antichains(m)
    rng = np.random.default_rng(100 + m)
    for _ in range(25):
        values = rng.uniform(-1.0, 2.0, size=len(lattice))
        pi = lattice.invert_values(values)
        for i in range(len(lattice)):
            resum = pi[i] + pi[list(lattice.down_sets[i])].sum()
            assert abs(resum - values[i]) <= 1e-12 * max(1.0, abs(values[i]))
        # completeness: everything sums to the top redundancy
        top_idx = lattice.index(lattice.top)
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
    assert lattice.coarse_group(Atom([(1,), (2,)])) == "redundant"
    assert lattice.coarse_group(Atom([(1,)])) == "unique:1"
    assert lattice.coarse_group(Atom([(2,)])) == "unique:2"
    assert lattice.coarse_group(Atom([(1, 2)])) == "synergistic"


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
    assert lattice.coarse_group(lattice.bottom) == "redundant"
    assert lattice.coarse_group(lattice.top) == "synergistic"
