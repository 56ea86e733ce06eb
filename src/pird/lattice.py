"""Redundancy lattice of source antichains.

The nodes of the lattice are *atoms*: collections of source-index subsets in
which no subset contains another (antichains under set inclusion). Atoms are
partially ordered by the Williams-Beer relation, and redundancy values
assigned to atoms are converted into partial-information values by Moebius
inversion over that order.

The lattice is also where the *elements*, the ``2**m - 1`` nonempty source
subsets, are numbered: size-major, by size and then lexicographically. The
decomposition engine reads its tables (membership, subsets one source
smaller, the atom of each up-set, the order as a matrix, the coarse groups)
from :class:`RedundancyLattice` in that numbering; no other module
renumbers them.

Source indices are 1-based (``1..M``) everywhere in this module; the mapping
from atom indices to actual data channels is the caller's concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import ArgumentError, CapabilityError
from .var import _count

#: Largest supported number of sources. The atom count follows the Dedekind
#: numbers minus two (1, 4, 18, 166, 7579, ...), so anything beyond 4 is both
#: slow to build and useless to interpret.
M_MAX = 4

_ATOM_COUNTS = {1: 1, 2: 4, 3: 18, 4: 166}


@dataclass(frozen=True)
class Atom:
    """A canonicalized antichain of source-index sets.

    Parameters
    ----------
    elements : iterable of iterables of int
        The source-index sets. Canonicalization sorts each set ascending
        and the sets lexicographically, so two atoms built from the same
        sets in any order compare equal and hash alike.

    Raises
    ------
    ArgumentError
        If an element is empty, an index is not an integer or is < 1, or
        one element is a subset of another (antichain violation).
    """

    elements: tuple[tuple[int, ...], ...]

    def __init__(self, elements: Iterable[Iterable[int]]):
        canon = sorted(tuple(sorted({_count(i, "source index", 1) for i in el})) for el in elements)
        object.__setattr__(self, "elements", tuple(canon))
        if not self.elements:
            raise ArgumentError("an atom needs at least one element")
        for el in self.elements:
            if not el:
                raise ArgumentError("atom elements must be nonempty index sets")
        for a, b in combinations(self.elements, 2):
            if set(a) <= set(b) or set(b) <= set(a):
                raise ArgumentError(
                    f"not an antichain: {set(a)} and {set(b)} are nested"
                )
        # Built once for every CSV row and profile key; not a field, so not in ==.
        label = "".join("{" + "".join(str(i) for i in el) + "}" for el in self.elements)
        object.__setattr__(self, "_label", label)

    def __str__(self) -> str:
        return self._label

    def __repr__(self) -> str:
        return f"Atom({self})"


@dataclass(frozen=True)
class RedundancyLattice:
    """All antichain atoms over ``m`` sources with their partial order.

    ``atoms`` is stored in a fixed linear extension of the order (atoms
    sorted by strict-down-set size, ties broken by element tuples), so a
    single forward pass suffices for the Moebius recursion.

    The tables of the decomposition engine, all read-only and left out of
    equality and hashing (they follow from ``m``):

    * ``elements``: the nonempty source subsets, numbered size-major;
    * ``member[a, k]``: atom ``a`` holds element ``k``;
    * ``smaller``: per size from 2 up, the indices of the elements of that
      size and, per such element, the indices of its subsets one source
      smaller (dropping its sources in ascending order);
    * ``atom_of_upset``: per element bitmask (bit ``k`` for element ``k``),
      the index of the atom of its minimal elements if the mask is an
      up-set, else -1;
    * ``weakly_below[a, b]``: atom ``b`` precedes or equals atom ``a``;
      the strict predecessors of ``a`` all come before it;
    * ``coarse_of[a]``: the coarse group of atom ``a``, numbered
      ``unique:1 .. unique:m``, ``redundant``, ``synergistic`` from 0; a
      group may be empty. An atom holding at least two singleton elements
      is redundant, one whose only singleton element is ``{j}`` is unique
      to ``j``, and one with no singleton element is synergistic.

    Instances are immutable and safe to share across threads.
    """

    m: int
    atoms: tuple[Atom, ...]
    elements: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    member: np.ndarray = field(repr=False, compare=False)
    smaller: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False, compare=False)
    atom_of_upset: np.ndarray = field(repr=False, compare=False)
    weakly_below: np.ndarray = field(repr=False, compare=False)
    coarse_of: np.ndarray = field(repr=False, compare=False)
    _index: dict[Atom, int] = field(repr=False, hash=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({atom: i for i, atom in enumerate(self.atoms)})

    def __len__(self) -> int:
        return len(self.atoms)

    def index(self, atom: Atom) -> int:
        """Position of ``atom`` in :attr:`atoms`.

        Raises
        ------
        ArgumentError
            If the atom does not belong to this lattice (wrong ``m``).
        """
        try:
            return self._index[atom]
        except KeyError:
            raise ArgumentError(
                f"atom {atom} is not part of the lattice over M={self.m} sources"
            ) from None

    def invert_values(self, redundancy: np.ndarray) -> np.ndarray:
        """Moebius-invert an array of redundancy values into PI values.

        The general inversion, valid for any redundancy values: each atom's
        value minus the PI of its strict predecessors (its row of
        :attr:`weakly_below` before it), in one forward pass.
        The decomposition engine does not call it, because a pointwise
        minimum of monotone element rates inverts in closed form (the sorted
        element chain of :mod:`pird.decomposition`); it is the oracle that
        chain is tested against.

        Parameters
        ----------
        redundancy : ndarray
            First axis indexes atoms in :attr:`atoms` order; any trailing
            axes (e.g. a frequency grid) are carried through elementwise.

        Returns
        -------
        ndarray
            Same shape, PI values satisfying
            ``redundancy[a] == sum(pi[b] for b preceding-or-equal a)``.
        """
        red = np.asarray(redundancy, dtype=float)
        if red.shape[0] != len(self.atoms):
            raise ArgumentError(
                f"expected {len(self.atoms)} redundancy rows, got {red.shape[0]}"
            )
        if not np.all(np.isfinite(red)):
            raise ArgumentError("redundancy values must be finite")
        pi = np.empty_like(red)
        for i in range(len(red)):
            pi[i] = red[i] - pi[np.flatnonzero(self.weakly_below[i, :i])].sum(axis=0)
        return pi

    def coarse_groups(self) -> dict[str, tuple[int, ...]]:
        """Atom indices per nonempty coarse group, keyed by its label
        (``unique:j``, ``redundant``, ``synergistic``), from
        :attr:`coarse_of`."""
        labels = [*(f"unique:{j}" for j in range(1, self.m + 1)), "redundant", "synergistic"]
        return {labels[g]: tuple(np.flatnonzero(self.coarse_of == g).tolist())
                for g in sorted(set(self.coarse_of.tolist()))}


def _coarse_index(atom: Atom, m: int) -> int:
    """The group of ``atom`` in the numbering of ``coarse_of``."""
    singles = [el[0] for el in atom.elements if len(el) == 1]
    if len(singles) >= 2:
        return m
    return singles[0] - 1 if singles else m + 1


@lru_cache(maxsize=None)
def enumerate_antichains(m: int) -> RedundancyLattice:
    """Build the full redundancy lattice over ``m`` sources.

    The ``2**m - 1`` nonempty subsets of ``{1..m}`` are numbered size-major,
    so an atom is a bitmask over them. Every mask holding no nested pair of
    subsets is an antichain (the empty antichain excluded). ``b`` precedes
    ``a`` exactly when each element of ``a`` lies in the up-set of ``b``
    (the subsets containing an element of ``b``), which gives the whole
    order as one array comparison of masks, and the engine's element tables
    as slices of the same masks. Results are cached per ``m``.

    Raises
    ------
    ArgumentError
        If ``m`` is not an integer.
    CapabilityError
        If ``m`` is outside ``1..M_MAX``.
    """
    m = _count(m, "the source count m")
    if not 1 <= m <= M_MAX:
        raise CapabilityError(
            f"lattice over M={m} sources is unsupported (limit is 1..{M_MAX}; "
            f"the atom count grows super-exponentially)"
        )
    subsets = [el for size in range(1, m + 1) for el in combinations(range(1, m + 1), size)]
    # Source i is bit i - 1 of bits[j], the subset j.
    bits = np.array([sum(1 << (i - 1) for i in el) for el in subsets])
    n = len(bits)
    # supersets[j]: mask of the subsets that contain subset j.
    contains = (bits[None, :] & bits[:, None]) == bits[:, None]
    supersets = (contains << np.arange(n)).sum(axis=1)
    masks = np.arange(1, 1 << n)
    nested = np.zeros(len(masks), dtype=bool)
    for j in range(n):
        strict = supersets[j] & ~(1 << j)
        nested |= ((masks >> j) & 1 == 1) & ((masks & strict) != 0)
    masks = masks[~nested]
    assert len(masks) == _ATOM_COUNTS[m]
    members = [np.flatnonzero((mask >> np.arange(n)) & 1) for mask in masks.tolist()]
    atoms = [Atom([subsets[j] for j in mem]) for mem in members]
    upsets = np.array([np.bitwise_or.reduce(supersets[mem]) for mem in members])
    below = (masks[:, None] & ~upsets[None, :]) == 0  # below[a, b]: b precedes a

    # Linear extension: strict-down-set size is monotone along the order.
    n_below = below.sum(axis=1) - 1
    order = sorted(range(len(atoms)), key=lambda i: (n_below[i], atoms[i].elements))
    atoms = [atoms[i] for i in order]
    below = below[np.ix_(order, order)]  # each atom precedes itself
    coarse_of = np.array([_coarse_index(atom, m) for atom in atoms])

    member = (masks[order, None] >> np.arange(n)) & 1 == 1
    atom_of_upset = np.full(1 << n, -1, dtype=np.int16)
    atom_of_upset[upsets[order]] = np.arange(len(order))
    position = {b: j for j, b in enumerate(bits.tolist())}
    sizes = np.array([len(el) for el in subsets])
    smaller = tuple(
        (np.flatnonzero(sizes == s),
         np.array([[position[b & ~(1 << i)] for i in range(m) if b >> i & 1]
                   for b in bits[sizes == s].tolist()]))
        for s in range(2, m + 1)
    )
    for array in (member, atom_of_upset, below, coarse_of, *(x for p in smaller for x in p)):
        array.setflags(write=False)
    return RedundancyLattice(
        m=m,
        atoms=tuple(atoms),
        elements=tuple(subsets),
        member=member,
        smaller=smaller,
        atom_of_upset=atom_of_upset,
        weakly_below=below,
        coarse_of=coarse_of,
    )
