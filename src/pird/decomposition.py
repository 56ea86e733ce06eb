"""The decomposition engine: pointwise-minimum spectral redundancy over the
antichain lattice, per-frequency and time-domain partial information rates,
and the coarse-grained unique/redundant/synergistic terms with optional
band restriction, all built by one call to :func:`decompose`.

The joint information rate between a target channel and a set of source
channels is expanded per frequency over the redundancy lattice: each atom's
*redundancy rate profile* is the pointwise minimum of the spectral MIR
profiles of its elements, and Moebius inversion at every grid frequency
yields the atoms' *partial information rate profiles*. Time-domain and
band-limited quantities follow by normalized trapezoid integration, which
commutes with the (linear) inversion. With two or more sources, the atoms'
rates summed over the lattice's coarse groups give the unique, redundant
and synergistic rates of the full axis and of each band, held in a
:class:`CoarseTerms` with the band's joint and single-source rates. The
reference PIDs of :mod:`pird.baselines` return the same record, built by
:meth:`CoarseTerms.min_mi`, and :func:`write_coarse_csv` writes both in one
row layout.

The engine is a few array operations over the tables of the
:class:`~pird.lattice.RedundancyLattice`, which numbers the lattice
elements (the nonempty source subsets, 15 for four sources) and knows which
atoms hold them. An *element table* holds one MIR profile per element, in
the lattice's numbering, built by one call to
:func:`~pird.spectral.spectral_mir_rows`: the elements' sorted channel
groups form a prefix trie, and each node adds one source's row of the
shared Cholesky factor and one target entry, so no element's block is
factored twice; each row equals :func:`~pird.spectral.spectral_mir` of its
element bit for bit.

The inversion is the *sorted element chain*. Spectral MIR never falls when
a source is added, so at each frequency the E elements sorted by value (a
stable sort over the lattice's size-major element numbering, so ties go by
size) make a chain of up-sets U_k (the ranks k and up); the atom gamma_k of
U_k's minimal elements gets PI = g_(k) - g_(k-1), with g_(0) = 0, and every
other atom exactly 0. So PI is nonnegative by construction, with at most E
nonzero atoms per frequency, all on one chain of the lattice order. The
sort runs on the monotone envelope g~(B) = max over A within B of g(A),
equal to g unless roundoff broke monotonicity, so every U_k is an up-set.

Every integral is a weighted sum with one row of
:func:`~pird.spectral.quadrature_weights` per span, the full axis first.
The PI integrals come from the chain's E rows, not from the dense atom
rows: the grid splits into runs over which the chain's atoms do not
change, each rank's increments times the weights are summed pairwise
within a run, and each run sum goes to its atom. The redundancy integrals
are the zeta sum of the PI integrals over the lattice order (each atom's
PI plus its predecessors'), since integration commutes with the inversion.
The joint and single-source rows are integrated by
one :func:`~pird.spectral.integrate_rows` call. The result keeps the chain,
and both dense atom profiles are built only when read: the PI profiles are
the chain scattered into the atoms' rows, and the redundancy profiles a
*masked minimum*: from ``+inf``, each element's row is folded, in
canonical order, into the rows of the atoms holding it, so values compare
in the order of a per-atom ``np.minimum.reduce``.

Atom element indices are 1-based positions into the sorted tuple of source
channels: with ``sources = (2, 5, 7)``, the atom ``{1}{23}`` pairs channel 2
against the group ``(5, 7)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ArgumentError
from .lattice import RedundancyLattice, enumerate_antichains
from .spectral import (
    Band,
    FrequencyGrid,
    SpectralMatrix,
    integrate_band,  # unused here: the benchmark's tracer (perfbench/tracer.py) binds this name
    integrate_full,  # unused here: the benchmark's tracer (perfbench/tracer.py) binds this name
    integrate_rows,
    quadrature_weights,
    spectral_mir,  # unused here: the benchmark's tracer (perfbench/tracer.py) binds this name
    spectral_mir_rows,
)
from .var import _check_csv_text, _resolve_sources

#: Band label reserved for the full frequency axis.
FULL_BAND = "FULL"

#: The output units of the writers, each with the divisor of a rate in nats.
UNIT_SCALES = MappingProxyType({"nats": 1.0, "bits": float(np.log(2.0))})


@dataclass(frozen=True)
class CoarseTerms:
    """Coarse-grained rates of one decomposition: per-source unique terms
    plus redundancy, synergy, their balance ``delta = R - S``, the joint
    rate and the per-source single-source rates ``marginals``.

    It holds a band of :func:`decompose` and the reference PIDs of
    :func:`pird.baselines.static_pid` and :func:`pird.baselines.te_pid`
    alike; for those two, ``joint_mir`` is the joint zero-lag MI and the
    joint transfer entropy."""

    unique: tuple[float, ...]
    redundancy: float
    synergy: float
    joint_mir: float
    marginals: tuple[float, ...]

    @property
    def delta(self) -> float:
        return self.redundancy - self.synergy

    @classmethod
    def min_mi(cls, joint: float, marginals: Sequence[float]) -> CoarseTerms:
        """The minimum-MI PID (Barrett, Phys. Rev. E 91, 052802, 2015):
        redundancy is the smallest marginal, each unique term a marginal's
        excess over it, and synergy what the joint has beyond them."""
        marginals = tuple(float(v) for v in marginals)
        r = min(marginals)
        unique = tuple(v - r for v in marginals)
        return cls(
            unique=unique,
            redundancy=r,
            synergy=float(joint) - r - sum(unique),
            joint_mir=float(joint),
            marginals=marginals,
        )

    def row(self, source_names: Sequence[str]) -> dict[str, float]:
        """``{U_<name> .., R, S, Delta, JointMIR}``: the terms of every
        coarse row this package writes, named and in its order. An
        ArgumentError unless ``source_names`` gives one distinct name per
        unique term."""
        row = {f"U_{name}": u for name, u in zip(source_names, self.unique)}
        if len(source_names) != len(self.unique) or len(row) != len(self.unique):
            raise ArgumentError(f"{source_names} are not {len(self.unique)} distinct source names")
        row.update(R=self.redundancy, S=self.synergy, Delta=self.delta, JointMIR=self.joint_mir)
        return row


@dataclass(frozen=True)
class DecompositionResult:
    """The decomposition of one (target, sources) pair, as built by
    :func:`decompose`. Arrays indexed by atom follow ``lattice.atoms`` order.

    Attributes
    ----------
    lattice : RedundancyLattice
        The lattice over the M sources.
    target : int
        The target channel.
    sources : tuple of int
        The sorted, distinct source channels.
    names : tuple of str
        The channel names of the spectral matrix.
    grid : FrequencyGrid
        The grid of every profile.
    atom_redundancy, atom_pi : ndarray, shape (n_atoms, n_freq)
        Redundancy and partial information rate profiles, each built on
        first read: the redundancy from the element table, the PI from the
        element chain.
    joint_profile : ndarray, shape (n_freq,)
        Spectral MIR between the target and all sources.
    marginal_profiles : ndarray, shape (M, n_freq)
        Spectral MIR between the target and each source.
    bands : tuple of Band
        The requested bands, in order.
    atom_pi_spans, atom_redundancy_spans : ndarray, shape (S, n_atoms)
        Per span, the integrals of every atom's PI and redundancy profiles:
        the PI from the element chain, the redundancy as its zeta sum. The
        ``S = 1 + len(bands)`` spans are the full axis, then each band, as
        ``span_labels`` names them.
    mir_spans : ndarray, shape (S, 1 + M)
        Per span, the integral of the joint profile, then of each
        single-source profile.
    coarse : mapping of str to CoarseTerms
        Per span label, the coarse terms of that span's rows; empty for one
        source.

    :func:`decompose` freezes it all the way down: its arrays are read-only
    and its mapping is a read-only view.
    """

    lattice: RedundancyLattice
    target: int
    sources: tuple[int, ...]
    names: tuple[str, ...]
    grid: FrequencyGrid
    joint_profile: np.ndarray
    marginal_profiles: np.ndarray
    bands: tuple[Band, ...]
    atom_pi_spans: np.ndarray
    atom_redundancy_spans: np.ndarray
    mir_spans: np.ndarray
    coarse: Mapping[str, CoarseTerms]
    _table: np.ndarray = field(repr=False, compare=False)
    _chain: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def atom_pi(self) -> np.ndarray:
        """The element chain scattered into the atoms' rows, on first read."""
        at, delta = self._chain
        pi = np.zeros((len(self.lattice), at.shape[1]))
        pi[at, np.arange(at.shape[1])] = delta
        pi.setflags(write=False)
        return pi

    @cached_property
    def atom_redundancy(self) -> np.ndarray:
        """The masked minimum of the element table (see the module
        docstring), built on first read."""
        elements, member = self.lattice.elements, self.lattice.member
        red = np.full((len(self.lattice), self._table.shape[1]), np.inf)
        for k in sorted(range(len(elements)), key=elements.__getitem__):  # canonical order
            np.minimum(red, self._table[k], out=red, where=member[:, k, None])
        red.setflags(write=False)
        return red

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(self.names[s] for s in self.sources)

    @property
    def span_labels(self) -> tuple[str, ...]:
        """Each span row's label, ``"FULL"`` first: ``.index(label)`` is its row."""
        return (FULL_BAND, *(b.label for b in self.bands))

    @property
    def joint_mir(self) -> float:
        """The full-axis joint rate, ``mir_spans[0, 0]``."""
        return float(self.mir_spans[0, 0])

    @property
    def atom_pi_time(self) -> np.ndarray:
        """The full-axis PI rates, ``atom_pi_spans[0]``."""
        return self.atom_pi_spans[0]


def _chain_pi(table: np.ndarray, lattice: RedundancyLattice) -> tuple[np.ndarray, np.ndarray]:
    """The sorted element chain of the ``(elements, n_freq)`` MIR table, in
    ``lattice.elements`` order (see the module docstring): ``(at, delta)``,
    each ``(elements, n_freq)``, where rank ``k`` puts the PI ``delta[k, j]``
    on atom ``at[k, j]`` at frequency ``j``, and every other atom gets 0.
    A column of ``at`` holds distinct atoms."""
    # + 0.0 turns the -0.0 MIR of an exactly independent source into +0.0,
    # so each difference below is +0.0 or positive.
    env = table + 0.0
    for idx, subs in lattice.smaller:
        env[idx] = np.maximum(env[idx], env[subs].max(axis=1))
    # Stable on size-major numbering: ties by value go by size.
    order = np.argsort(env, axis=0, kind="stable")
    # Rank k's up-set ORs in the ranks above it and its PI is the step from
    # the rank below, both from the top rank down.
    delta = np.take_along_axis(env, order, axis=0)
    upset = (1 << np.arange(len(lattice.elements)))[order]
    for k in range(len(upset) - 1, 0, -1):
        upset[k - 1] |= upset[k]
        delta[k] -= delta[k - 1]
    at = lattice.atom_of_upset[upset]
    assert np.all(at >= 0), "a sorted envelope gave a non-up-set"
    return at, delta


def _chain_integrals(
    at: np.ndarray, delta: np.ndarray, weights: Sequence[np.ndarray], n_atoms: int
) -> np.ndarray:
    """The ``(len(weights), n_atoms)`` integrals of the PI chain ``(at,
    delta)`` under each weight row: per run of frequencies where the column
    ``at[:, j]`` does not change, each rank's ``delta * w`` summed pairwise,
    and each run sum added to its atom."""
    starts = np.flatnonzero(np.concatenate(([True], np.any(at[:, 1:] != at[:, :-1], axis=0))))
    owners = at[:, starts].ravel()
    return np.stack([
        np.bincount(owners, np.add.reduceat(delta * w, starts, axis=1).ravel(), n_atoms)
        for w in weights
    ])


def _check_bands(bands: Iterable[Band]) -> tuple[tuple[Band, ...], list[str]]:
    """The bands as a tuple and their span labels, ``FULL`` first;
    ArgumentError if ``bands`` is not iterable (such as ``None``), on an
    entry that is not a Band, or on a repeated label."""
    try:
        entries = iter(bands)
    except TypeError:
        raise ArgumentError(
            f"bands must be an iterable of Band objects, got {bands!r}; pass () for no bands"
        ) from None
    bands = tuple(entries)
    for band in bands:
        if not isinstance(band, Band):
            hint = "; pird.parse_bands reads a band string" if isinstance(band, str) else ""
            raise ArgumentError(f"bands must be Band objects, got {band!r}{hint}")
    labels = [FULL_BAND, *(b.label for b in bands)]
    if len(set(labels)) != len(labels):
        raise ArgumentError(f"duplicate span label in {labels}; {FULL_BAND!r} is reserved")
    return bands, labels


def aggregate_coarse(
    lattice: RedundancyLattice, labels: Sequence[str], pi_spans: np.ndarray, spans: np.ndarray
) -> dict[str, CoarseTerms]:
    """Coarse terms per span label, as :func:`decompose` holds its spans:
    row ``k`` of ``pi_spans``, the atoms' PI rates over span ``labels[k]``,
    summed over the unique / redundant / synergistic groups of the lattice
    (see :attr:`pird.lattice.RedundancyLattice.coarse_of`), with that span's
    joint rate ``spans[k, 0]`` and single-source rates ``spans[k, 1:]``.

    For two sources the groups are single atoms. For three or more sources
    the aggregation keeps all coarse terms meaningful per group (e.g. a
    source whose information is entirely inherited gets a vanishing unique
    term).
    """
    terms = {}
    for label, pi, (joint, *marginals) in zip(labels, pi_spans, spans.tolist()):
        # np.bincount adds each group's rates from 0.0 in atom order.
        *unique, red, syn = np.bincount(lattice.coarse_of, pi, lattice.m + 2).tolist()
        terms[label] = CoarseTerms(
            unique=tuple(unique), redundancy=red, synergy=syn,
            joint_mir=joint, marginals=tuple(marginals),
        )
    return terms


def decompose(
    psd: SpectralMatrix,
    target: int,
    sources: Sequence[int] | None = None,
    bands: Iterable[Band] = (),
) -> DecompositionResult:
    """Decompose the information rate between ``target`` and ``sources``
    (default: every other channel) per frequency, over the full axis and
    over each band.

    The per-frequency reconstruction identity (atom PI profiles summing to
    the joint spectral MIR) holds by construction at every grid point. The
    PI integrals are taken on the element chain and the redundancy
    integrals are their zeta sum, so each span's integrated PI equals
    ``lattice.invert_values(atom_redundancy_spans[k])`` up to roundoff.

    Each span, the full axis first and then each band, is one row of the
    result's span arrays, which :func:`aggregate_coarse` reads as they are.

    Raises
    ------
    ArgumentError
        On an invalid channel choice, on ``bands`` that are not iterable
        (``()`` means no bands), or a band that is not a :class:`Band`,
        is labelled ``"FULL"``, is given twice or lies above the Nyquist
        frequency (found by its quadrature weights); all before any spectral
        MIR is computed.
    """
    srcs = _resolve_sources(psd.dim, target, sources)
    bands, labels = _check_bands(bands)
    grid, m = psd.grid, len(srcs)
    # One weight row per span, the full axis first.
    weights = [quadrature_weights(grid, b) for b in (None, *bands)]
    lattice = enumerate_antichains(m)
    elements = lattice.elements
    table = spectral_mir_rows(psd, target, [[srcs[i - 1] for i in el] for el in elements])
    table.setflags(write=False)
    at, delta = _chain_pi(table, lattice)
    joint_k = elements.index(tuple(range(1, m + 1)))
    marginal_k = [elements.index((j,)) for j in range(1, m + 1)]
    marginal = table[marginal_k]
    pi_spans = _chain_integrals(at, delta, weights, len(lattice))
    # Each atom's redundancy integral: its PI integral plus its predecessors'.
    red_spans = np.stack([
        np.add.reduce(np.where(lattice.weakly_below, row, 0.0), axis=1) for row in pi_spans
    ])
    # The joint row first, then one row per source.
    mir_spans = integrate_rows(table[[joint_k, *marginal_k]], weights)
    coarse = aggregate_coarse(lattice, labels, pi_spans, mir_spans) if m >= 2 else {}
    # Frozen all the way down, so a writer prints what was computed here.
    for array in (at, delta, marginal, pi_spans, red_spans, mir_spans):
        array.setflags(write=False)
    return DecompositionResult(
        lattice=lattice, target=target, sources=srcs, names=psd.names, grid=grid,
        joint_profile=table[joint_k], marginal_profiles=marginal, bands=bands,
        atom_pi_spans=pi_spans, atom_redundancy_spans=red_spans, mir_spans=mir_spans,
        coarse=MappingProxyType(coarse), _table=table, _chain=(at, delta),
    )


# ---------------------------------------------------------------------------
# Tabular exports


def atomic_write_text(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the concatenated ``chunks``, the UTF-8 bytes of a text, to a
    file atomically (temp file in the target dir, then rename). Every writer
    of this package encodes its text and writes it through here, in one
    chunk or, for ``profiles.csv``, one chunk per block.

    The chunks are consumed while the temp file is open; if one raises, or
    is not bytes, the temp file is removed and the target is left as it
    was. The temp file is created with mode 0666 less the umask, the mode
    any new file gets, and ``O_EXCL`` so that an existing file is never
    reused.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float, scale: float = 1.0) -> str:
    """A number as every output of this package prints it: ``%.12g`` of
    ``value / scale``."""
    return f"{value / scale:.12g}"


def unit_scale(units: str) -> float:
    """The :data:`UNIT_SCALES` divisor of ``units``; ArgumentError if none."""
    try:
        return UNIT_SCALES[units]
    except (KeyError, TypeError):
        raise ArgumentError(f"units must be one of {list(UNIT_SCALES)}, got {units!r}") from None


def write_atoms_csv(result: DecompositionResult, path: str | Path, units: str = "nats") -> None:
    """Per-atom table: ``(atom, band, pi_<units>, redundancy_<units>)`` rows
    for the full axis and every band of the result."""
    scale, labels = unit_scale(units), result.span_labels
    columns = zip(result.lattice.atoms, result.atom_pi_spans.T, result.atom_redundancy_spans.T)
    lines = [f"atom,band,pi_{units},redundancy_{units}\n"]
    for atom, pi, red in columns:
        lines += [f"{atom},{label},{_fmt(p, scale)},{_fmt(r, scale)}\n"
                  for label, p, r in zip(labels, pi, red)]
    atomic_write_text(path, ["".join(lines).encode()])


def write_coarse_csv(
    result: DecompositionResult,
    path: str | Path,
    units: str = "nats",
    baselines: Mapping[str, CoarseTerms] = MappingProxyType({}),
) -> None:
    """Coarse-term table ``(term, band, value_<units>)``.

    Per band, ``FULL`` first: the rows ``U_<name>`` per source, ``R``,
    ``S``, ``Delta`` and ``JointMIR`` of the result's coarse terms, or
    ``JointMIR`` alone for one source. Then each entry of ``baselines``
    (e.g. ``{"staticPID": ..., "tePID": ...}``) writes the same terms on
    ``FULL`` with its key as a ``prefix:`` on every term, each a
    :meth:`CoarseTerms.row`. A key that the CSV cannot hold (empty, or with
    a comma, double quote, carriage return or newline), or a baseline of
    another source count, is an ArgumentError before the file is opened.
    """
    scale = unit_scale(units)
    for prefix in baselines:
        _check_csv_text(prefix, "baseline name")
    names = result.source_names
    rows = [
        ("", label, result.coarse[label].row(names) if result.coarse else {"JointMIR": joint})
        for label, joint in zip(result.span_labels, result.mir_spans[:, 0])
    ]
    rows += [(f"{prefix}:", FULL_BAND, terms.row(names)) for prefix, terms in baselines.items()]
    text = f"term,band,value_{units}\n" + "".join(
        f"{prefix}{name},{label},{_fmt(v, scale)}\n"
        for prefix, label, row in rows for name, v in row.items()
    )
    atomic_write_text(path, [text.encode()])


def write_profiles_csv(result: DecompositionResult, path: str | Path, units: str = "nats") -> None:
    """Long-form spectral profiles ``(f_hz, atom_or_term, value)`` in ``units``.

    The rows come in blocks of one key each, one row per grid frequency in
    ascending order. The blocks are the atoms in lattice order (keyed by the
    canonical atom string, PI rate profiles), then ``I_<name>`` per source
    (single-source MIR profiles), then ``U_<name>`` per source, ``R`` and
    ``S`` (coarse profiles, two or more sources only) and last
    ``JointMIR``. With M >= 2 sources that is ``atoms + 2M + 3`` blocks of
    ``grid`` rows after the header.

    The file is streamed as UTF-8 bytes, one chunk per block, while it is
    written, so peak memory does not grow with the file's size. Every value
    prints as ``%.12g``.
    """
    scale = unit_scale(units)
    blocks: list[tuple[str, np.ndarray]] = []
    for i, atom in enumerate(result.lattice.atoms):
        blocks.append((str(atom), result.atom_pi[i]))
    for name, row in zip(result.source_names, result.marginal_profiles):
        blocks.append((f"I_{name}", row))
    if len(result.sources) >= 2:
        # Rank order is atom order, as in a sum of the dense rows along axis 0.
        (at, delta), cols = result._chain, np.arange(result.grid.n_points)
        sums = np.zeros((result.lattice.m + 2, len(cols)))
        for k in range(len(at)):
            sums[result.lattice.coarse_of[at[k]], cols] += delta[k]
        # The row's U, R and S keys: zip stops before Delta and JointMIR.
        blocks += zip(result.coarse[FULL_BAND].row(result.source_names), sums)
    blocks.append(("JointMIR", result.joint_profile))
    atomic_write_text(path, _profile_chunks(blocks, result.grid.hz, scale))


def _profile_chunks(
    blocks: list[tuple[str, np.ndarray]], hz: np.ndarray, scale: float
) -> Iterator[bytes]:
    """The UTF-8 bytes of ``profiles.csv``: the header, then one chunk per
    block. Most atom PI values are +0.0, in long runs (at most E atoms are
    nonzero per frequency), so each block is sliced from a zero template
    that prints them as "0", and only its runs of other values go through a
    ``%.12g`` template. A -0.0 is such a value: it prints as "-0". "\0"
    marks where a row's key goes."""
    freqs = [f"{f:.12g}" for f in hz]
    zero_rows = [f"{f},\0,0\n".encode() for f in freqs]
    value_rows = [f"{f},\0,%.12g\n".encode() for f in freqs]
    zero, values_template = b"".join(zero_rows), b"".join(value_rows)
    # Row i starts at zero_at[i] in `zero` (at value_at[i] in the template);
    # the last entry is the length.
    zero_at = np.cumsum([0] + [len(r) for r in zero_rows]).tolist()
    value_at = np.cumsum([0] + [len(r) for r in value_rows]).tolist()
    n = len(zero_rows)
    # pad[1:-1] marks the values that are not +0.0; its two ends stay False,
    # so the edges of the runs, starts and ends alternating, are where it
    # changes.
    pad = np.zeros(n + 2, dtype=bool)
    yield b"f_hz,atom_or_term,value\n"
    for key, values in blocks:
        scaled = values / scale
        np.not_equal(scaled, 0.0, out=pad[1:-1])
        pad[1:-1] |= np.signbit(scaled)
        edges = np.flatnonzero(pad[1:] != pad[:-1]).tolist()
        encoded = key.encode()
        # Each key in `zero_key` shifts row i by i * (len(encoded) - 1).
        zero_key, shift = zero.replace(b"\0", encoded), len(encoded) - 1
        escaped = encoded.replace(b"%", b"%%")
        parts, done = [], 0
        for a, b in zip(edges[::2], edges[1::2]):
            parts.append(zero_key[zero_at[done] + shift * done:zero_at[a] + shift * a])
            run = values_template[value_at[a]:value_at[b]].replace(b"\0", escaped)
            parts.append(run % tuple(scaled[a:b].tolist()))
            done = b
        parts.append(zero_key[zero_at[done] + shift * done:])
        yield b"".join(parts)
