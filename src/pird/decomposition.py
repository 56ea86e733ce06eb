"""The decomposition engine: pointwise-minimum spectral redundancy over the
antichain lattice, per-frequency and time-domain partial information rates,
and the coarse-grained unique/redundant/synergistic terms with optional
band restriction.

The joint information rate between a target channel and a set of source
channels is expanded per frequency over the redundancy lattice: each atom's
*redundancy rate profile* is the pointwise minimum of the spectral MIR
profiles of its elements, and Moebius inversion at every grid frequency
yields the atoms' *partial information rate profiles*. Time-domain and
band-limited quantities follow by normalized trapezoid integration, which
commutes with the (linear) inversion.

The engine is a few array operations. An *element table* holds one MIR
profile per distinct lattice element (15 for four sources). The redundancy
is a *masked minimum*: from ``+inf``, each element's row is folded, in
canonical order, into the rows of the atoms holding it, so values compare
in the order of a per-atom ``np.minimum.reduce``. One row integrator,
:func:`~pird.spectral.integrate_band_rows`, integrates all atoms per band.

Atom element indices are 1-based positions into the sorted tuple of source
channels: with ``sources = (2, 5, 7)``, the atom ``{1}{23}`` pairs channel 2
against the group ``(5, 7)``.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ArgumentError
from .lattice import Atom, RedundancyLattice, enumerate_antichains
from .spectral import (
    Band,
    SpectralMatrix,
    SpectralProfile,
    integrate_band,
    integrate_band_rows,
    integrate_full,
    spectral_mir,
)
from .var import _resolve_sources

#: Band label reserved for the full frequency axis.
FULL_BAND = "FULL"


@dataclass(frozen=True)
class CoarseTerms:
    """Coarse-grained rates for one band: per-source unique terms plus
    redundancy, synergy, their balance ``delta = R - S`` and the joint MIR."""

    unique: tuple[float, ...]
    redundancy: float
    synergy: float
    joint_mir: float

    @property
    def delta(self) -> float:
        return self.redundancy - self.synergy


@dataclass(frozen=True)
class DecompositionResult:
    """Everything the engine produces for one (target, sources) pair.

    Spectral fields are filled by :func:`spectral_pird`; time-domain and
    band fields by :func:`time_pird`; coarse terms by :func:`decompose`
    (or standalone :func:`coarse_grained`). Arrays indexed by atom follow
    ``lattice.atoms`` order.
    """

    lattice: RedundancyLattice
    target: int
    sources: tuple[int, ...]
    names: tuple[str, ...]
    atom_redundancy: np.ndarray  # (n_atoms, n_freq)
    atom_pi: np.ndarray  # (n_atoms, n_freq)
    joint_profile: SpectralProfile
    marginal_profiles: np.ndarray  # (M, n_freq) single-source MIR profiles
    atom_redundancy_time: np.ndarray | None = None
    atom_pi_time: np.ndarray | None = None
    joint_mir: float | None = None
    bands: tuple[Band, ...] = ()
    atom_pi_bands: dict[str, np.ndarray] | None = None
    atom_redundancy_bands: dict[str, np.ndarray] | None = None
    joint_mir_bands: dict[str, float] | None = None
    coarse: dict[str, CoarseTerms] | None = None

    @property
    def grid(self):
        return self.joint_profile.grid

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(self.names[s] for s in self.sources)

    def pi_time_from_redundancy(self) -> np.ndarray:
        """Time-domain PI by the integrate-then-invert route (the dual of
        the stored invert-then-integrate values, equal up to roundoff)."""
        if self.atom_redundancy_time is None:
            raise ArgumentError("time-domain part not computed yet; run time_pird")
        return self.lattice.invert_values(self.atom_redundancy_time)


def _element_channels(element: tuple[int, ...], sources: tuple[int, ...]) -> tuple[int, ...]:
    if element[-1] > len(sources):
        raise ArgumentError(
            f"atom element {set(element)} indexes source #{element[-1]} "
            f"but only {len(sources)} sources are given"
        )
    return tuple(sources[i - 1] for i in element)


def smmi_redundancy_profile(
    psd: SpectralMatrix,
    target: int,
    atom: Atom,
    sources: Sequence[int] | None = None,
) -> SpectralProfile:
    """Redundancy rate profile of one atom: the pointwise minimum over the
    atom's elements of the spectral MIR between target and element group.

    ``sources`` gives the channels the atom's 1-based element indices refer
    to (sorted ascending); by default all non-target channels.
    """
    srcs = _resolve_sources(psd.dim, target, sources)
    profiles = [
        spectral_mir(psd, target, _element_channels(el, srcs)).values
        for el in atom.elements
    ]
    return SpectralProfile(grid=psd.grid, values=np.minimum.reduce(profiles))


def smmi_argmin_elements(
    psd: SpectralMatrix,
    target: int,
    atom: Atom,
    sources: Sequence[int] | None = None,
) -> np.ndarray:
    """Diagnostic: per frequency, the index into ``atom.elements`` of the
    element achieving the redundancy minimum.

    Ties resolve to the lowest canonical element order (the decomposition
    values themselves are tie-invariant).
    """
    srcs = _resolve_sources(psd.dim, target, sources)
    profiles = np.stack(
        [
            spectral_mir(psd, target, _element_channels(el, srcs)).values
            for el in atom.elements
        ]
    )
    return np.argmin(profiles, axis=0)


def spectral_pird(
    psd: SpectralMatrix, target: int, sources: Sequence[int] | None = None
) -> DecompositionResult:
    """Per-frequency decomposition: all atoms' redundancy profiles and their
    Moebius inversion into partial information rate profiles.

    The per-frequency reconstruction identity (atom PI profiles summing to
    the joint spectral MIR) holds by construction at every grid point.
    """
    srcs = _resolve_sources(psd.dim, target, sources)
    m = len(srcs)
    lattice = enumerate_antichains(m)
    elements, member = _element_table(m)
    table = np.stack(
        [spectral_mir(psd, target, _element_channels(el, srcs)).values for el in elements]
    )
    red = np.full((len(lattice), psd.grid.n_points), np.inf)
    for k in range(len(elements)):
        np.minimum(red, table[k], out=red, where=member[:, k, None])
    pi = lattice.invert_values(red)
    full = elements.index(tuple(range(1, m + 1)))
    joint = SpectralProfile(grid=psd.grid, values=table[full])
    marginals = table[[elements.index((j,)) for j in range(1, m + 1)]]
    return DecompositionResult(
        lattice=lattice,
        target=target,
        sources=srcs,
        names=psd.names,
        atom_redundancy=red,
        atom_pi=pi,
        joint_profile=joint,
        marginal_profiles=marginals,
    )


@lru_cache(maxsize=None)
def _element_table(m: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The distinct elements of the lattice over ``m`` sources, sorted as
    within each atom, and the ``(atoms, elements)`` membership table."""
    atoms = enumerate_antichains(m).atoms
    elements = tuple(sorted({el for atom in atoms for el in atom.elements}))
    member = np.array([[el in atom.elements for el in elements] for atom in atoms])
    member.setflags(write=False)
    return elements, member


def time_pird(
    result: DecompositionResult, bands: Iterable[Band] = ()
) -> DecompositionResult:
    """Fill in the time-domain and band-limited parts of a decomposition.

    Every atom's PI and redundancy profile is integrated over the full axis
    and over each requested band. Integration and lattice inversion commute,
    so the stored time-domain PI (integrated PI profiles) agrees with
    :meth:`DecompositionResult.pi_time_from_redundancy` up to roundoff.
    """
    bands = tuple(bands)
    _check_band_labels(bands)
    omegas = result.grid.omegas
    pi_time = np.trapezoid(result.atom_pi, omegas, axis=1) / np.pi
    red_time = np.trapezoid(result.atom_redundancy, omegas, axis=1) / np.pi
    joint_mir = integrate_full(result.joint_profile)
    pi_bands: dict[str, np.ndarray] = {}
    red_bands: dict[str, np.ndarray] = {}
    joint_bands: dict[str, float] = {}
    for band in bands:
        pi_bands[band.label] = integrate_band_rows(result.atom_pi, result.grid, band)
        red_bands[band.label] = integrate_band_rows(result.atom_redundancy, result.grid, band)
        joint_bands[band.label] = integrate_band(result.joint_profile, band)
    return replace(
        result,
        atom_pi_time=pi_time,
        atom_redundancy_time=red_time,
        joint_mir=joint_mir,
        bands=bands,
        atom_pi_bands=pi_bands,
        atom_redundancy_bands=red_bands,
        joint_mir_bands=joint_bands,
    )


def _check_band_labels(bands: tuple[Band, ...]) -> None:
    labels = [b.label for b in bands]
    if FULL_BAND in labels:
        raise ArgumentError(f"band label {FULL_BAND!r} is reserved for the full axis")
    if len(set(labels)) != len(labels):
        raise ArgumentError(f"duplicate band labels in {labels}")


@dataclass(frozen=True)
class CoarseDecomposition:
    """Coarse-grained terms per band plus the spectral profiles they
    integrate (``r``, per-source ``u``, ``s``, joint)."""

    target: int
    sources: tuple[int, ...]
    names: tuple[str, ...]
    terms: dict[str, CoarseTerms]
    r_profile: SpectralProfile
    u_profiles: np.ndarray  # (M, n_freq)
    s_profile: SpectralProfile
    joint_profile: SpectralProfile

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(self.names[s] for s in self.sources)


def _group_indices(lattice: RedundancyLattice) -> tuple[list[tuple[int, ...]], tuple[int, ...], tuple[int, ...]]:
    groups = lattice.coarse_groups()
    unique = [groups.get(f"unique:{m}", ()) for m in range(1, lattice.m + 1)]
    return unique, groups.get("redundant", ()), groups.get("synergistic", ())


def aggregate_coarse(result: DecompositionResult) -> CoarseDecomposition:
    """Coarse terms by summing atom PI rates over the unique / redundant /
    synergistic groups of the lattice (see
    :meth:`pird.lattice.RedundancyLattice.coarse_group`).

    For two sources the groups are single atoms, so this coincides with the
    operational identities; for three or more sources it is the aggregation
    that keeps all coarse terms meaningful per group (e.g. a source whose
    information is entirely inherited gets a vanishing unique term).
    """
    _require_time(result)
    if len(result.sources) < 2:
        raise ArgumentError("coarse graining needs at least two sources")
    unique_idx, red_idx, syn_idx = groups = _group_indices(result.lattice)

    def terms_from(values: np.ndarray, joint: float) -> CoarseTerms:
        return CoarseTerms(
            unique=tuple(float(sum(values[i] for i in idx)) for idx in unique_idx),
            redundancy=float(sum(values[i] for i in red_idx)),
            synergy=float(sum(values[i] for i in syn_idx)),
            joint_mir=float(joint),
        )

    terms = {FULL_BAND: terms_from(result.atom_pi_time, result.joint_mir)}
    for band in result.bands:
        terms[band.label] = terms_from(
            result.atom_pi_bands[band.label], result.joint_mir_bands[band.label]
        )
    u, r, s = _coarse_profiles(result.atom_pi, groups)
    return CoarseDecomposition(
        target=result.target,
        sources=result.sources,
        names=result.names,
        terms=terms,
        r_profile=SpectralProfile(grid=result.grid, values=r),
        u_profiles=u,
        s_profile=SpectralProfile(grid=result.grid, values=s),
        joint_profile=result.joint_profile,
    )


def _coarse_profiles(atom_pi: np.ndarray, groups) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U (one row per source), R and S profiles: atom PI summed per group."""
    unique_idx, red_idx, syn_idx = groups

    def total(idx: tuple[int, ...]) -> np.ndarray:
        return atom_pi[list(idx)].sum(axis=0)

    return np.stack([total(idx) for idx in unique_idx]), total(red_idx), total(syn_idx)


def coarse_grained(
    psd: SpectralMatrix,
    target: int,
    sources: Sequence[int] | None = None,
    bands: Iterable[Band] = (),
    method: str = "aggregate",
) -> CoarseDecomposition:
    """Unique/redundant/synergistic rates per band.

    ``method="aggregate"`` (default) sums the lattice atoms' PI rates over
    the coarse groups. ``method="operational"`` uses the bottom-atom
    identities instead: per frequency ``r = min_m i_m``,
    ``u_m = i_m - r`` and ``s = i_joint - r - sum_m u_m`` (so every
    ``u_m(omega)`` is nonnegative by construction). The two methods agree
    exactly for two sources but differ for three or more, where the
    operational unique terms absorb cross-frequency structure that the
    aggregation attributes to redundancy and synergy.

    Every term is integrated over the full axis (band label ``"FULL"``)
    and over each requested band.

    Raises
    ------
    ArgumentError
        If fewer than two sources are given or the method is unknown.
    """
    if method not in ("aggregate", "operational"):
        raise ArgumentError(f"unknown coarse method {method!r}")
    srcs = _resolve_sources(psd.dim, target, sources)
    if len(srcs) < 2:
        raise ArgumentError("coarse graining needs at least two sources")
    if method == "aggregate":
        return aggregate_coarse(time_pird(spectral_pird(psd, target, srcs), bands))
    bands = tuple(bands)
    _check_band_labels(bands)
    grid = psd.grid
    marginals = np.stack([spectral_mir(psd, target, (s,)).values for s in srcs])
    joint = spectral_mir(psd, target, srcs).values
    r = np.minimum.reduce(list(marginals))
    u = marginals - r
    s = joint - r - u.sum(axis=0)
    rows, m = np.vstack([u, r, s, joint]), len(srcs)

    def terms_from(values: np.ndarray) -> CoarseTerms:
        return CoarseTerms(
            unique=tuple(float(v) for v in values[:m]),
            redundancy=float(values[m]),
            synergy=float(values[m + 1]),
            joint_mir=float(values[m + 2]),
        )

    terms = {FULL_BAND: terms_from(np.trapezoid(rows, grid.omegas, axis=1) / np.pi)}
    for band in bands:
        terms[band.label] = terms_from(integrate_band_rows(rows, grid, band))
    return CoarseDecomposition(
        target=target,
        sources=srcs,
        names=psd.names,
        terms=terms,
        r_profile=SpectralProfile(grid=grid, values=r),
        u_profiles=u,
        s_profile=SpectralProfile(grid=grid, values=s),
        joint_profile=SpectralProfile(grid=grid, values=joint),
    )


def decompose(
    psd: SpectralMatrix,
    target: int,
    sources: Sequence[int] | None = None,
    bands: Iterable[Band] = (),
) -> DecompositionResult:
    """Run the full pipeline: spectral atoms, time/band integrals and (for
    two or more sources) the aggregated coarse-grained terms."""
    result = time_pird(spectral_pird(psd, target, sources), bands)
    if len(result.sources) >= 2:
        result = replace(result, coarse=dict(aggregate_coarse(result).terms))
    return result


# ---------------------------------------------------------------------------
# Tabular exports


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file atomically (temp file in the target dir, then rename).

    The temp file is created with mode 0666 less the umask, the mode any new
    file gets, and ``O_EXCL`` so that an existing file is never reused.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float, scale: float) -> str:
    return f"{value / scale:.12g}"


def write_atoms_csv(
    result: DecompositionResult, path: str | Path, scale: float = 1.0, unit: str = "nats"
) -> None:
    """Per-atom table: ``(atom, band, pi_<unit>, redundancy_<unit>)`` rows
    for the full axis and every band of the result."""
    _require_time(result)
    lines = [f"atom,band,pi_{unit},redundancy_{unit}"]
    for i, atom in enumerate(result.lattice.atoms):
        lines.append(
            f"{atom},{FULL_BAND},{_fmt(result.atom_pi_time[i], scale)},"
            f"{_fmt(result.atom_redundancy_time[i], scale)}"
        )
        for band in result.bands:
            lines.append(
                f"{atom},{band.label},"
                f"{_fmt(result.atom_pi_bands[band.label][i], scale)},"
                f"{_fmt(result.atom_redundancy_bands[band.label][i], scale)}"
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


def coarse_rows(
    result: DecompositionResult, scale: float = 1.0
) -> list[tuple[str, str, str]]:
    """``(term, band, value)`` rows of the coarse table (JointMIR always;
    U/R/S/Delta when coarse terms exist)."""
    _require_time(result)
    band_labels = [FULL_BAND] + [b.label for b in result.bands]
    rows = []
    for label in band_labels:
        joint = (
            result.joint_mir if label == FULL_BAND else result.joint_mir_bands[label]
        )
        if result.coarse is not None:
            terms = result.coarse[label]
            for name, value in zip(result.source_names, terms.unique):
                rows.append((f"U_{name}", label, _fmt(value, scale)))
            rows.append(("R", label, _fmt(terms.redundancy, scale)))
            rows.append(("S", label, _fmt(terms.synergy, scale)))
            rows.append(("Delta", label, _fmt(terms.delta, scale)))
        rows.append(("JointMIR", label, _fmt(joint, scale)))
    return rows


def write_coarse_csv(
    result: DecompositionResult,
    path: str | Path,
    scale: float = 1.0,
    unit: str = "nats",
    extra_rows: Iterable[tuple[str, str, str]] = (),
) -> None:
    """Coarse-term table ``(term, band, value_<unit>)``; ``extra_rows`` lets
    callers append baseline decompositions in the same schema."""
    lines = [f"term,band,value_{unit}"]
    for term, band, value in list(coarse_rows(result, scale)) + list(extra_rows):
        lines.append(f"{term},{band},{value}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_profiles_csv(
    result: DecompositionResult, path: str | Path, scale: float = 1.0
) -> None:
    """Long-form spectral profiles ``(f_hz, atom_or_term, value)``.

    The rows come in blocks of one key each, one row per grid frequency in
    ascending order. The blocks are the atoms in lattice order (keyed by the
    canonical atom string, PI rate profiles), then ``I_<name>`` per source
    (single-source MIR profiles), then ``U_<name>`` per source, ``R`` and
    ``S`` (coarse profiles, two or more sources only) and last
    ``JointMIR``. With M >= 2 sources that is ``atoms + 2M + 3`` blocks of
    ``grid`` rows after the header.
    """
    blocks: list[tuple[str, np.ndarray]] = []
    for i, atom in enumerate(result.lattice.atoms):
        blocks.append((str(atom), result.atom_pi[i]))
    for name, row in zip(result.source_names, result.marginal_profiles):
        blocks.append((f"I_{name}", row))
    if len(result.sources) >= 2:
        u, r, s = _coarse_profiles(result.atom_pi, _group_indices(result.lattice))
        blocks += [(f"U_{name}", row) for name, row in zip(result.source_names, u)]
        blocks += [("R", r), ("S", s)]
    blocks.append(("JointMIR", result.joint_profile.values))
    # One %-template per block: the frequencies are formatted once, "\0"
    # marks where the key goes, and the values fill the %.12g fields.
    template = "".join(f"{f:.12g},\0,%.12g\n" for f in result.grid.hz)
    parts = ["f_hz,atom_or_term,value\n"]
    for key, values in blocks:
        block = template.replace("\0", key.replace("%", "%%"))
        parts.append(block % tuple((values / scale).tolist()))
    atomic_write_text(path, "".join(parts))


def _require_time(result: DecompositionResult) -> None:
    if result.atom_pi_time is None:
        raise ArgumentError("time-domain part not computed yet; run time_pird")
