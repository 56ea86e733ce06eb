"""Frequency-domain machinery: VAR transfer function, PSD matrix, spectral
mutual information rates, and full-axis / band-limited integration.

All rates are in nats. Spectra are evaluated one-sidedly on a uniform grid of
normalized circular frequencies ``omega in [0, pi]``; the evenness of
real-process spectra makes the normalized one-sided trapezoid integral
``(1/pi) * integral_0^pi`` equal to the two-sided ``(1/2pi) *
integral_{-pi}^{pi}``. That rule lives in one place,
:func:`quadrature_weights`, as one weight per grid point for the whole axis
or a band; every integral is a profile's values times those weights, summed.
What depends on the grid alone (its frequencies, the lag phases of each VAR
order and the weights of each band) is computed once per
:class:`FrequencyGrid`, on first use, and kept on it read-only.

A model's spectrum is built frequency-last: :func:`transfer_function` solves
``I - A(omega)`` at every grid frequency at once, by one Gaussian
elimination with partial pivoting run row by row, in place, over
``(Q, ., n_points)`` arrays, and :func:`psd_from_var` forms ``B B*`` from
the solution's rows with an exact Hermitian mirror. Each quantity is then
read from those buffers as contiguous rows over frequency.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, NumericalError, SpectralSingularityError
from .var import (
    VarModel,
    _check_csv_text,
    _check_fs,
    _check_names,
    _count,
    _readonly,
    _real,
    _require_stable,
    _resolve_sources,
)

#: Default number of grid points on [0, pi]. Dense enough that trapezoid
#: error is far below the working tolerances for pole radii up to ~0.9
#: (the integrands have vanishing derivative at both endpoints, so the
#: trapezoid rule converges at fourth order here).
DEFAULT_GRID_POINTS = 2049

#: Determinants of joint spectral blocks in coherence form (unit diagonal,
#: so at most 1 and free of the channels' scale) below this value raise
#: SpectralSingularityError instead of being silently regularized.
DET_FLOOR = 1e-300


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform one-sided frequency grid.

    ``omegas`` spans ``[0, pi]`` inclusive with ``n_points`` points, an
    integer of at least 2; ``hz`` holds the corresponding physical
    frequencies ``omega * fs / 2pi`` in ``[0, fs/2]``. These two, the lag
    phases of each VAR order (:meth:`lag_phases`) and the weights of each
    band (:func:`quadrature_weights`) depend on the grid alone, so each is
    computed on first use, kept on the instance and read-only; a repeated
    use returns the same array. They are not part of the grid's value:
    ``==``, ``hash`` and ``repr`` see ``fs`` and ``n_points`` only, and a
    copy or a pickle of a grid computes its own.
    """

    fs: float = 1.0
    n_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        _check_fs(self.fs)
        _count(self.n_points, "n_points", 2)

    def __getstate__(self) -> dict:
        # The fields alone: a copy or an unpickled grid computes its own
        # arrays, read-only again.
        return {"fs": self.fs, "n_points": self.n_points}

    @cached_property
    def omegas(self) -> np.ndarray:
        return _readonly(np.linspace(0.0, np.pi, self.n_points))

    @cached_property
    def hz(self) -> np.ndarray:
        return _readonly(self.omegas * self.fs / (2.0 * np.pi))

    def lag_phases(self, order: int) -> np.ndarray:
        """The ``(order, n_points)`` table of ``e^{-j omega k}``, row ``k - 1``
        for lag ``k = 1..order``, as ``cos + j sin`` of ``-omega k`` (the
        values of ``np.exp``, faster)."""
        return self._derived(_lag_phases, order)

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _derived(self, build, *args) -> np.ndarray:
        """``build(self, *args)``, computed on the first call with these
        arguments and returned read-only on every call."""
        key, memo = (build, *args), self._memo
        try:
            return memo[key]
        except KeyError:
            return memo.setdefault(key, _readonly(build(self, *args)))


def _lag_phases(grid: FrequencyGrid, order: int) -> np.ndarray:
    angles = np.outer(-np.arange(1, order + 1), grid.omegas)
    phases = np.empty((order, grid.n_points), dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    return phases


@dataclass(frozen=True)
class Band:
    """A frequency band ``[lo, hi]`` in Hz with a display label, which
    follows the channel-name rule of the CSV outputs (non-empty, no comma,
    double quote, carriage return or newline)."""

    lo: float
    hi: float
    label: str

    def __post_init__(self):
        _check_csv_text(self.label, "band label")
        what = f"band {self.label!r}"
        if not 0.0 <= _real(self.lo, f"{what} lo") < _real(self.hi, f"{what} hi"):
            raise ArgumentError(f"{what}: need 0 <= lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class SpectralMatrix:
    """Per-frequency Hermitian PSD matrices ``mats[i]`` on ``grid``.

    Construction validates the PSD invariants at every grid point: finite
    entries, Hermitian within 1e-10 relative, strictly positive real
    diagonal, and smallest eigenvalue >= -1e-10 * trace, checked as a
    successful Cholesky factorisation of ``mats[i] + 1e-10 * trace * I``,
    on a read-only copy of ``mats`` that it keeps, so that the caller's
    array stays its own. A model's spectrum (:func:`psd_from_var`), a Gram
    matrix ``B B*`` with an exact Hermitian mirror, or a loaded one
    (:meth:`with_diagonal_loading`, a checked one plus ``c I``, ``c >= 0``)
    cannot fail the last two checks, so it skips them. A model spectrum's
    ``mats`` is the ``(n_points, Q, Q)`` view of a frequency-last buffer.
    """

    grid: FrequencyGrid
    mats: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        mats = np.array(self.mats, dtype=complex)
        q = _check_entries(self.grid, mats)
        scale = max(np.max(np.abs(mats)), np.finfo(float).tiny)
        herm_resid = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)))
        if herm_resid > 1e-10 * scale:
            raise NumericalError(
                f"spectral matrix not Hermitian (residual {herm_resid / scale:.2e} relative)"
            )
        diags = np.diagonal(mats, axis1=1, axis2=2).real
        _check_diagonal(self.grid, diags.T)
        shift = 1e-10 * diags.sum(axis=1)
        try:
            np.linalg.cholesky(mats + shift[:, None, None] * np.eye(q))
        except np.linalg.LinAlgError:
            raise NumericalError("spectral matrix is not positive semi-definite") from None
        self._freeze(mats, self.names)

    @classmethod
    def _of_gram(
        cls, grid: FrequencyGrid, mats: np.ndarray, names: Sequence[str]
    ) -> "SpectralMatrix":
        """The spectrum of ``mats`` as given, a Gram matrix or a loaded
        spectrum (see the class), checked only for shape, finite entries
        and a positive diagonal."""
        idx = np.arange(_check_entries(grid, mats))
        _check_diagonal(grid, mats.transpose(1, 2, 0)[idx, idx].real)
        psd = object.__new__(cls)
        object.__setattr__(psd, "grid", grid)
        psd._freeze(mats, names)
        return psd

    def _freeze(self, mats: np.ndarray, names: Sequence[str]) -> None:
        names = _check_names(names, tuple(f"ch{i}" for i in range(mats.shape[-1])))
        mats.setflags(write=False)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return self.mats.shape[-1]

    def with_diagonal_loading(self, delta: float) -> "SpectralMatrix":
        """Return a copy with ``delta * trace/Q`` added to each diagonal.

        An explicit regularization knob for near-singular spectra; off by
        default everywhere because silent loading biases information rates.
        """
        if not 0.0 <= delta < np.inf:  # NaN included
            raise ArgumentError(f"loading factor must be finite and nonnegative, got {delta}")
        traces = np.trace(self.mats, axis1=1, axis2=2).real / self.dim
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
            mats = self.mats + delta * traces[:, None, None] * np.eye(self.dim)
        return SpectralMatrix._of_gram(self.grid, mats, self.names)


def _check_entries(grid: FrequencyGrid, mats: np.ndarray) -> int:
    """The channel count ``Q`` of ``n_points`` matrices ``mats`` of shape
    ``(Q, Q)``: ArgumentError on another shape, NumericalError naming the
    first frequency with a non-finite entry."""
    n, q = grid.n_points, mats.shape[-1]
    if mats.shape != (n, q, q):
        raise ArgumentError(f"expected {n} matrices of shape ({q}, {q}), got {mats.shape}")
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        raise NumericalError(
            f"spectral matrix has a non-finite entry at f = {grid.hz[np.argmin(finite)]:.6g} Hz"
        )
    return q


def _check_diagonal(grid: FrequencyGrid, diags: np.ndarray) -> None:
    """NumericalError naming the first frequency where a real diagonal
    entry of ``diags`` (``(Q, n_points)``) is not positive."""
    positive = (diags > 0.0).all(axis=0)
    if not positive.all():
        raise NumericalError(
            f"spectral matrix has a nonpositive diagonal entry at "
            f"f = {grid.hz[np.argmin(positive)]:.6g} Hz"
        )


def transfer_function(
    model: VarModel, grid: FrequencyGrid, right: np.ndarray | None = None
) -> np.ndarray:
    """Transfer matrices ``H(omega) = (I - sum_k A_k e^{-j omega k})^{-1}``.

    Returns a complex array of shape ``(n_points, Q, Q)``; with a ``(Q, K)``
    matrix ``right``, the products ``H(omega) @ right`` of shape
    ``(n_points, Q, K)`` instead.

    ``I - A(omega)`` is built frequency-last, as one ``(Q, Q, n_points)``
    array, and solved against ``right`` (or ``I``) by Gaussian elimination
    with partial pivoting for every frequency at once, row by row in place:
    each step works on rows contiguous over frequency. The pivot is the
    first maximum of ``|a_ik|^2`` down the column (a tie keeps the upper
    row, as ``np.argmax`` does), and rows are exchanged only at the
    frequencies that pivot. The result is the ``(n_points, Q, K)`` view of
    the ``(Q, K, n_points)`` solution buffer, so ``result.transpose(1, 2,
    0)`` reads its rows back contiguous over frequency without a copy.

    Raises
    ------
    ArgumentError
        If ``right`` is not a ``(Q, K)`` matrix.
    NumericalError
        If the solution is not finite at some grid frequency, because
        ``I - A(omega)`` is singular there or its inverse overflows (the
        message names the first such frequency).
    UnstableModelError
        If the model is unstable.
    """
    _require_stable(model, "transfer_function")
    p, q, n = model.order, model.dim, grid.n_points
    right = np.eye(q) if right is None else np.asarray(right)
    if right.ndim != 2 or right.shape[0] != q:
        raise ArgumentError(f"right must have shape ({q}, K), got {right.shape}")
    kcols = right.shape[1]
    a = np.tensordot(-model.coeffs, grid.lag_phases(p), axes=(0, 0))
    a[np.arange(q), np.arange(q)] += 1.0
    b = np.empty((q, kcols, n), dtype=complex)
    b[...] = right[:, :, None]
    # The reciprocals of the pivots, which back substitution reuses, and one
    # buffer for every step's products; the pivot search takes the |a_ik|^2
    # in its real half, the imaginary half scratch.
    inv = np.empty((q, n), dtype=complex)
    prod = np.empty((max(q, kcols), n), dtype=complex)
    piv, more = np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(q - 1):
            mags = _abs2(a[k:, k], prod[: q - k].real, prod[: q - k].imag)
            best = mags[0]
            piv.fill(k)
            for i in range(1, q - k):  # a lower row wins only where larger, as in np.argmax
                np.copyto(best, mags[i], where=np.greater(mags[i], best, out=more))
                piv[more] = k + i
            swap = np.flatnonzero(piv != k)
            if swap.size:
                rows = piv[swap]
                for buf in (a[:, k:], b):
                    row = buf[rows, :, swap]
                    buf[rows, :, swap] = buf[k][:, swap].T
                    buf[k][:, swap] = row.T
            np.divide(1.0, a[k, k], out=inv[k])
            for i in range(k + 1, q):
                mult = np.multiply(a[i, k], inv[k], out=a[i, k])
                a[i, k + 1:] -= np.multiply(mult, a[k, k + 1:], out=prod[: q - k - 1])
                b[i] -= np.multiply(mult, b[k], out=prod[:kcols])
        np.divide(1.0, a[-1, -1], out=inv[-1])
        for k in reversed(range(q)):
            for j in range(k + 1, q):
                b[k] -= np.multiply(a[k, j], b[j], out=prod[:kcols])
            b[k] *= inv[k]
        finite = np.isfinite(b).all(axis=(0, 1))
    if not finite.all():
        raise NumericalError(
            f"transfer function not finite at f = {grid.hz[np.argmin(finite)]:.6g} Hz "
            f"(I - A(omega) singular there, or its inverse overflows)"
        )
    return b.transpose(2, 0, 1)


def psd_from_var(model: VarModel, grid: FrequencyGrid) -> SpectralMatrix:
    """PSD matrix ``P(omega) = H(omega) Sigma H*(omega)`` of a stable model,
    formed frequency-last as ``B B*`` with ``B = H L`` and ``Sigma = L L^T``
    (Cholesky): each entry below the diagonal is ``sum_k B_ik conj(B_jk)``,
    the diagonal is ``sum_k |B_ik|^2`` with an exact zero imaginary part,
    and the upper triangle is the exact conjugate of the lower one. Such a
    Gram matrix is Hermitian and positive semi-definite by construction,
    so the result is checked only for finite entries and a positive
    diagonal (see :class:`SpectralMatrix`).

    Raises
    ------
    NumericalError
        If the transfer function or an entry of ``P`` is not finite at some
        grid frequency, or a diagonal entry underflows to zero (the message
        names the first such frequency).
    UnstableModelError
        If the model is unstable.
    """
    b = transfer_function(model, grid, np.linalg.cholesky(model.sigma)).transpose(1, 2, 0)
    q = model.dim
    mats = np.empty((q, q, grid.n_points), dtype=complex)
    prod = np.empty_like(b[0])
    with np.errstate(all="ignore"):
        for j in range(q):
            mats[j, j] = _abs2(b[j]).sum(axis=0)
            conj = b[j].conj()
            for i in range(j + 1, q):
                np.add.reduce(np.multiply(b[i], conj, out=prod), axis=0, out=mats[i, j])
            np.conjugate(mats[j + 1:, j], out=mats[j, j + 1:])
    return SpectralMatrix._of_gram(grid, mats.transpose(2, 0, 1), model.names)


class _TrieNode(NamedTuple):
    """A prefix of sorted sources in :func:`spectral_mir_rows`: its last
    source's ``row`` of ``L`` against the prefix before it and its
    ``pivot``, the target's entry ``t_entry`` below that pivot, the target's
    residual ``r`` and the product ``det`` of the prefix's squared pivots."""

    row: list[np.ndarray]
    pivot: np.ndarray
    t_entry: np.ndarray
    r: np.ndarray
    det: np.ndarray


def _abs2(z: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None):
    re2 = np.multiply(z.real, z.real, out=out)  # into out, with tmp as scratch
    return np.add(re2, np.multiply(z.imag, z.imag, out=tmp), out=out)


def spectral_mir(psd: SpectralMatrix, target: int, sources: Sequence[int]) -> np.ndarray:
    """Spectral mutual information rate between ``target`` and a source group,
    one ``(n_points,)`` row.

    At each frequency,

        i(omega) = 1/2 * ln( det P_S(omega) * P_T(omega) / det P_[S,T](omega) ),

    where ``P_S`` is the source-block submatrix, ``P_T`` the target's PSD and
    ``P_[S,T]`` the joint submatrix. The joint block is taken in ``[S, T]``
    order with the sources sorted and scaled to unit diagonal (coherence
    form), which cancels in the ratio; its Cholesky factor ``L`` holds the
    pivots of ``det P_S`` first, so ``i(omega) = -ln L[-1, -1]``.
    Nonnegative up to roundoff for any valid PSD matrix, and unchanged when
    any channel is rescaled.

    This is the one-group case of :func:`spectral_mir_rows`, whose prefix
    trie factors only this group's chain of prefixes, so its values equal
    that group's row of any table bit for bit.

    Raises
    ------
    ArgumentError
        On an invalid target or source group.
    SpectralSingularityError
        If the normalised joint block is not positive definite or its
        determinant falls below :data:`DET_FLOOR` at some grid frequency
        (the message names the first one).
    """
    return spectral_mir_rows(psd, target, [sources])[0]


def spectral_mir_rows(
    psd: SpectralMatrix, target: int, groups: Sequence[Sequence[int]]
) -> np.ndarray:
    """Spectral MIR profiles of ``target`` against each source group, as a
    ``(len(groups), n_points)`` array in the order of ``groups``.

    Every coherence entry ``P_ab / (sqrt(P_aa) sqrt(P_bb))`` the groups
    need is gathered once, as a contiguous row over frequency. The Cholesky
    factors of the ``[S, T]`` blocks (sources sorted) share their leading
    rows along the prefix trie of the groups: the node of a prefix adds its
    last source's row of ``L`` against its ancestors, that source's pivot
    and the target's entry ``L[T, j]`` below it, and the target's running
    residual ``r`` then gives the prefix's MIR as ``-ln sqrt(r)``. Each row
    depends only on its group's own prefixes, so it does not change with
    the other groups asked for.

    Raises
    ------
    ArgumentError
        On an invalid target or source group.
    SpectralSingularityError
        For the first group whose normalised joint block is not positive
        definite or whose determinant (the product of the squared pivots
        and ``r``) falls below :data:`DET_FLOOR` at some grid frequency
        (the message names the first one).
    """
    groups = [_resolve_sources(psd.dim, target, g) for g in groups]
    # Every prefix of every group, each after its parent.
    prefixes = list(dict.fromkeys(g[:k] for g in groups for k in range(1, len(g) + 1)))
    # The entries below the diagonal of [S, T], row channel first.
    pairs = list(dict.fromkeys(
        pair for p in prefixes for pair in ((target, p[-1]), *((p[-1], b) for b in p[:-1]))
    ))
    at = {pair: i for i, pair in enumerate(pairs)}
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    mats = psd.mats.transpose(1, 2, 0)
    idx = np.arange(psd.dim)
    root = np.sqrt(mats[idx, idx].real)
    coh = mats[rows, cols]
    coh /= root[rows] * root[cols]
    one = np.ones(psd.grid.n_points)
    # The empty prefix: r = 1 and an empty product of pivots.
    nodes = {(): _TrieNode([], one, one, one, one)}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p in prefixes:
            a, parent = p[-1], nodes[p[:-1]]
            ancestors = [nodes[p[:j]] for j in range(1, len(p))]
            row: list[np.ndarray] = []
            for b, anc in zip(p, ancestors):
                entry = coh[at[a, b]]
                for x, y in zip(row, anc.row):
                    entry = entry - x * y.conj()
                row.append(entry / anc.pivot)
            square = one
            for x in row:
                square = square - _abs2(x)
            pivot = np.sqrt(square)
            entry = coh[at[target, a]]
            for anc, x in zip(ancestors, row):
                entry = entry - anc.t_entry * x.conj()
            t_entry = entry / pivot
            nodes[p] = _TrieNode(row, pivot, t_entry, parent.r - _abs2(t_entry), parent.det * square)
    # The check and the MIR of every group in one pass over the stacked rows.
    r = np.empty((len(groups), psd.grid.n_points))
    det = np.empty_like(r)
    for k, g in enumerate(groups):
        r[k], det[k] = nodes[g].r, nodes[g].det
    ok = np.multiply(det, r, out=det) >= DET_FLOOR
    if not ok.all():
        k = int(np.argmin(ok.all(axis=1)))
        j = np.argmin(ok[k])
        raise SpectralSingularityError(
            f"joint spectrum of target {target} and sources {list(groups[k])} singular "
            f"to working precision (normalised determinant {det[k, j]:.6g}, where at "
            f"least {DET_FLOOR:g} is needed) at f = {psd.grid.hz[j]:.6g} Hz; a spectrum "
            "held in double precision limits this route to an MIR near 18 nats, "
            "1/2 ln(1/eps) (consider the diagonal-loading knob)"
        )
    return np.negative(np.log(np.sqrt(r, out=r), out=r), out=r)


def quadrature_weights(grid: FrequencyGrid, band: Band | None = None) -> np.ndarray:
    """The normalized trapezoid rule over ``band`` (``None``: the whole
    axis) as one weight per grid point: the sum of ``values * w`` is ``1/pi``
    times the integral of the piecewise-linear profile through the grid
    values, a band edge between grid points taking its interpolated value.
    Each grid cell is clipped to the band, and its part ``[a, b]`` adds
    ``(b - a) / 2pi`` times the interpolation weights of ``a`` and ``b`` to
    the cell's two ends. Computed once per grid and band, and read-only
    (see :class:`FrequencyGrid`).

    Raises
    ------
    ArgumentError
        If the band exceeds the Nyquist range of the grid.
    """
    return grid._derived(_trapezoid_weights, band)


def _trapezoid_weights(grid: FrequencyGrid, band: Band | None) -> np.ndarray:
    lo, hi = 0.0, np.pi
    if band is not None:
        _check_nyquist(band, grid.fs)
        lo, hi = 2.0 * np.pi * band.lo / grid.fs, min(2.0 * np.pi * band.hi / grid.fs, np.pi)
    omegas = grid.omegas
    left, right = omegas[:-1], omegas[1:]
    a, b = (np.minimum(np.maximum(left, edge), right) for edge in (lo, hi))
    # The right end's interpolation weights at a and at b, summed.
    t = ((a - left) + (b - left)) / (right - left)
    half = (b - a) / (2.0 * np.pi)
    w = np.zeros(grid.n_points)
    w[:-1] = half * (2.0 - t)
    w[1:] += half * t
    return w


def integrate_rows(rows: np.ndarray, weights: Sequence[np.ndarray]) -> np.ndarray:
    """The ``(len(weights), len(rows))`` integrals of each row of ``rows``
    under each weight vector of :func:`quadrature_weights` in ``weights``.
    Each product row is summed pairwise on its own in a C-contiguous buffer,
    so an integral does not depend on the input's layout or on the rows and
    spans integrated with it."""
    rows = np.ascontiguousarray(rows)
    buf = np.empty_like(rows)
    return np.stack([np.add.reduce(np.multiply(rows, w, out=buf), axis=1) for w in weights])


def integrate_full(values: np.ndarray) -> float:
    """Normalized full-axis integral ``(1/pi) * trapezoid over [0, pi]`` of
    one profile row on a uniform grid. Equals the two-sided integral
    ``(1/2pi) int_{-pi}^{pi}`` by evenness, so a constant profile
    integrates to its own value."""
    return _integral(values, 1.0, None)


def integrate_band(values: np.ndarray, band: Band, fs: float) -> float:
    """Normalized integral of one profile row on a uniform grid of ``[0,
    fs/2]`` Hz over ``omega in [2pi lo/fs, 2pi hi/fs]``; a partition of
    ``[0, fs/2]`` into bands sums to :func:`integrate_full`. ArgumentError
    if the band exceeds the Nyquist frequency."""
    return _integral(values, fs, band)


def _integral(values: np.ndarray, fs: float, band: Band | None) -> float:
    """One row's integral under :func:`quadrature_weights`; ArgumentError
    unless ``values`` is a finite 1-D row of at least 2 points."""
    row = np.asarray(values, dtype=float)
    if row.ndim != 1 or row.size < 2 or not np.isfinite(row).all():
        raise ArgumentError(f"a profile must be a finite 1-D row of 2+ points, got {row.shape}")
    weights = [quadrature_weights(FrequencyGrid(fs, row.size), band)]
    return float(integrate_rows(row[None, :], weights)[0, 0])


def _check_nyquist(band: Band, fs: float) -> None:
    """Raise :class:`ArgumentError` if ``band`` reaches above the Nyquist
    frequency ``fs / 2``; an upper edge within 1e-12 Hz of it is on it."""
    if band.hi > fs / 2.0 + 1e-12:
        raise ArgumentError(
            f"band {band.label!r} [{band.lo}, {band.hi}] Hz exceeds the Nyquist "
            f"frequency {fs / 2.0} Hz"
        )


def parse_bands(spec: str) -> list[Band]:
    """Parse a band list of the form ``"LF:0.04-0.15,HF:0.15-0.4"``; a range
    splits at the one hyphen with a number on either side (``1e-3-0.04``)."""
    bands = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            label, rng = part.split(":")
            edges = []
            for i in (i for i, char in enumerate(rng) if char == "-"):
                with suppress(ValueError):
                    edges.append((float(rng[:i]), float(rng[i + 1:])))
            [(lo, hi)] = edges
            bands.append(Band(lo=lo, hi=hi, label=label.strip()))
        except ValueError:
            raise ArgumentError(
                f"cannot parse band {part!r} (expected LABEL:lo-hi)"
            ) from None
    if not bands:
        raise ArgumentError("no bands given")
    return bands

