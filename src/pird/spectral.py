"""Frequency-domain machinery: VAR transfer function, PSD matrix, spectral
mutual information rates, and full-axis / band-limited integration.

All rates are in nats. Spectra are evaluated one-sidedly on a uniform grid of
normalized circular frequencies ``omega in [0, pi]``; the evenness of
real-process spectra makes the normalized one-sided trapezoid integral
``(1/pi) * integral_0^pi`` equal to the two-sided ``(1/2pi) *
integral_{-pi}^{pi}``. That rule lives in one place,
:func:`quadrature_weights`, as one weight per grid point for the whole axis
or a band; every integral is a profile's values times those weights, summed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    NumericalError,
    SpectralSingularityError,
    UnstableModelError,
)
from .var import VarModel, _check_csv_text, _check_fs, _check_names, _resolve_sources, is_stable

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

    ``omegas`` spans ``[0, pi]`` inclusive with ``n_points`` points;
    ``hz`` holds the corresponding physical frequencies ``omega * fs / 2pi``
    in ``[0, fs/2]``.
    """

    fs: float = 1.0
    n_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        _check_fs(self.fs)
        if self.n_points < 2:
            raise ArgumentError("a frequency grid needs at least 2 points")

    @property
    def omegas(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.n_points)

    @property
    def hz(self) -> np.ndarray:
        return self.omegas * self.fs / (2.0 * np.pi)


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
        if not 0.0 <= self.lo < self.hi:
            raise ArgumentError(f"band {self.label!r}: need 0 <= lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class SpectralMatrix:
    """Per-frequency Hermitian PSD matrices ``mats[i]`` on ``grid``.

    Construction validates the PSD invariants at every grid point: finite
    entries, Hermitian within 1e-10 relative, strictly positive real
    diagonal, and smallest eigenvalue >= -1e-10 * trace, checked as a
    successful Cholesky factorisation of ``mats[i] + 1e-10 * trace * I``.
    """

    grid: FrequencyGrid
    mats: np.ndarray
    names: tuple[str, ...] = ()

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=complex)
        n, q = self.grid.n_points, mats.shape[-1]
        if mats.shape != (n, q, q):
            raise ArgumentError(
                f"expected {n} matrices of shape ({q}, {q}), got {mats.shape}"
            )
        scale = np.max(np.abs(mats))
        if not np.isfinite(scale):
            raise NumericalError("spectral matrix has a non-finite entry")
        scale = max(scale, np.finfo(float).tiny)
        herm_resid = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)))
        if herm_resid > 1e-10 * scale:
            raise NumericalError(
                f"spectral matrix not Hermitian (residual {herm_resid / scale:.2e} relative)"
            )
        diags = np.diagonal(mats, axis1=1, axis2=2)
        if np.any(diags.real <= 0.0):
            raise NumericalError("spectral matrix has a nonpositive diagonal entry")
        shift = 1e-10 * diags.real.sum(axis=1)
        try:
            np.linalg.cholesky(mats + shift[:, None, None] * np.eye(q))
        except np.linalg.LinAlgError:
            raise NumericalError("spectral matrix is not positive semi-definite") from None
        names = _check_names(self.names, tuple(f"ch{i}" for i in range(q)))
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
        mats = self.mats + delta * traces[:, None, None] * np.eye(self.dim)
        return SpectralMatrix(grid=self.grid, mats=mats, names=self.names)


@dataclass(frozen=True)
class SpectralProfile:
    """A real-valued function of frequency on a grid (nats per sample)."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ArgumentError(
                f"expected {self.grid.n_points} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ArgumentError("profile values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def transfer_function(
    model: VarModel, grid: FrequencyGrid, right: np.ndarray | None = None
) -> np.ndarray:
    """Transfer matrices ``H(omega) = (I - sum_k A_k e^{-j omega k})^{-1}``.

    Returns a complex array of shape ``(n_points, Q, Q)``; with a ``(Q, K)``
    matrix ``right``, the products ``H(omega) @ right`` of shape
    ``(n_points, Q, K)`` instead, from one batched solve.

    Raises
    ------
    NumericalError
        If ``I - A(omega)`` is singular at some grid frequency (the message
        names it).
    UnstableModelError
        If the model is unstable.
    """
    if not is_stable(model):
        raise UnstableModelError(
            f"transfer_function requires a stable model "
            f"(companion spectral radius {model.spectral_radius():.6f})"
        )
    p, q = model.order, model.dim
    omegas = grid.omegas
    mats = np.broadcast_to(np.eye(q, dtype=complex), (grid.n_points, q, q)).copy()
    if p > 0:
        phases = np.exp(-1j * np.outer(omegas, np.arange(1, p + 1)))
        mats -= (phases @ model.coeffs.reshape(p, q * q)).reshape(-1, q, q)
    try:
        return np.linalg.inv(mats) if right is None else np.linalg.solve(mats, right)
    except np.linalg.LinAlgError:
        absdet = np.abs(np.linalg.det(mats))
        idx = int(np.argmin(absdet))
        raise NumericalError(
            f"transfer function singular at f = {grid.hz[idx]:.6g} Hz "
            f"(unit root on the grid)"
        ) from None


def psd_from_var(model: VarModel, grid: FrequencyGrid) -> SpectralMatrix:
    """PSD matrix ``P(omega) = H(omega) Sigma H*(omega)`` of a stable model,
    formed as ``B B*`` with ``B = H L`` and ``Sigma = L L^T`` (Cholesky), so
    every ``P(omega)`` is Hermitian by construction."""
    b = transfer_function(model, grid, np.linalg.cholesky(model.sigma))
    mats = b @ b.conj().transpose(0, 2, 1)
    return SpectralMatrix(grid=grid, mats=mats, names=model.names)


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


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def spectral_mir(
    psd: SpectralMatrix, target: int, sources: Sequence[int]
) -> SpectralProfile:
    """Spectral mutual information rate between ``target`` and a source group.

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
    SpectralSingularityError
        If the normalised joint block is not positive definite or its
        determinant falls below :data:`DET_FLOOR` at some grid frequency
        (the message names the first one).
    """
    return SpectralProfile(grid=psd.grid, values=spectral_mir_rows(psd, target, [sources])[0])


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
    root = np.sqrt(np.diagonal(psd.mats, axis1=1, axis2=2).real.T)
    coh = np.ascontiguousarray(psd.mats[:, rows, cols].T)
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
    out = np.empty((len(groups), psd.grid.n_points))
    for k, g in enumerate(groups):
        r = nodes[g].r
        bad = ~(nodes[g].det * r >= DET_FLOOR)
        if np.any(bad):
            raise SpectralSingularityError(
                f"joint spectrum of target {target} and sources {list(g)} singular "
                f"(normalised determinant below {DET_FLOOR:g}) at "
                f"f = {psd.grid.hz[np.argmax(bad)]:.6g} Hz (consider the diagonal-loading knob)"
            )
        out[k] = -np.log(np.sqrt(r))
    return out


def quadrature_weights(grid: FrequencyGrid, band: Band | None = None) -> np.ndarray:
    """The normalized trapezoid rule over ``band`` (``None``: the whole
    axis) as one weight per grid point: the sum of ``values * w`` is ``1/pi``
    times the integral of the piecewise-linear profile through the grid
    values, a band edge between grid points taking its interpolated value.
    Each grid cell is clipped to the band, and its part ``[a, b]`` adds
    ``(b - a) / 2pi`` times the interpolation weights of ``a`` and ``b`` to
    the cell's two ends.

    Raises
    ------
    ArgumentError
        If the band exceeds the Nyquist range of the grid.
    """
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


def integrate_full(profile: SpectralProfile) -> float:
    """Normalized full-axis integral ``(1/pi) * trapezoid over [0, pi]``.

    Equals the two-sided integral ``(1/2pi) int_{-pi}^{pi}`` by evenness,
    so a constant profile integrates to its own value.
    """
    return float(integrate_rows(profile.values[None, :], [quadrature_weights(profile.grid)])[0, 0])


def integrate_band(profile: SpectralProfile, band: Band) -> float:
    """Normalized integral of one profile over ``omega in [2pi lo/fs, 2pi
    hi/fs]``; a partition of ``[0, fs/2]`` into bands sums to
    :func:`integrate_full`.

    Raises
    ------
    ArgumentError
        If the band exceeds the Nyquist range of the profile's grid.
    """
    weights = [quadrature_weights(profile.grid, band)]
    return float(integrate_rows(profile.values[None, :], weights)[0, 0])


def _check_nyquist(band: Band, fs: float) -> None:
    """Raise :class:`ArgumentError` if ``band`` reaches above the Nyquist
    frequency ``fs / 2``; an upper edge within 1e-12 Hz of it is on it."""
    if band.hi > fs / 2.0 + 1e-12:
        raise ArgumentError(
            f"band {band.label!r} [{band.lo}, {band.hi}] Hz exceeds the Nyquist "
            f"frequency {fs / 2.0} Hz"
        )


def parse_bands(spec: str) -> list[Band]:
    """Parse a band list of the form ``"LF:0.04-0.15,HF:0.15-0.4"``."""
    bands = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            label, rng = part.split(":")
            lo, hi = rng.split("-")
            bands.append(Band(lo=float(lo), hi=float(hi), label=label.strip()))
        except ValueError:
            raise ArgumentError(
                f"cannot parse band {part!r} (expected LABEL:lo-hi)"
            ) from None
    if not bands:
        raise ArgumentError("no bands given")
    return bands
