"""Frequency-domain machinery: VAR transfer function, PSD matrix, spectral
mutual information rates, and full-axis / band-limited integration.

All rates are in nats. Spectra are evaluated one-sidedly on a uniform grid of
normalized circular frequencies ``omega in [0, pi]``; the evenness of
real-process spectra makes the normalized one-sided trapezoid integral
``(1/pi) * integral_0^pi`` equal to the two-sided ``(1/2pi) *
integral_{-pi}^{pi}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    NumericalError,
    SpectralSingularityError,
    UnstableModelError,
)
from .var import VarModel, _resolve_sources, is_stable

#: Default number of grid points on [0, pi]. Dense enough that trapezoid
#: error is far below the working tolerances for pole radii up to ~0.9
#: (the integrands have vanishing derivative at both endpoints, so the
#: trapezoid rule converges at fourth order here).
DEFAULT_GRID_POINTS = 2049

#: Determinants of joint spectral blocks below this absolute value raise
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
        if self.fs <= 0:
            raise ArgumentError("fs must be positive")
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
    """A frequency band ``[lo, hi]`` in Hz with a display label."""

    lo: float
    hi: float
    label: str

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi:
            raise ArgumentError(f"band {self.label!r}: need 0 <= lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class SpectralMatrix:
    """Per-frequency Hermitian PSD matrices ``mats[i]`` on ``grid``.

    Construction validates the PSD invariants at every grid point:
    Hermitian within 1e-10 relative, strictly positive real diagonal, and
    smallest eigenvalue >= -1e-10 * trace.
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
        herm_resid = np.max(np.abs(mats - mats.conj().transpose(0, 2, 1)))
        scale = max(np.max(np.abs(mats)), np.finfo(float).tiny)
        if herm_resid > 1e-10 * scale:
            raise NumericalError(
                f"spectral matrix not Hermitian (residual {herm_resid / scale:.2e} relative)"
            )
        diags = np.diagonal(mats, axis1=1, axis2=2)
        if np.any(diags.real <= 0.0):
            raise NumericalError("spectral matrix has a nonpositive diagonal entry")
        eigmin = np.linalg.eigvalsh(mats).min(axis=1)
        traces = np.trace(mats, axis1=1, axis2=2).real
        if np.any(eigmin < -1e-10 * traces):
            raise NumericalError("spectral matrix is not positive semi-definite")
        names = tuple(self.names) or tuple(f"ch{i}" for i in range(q))
        if len(names) != q:
            raise ArgumentError(f"expected {q} channel names, got {len(names)}")
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
        if delta < 0:
            raise ArgumentError("loading factor must be nonnegative")
        traces = np.trace(self.mats, axis1=1, axis2=2).real / self.dim
        mats = self.mats + delta * traces[:, None, None] * np.eye(self.dim)
        return SpectralMatrix(grid=self.grid, mats=mats, names=self.names)

    def debug_dump(self) -> str:
        """JSON dump: per frequency, the matrix as a row-major list of
        ``[re, im]`` pairs. Intended for inspection, not interchange."""
        import json

        rows = [
            {
                "f_hz": float(f),
                "mat": [[v.real, v.imag] for v in m.reshape(-1)],
            }
            for f, m in zip(self.grid.hz, self.mats)
        ]
        return json.dumps({"dim": self.dim, "names": list(self.names), "mats": rows})


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

    def save_csv(self, path) -> None:
        """Write the profile as ``f_hz,value`` rows."""
        lines = ["f_hz,value"]
        lines += [
            f"{f:.12g},{v:.12g}" for f, v in zip(self.grid.hz, self.values)
        ]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def transfer_function(model: VarModel, grid: FrequencyGrid) -> np.ndarray:
    """Transfer matrices ``H(omega) = (I - sum_k A_k e^{-j omega k})^{-1}``.

    Returns a complex array of shape ``(n_points, Q, Q)``.

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
        mats -= np.einsum("nk,kij->nij", phases, model.coeffs)
    try:
        return np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        absdet = np.abs(np.linalg.det(mats))
        idx = int(np.argmin(absdet))
        raise NumericalError(
            f"transfer function singular at f = {grid.hz[idx]:.6g} Hz "
            f"(unit root on the grid)"
        ) from None


def psd_from_var(model: VarModel, grid: FrequencyGrid) -> SpectralMatrix:
    """PSD matrix ``P(omega) = H(omega) Sigma H*(omega)`` of a stable model."""
    h = transfer_function(model, grid)
    mats = np.einsum("nij,jk,nlk->nil", h, model.sigma.astype(complex), h.conj())
    return SpectralMatrix(grid=grid, mats=mats, names=model.names)


def _logdet_hermitian(mats: np.ndarray, grid: FrequencyGrid, what: str) -> np.ndarray:
    """Log-determinants of a stack of Hermitian matrices via complex LU.

    The determinant of a Hermitian matrix is real; the LU sign's imaginary
    residue is checked and discarded.
    """
    if mats.shape[-1] == 1:
        vals = mats[:, 0, 0]
        if np.any(vals.real <= 0.0):
            idx = int(np.argmin(vals.real))
            raise SpectralSingularityError(
                f"{what} nonpositive at f = {grid.hz[idx]:.6g} Hz"
            )
        return np.log(vals.real)
    signs, logabs = np.linalg.slogdet(mats)
    resid = np.abs(signs.imag)
    if np.any(resid > 1e-8):
        idx = int(np.argmax(resid))
        raise NumericalError(
            f"{what} determinant has imaginary residue {resid[idx]:.2e} "
            f"at f = {grid.hz[idx]:.6g} Hz"
        )
    bad = (signs.real <= 0.0) | (logabs < np.log(DET_FLOOR))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SpectralSingularityError(
            f"{what} determinant below {DET_FLOOR:g} at f = {grid.hz[idx]:.6g} Hz "
            f"(consider the diagonal-loading knob)"
        )
    return logabs


def spectral_mir(
    psd: SpectralMatrix, target: int, sources: Sequence[int]
) -> SpectralProfile:
    """Spectral mutual information rate between ``target`` and a source group.

    At each frequency,

        i(omega) = 1/2 * ln( det P_S(omega) * P_T(omega) / det P_[TS](omega) ),

    where ``P_S`` is the source-block submatrix, ``P_T`` the target's PSD and
    ``P_[TS]`` the joint submatrix. Nonnegative up to roundoff for any valid
    PSD matrix.
    """
    srcs = np.array(_resolve_sources(psd.dim, target, sources))
    joint = np.array([target, *srcs])
    ld_joint = _logdet_hermitian(psd.mats[:, joint[:, None], joint], psd.grid, "joint spectrum")
    ld_src = _logdet_hermitian(psd.mats[:, srcs[:, None], srcs], psd.grid, "source spectrum")
    p_t = psd.mats[:, target, target].real
    values = 0.5 * (ld_src + np.log(p_t) - ld_joint)
    return SpectralProfile(grid=psd.grid, values=values)


def integrate_full(profile: SpectralProfile) -> float:
    """Normalized full-axis integral ``(1/pi) * trapezoid over [0, pi]``.

    Equals the two-sided integral ``(1/2pi) int_{-pi}^{pi}`` by evenness,
    so a constant profile integrates to its own value.
    """
    return float(np.trapezoid(profile.values, profile.grid.omegas) / np.pi)


def integrate_band(profile: SpectralProfile, band: Band) -> float:
    """Normalized integral of one profile over ``omega in [2pi lo/fs, 2pi
    hi/fs]``: the one-row case of :func:`integrate_band_rows`, the band
    integrator the decomposition engine applies to all atom rows at once.

    Raises
    ------
    ArgumentError
        If the band exceeds the Nyquist range of the profile's grid.
    """
    return float(integrate_band_rows(profile.values[None, :], profile.grid, band)[0])


def integrate_band_rows(rows: np.ndarray, grid: FrequencyGrid, band: Band) -> np.ndarray:
    """Normalized integral of each row of a ``(rows, n_points)`` array over
    ``omega in [2pi lo/fs, 2pi hi/fs]``: a trapezoid over the band edges and
    the grid points between them, so a partition of ``[0, fs/2]`` sums to
    :func:`integrate_full`. Edge values use ``np.interp``'s own formula and
    the sums run along one C-contiguous array, so each row's result equals
    ``np.trapezoid`` of ``np.interp`` on that row alone, bit for bit.

    Raises
    ------
    ArgumentError
        If the band exceeds the Nyquist range of the grid.
    """
    fs = grid.fs
    if band.hi > fs / 2.0 + 1e-12:
        raise ArgumentError(
            f"band {band.label!r} [{band.lo}, {band.hi}] Hz outside Nyquist range "
            f"[0, {fs / 2.0}] Hz"
        )
    w_lo = 2.0 * np.pi * band.lo / fs
    w_hi = min(2.0 * np.pi * band.hi / fs, np.pi)
    omegas = grid.omegas
    start = int(np.searchsorted(omegas, w_lo, side="right"))
    stop = int(np.searchsorted(omegas, w_hi, side="left"))
    xs = np.concatenate([[w_lo], omegas[start:stop], [w_hi]])
    ys = np.empty((len(rows), len(xs)))
    ys[:, 1:-1] = rows[:, start:stop]
    for col, w in ((0, w_lo), (-1, w_hi)):
        j = int(np.searchsorted(omegas, w, side="right")) - 1
        if j == len(omegas) - 1 or omegas[j] == w:
            ys[:, col] = rows[:, j]
        else:
            slope = (rows[:, j + 1] - rows[:, j]) / (omegas[j + 1] - omegas[j])
            ys[:, col] = slope * (w - omegas[j]) + rows[:, j]
    return np.trapezoid(ys, xs, axis=1) / np.pi


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
