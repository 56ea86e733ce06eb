"""Vector autoregressive (VAR) models: representation, simulation,
identification, covariance structure, and the built-in benchmark systems.

A VAR(p) process of dimension ``Q`` is

    z[t] = A_1 z[t-1] + ... + A_p z[t-p] + u[t],

with ``Q x Q`` coefficient matrices ``A_k`` and zero-mean white innovations
``u`` of positive-definite covariance ``sigma``. Channel 0 is the target by
convention in the benchmark systems ("Y"), channels 1..M the sources.
"""

from __future__ import annotations

import csv
import json
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    EstimationError,
    FormatError,
    UnstableModelError,
)

#: Stability margin: models whose companion spectral radius exceeds
#: ``1 - STABILITY_EPS`` are treated as unstable (borderline unit roots break
#: both the Lyapunov solve and the spectral integrals).
STABILITY_EPS = 1e-6

_SYMMETRY_TOL = 1e-10


def _readonly(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only."""
    array.setflags(write=False)
    return array


def _block(mat: np.ndarray, idx: Sequence[int]) -> np.ndarray:
    return mat.take(idx, 0).take(idx, 1)  # mat[np.ix_(idx, idx)], faster


def _count(value: int, what: str, least: int | None = None) -> int:
    """``value`` as an int: ArgumentError naming ``what`` unless it is an
    integer (``operator.index``: not ``2.5`` or ``"2"``), and at least
    ``least`` if that is given."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ArgumentError(f"{what} must be an integer, got {value!r}") from None
    if least is not None and count < least:
        raise ArgumentError(f"{what} must be >= {least}, got {count}")
    return count


def _real(value: float, what: str) -> float:
    """``value`` as a float: ArgumentError naming ``what`` unless it is a
    real number (``numbers.Real``: not ``"0.1"``, ``None`` or ``0.2j``)."""
    if not isinstance(value, numbers.Real):
        raise ArgumentError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _check_symmetric(matrix: np.ndarray, what: str) -> None:
    """ArgumentError naming ``what`` unless the finite square ``matrix`` is
    symmetric within ``_SYMMETRY_TOL`` times its largest entry, at any scale."""
    if np.max(np.abs(matrix - matrix.T)) > _SYMMETRY_TOL * np.max(np.abs(matrix)):
        raise ArgumentError(f"{what} must be symmetric")


def _check_covariance(matrix: np.ndarray, what: str) -> np.ndarray:
    """``matrix`` as a symmetrised float array; ArgumentError naming ``what``
    unless it is finite, square, symmetric and, by Cholesky, positive definite."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.isfinite(matrix).all():
        raise ArgumentError(f"{what} must be finite, got a NaN or infinite entry")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ArgumentError(f"{what} must be a square matrix, got shape {matrix.shape}")
    _check_symmetric(matrix, what)
    matrix = (matrix + matrix.T) / 2.0
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise ArgumentError(f"{what} must be positive definite") from None
    return matrix


def _channel_set(dim: int, channels: Sequence[int], what: str) -> tuple[int, ...]:
    """The distinct ``channels``, in first-seen order: ArgumentError naming
    ``what`` unless there is one at least and each is an integer index
    (``operator.index``: not ``1.7`` or ``"1"``) in ``0..dim-1``."""
    try:
        chans = tuple(dict.fromkeys(map(operator.index, channels)))
    except TypeError:
        raise ArgumentError(f"{what}s must be integer indices, got {channels!r}") from None
    if not chans:
        raise ArgumentError(f"need at least one {what}")
    if min(chans) < 0 or max(chans) >= dim:
        raise ArgumentError(f"{what}s {list(chans)} out of range 0..{dim - 1}")
    return chans


def _resolve_sources(dim: int, target: int, sources: Sequence[int] | None) -> tuple[int, ...]:
    """The sorted, distinct sources of a (target, sources) pair, all other
    channels for ``None``; ArgumentError on any invalid channel choice."""
    try:
        target = operator.index(target)
    except TypeError:
        raise ArgumentError(f"target channel must be an integer index, got {target!r}") from None
    if not 0 <= target < dim:
        raise ArgumentError(f"target channel {target} out of range 0..{dim - 1}")
    if sources is None:
        sources = [c for c in range(dim) if c != target]
    srcs = tuple(sorted(_channel_set(dim, sources, "source channel")))
    if target in srcs:
        raise ArgumentError(f"target channel {target} cannot be one of the sources")
    return srcs


def _check_names(names: Sequence[str], default: tuple[str, ...]) -> tuple[str, ...]:
    """The channel names as a tuple, ``default`` if none are given;
    ArgumentError unless there are as many as in ``default`` and they are
    distinct and pass :func:`_check_csv_text`."""
    names, count = tuple(names) or default, len(default)
    if len(names) != count:
        raise ArgumentError(f"expected {count} channel names, got {len(names)}")
    for name in names:
        _check_csv_text(name, "channel name")
    if len(set(names)) != count:
        raise ArgumentError(f"channel names must be distinct, got {list(names)}")
    return names


def _check_csv_text(text: str, what: str) -> None:
    """ArgumentError unless ``text`` (a ``what``, such as a channel name or
    band label) is a non-empty string that the unquoted CSV outputs can
    hold: no comma, double quote, carriage return or newline."""
    if not isinstance(text, str) or not text:
        raise ArgumentError(f"{what}s must be non-empty strings, got {text!r}")
    if any(c in text for c in ',"\r\n'):
        raise ArgumentError(
            f"{what} {text!r} holds a comma, double quote, carriage "
            "return or newline, which the CSV outputs cannot hold"
        )


def _check_fs(fs: float) -> None:
    """ArgumentError unless the sampling rate ``fs`` is positive and finite
    (NaN fails too)."""
    if not 0.0 < _real(fs, "fs") < np.inf:
        raise ArgumentError(f"fs must be positive and finite, got {fs}")


@dataclass(frozen=True)
class VarModel:
    """Parameters of a VAR(p) process.

    Parameters
    ----------
    coeffs : ndarray, shape (p, Q, Q)
        Lag coefficient matrices; ``coeffs[k-1][i, j]`` weighs the effect
        of channel ``j`` at lag ``k`` on channel ``i``; finite. May be empty
        (``p == 0``) for a white process.
    sigma : ndarray, shape (Q, Q)
        Innovation covariance; must be finite, symmetric and positive
        definite.
    fs : float
        Sampling frequency in Hz.
    names : tuple of str
        Channel labels; defaults to ``("Y", "X1", ..., "XM")``.
    """

    coeffs: np.ndarray
    sigma: np.ndarray
    fs: float = 1.0
    names: tuple[str, ...] = ()

    def __post_init__(self):
        sigma = _check_covariance(np.atleast_2d(self.sigma), "sigma")
        q = sigma.shape[0]
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.size == 0:
            coeffs = np.zeros((0, q, q))
        if coeffs.ndim != 3 or coeffs.shape[1:] != (q, q):
            raise ArgumentError(
                f"coeffs must have shape (p, {q}, {q}), got {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ArgumentError("coeffs must be finite, got a NaN or infinite entry")
        _check_fs(self.fs)
        names = _check_names(self.names, ("Y",) + tuple(f"X{i}" for i in range(1, q)))
        object.__setattr__(self, "coeffs", _readonly(coeffs))
        object.__setattr__(self, "sigma", _readonly(sigma))
        object.__setattr__(self, "names", names)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def order(self) -> int:
        return self.coeffs.shape[0]

    def companion(self) -> np.ndarray:
        """The ``pQ x pQ`` companion matrix embedding the model as a VAR(1)."""
        p, q = self.order, self.dim
        if p == 0:
            return np.zeros((0, 0))
        top = self.coeffs.transpose(1, 0, 2).reshape(q, p * q)
        if p == 1:
            return top
        lower = np.hstack([np.eye((p - 1) * q), np.zeros(((p - 1) * q, q))])
        return np.vstack([top, lower])

    @cached_property
    def spectral_radius(self) -> float:
        """Largest eigenvalue modulus of the companion matrix (0 for a white
        model), computed on first read and kept: the model is immutable."""
        if self.order == 0:
            return 0.0
        return float(np.max(np.abs(np.linalg.eigvals(self.companion()))))

    def to_json(self) -> str:
        """Serialize to the documented JSON schema (coeffs row-major per lag)."""
        doc = {
            "dim": self.dim,
            "order": self.order,
            "fs": self.fs,
            "names": list(self.names),
            "coeffs": [a.tolist() for a in self.coeffs],
            "sigma": self.sigma.tolist(),
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VarModel":
        """Read the schema :meth:`to_json` writes.

        Raises
        ------
        FormatError
            If the text is not that schema, or its ``dim`` or ``order``
            disagrees with the shapes of ``sigma`` and ``coeffs``.
        """
        try:
            doc = json.loads(text)
            dim, order = doc["dim"], doc["order"]
            if dim != len(doc["sigma"]) or order != len(doc["coeffs"]):
                raise FormatError(
                    f"invalid model JSON: dim {dim!r} and order {order!r} disagree with "
                    f"{len(doc['sigma'])} sigma rows and {len(doc['coeffs'])} lag matrices"
                )
            return cls(
                coeffs=np.array(doc["coeffs"], dtype=float),
                sigma=np.array(doc["sigma"], dtype=float),
                fs=float(doc["fs"]),
                names=tuple(doc["names"]),
            )
        except (KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError included
            raise FormatError(f"invalid model JSON: {exc}") from exc


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """A multichannel time series: ``samples[t, ch]`` plus labels and rate."""

    samples: np.ndarray
    fs: float = 1.0
    names: tuple[str, ...] = ()

    def __post_init__(self):
        samples = np.atleast_2d(np.array(self.samples, dtype=float))
        if samples.shape[0] < 1:
            raise ArgumentError("need at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ArgumentError("samples must be finite")
        _check_fs(self.fs)
        names = _check_names(self.names, tuple(f"ch{i}" for i in range(samples.shape[1])))
        object.__setattr__(self, "samples", _readonly(samples))
        object.__setattr__(self, "names", names)

    def save_csv(self, path: str | Path) -> None:
        """Write as CSV: header row of channel names, one row per sample."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.names)
            for row in self.samples:
                writer.writerow([repr(float(v)) for v in row])

    @classmethod
    def load_csv(cls, path: str | Path, fs: float = 1.0) -> "TimeSeriesMatrix":
        """Read a CSV written by :meth:`save_csv` (or any conformant file).

        Raises
        ------
        FormatError
            On a missing/numeric header, ragged rows or non-numeric cells.
        """
        try:
            with open(path, "r", newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                try:
                    header = next(reader)
                except StopIteration:
                    raise FormatError(f"{path}: empty file") from None
                lines = fh.readlines()
        except OSError as exc:
            raise FormatError(f"cannot read {path}: {exc}") from exc
        header = [h.strip() for h in header]
        if any(_is_number(h) for h in header):
            raise FormatError(
                f"{path}: first row must hold channel names, found numeric cell"
            )
        # One loadtxt call parses a conformant body. The cell-by-cell scan
        # decides the rest, with its exact errors: no data (loadtxt would
        # warn), text loadtxt rejects (quoted cells, ``1_0``, ragged rows)
        # and blank lines, which loadtxt skips.
        data = None
        if lines and lines[0].strip("\r\n"):
            try:
                data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
            except ValueError:
                pass
        if data is None or data.shape != (len(lines), len(header)):
            data = _scan_body(path, lines, header)
        return cls(samples=data, fs=fs, names=tuple(header))


def _scan_body(path: str | Path, lines: list[str], header: list[str]) -> np.ndarray:
    rows = list(csv.reader(lines))
    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}"
            )
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: non-numeric cell {cell!r} at row {i + 2}, "
                    f"column {header[j]!r}"
                ) from None
    return data


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Benchmark scenarios


@dataclass(frozen=True)
class Scenario:
    """A named benchmark system with its parameter values."""

    id: str
    parameters: dict[str, float] = field(default_factory=dict)


def poles_to_coeffs(rho: float, f: float, fs: float = 1.0) -> tuple[float, float]:
    """AR(2) coefficients that place a complex-conjugate pole pair.

    A pair with modulus ``rho`` and oscillation frequency ``f`` (Hz, at
    sampling rate ``fs``) corresponds to lag-1 and lag-2 coefficients
    ``a1 = 2 rho cos(2 pi f / fs)`` and ``a2 = -rho**2``.

    Raises
    ------
    UnstableModelError
        If ``rho >= 1`` (pole on or outside the unit circle).
    ArgumentError
        If ``rho < 0`` or ``f`` is outside ``[0, fs/2]``.
    """
    if rho >= 1.0:
        raise UnstableModelError(f"pole modulus {rho} >= 1 yields an unstable AR")
    if rho < 0.0:
        raise ArgumentError("pole modulus must be nonnegative")
    if not 0.0 <= f <= fs / 2.0:
        raise ArgumentError(f"oscillation frequency {f} outside [0, {fs / 2}] Hz")
    return 2.0 * rho * np.cos(2.0 * np.pi * f / fs), -(rho**2)


def ar_coeffs_from_poles(
    pole_pairs: Sequence[tuple[float, float]], fs: float = 1.0
) -> np.ndarray:
    """AR coefficients of the process whose characteristic polynomial is the
    product of the AR(2) factors of the given ``(rho, f)`` pole pairs.

    Returns the length ``2 * len(pole_pairs)`` coefficient vector ``a`` with
    lag-k coefficient ``a[k-1]``.
    """
    poly = np.array([1.0])
    for rho, f in pole_pairs:
        a1, a2 = poles_to_coeffs(rho, f, fs)
        poly = np.convolve(poly, np.array([1.0, -a1, -a2]))
    return -poly[1:]


def _sim1(c: float) -> VarModel:
    # Three channels, instantaneous correlations shrinking with c while
    # oscillations and lagged couplings grow with c.
    a = np.zeros((4, 3, 3))
    a[0][0, 1] = c  # X1 -> Y at lag 1
    a[1][0, 2] = c  # X2 -> Y at lag 2
    a1_own = ar_coeffs_from_poles([(c, 0.1)])
    for k, v in enumerate(a1_own):
        a[k][1, 1] = v
    a2_own = ar_coeffs_from_poles([(c, 0.1), (1.125 * c, 0.3)])
    for k, v in enumerate(a2_own):
        a[k][2, 2] = v
    sigma = np.eye(3)
    sigma[np.triu_indices(3, 1)] = 0.8 - c
    sigma[np.tril_indices(3, -1)] = 0.8 - c
    return VarModel(coeffs=a, sigma=sigma, fs=1.0, names=("Y", "X1", "X2"))


def _sim2(c: float) -> VarModel:
    # Unidirectional couplings morphing from sources->target to target->sources.
    a = np.zeros((1, 3, 3))
    a[0][0, 1] = 0.8 - c
    a[0][0, 2] = 1.6 - 2.0 * c
    a[0][1, 0] = c
    a[0][2, 0] = 2.0 * c
    return VarModel(coeffs=a, sigma=np.eye(3), fs=1.0, names=("Y", "X1", "X2"))


def _sim3() -> VarModel:
    # Four channels mixing a common drive (X1 -> X2 and X1 -> Y) with a
    # common child (X1, X3 -> Y); X1/X2 oscillate at 0.3 Hz, X3 at 0.1 Hz.
    a = np.zeros((2, 4, 4))
    a[0][0, 1] = 1.0
    a[0][0, 3] = 1.0
    a[0][2, 1] = 1.0
    for ch, (rho, f) in ((1, (0.8, 0.3)), (2, (0.8, 0.3)), (3, (0.9, 0.1))):
        a1, a2 = poles_to_coeffs(rho, f)
        a[0][ch, ch] = a1
        a[1][ch, ch] = a2
    return VarModel(coeffs=a, sigma=np.eye(4), fs=1.0, names=("Y", "X1", "X2", "X3"))


def build_scenario(scenario: Scenario) -> VarModel:
    """Instantiate one of the benchmark VAR systems (``sim1``/``sim2``/``sim3``).

    ``sim1`` and ``sim2`` take a coupling parameter ``c`` in ``[0, 0.8]``;
    ``sim3`` takes no parameters.
    """
    params = dict(scenario.parameters)
    if scenario.id in ("sim1", "sim2"):
        c = params.pop("c", None)
        if params:
            raise ArgumentError(f"{scenario.id}: unknown parameters {sorted(params)}")
        if c is None:
            raise ArgumentError(f"{scenario.id} requires parameter c")
        if not 0.0 <= c <= 0.8:
            raise ArgumentError(f"{scenario.id}: c={c} outside [0, 0.8]")
        return _sim1(c) if scenario.id == "sim1" else _sim2(c)
    if scenario.id == "sim3":
        if params:
            raise ArgumentError(f"sim3 takes no parameters, got {sorted(params)}")
        return _sim3()
    raise ArgumentError(f"unknown scenario {scenario.id!r} (use sim1, sim2 or sim3)")


# ---------------------------------------------------------------------------
# Stability, simulation, identification


def is_stable(model: VarModel) -> bool:
    """True iff the companion spectral radius is below ``1 - STABILITY_EPS``."""
    return model.spectral_radius < 1.0 - STABILITY_EPS


def _require_stable(model: VarModel, context: str) -> None:
    """UnstableModelError, naming ``context`` and the radius, unless the
    model is stable: the one stability guard of the library."""
    if not is_stable(model):
        raise UnstableModelError(
            f"{context} requires a stable model "
            f"(companion spectral radius {model.spectral_radius:.6f})"
        )


def simulate_ensemble(
    model: VarModel, n: int, burn_in: int = 1000, seed: int = 0, n_series: int = 1
) -> np.ndarray:
    """Draw ``n_series`` independent realizations, shape ``(n_series, n, Q)``.

    Innovations are Gaussian with covariance ``model.sigma``, generated via
    its symmetric eigenvalue square root; the recursion is iterated for
    ``burn_in + n`` steps from zero initial conditions and the first
    ``burn_in`` samples are discarded. Deterministic given ``seed``. Raises
    ArgumentError unless ``n`` and ``n_series`` are integers >= 1 and
    ``burn_in`` is one >= 0.
    """
    n, burn_in = _count(n, "n", 1), _count(burn_in, "burn_in", 0)
    n_series = _count(n_series, "n_series", 1)
    _require_stable(model, "simulate")
    p, q = model.order, model.dim
    rng = np.random.default_rng(seed)
    evals, evecs = np.linalg.eigh(model.sigma)
    sqrt_sigma = (evecs * np.sqrt(evals)) @ evecs.T
    total = burn_in + n
    u = rng.standard_normal((total, q, n_series))
    u = np.einsum("ij,tjs->tis", sqrt_sigma, u)
    if p == 0:
        z = u
    else:
        z = np.zeros((total, q, n_series))
        a = [model.coeffs[k] for k in range(p)]
        for t in range(total):
            acc = u[t].copy()
            for k in range(1, min(p, t) + 1):
                acc += a[k - 1] @ z[t - k]
            z[t] = acc
    return z[burn_in:].transpose(2, 0, 1)


def simulate(
    model: VarModel, n: int, burn_in: int = 1000, seed: int = 0
) -> TimeSeriesMatrix:
    """Simulate one realization of the model (see :func:`simulate_ensemble`)."""
    z = simulate_ensemble(model, n, burn_in=burn_in, seed=seed, n_series=1)[0]
    return TimeSeriesMatrix(samples=z, fs=model.fs, names=model.names)


_COND_LIMIT = 1e10


#: Rows per block of :func:`_lagged_r`, so that each block factors in cache.
_QR_BLOCK = 2048


def _lagged_r(z: np.ndarray, p: int, t0: int) -> np.ndarray:
    """Triangular factor R of ``[z[t-1], ..., z[t-p] | z[t]]``, rows
    ``t = t0 .. L-1``: R of the regressors and Q.T @ z[t] of their thin QR.

    Blocked tall-skinny QR (Demmel, Grigori, Hoemmen & Langou 2012): each
    block of rows is factored in one reused buffer, then the stacked block
    factors once more, so neither Q nor the lag matrix is formed. Row signs
    of R are arbitrary and cancel in every product taken of them.

    Raises
    ------
    EstimationError
        If the regressor block ``R[:pQ, :pQ]`` is rank deficient (the
        message names its condition number).
    """
    n, q = z.shape
    buf = np.empty((min(_QR_BLOCK, n - t0), (p + 1) * q))
    factors = []
    for start in range(t0, n, _QR_BLOCK):
        block = buf[: min(_QR_BLOCK, n - start)]
        rows = len(block)
        for k in range(1, p + 1):
            block[:, (k - 1) * q : k * q] = z[start - k : start - k + rows]
        block[:, p * q :] = z[start : start + rows]
        factors.append(np.linalg.qr(block, mode="r"))
    rmat = np.linalg.qr(np.vstack(factors), mode="r")
    cond = np.linalg.cond(rmat[: p * q, : p * q])
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise EstimationError(
            f"regressor matrix is rank deficient (condition number {cond:.3e})"
        )
    return rmat


def fit_ols(ts: TimeSeriesMatrix, p: int) -> VarModel:
    """Least-squares VAR fit of order ``p``.

    Channel means are removed first; the residual covariance is
    ``E.T @ E / (L - p)``. With ``p == 0`` the result is a white model with
    the sample covariance.

    Both come from one blocked QR that never forms the lag matrix, so
    memory does not grow with ``p``; ``E.T @ E`` is ``R_yy.T @ R_yy``,
    free of the cancellation in ``y - x @ beta``.

    Raises
    ------
    EstimationError
        If the lagged regressor matrix is rank deficient (the message
        names its condition number).
    ArgumentError
        If ``p`` is not an integer >= 0, or there are too few rows
        (``L <= p*Q + 1``).
    """
    p = _count(p, "order", 0)
    z = ts.samples - ts.samples.mean(axis=0)
    n, q = z.shape
    if n <= p * q + 1:
        raise ArgumentError(
            f"need more than p*Q + 1 = {p * q + 1} samples to fit order {p}, got {n}"
        )
    if p == 0:
        sigma = z.T @ z / n
        return VarModel(
            coeffs=np.zeros((0, q, q)), sigma=sigma, fs=ts.fs, names=ts.names
        )
    rmat = _lagged_r(z, p, p)
    k = p * q
    beta = np.linalg.solve(rmat[:k, :k], rmat[:k, k:])
    r_yy = rmat[k:, k:]
    sigma = r_yy.T @ r_yy / (n - p)
    coeffs = np.stack([beta[(j - 1) * q : j * q].T for j in range(1, p + 1)])
    return VarModel(coeffs=coeffs, sigma=sigma, fs=ts.fs, names=ts.names)


def select_order_aic(
    ts: TimeSeriesMatrix, p_max: int
) -> tuple[int, list[float]]:
    """Akaike order selection over ``p = 1..p_max``.

    Every candidate is fit by least squares on the common sample
    ``t = p_max..L-1`` (fixed effective length ``L_eff = L - p_max``), and

        AIC(p) = ln det(sigma_hat(p)) + 2 p Q^2 / L_eff.

    Returns the minimizing order and the full criterion curve. One
    triangular factor of the order-``p_max`` regressors and the regressand
    serves all candidates (lag blocks are nested), which equals per-order
    OLS exactly. It comes from a blocked QR that never forms the lag
    matrix, so memory beyond the samples does not grow with ``p_max``.
    """
    p_max = _count(p_max, "p_max", 1)
    z = ts.samples - ts.samples.mean(axis=0)
    n, q = z.shape
    l_eff = n - p_max
    if l_eff <= p_max * q + 1:
        raise ArgumentError(
            f"p_max={p_max} infeasible for {n} samples of dimension {q}"
        )
    k = p_max * q
    rmat = _lagged_r(z, p_max, p_max)
    # R_yy.T R_yy is the residual SSCP at order p_max; order p adds back the
    # rows of Q.T y that belong to lags beyond p. Both terms are PSD, so
    # nothing cancels as it would in y.T y - c_p.T c_p.
    c, r_yy = rmat[:k, k:], rmat[k:, k:]
    resid_p_max = r_yy.T @ r_yy
    curve = []
    for p in range(1, p_max + 1):
        rest = c[p * q :]
        resid_cov = (resid_p_max + rest.T @ rest) / l_eff
        sign, logdet = np.linalg.slogdet(resid_cov)
        if sign <= 0:
            raise EstimationError(f"residual covariance not SPD at order {p}")
        curve.append(float(logdet + 2.0 * p * q * q / l_eff))
    p_star = int(np.argmin(curve)) + 1
    return p_star, curve


# ---------------------------------------------------------------------------
# Analytic covariance structure


def zero_lag_covariance(model: VarModel) -> np.ndarray:
    """Stationary covariance ``Gamma_0`` of a stable model, in the channels'
    units: the leading ``Q x Q`` block of the covariance table's empty-set
    entry (:func:`_covariances`), the companion form's Lyapunov equation
    ``G = A G A.T + S`` solved by Smith doubling at unit innovation variance,
    where the reference PIDs read it. UnstableModelError if the model is not
    stable; EstimationError if the equation has no stable solution."""
    return _companion_covariance(model)[: model.dim, : model.dim].copy()


#: Cap on the doublings of :func:`_dare`. Each doubling squares the
#: contraction, so the error after k of them falls like rho**(2**k), rho the
#: spectral radius of the companion or closed-loop matrix: 50 cover 1 - rho
#: down to about 1e-13 (the stability margin needs about 25).
_MAX_DOUBLINGS = 50


def _unit_scale(model: VarModel) -> np.ndarray:
    """Each companion state entry's factor ``d`` to unit innovation variance:
    ``diag(sigma)**-1/2`` per channel, once per lag (once for a white model)."""
    return np.tile(1.0 / np.sqrt(np.diag(model.sigma)), max(model.order, 1))


def _state_space(model: VarModel) -> tuple[np.ndarray, np.ndarray]:
    """The companion form at unit innovation variance, where every Lyapunov
    and Riccati equation is solved: ``D A D^-1`` and the state noise
    ``[[D sigma D, 0], [0, 0]]``, ``D`` the diagonal of :func:`_unit_scale`;
    a white model is the VAR(1) with ``A = 0``."""
    q = model.dim
    scale = _unit_scale(model)
    comp = model.companion() if model.order else np.zeros((q, q))
    comp = scale[:, None] * comp / scale[None, :]
    noise = np.zeros_like(comp)
    noise[:q, :q] = model.sigma * np.outer(scale[:q], scale[:q])
    return comp, noise


def _companion_covariance(model: VarModel) -> np.ndarray:
    """The companion state's stationary covariance, in the channels' units."""
    scale = _unit_scale(model)
    return _covariances([model], [[()]])[0][()] / np.outer(scale, scale)


def _covariances(models, channel_sets, names=None) -> list[dict]:
    """The covariance table: per model ``models[i]``, one entry per channel
    tuple in ``channel_sets[i]``, keyed by it. The empty tuple observes
    nothing, so its equation is the companion Lyapunov equation and its entry
    the state's stationary covariance; any other tuple's entry is that
    sub-model's innovation covariance (:func:`pird.baselines.submodel_innovation`).
    Each model's stability is checked and its state space built once, and the
    entries are at unit innovation variance. One batched :func:`_dare` per
    state size and set size solves the equations of all models; a failure is
    an EstimationError naming the channel set and ``names[i]``."""
    equations, batches = {}, {}
    for i, model in enumerate(models):
        _require_stable(model, "the analytic covariance structure")
        comp, noise = _state_space(model)
        n = len(comp)
        for chans in channel_sets[i]:
            sel = list(chans)
            equations[i, chans] = (
                (comp, comp[sel], noise, _block(noise, sel), noise[:, sel]) if chans
                else (comp, np.zeros((0, n)), noise, np.zeros((0, 0)), np.zeros((n, 0)))
            )
            batches.setdefault((n, len(chans)), []).append((i, chans))
    tables: list[dict] = [{} for _ in models]
    for (_, size), keys in batches.items():
        labels = [" of ".join([f"channels {c}"] * bool(c) + ([names[i]] if names else []))
                  for i, c in keys]
        try:  # np.array stacks the members' equal shapes, faster than np.stack
            solved = _dare(*(np.array([equations[key][j] for key in keys]) for j in range(5)),
                           labels if all(labels) else None)
        except np.linalg.LinAlgError as exc:
            what = ("Riccati equation has no stabilising solution" if size
                    else "Lyapunov equation has no stable solution")
            raise EstimationError(f"{what}: {exc}") from exc
        for (i, chans), p in zip(keys, solved):
            if chans:  # the innovation covariance C_s P C_s.T + Sigma_ss
                _, c_s, _, sig_ss, _ = equations[i, chans]
                p = c_s @ p @ c_s.T + sig_ss
                p = (p + p.T) / 2.0
            tables[i][chans] = p
    return tables


def _max_abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x).max(axis=(-2, -1))


def _dare(a, c, q, r, s, names: Sequence[str] | None = None) -> np.ndarray:
    """Stabilising solution ``P`` of the Kalman-filter Riccati equation

        P = A P A.T - (A P C.T + S) (R + C P C.T)^-1 (A P C.T + S).T + Q

    by structure-preserving doubling (Lin & Xu, SIAM J. Matrix Anal. Appl.
    28(1), 2006). With the cross term removed (``A~ = A - S R^-1 C``,
    ``Q~ = Q - S R^-1 S.T``, ``G = C.T R^-1 C``) it reads ``P = A~ P (I +
    G P)^-1 A~.T + Q~``, and each doubling squares the closed loop. With no
    observation (``C`` with no rows) it is the Lyapunov equation
    ``P = A P A.T + Q``, and the doubling is Smith's.

    The arguments may share a leading batch axis, as ``P`` then does. Each
    member stops at its own convergence, so its solution does not depend on
    its batch, and is certified on its own: the cap on the doublings, the
    residual and, with an observation, the stability of the closed loop
    ``A~ (I + P G)^-1``. Without one that is ``A``, a companion matrix whose
    stability every caller requires first.

    Raises
    ------
    numpy.linalg.LinAlgError
        For the first member that fails a check, named by ``names``.
    """
    single = a.ndim == 2
    if single:
        a, c, q, r, s = (x[None] for x in (a, c, q, r, s))
    n, observed = a.shape[-1], c.shape[-2] > 0
    a_t, q_t, g_0 = a, q, np.zeros_like(a)
    if observed:
        r_c = np.linalg.solve(r, c)
        a_t, q_t, g_0 = a - s @ r_c, q - s @ np.linalg.solve(r, s.mT), c.mT @ r_c
    eye, solved, live = np.eye(n), np.empty_like(q_t), np.arange(len(a))
    ak, g, h = a_t.mT, g_0, q_t
    for _ in range(_MAX_DOUBLINGS):
        wa = ak  # Smith's doubling: G stays 0
        if observed:
            w = np.linalg.solve(eye + g @ h, np.concatenate([ak, g], axis=-1))
            wa, g = w[..., :n], g + ak @ w[..., n:] @ ak.mT
        step = ak.mT @ h @ wa
        ak = ak @ wa
        # The Riccati iterate is kept symmetric at every step, Smith's once at the end.
        h = h + ((step + step.mT) / 2.0 if observed else step)
        done = _max_abs(step) <= 1e-15 * _max_abs(h)
        if done.any():  # retire the converged members
            solved[live[done]] = h[done]
            live, ak, g, h = live[~done], ak[~done], g[~done], h[~done]
            if not live.size:
                break

    def fail(k: int, why: str):
        raise np.linalg.LinAlgError(why if names is None else f"{why} for {names[k]}")

    if live.size:
        fail(live[0], f"doubling did not converge in {_MAX_DOUBLINGS} steps")
    closed, unstable = a_t, np.zeros(len(a), dtype=bool)
    if observed:
        closed = np.linalg.solve(eye + g_0 @ solved, a_t.mT).mT
        unstable = np.abs(np.linalg.eigvals(closed)).max(axis=-1) >= 1.0
    else:
        solved = (solved + solved.mT) / 2.0
    big = _max_abs(closed @ solved @ a_t.mT + q_t - solved) > 1e-10 * np.maximum(
        _max_abs(solved), _max_abs(q)
    )
    for k in np.flatnonzero(big | unstable)[:1]:
        fail(k, "residual too large" if big[k] else "closed loop is not stable")
    return solved[0] if single else solved


# ---------------------------------------------------------------------------
# Random test models


def random_stable_var(
    dim: int,
    order: int,
    seed: int | np.random.Generator = 0,
    radius: float = 0.8,
) -> VarModel:
    """A reproducible random stable VAR, useful for property checks.

    Coefficients are drawn Gaussian and rescaled so the companion spectral
    radius equals ``radius`` (models with ``order == 0`` are white). The
    innovation covariance is a well-conditioned random SPD matrix with unit
    diagonal.
    """
    if not 0.0 <= radius < 1.0:
        raise ArgumentError("radius must lie in [0, 1)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    w = rng.standard_normal((dim, dim))
    sigma = w @ w.T / dim + 0.5 * np.eye(dim)
    d = 1.0 / np.sqrt(np.diag(sigma))
    sigma = sigma * np.outer(d, d)
    if order == 0:
        return VarModel(coeffs=np.zeros((0, dim, dim)), sigma=sigma)
    coeffs = rng.standard_normal((order, dim, dim)) / np.sqrt(order * dim)
    model = VarModel(coeffs=coeffs, sigma=sigma)
    rho = model.spectral_radius
    if rho > 0.0:
        scale = radius / rho
        coeffs = np.stack(
            [coeffs[k] * scale ** (k + 1) for k in range(order)]
        )
    return VarModel(coeffs=coeffs, sigma=sigma)
