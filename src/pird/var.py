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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    EstimationError,
    FormatError,
    NumericalError,
    UnstableModelError,
)

#: Default stability margin: models whose companion spectral radius exceeds
#: ``1 - STABILITY_EPS`` are treated as unstable (borderline unit roots break
#: both the Lyapunov solve and the spectral integrals).
STABILITY_EPS = 1e-6

_SYMMETRY_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _resolve_sources(dim: int, target: int, sources: Sequence[int] | None) -> tuple[int, ...]:
    """The sorted, distinct sources of a (target, sources) pair, all other
    channels for ``None``; ArgumentError on any invalid channel choice."""
    if not 0 <= target < dim:
        raise ArgumentError(f"target channel {target} out of range 0..{dim - 1}")
    if sources is None:
        return tuple(c for c in range(dim) if c != target)
    srcs = tuple(sorted(set(int(s) for s in sources)))
    if not srcs:
        raise ArgumentError("need at least one source channel")
    if any(not 0 <= s < dim for s in srcs):
        raise ArgumentError(f"source channels {srcs} out of range 0..{dim - 1}")
    if target in srcs:
        raise ArgumentError(f"target channel {target} cannot be one of the sources")
    return srcs


@dataclass(frozen=True)
class VarModel:
    """Parameters of a VAR(p) process.

    Parameters
    ----------
    coeffs : ndarray, shape (p, Q, Q)
        Lag coefficient matrices; ``coeffs[k-1][i, j]`` weighs the effect
        of channel ``j`` at lag ``k`` on channel ``i``. May be empty
        (``p == 0``) for a white process.
    sigma : ndarray, shape (Q, Q)
        Innovation covariance; must be symmetric positive definite.
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
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        q = sigma.shape[0]
        if sigma.shape != (q, q):
            raise ArgumentError(f"sigma must be square, got shape {sigma.shape}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.size == 0:
            coeffs = np.zeros((0, q, q))
        if coeffs.ndim != 3 or coeffs.shape[1:] != (q, q):
            raise ArgumentError(
                f"coeffs must have shape (p, {q}, {q}), got {coeffs.shape}"
            )
        if np.max(np.abs(sigma - sigma.T)) > _SYMMETRY_TOL * max(
            1.0, np.max(np.abs(sigma))
        ):
            raise ArgumentError("sigma must be symmetric")
        sigma = (sigma + sigma.T) / 2.0
        eigmin = np.linalg.eigvalsh(sigma)[0]
        if eigmin <= 0.0:
            raise ArgumentError(
                f"sigma must be positive definite (smallest eigenvalue {eigmin:.3e})"
            )
        if self.fs <= 0.0:
            raise ArgumentError("fs must be positive")
        names = tuple(self.names) or ("Y",) + tuple(f"X{i}" for i in range(1, q))
        if len(names) != q:
            raise ArgumentError(f"expected {q} channel names, got {len(names)}")
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

    def spectral_radius(self) -> float:
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
        try:
            doc = json.loads(text)
            coeffs = np.array(doc["coeffs"], dtype=float)
            if coeffs.size == 0:
                coeffs = np.zeros((0, doc["dim"], doc["dim"]))
            return cls(
                coeffs=coeffs,
                sigma=np.array(doc["sigma"], dtype=float),
                fs=float(doc["fs"]),
                names=tuple(doc["names"]),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise FormatError(f"invalid model JSON: {exc}") from exc


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """A multichannel time series: ``samples[t, ch]`` plus labels and rate."""

    samples: np.ndarray
    fs: float = 1.0
    names: tuple[str, ...] = ()

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.shape[0] < 1:
            raise ArgumentError("need at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ArgumentError("samples must be finite")
        names = tuple(self.names) or tuple(
            f"ch{i}" for i in range(samples.shape[1])
        )
        if len(names) != samples.shape[1]:
            raise ArgumentError(
                f"expected {samples.shape[1]} channel names, got {len(names)}"
            )
        object.__setattr__(self, "samples", _readonly(samples))
        object.__setattr__(self, "names", names)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return self.samples.shape[1]

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
            with open(path, "r", newline="", encoding="utf-8") as fh:
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


def is_stable(model: VarModel, eps: float = STABILITY_EPS) -> bool:
    """True iff the companion spectral radius is below ``1 - eps``."""
    if model.order == 0:
        return True
    return model.spectral_radius() < 1.0 - eps


def _require_stable(model: VarModel, context: str) -> None:
    if not is_stable(model):
        raise UnstableModelError(
            f"{context} requires a stable model "
            f"(companion spectral radius {model.spectral_radius():.6f})"
        )


def simulate_ensemble(
    model: VarModel, n: int, burn_in: int = 1000, seed: int = 0, n_series: int = 1
) -> np.ndarray:
    """Draw ``n_series`` independent realizations, shape ``(n_series, n, Q)``.

    Innovations are Gaussian with covariance ``model.sigma``, generated via
    its symmetric eigenvalue square root; the recursion is iterated for
    ``burn_in + n`` steps from zero initial conditions and the first
    ``burn_in`` samples are discarded. Deterministic given ``seed``.
    """
    if n < 1:
        raise ArgumentError("n must be >= 1")
    if burn_in < 0:
        raise ArgumentError("burn_in must be >= 0")
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


def _lag_matrix(z: np.ndarray, p: int, t0: int) -> tuple[np.ndarray, np.ndarray]:
    """Regressand ``z[t0:]`` and regressors ``[z[t-1], ..., z[t-p]]`` stacked
    column-blockwise, rows ``t = t0 .. L-1``."""
    n, q = z.shape
    y = z[t0:]
    x = np.empty((n - t0, p * q))
    for k in range(1, p + 1):
        x[:, (k - 1) * q : k * q] = z[t0 - k : n - k]
    return y, x


def fit_ols(ts: TimeSeriesMatrix, p: int) -> VarModel:
    """Least-squares VAR fit of order ``p``.

    Channel means are removed first; the residual covariance is
    ``E.T @ E / (L - p)``. With ``p == 0`` the result is a white model with
    the sample covariance.

    Raises
    ------
    EstimationError
        If the lagged regressor matrix is rank deficient (the message
        names its condition number).
    ArgumentError
        If there are too few rows (``L <= p*Q + 1``).
    """
    if p < 0:
        raise ArgumentError("order must be >= 0")
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
    y, x = _lag_matrix(z, p, p)
    beta, _, rank, sv = np.linalg.lstsq(x, y, rcond=None)
    cond = np.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
    if rank < x.shape[1] or cond > _COND_LIMIT:
        raise EstimationError(
            f"regressor matrix is rank deficient (condition number {cond:.3e})"
        )
    resid = y - x @ beta
    sigma = resid.T @ resid / (n - p)
    coeffs = np.stack([beta[(k - 1) * q : k * q].T for k in range(1, p + 1)])
    return VarModel(coeffs=coeffs, sigma=sigma, fs=ts.fs, names=ts.names)


def select_order_aic(
    ts: TimeSeriesMatrix, p_max: int
) -> tuple[int, list[float]]:
    """Akaike order selection over ``p = 1..p_max``.

    Every candidate is fit by least squares on the common sample
    ``t = p_max..L-1`` (fixed effective length ``L_eff = L - p_max``), and

        AIC(p) = ln det(sigma_hat(p)) + 2 p Q^2 / L_eff.

    Returns the minimizing order and the full criterion curve. A single QR
    factorization of the order-``p_max`` regressor block is reused for all
    candidates (lag blocks are nested), which equals per-order OLS exactly.
    """
    if p_max < 1:
        raise ArgumentError("p_max must be >= 1")
    z = ts.samples - ts.samples.mean(axis=0)
    n, q = z.shape
    l_eff = n - p_max
    if l_eff <= p_max * q + 1:
        raise ArgumentError(
            f"p_max={p_max} infeasible for {n} samples of dimension {q}"
        )
    y, x = _lag_matrix(z, p_max, p_max)
    # The triangular factor of [x | y] holds R of x and Q.T @ y of its thin
    # QR, so the tall Q is never formed.
    k = x.shape[1]
    rmat = np.linalg.qr(np.hstack([x, y]), mode="r")
    cond = np.linalg.cond(rmat[:k, :k])
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise EstimationError(
            f"regressor matrix is rank deficient (condition number {cond:.3e})"
        )
    c = rmat[:k, k:]
    yty = y.T @ y
    curve = []
    for p in range(1, p_max + 1):
        cp = c[: p * q]
        resid_cov = (yty - cp.T @ cp) / l_eff
        sign, logdet = np.linalg.slogdet(resid_cov)
        if sign <= 0:
            raise EstimationError(f"residual covariance not SPD at order {p}")
        curve.append(float(logdet + 2.0 * p * q * q / l_eff))
    p_star = int(np.argmin(curve)) + 1
    return p_star, curve


# ---------------------------------------------------------------------------
# Analytic covariance structure


def zero_lag_covariance(model: VarModel) -> np.ndarray:
    """Stationary covariance ``Gamma_0`` of a stable model.

    Solves the discrete Lyapunov equation of the companion form,
    ``G = A G A.T + S``, by Smith doubling and returns the top-left
    ``Q x Q`` block.
    """
    _require_stable(model, "zero_lag_covariance")
    if model.order == 0:
        return model.sigma.copy()
    return _companion_covariance(model)[: model.dim, : model.dim].copy()


#: Cap on the doublings of the Lyapunov solve here and of the Riccati solve
#: in :mod:`pird.baselines`. Each doubling squares the contraction, so the
#: error after k of them falls like rho**(2**k), rho the spectral radius of
#: the companion or closed-loop matrix: 50 cover 1 - rho down to about
#: 1e-13 (the stability margin needs about 25).
_MAX_DOUBLINGS = 50


def _companion_covariance(model: VarModel) -> np.ndarray:
    p, q = model.order, model.dim
    comp = model.companion()
    gamma_bar = np.zeros((p * q, p * q))
    gamma_bar[:q, :q] = model.sigma
    for _ in range(_MAX_DOUBLINGS):
        step = comp @ gamma_bar @ comp.T
        gamma_bar = gamma_bar + step
        if np.abs(step).max() <= 1e-16 * np.abs(gamma_bar).max():
            return (gamma_bar + gamma_bar.T) / 2.0
        comp = comp @ comp
    raise NumericalError(
        f"Lyapunov doubling did not converge in {_MAX_DOUBLINGS} steps"
    )


def autocovariance_sequence(model: VarModel, k_max: int) -> list[np.ndarray]:
    """Autocovariances ``Gamma_0 .. Gamma_{k_max}``, ``Gamma_k = E[z_t z_{t-k}.T]``.

    ``Gamma_0 .. Gamma_{p-1}`` are read off the companion-form Lyapunov
    solution; later lags follow the recursion
    ``Gamma_k = sum_j A_j Gamma_{k-j}``.
    """
    if k_max < 0:
        raise ArgumentError("k_max must be >= 0")
    _require_stable(model, "autocovariance_sequence")
    p, q = model.order, model.dim
    if p == 0:
        return [model.sigma.copy()] + [np.zeros((q, q)) for _ in range(k_max)]
    gamma_bar = _companion_covariance(model)
    gammas = [gamma_bar[:q, j * q : (j + 1) * q].copy() for j in range(min(p, k_max + 1))]
    for k in range(len(gammas), k_max + 1):
        acc = np.zeros((q, q))
        for j in range(1, p + 1):
            acc += model.coeffs[j - 1] @ gammas[k - j]
        gammas.append(acc)
    return gammas


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
    rho = model.spectral_radius()
    if rho > 0.0:
        scale = radius / rho
        coeffs = np.stack(
            [coeffs[k] * scale ** (k + 1) for k in range(order)]
        )
    return VarModel(coeffs=coeffs, sigma=sigma)
