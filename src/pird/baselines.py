"""Reference decompositions: static zero-lag Gaussian PID, transfer-entropy
PID via Granger causality on VAR sub-models, and the additive split of the
mutual information rate into directed transfers plus instantaneous sharing.

Transfer entropies are state-space Granger causalities (Barnett & Seth,
Phys. Rev. E 91, 040101(R), 2015): the innovation covariance of any channel
subset of a VAR follows exactly from one discrete algebraic Riccati equation
on the model's innovations form, solved by structure-preserving doubling
(Lin & Xu, SIAM J. Matrix Anal. Appl. 28(1), 2006). The stationary
covariance of the static PID comes from Smith doubling of the companion
Lyapunov equation. There is no truncation order and no Monte-Carlo
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, EstimationError, NumericalError
from .var import _MAX_DOUBLINGS, VarModel, _require_stable, _resolve_sources


@dataclass(frozen=True)
class StaticPidResult:
    """Minimum-MI PID of the zero-lag Gaussian mutual information."""

    mi_joint: float
    mi_marginals: tuple[float, ...]
    unique: tuple[float, ...]
    redundancy: float
    synergy: float

    @property
    def delta(self) -> float:
        return self.redundancy - self.synergy


@dataclass(frozen=True)
class TePidResult:
    """Minimum-MI PID of the joint transfer entropy from sources to target."""

    te_joint: float
    te_marginals: tuple[float, ...]
    unique: tuple[float, ...]
    redundancy: float
    synergy: float

    @property
    def delta(self) -> float:
        return self.redundancy - self.synergy


def _logdet_spd(mat: np.ndarray, what: str, err=NumericalError) -> float:
    sign, logdet = np.linalg.slogdet(mat)
    if sign <= 0:
        raise err(f"{what} is not positive definite")
    return float(logdet)


def gaussian_mi(cov: np.ndarray, target: int, sources: Sequence[int]) -> float:
    """Mutual information (nats) between blocks of a Gaussian covariance.

        I = 1/2 * ln( sigma2_T * det(Sigma_S) / det(Sigma_[TS]) ).

    Raises
    ------
    ArgumentError
        If the covariance is not symmetric positive definite, or the
        channel indices are invalid.
    """
    cov = np.asarray(cov, dtype=float)
    q = cov.shape[0]
    if cov.shape != (q, q) or np.max(np.abs(cov - cov.T)) > 1e-8 * max(
        1.0, np.max(np.abs(cov))
    ):
        raise ArgumentError("covariance must be a symmetric square matrix")
    if np.linalg.eigvalsh(cov)[0] <= 0.0:
        raise ArgumentError("covariance must be positive definite")
    srcs = list(_resolve_sources(q, target, sources))
    joint = [target, *srcs]
    ld_s = _logdet_spd(cov[np.ix_(srcs, srcs)], "source covariance", ArgumentError)
    ld_j = _logdet_spd(cov[np.ix_(joint, joint)], "joint covariance", ArgumentError)
    return 0.5 * (ld_s + np.log(cov[target, target]) - ld_j)


def static_pid(
    model: VarModel, target: int, sources: Sequence[int] | None = None
) -> StaticPidResult:
    """Zero-lag minimum-MI PID from the model's stationary covariance.

    The stationary covariance comes from Smith doubling of the
    companion-form Lyapunov equation; redundancy is the minimum
    single-source MI, and the unique and synergistic terms follow from the
    additive identities.
    """
    from .var import zero_lag_covariance

    srcs = _resolve_sources(model.dim, target, sources)
    if len(srcs) < 2:
        raise ArgumentError("static PID needs at least two sources")
    gamma0 = zero_lag_covariance(model)
    marginals = tuple(gaussian_mi(gamma0, target, (s,)) for s in srcs)
    joint = gaussian_mi(gamma0, target, srcs)
    r = min(marginals)
    unique = tuple(mi - r for mi in marginals)
    s = joint - r - sum(unique)
    return StaticPidResult(
        mi_joint=joint,
        mi_marginals=marginals,
        unique=unique,
        redundancy=r,
        synergy=s,
    )


def submodel_innovation(model: VarModel, channels: Sequence[int]) -> np.ndarray:
    """One-step prediction error covariance of a channel subset.

    In innovations form the VAR has state ``x_t = [z_{t-1}; ...; z_{t-p}]``,
    state matrix ``A`` (the companion matrix), observation matrix
    ``C = A[:Q]`` and noise gain ``K = [I_Q; 0]``. The sub-process
    ``z_t[s]`` observes the same state through ``C_s``, so its innovation
    covariance is ``C_s P C_s.T + Sigma_ss``, where ``P`` is the stabilising
    solution of the Kalman-filter Riccati equation with state noise
    ``K Sigma K.T``, observation noise ``Sigma_ss`` and cross term
    ``K Sigma[:, s]``. :func:`_dare` finds it by structure-preserving
    doubling and certifies it by its residual and closed-loop stability.

    Raises
    ------
    UnstableModelError
        If the model is not stable.
    EstimationError
        If the Riccati equation has no stabilising solution (numerical
        conditioning).
    """
    chans = list(dict.fromkeys(int(c) for c in channels))
    if not chans:
        raise ArgumentError("need at least one channel")
    if any(not 0 <= c < model.dim for c in chans):
        raise ArgumentError(f"channels {chans} out of range 0..{model.dim - 1}")
    _require_stable(model, "submodel_innovation")
    if model.order == 0:
        return model.sigma[np.ix_(chans, chans)].copy()
    # The equation is solved for the channels rescaled to unit innovation
    # variance and the result scaled back, which is exact. Unscaled, channels
    # whose units differ by a few decades make the solver fail.
    scale = 1.0 / np.sqrt(np.diag(model.sigma))
    state_scale = np.tile(scale, model.order)
    comp = state_scale[:, None] * model.companion() / state_scale[None, :]
    c_s = comp[chans]
    noise = np.zeros_like(comp)
    noise[: model.dim, : model.dim] = model.sigma * np.outer(scale, scale)
    sig_ss = noise[np.ix_(chans, chans)]
    try:
        p = _dare(comp, c_s, noise, sig_ss, noise[:, chans])
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            f"Riccati equation for channels {tuple(chans)} has no stabilising "
            f"solution ({exc})"
        ) from exc
    resid = (c_s @ p @ c_s.T + sig_ss) / np.outer(scale[chans], scale[chans])
    return (resid + resid.T) / 2.0


def _dare(
    a: np.ndarray, c: np.ndarray, q: np.ndarray, r: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Stabilising solution ``P`` of the Kalman-filter Riccati equation

        P = A P A.T - (A P C.T + S) (R + C P C.T)^-1 (A P C.T + S).T + Q

    by the structure-preserving doubling algorithm. With the cross term
    removed (``A~ = A - S R^-1 C``, ``Q~ = Q - S R^-1 S.T``,
    ``G = C.T R^-1 C``) the equation reads ``P = A~ P (I + G P)^-1 A~.T +
    Q~``. Each doubling squares the closed-loop matrix, so the iterate
    converges to ``P`` quadratically.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the doubling does not settle within the cap, or the result fails
        the Riccati residual or closed-loop stability check.
    """
    n = a.shape[0]
    eye = np.eye(n)
    r_c = np.linalg.solve(r, c)
    a_t = a - s @ r_c
    q_t = q - s @ np.linalg.solve(r, s.T)
    g_0 = c.T @ r_c
    ak, g, h = a_t.T, g_0, q_t
    for _ in range(_MAX_DOUBLINGS):
        w = np.linalg.solve(eye + g @ h, np.hstack([ak, g]))
        step = ak.T @ h @ w[:, :n]
        g = g + ak @ w[:, n:] @ ak.T
        ak = ak @ w[:, :n]
        h = h + (step + step.T) / 2.0
        if np.abs(step).max() <= 1e-15 * np.abs(h).max():
            break
    else:
        raise np.linalg.LinAlgError(f"doubling did not converge in {_MAX_DOUBLINGS} steps")
    closed = np.linalg.solve(eye + g_0 @ h, a_t.T).T  # A~ (I + P G)^-1
    resid = closed @ h @ a_t.T + q_t - h
    if np.abs(resid).max() > 1e-10 * max(np.abs(h).max(), np.abs(q).max()):
        raise np.linalg.LinAlgError("Riccati residual too large")
    if np.abs(np.linalg.eigvals(closed)).max() >= 1.0:
        raise np.linalg.LinAlgError("closed loop is not stable")
    return h


def transfer_entropy(
    model: VarModel,
    sources: Sequence[int],
    target: int | Sequence[int],
    conditioning: Sequence[int] = (),
) -> float:
    """Transfer entropy (nats) from ``sources`` to ``target``.

    Computed as half the Granger-causality log variance ratio,

        TE = 1/2 * ln( det Sigma_reduced[T] / det Sigma_full[T] ),

    where the full sub-model retains ``target + conditioning + sources``
    and the reduced sub-model drops the sources; both innovation
    covariances come from :func:`submodel_innovation`. ``target`` may be a
    channel group, in which case determinants of its innovation block are
    used.
    """
    return _transfer_entropy(
        lambda chans: submodel_innovation(model, chans), sources, target, conditioning
    )


def _transfer_entropy(
    innovation: Callable[[tuple[int, ...]], np.ndarray],
    sources: Sequence[int],
    target: int | Sequence[int],
    conditioning: Sequence[int],
) -> float:
    """:func:`transfer_entropy` with the sub-model innovation covariances
    taken from ``innovation(channels)`` (sorted channel tuples)."""
    targets = (target,) if isinstance(target, (int, np.integer)) else tuple(target)
    if not targets:
        raise ArgumentError("need at least one target channel")
    srcs = tuple(dict.fromkeys(int(s) for s in sources))
    cond = tuple(dict.fromkeys(int(c) for c in conditioning))
    if not srcs:
        raise ArgumentError("need at least one source channel")
    overlap = set(srcs) & set(targets)
    if overlap:
        raise ArgumentError(f"channels {sorted(overlap)} are both target and source")
    if set(cond) & (set(srcs) | set(targets)):
        raise ArgumentError("conditioning set overlaps target or sources")
    reduced_set = tuple(sorted(set(targets) | set(cond)))
    full_set = tuple(sorted(set(reduced_set) | set(srcs)))
    sig_full = innovation(full_set)
    sig_red = innovation(reduced_set)
    t_full = [full_set.index(t) for t in targets]
    t_red = [reduced_set.index(t) for t in targets]
    ld_full = _logdet_spd(
        sig_full[np.ix_(t_full, t_full)], "full-model innovation block"
    )
    ld_red = _logdet_spd(
        sig_red[np.ix_(t_red, t_red)], "reduced-model innovation block"
    )
    return 0.5 * (ld_red - ld_full)


def instantaneous_info(
    model: VarModel, sources: Sequence[int], target: int
) -> float:
    """Zero-lag information shared between target and sources given both
    pasts: the Gaussian MI between the blocks of the innovation covariance
    of the sub-process formed by the target and the sources."""
    srcs = _resolve_sources(model.dim, target, sources)
    sig = submodel_innovation(model, [target, *srcs])
    ld_s = _logdet_spd(sig[1:, 1:], "innovation source block")
    ld_j = _logdet_spd(sig, "innovation joint block")
    return 0.5 * (ld_s + np.log(sig[0, 0]) - ld_j)


def te_pid(
    model: VarModel,
    target: int,
    sources: Sequence[int] | None = None,
    conditioned: bool = False,
) -> TePidResult:
    """Minimum-MI PID applied to the joint transfer entropy.

    Marginal transfers are bivariate by default (each source against the
    target's own past only); ``conditioned=True`` conditions each marginal
    on the remaining sources instead.
    """
    srcs = _resolve_sources(model.dim, target, sources)
    if len(srcs) < 2:
        raise ArgumentError("TE PID needs at least two sources")
    # The transfers share sub-models (the target-only one at least), so
    # each distinct channel set is solved once: M + 2 Riccati equations.
    solved: dict[tuple[int, ...], np.ndarray] = {}

    def innovation(chans: tuple[int, ...]) -> np.ndarray:
        if chans not in solved:
            solved[chans] = submodel_innovation(model, chans)
        return solved[chans]

    te_joint = _transfer_entropy(innovation, srcs, target, ())
    marginals = []
    for s in srcs:
        cond = tuple(o for o in srcs if o != s) if conditioned else ()
        marginals.append(_transfer_entropy(innovation, (s,), target, cond))
    marginals = tuple(marginals)
    r = min(marginals)
    unique = tuple(te - r for te in marginals)
    s_term = te_joint - r - sum(unique)
    return TePidResult(
        te_joint=te_joint,
        te_marginals=marginals,
        unique=unique,
        redundancy=r,
        synergy=s_term,
    )


def mir_decomposition(
    model: VarModel, target: int, sources: Sequence[int] | None = None
) -> tuple[float, float, float]:
    """The additive split of the mutual information rate: transfer from
    sources to target, transfer from target to sources, and instantaneous
    sharing. Their sum equals the integrated joint spectral MIR."""
    srcs = _resolve_sources(model.dim, target, sources)
    te_to_target = transfer_entropy(model, srcs, target)
    te_to_sources = transfer_entropy(model, (target,), srcs)
    inst = instantaneous_info(model, srcs, target)
    return te_to_target, te_to_sources, inst


def baseline_rows(
    result: StaticPidResult | TePidResult,
    source_names: Sequence[str],
    prefix: str,
    scale: float = 1.0,
) -> list[tuple[str, str, str]]:
    """Coarse-table rows ``(term, band, value)`` for a baseline result,
    using the shared schema with a ``prefix:`` on every term (full axis
    only, since the baselines are time-domain quantities)."""
    joint = result.mi_joint if isinstance(result, StaticPidResult) else result.te_joint
    rows = []
    for name, value in zip(source_names, result.unique):
        rows.append((f"{prefix}:U_{name}", "FULL", f"{value / scale:.12g}"))
    rows.append((f"{prefix}:R", "FULL", f"{result.redundancy / scale:.12g}"))
    rows.append((f"{prefix}:S", "FULL", f"{result.synergy / scale:.12g}"))
    rows.append((f"{prefix}:Delta", "FULL", f"{result.delta / scale:.12g}"))
    rows.append((f"{prefix}:JointMIR", "FULL", f"{joint / scale:.12g}"))
    return rows
