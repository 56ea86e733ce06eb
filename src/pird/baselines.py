"""Reference decompositions: static zero-lag Gaussian PID, transfer-entropy
PID via Granger causality on VAR sub-models, and the additive split of the
mutual information rate into directed transfers plus instantaneous sharing.

Transfer entropies are state-space Granger causalities (Barnett & Seth,
Phys. Rev. E 91, 040101(R), 2015): the innovation covariance of any channel
subset of a VAR follows exactly from one discrete algebraic Riccati equation
on the model's innovations form, solved by structure-preserving doubling
(Lin & Xu, SIAM J. Matrix Anal. Appl. 28(1), 2006). There is no truncation
order and no Monte-Carlo simulation.

Every quantity here reads one covariance table (:func:`pird.var._covariances`)
keyed by channel tuple. The empty set's equation is the companion Lyapunov
equation, the Riccati equation without an observation, and its entry the
stationary covariance of the static PID. The table alone checks stability
and turns a solver failure into an EstimationError.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .decomposition import CoarseTerms
from .errors import ArgumentError, NumericalError
from .var import VarModel, _block, _channel_set, _check_covariance, _covariances, _resolve_sources
from .var import _unit_scale


def _logdets(blocks: list[tuple[str, np.ndarray]], err=NumericalError) -> list[float]:
    """``ln det`` of each ``(what, block)``, by one stacked ``slogdet`` per
    shape (LAPACK's routine on each block, as in a call of its own); the
    first block that is not positive definite raises ``err`` naming it."""
    signs, values, by_shape = np.empty(len(blocks)), np.empty(len(blocks)), {}
    for i, (_, block) in enumerate(blocks):
        by_shape.setdefault(block.shape, []).append(i)
    for idx in by_shape.values():
        signs[idx], values[idx] = np.linalg.slogdet(np.stack([blocks[i][1] for i in idx]))
    for i in np.flatnonzero(signs <= 0)[:1]:
        raise err(f"{blocks[i][0]} is not positive definite")
    return values.tolist()


def gaussian_mi(cov: np.ndarray, target: int, sources: Sequence[int]) -> float:
    """Mutual information (nats) between blocks of a Gaussian covariance.

        I = 1/2 * ln( sigma2_T * det(Sigma_S) / det(Sigma_[TS]) ).

    Raises
    ------
    ArgumentError
        If the covariance is not finite, symmetric and positive definite,
        or the channel indices are invalid.
    """
    cov = _check_covariance(cov, "covariance")
    blocks = _mi_blocks(cov, target, _resolve_sources(len(cov), target, sources))
    return _gaussian_mi(cov[target, target], *_logdets(blocks, ArgumentError))


def _mi_blocks(cov, target, srcs, whats=("source covariance", "joint covariance")) -> list:
    """The source and ``[target, *srcs]`` joint blocks of :func:`gaussian_mi`, named."""
    return list(zip(whats, (_block(cov, srcs), _block(cov, [target, *srcs]))))


def _gaussian_mi(var_t: float, ld_s: float, ld_j: float) -> float:
    return 0.5 * (ld_s + np.log(var_t) - ld_j)


def static_pid(
    model: VarModel, target: int, sources: Sequence[int] | None = None
) -> CoarseTerms:
    """Zero-lag minimum-MI PID from the model's stationary covariance: the
    single-source and joint Gaussian MIs through
    :meth:`~pird.decomposition.CoarseTerms.min_mi`, so ``joint_mir`` holds
    the joint MI.

    The stationary covariance is the covariance table's empty-set entry, at
    unit innovation variance, where the MIs are read, so the PID does not
    change with the channels' units; only
    :func:`~pird.var.zero_lag_covariance` returns it in those units.
    """
    return _static_pids([model], target, sources)[0]


def _static_pids(models, target, sources, names=None) -> list[CoarseTerms]:
    """:func:`static_pid` of each model, the stationary covariance checked
    once and the log-dets stacked; ``names[i]`` names model ``i`` in a failure."""
    srcs = [_resolve_sources(m.dim, target, sources) for m in models]
    if any(len(s) < 2 for s in srcs):
        raise ArgumentError("static PID needs at least two sources")
    tables = _covariances(models, [[()]] * len(models), names)
    variances, blocks = [], []
    for m, s, table in zip(models, srcs, tables):
        gamma = _check_covariance(table[()][: m.dim, : m.dim], "covariance")
        variances.append(gamma[target, target])
        for group in (*((k,) for k in s), s):  # the marginals, then the joint MI
            blocks += _mi_blocks(gamma, target, group)
    lds = iter(_logdets(blocks, ArgumentError))
    mis = [[_gaussian_mi(v, next(lds), next(lds)) for _ in range(len(s) + 1)]
           for v, s in zip(variances, srcs)]
    return [CoarseTerms.min_mi(joint, marginals) for *marginals, joint in mis]


def submodel_innovation(model: VarModel, channels: Sequence[int]) -> np.ndarray:
    """One-step prediction error covariance of a channel subset.

    In innovations form the VAR has state ``x_t = [z_{t-1}; ...; z_{t-p}]``,
    state matrix ``A`` (the companion matrix), observation matrix
    ``C = A[:Q]`` and noise gain ``K = [I_Q; 0]``. The sub-process
    ``z_t[s]`` observes the same state through ``C_s``, so its innovation
    covariance is ``C_s P C_s.T + Sigma_ss``, where ``P`` is the stabilising
    solution of the Kalman-filter Riccati equation with state noise
    ``K Sigma K.T``, observation noise ``Sigma_ss`` and cross term
    ``K Sigma[:, s]``. This is the covariance table's entry for
    ``channels`` (:func:`~pird.var._covariances`): :func:`~pird.var._dare`
    finds ``P`` by structure-preserving doubling and certifies it by its
    residual and closed-loop stability, at unit innovation variance, where
    the transfer entropies read their log-dets (so they do not change with
    the channels' units); only the returned covariance is scaled back to
    those units.

    Raises
    ------
    UnstableModelError
        If the model is not stable.
    EstimationError
        If the Riccati equation has no stabilising solution (numerical
        conditioning).
    """
    chans = _channel_set(model.dim, channels, "channel")
    scale = _unit_scale(model)[list(chans)]
    return _covariances([model], [[chans]])[0][chans] / np.outer(scale, scale)


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
    transfer = _transfer(model.dim, sources, target, conditioning)
    table = _covariances([model], [transfer[1:]])[0]
    return _transfer_entropy(*_logdets(_transfer_blocks(table, *transfer)))


def _transfer(dim: int, sources, target, conditioning) -> tuple[tuple[int, ...], ...]:
    """The checked target channels of a transfer in a ``dim``-channel
    model, and the sorted channel sets of its reduced and full sub-models."""
    targets = (target,) if isinstance(target, (int, np.integer)) else target
    targets = _channel_set(dim, targets, "target channel")
    srcs = _channel_set(dim, sources, "source channel")
    # No conditioning is the common case; any other set follows the channel rule.
    cond = _channel_set(dim, conditioning, "conditioning channel") if np.size(conditioning) else ()
    overlap = set(srcs) & set(targets)
    if overlap:
        raise ArgumentError(f"channels {sorted(overlap)} are both target and source")
    if set(cond) & (set(srcs) | set(targets)):
        raise ArgumentError("conditioning set overlaps target or sources")
    reduced_set = tuple(sorted(set(targets) | set(cond)))
    return targets, reduced_set, tuple(sorted(set(reduced_set) | set(srcs)))


def _transfer_blocks(table: dict, targets, reduced_set, full_set) -> list:
    """The target's named full- and reduced-model innovation blocks of a
    :func:`_transfer`, from the sub-model table."""
    return [(f"{kind}-model innovation block", _block(table[s], [s.index(t) for t in targets]))
            for kind, s in (("full", full_set), ("reduced", reduced_set))]


def _transfer_entropy(ld_full: float, ld_red: float) -> float:
    return 0.5 * (ld_red - ld_full)


def instantaneous_info(
    model: VarModel, sources: Sequence[int], target: int
) -> float:
    """Zero-lag information shared between target and sources given both
    pasts: the Gaussian MI between the blocks of the innovation covariance
    of the sub-process formed by the target and the sources."""
    joint = tuple(sorted((target, *_resolve_sources(model.dim, target, sources))))
    return _instantaneous_info(_covariances([model], [[joint]])[0][joint], joint.index(target))


def _instantaneous_info(sig: np.ndarray, t: int) -> float:
    others = [k for k in range(len(sig)) if k != t]
    whats = ("innovation source block", "innovation joint block")
    return _gaussian_mi(sig[t, t], *_logdets(_mi_blocks(sig, t, others, whats)))


def te_pid(
    model: VarModel,
    target: int,
    sources: Sequence[int] | None = None,
    conditioned: bool = False,
) -> CoarseTerms:
    """Minimum-MI PID (:meth:`~pird.decomposition.CoarseTerms.min_mi`)
    applied to the joint transfer entropy, which ``joint_mir`` holds.

    Marginal transfers are bivariate by default (each source against the
    target's own past only); ``conditioned=True`` conditions each marginal
    on the remaining sources instead.
    """
    return _te_pids([model], target, sources, conditioned)[0]


def _te_pids(models, target, sources, conditioned, names=None) -> list[CoarseTerms]:
    """:func:`te_pid` of each model from one sub-model table, the log-dets
    stacked; ``names[i]`` names model ``i`` in a failure."""
    transfers = []
    for model in models:
        srcs = _resolve_sources(model.dim, target, sources)
        if len(srcs) < 2:
            raise ArgumentError("TE PID needs at least two sources")
        others = [[o for o in srcs if o != s] if conditioned else () for s in srcs]
        transfers.append([_transfer(model.dim, srcs, target, ())] + [
            _transfer(model.dim, (s,), target, cond) for s, cond in zip(srcs, others)
        ])
    # The transfers share sub-models (the target-only one at least), so
    # each distinct channel set is solved once: M + 2 Riccati equations.
    sets = [dict.fromkeys(chans for t in ts for chans in t[1:]) for ts in transfers]
    lds = iter(_logdets([b for tab, ts in zip(_covariances(models, sets, names), transfers)
                         for t in ts for b in _transfer_blocks(tab, *t)]))
    tes = [[_transfer_entropy(next(lds), next(lds)) for _ in ts] for ts in transfers]
    return [CoarseTerms.min_mi(joint, marginals) for joint, *marginals in tes]


def mir_decomposition(
    model: VarModel, target: int, sources: Sequence[int] | None = None
) -> tuple[float, float, float]:
    """The additive split of the mutual information rate: transfer from
    sources to target, transfer from target to sources, and instantaneous
    sharing. Their sum equals the integrated joint spectral MIR. The three
    share their sub-models, so three Riccati equations are solved."""
    srcs = _resolve_sources(model.dim, target, sources)
    to_target = _transfer(model.dim, srcs, target, ())
    to_sources = _transfer(model.dim, (target,), srcs, ())
    table = _covariances([model], [dict.fromkeys(to_target[1:] + to_sources[1:])])[0]
    joint = to_target[2]
    return (
        _transfer_entropy(*_logdets(_transfer_blocks(table, *to_target))),
        _transfer_entropy(*_logdets(_transfer_blocks(table, *to_sources))),
        _instantaneous_info(table[joint], joint.index(target)),
    )
