"""Reference computations the tests check the library against.

Each is a direct transcription of its definition, kept apart from the
package because no code path of the package needs it.
"""

import numpy as np

from pird.var import _companion_covariance, _require_stable


def autocovariance_sequence(model, k_max):
    """Autocovariances ``Gamma_0 .. Gamma_{k_max}``, ``Gamma_k = E[z_t z_{t-k}.T]``.

    ``Gamma_0 .. Gamma_{p-1}`` are read off the companion-form Lyapunov
    solution; later lags follow the recursion
    ``Gamma_k = sum_j A_j Gamma_{k-j}``.
    """
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


def down_sets(lattice):
    """Per atom, the indices of its strict predecessors, ascending: the
    rows of ``lattice.weakly_below`` without the atom itself."""
    return tuple(
        tuple(b for b in np.flatnonzero(row).tolist() if b != a)
        for a, row in enumerate(lattice.weakly_below)
    )


def coarse_group(atom):
    """Label of an atom in the unique/redundant/synergistic coarse
    graining: ``"redundant"`` for atoms holding at least two singleton
    elements, ``"unique:j"`` for atoms whose only singleton element is
    ``{j}``, ``"synergistic"`` for atoms with no singleton element."""
    singles = [el for el in atom.elements if len(el) == 1]
    if len(singles) >= 2:
        return "redundant"
    if singles:
        return f"unique:{singles[0][0]}"
    return "synergistic"


def block_transfer_function(model, grid, right=None):
    """:func:`pird.transfer_function` as one Gaussian elimination with
    partial pivoting over ``(Q, ., n_points)`` blocks: the pivot rows of
    each column from ``np.argmax``, exchanged by fancy indexing, and every
    step's multipliers and updates as one broadcast block."""
    p, q, n = model.order, model.dim, grid.n_points
    right = np.eye(q) if right is None else np.asarray(right)
    kcols = right.shape[1]
    a = np.tensordot(-model.coeffs, grid.lag_phases(p), axes=(0, 0))
    a[np.arange(q), np.arange(q)] += 1.0
    b = np.empty((q, kcols, n), dtype=complex)
    b[...] = right[:, :, None]
    inv = np.empty((q, n), dtype=complex)
    with np.errstate(all="ignore"):
        for k in range(q - 1):
            col = a[k:, k]
            piv = k + np.argmax(col.real * col.real + col.imag * col.imag, axis=0)
            swap = np.flatnonzero(piv != k)
            if swap.size:
                piv = piv[swap]
                for buf in (a[:, k:], b):
                    row = buf[piv, :, swap]
                    buf[piv, :, swap] = buf[k][:, swap].T
                    buf[k][:, swap] = row.T
            np.divide(1.0, a[k, k], out=inv[k])
            mult = np.multiply(a[k + 1:, k], inv[k], out=a[k + 1:, k])[:, None]
            a[k + 1:, k + 1:] -= mult * a[k, k + 1:]
            b[k + 1:] -= mult * b[k]
        np.divide(1.0, a[-1, -1], out=inv[-1])
        for k in reversed(range(q)):
            for j in range(k + 1, q):
                b[k] -= a[k, j] * b[j]
            b[k] *= inv[k]
    return b.transpose(2, 0, 1)


def accumulated_chain(table, lattice):
    """The element chain ``(at, delta)`` of an MIR table, as
    ``pird.decomposition._chain_pi`` returns it: the up-set masks ORed by
    ``np.bitwise_or.accumulate`` over the reversed ranks, and the PIs by
    ``np.diff`` of the sorted envelope."""
    env = table + 0.0
    for idx, subs in lattice.smaller:
        env[idx] = np.maximum(env[idx], env[subs].max(axis=1))
    order = np.argsort(env, axis=0, kind="stable")
    delta = np.diff(np.take_along_axis(env, order, axis=0), axis=0, prepend=0.0)
    bits = (1 << np.arange(len(lattice.elements)))[order]
    return lattice.atom_of_upset[np.bitwise_or.accumulate(bits[::-1], axis=0)[::-1]], delta
