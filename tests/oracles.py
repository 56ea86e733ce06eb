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
