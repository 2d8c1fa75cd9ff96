"""Comparison measures and closed-form reference values.

Entanglement monotones (concurrence, entanglement of formation,
negativity), Schmidt analysis of bipartite pure states, and the known
closed forms for quantum discord and for the consonance of specific state
families.  All logarithms are base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import (TOL_UNIT, DensityMatrix, PureState, assert_normalized, assert_valid,
                     check_normalized, check_residual, check_unit_interval, partial_transpose)


def _xlog2(x: float) -> float:
    """x * log2(x) continued by 0 at x = 0; every caller clamps x >= 0."""
    return 0.0 if x == 0.0 else x * math.log2(x)


def binary_entropy(p: float) -> float:
    p = check_unit_interval(p, "probability")
    return (-_xlog2(p) - _xlog2(1.0 - p)) + 0.0   # + 0.0 folds -0.0 into 0.0


# --- Schmidt analysis ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """psi = sum_k c_k |left_k> (x) |right_k> with c_k descending.

    ``left_basis`` and ``right_basis`` hold the vectors as columns; there
    are min(d1, d2) of each and the coefficients satisfy sum c_k^2 = 1.
    """

    coefficients: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def reconstruct(self) -> np.ndarray:
        out = np.zeros(self.left_basis.shape[0] * self.right_basis.shape[0],
                       dtype=np.complex128)
        for k, c in enumerate(self.coefficients):
            out += c * np.kron(self.left_basis[:, k], self.right_basis[:, k])
        return out


def schmidt_decompose(psi: PureState) -> SchmidtDecomposition:
    if psi.n_parties != 2:
        raise ValueError(f"Schmidt decomposition needs exactly two parties, "
                         f"got dims {psi.dims}")
    assert_normalized(psi)
    d1, d2 = psi.dims
    m = psi.amps.reshape(d1, d2)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    # psi = sum_k s_k u[:, k] (x) vh[k, :] with no conjugation on the right
    coeffs = s.copy()
    coeffs.setflags(write=False)
    return SchmidtDecomposition(coeffs, u, vh.T.copy())


def schmidt_coefficients(psi: PureState) -> np.ndarray:
    return schmidt_decompose(psi).coefficients


def consonance_pure_bipartite(psi: PureState) -> float:
    """Exact consonance of a bipartite pure state from its Schmidt form.

    With Schmidt coefficients P_k (the singular values of the coefficient
    matrix), the Schmidt-form density matrix has nonlocal sum
    (sum_k P_k)^2 - sum_k P_k^2 = 2 sum_{k<l} P_k P_l, and that sum is
    the same in every zero-L frame, so no search is needed.  For 2x2 it
    reduces to 2 P_1 P_2 = 2|ad - bc|.
    """
    if psi.n_parties != 2:
        raise ValueError(f"need exactly two parties, got dims {psi.dims}")
    assert_normalized(psi)
    m = psi.amps.reshape(psi.dims)
    # not schmidt_decompose: its full svd's values differ in the last bits
    p = np.linalg.svd(m, compute_uv=False)
    total = math.fsum(p.tolist())
    squares = math.fsum((p * p).tolist())
    return total * total - squares


# --- entanglement monotones ---------------------------------------------

# sigma_y (x) sigma_y; real and symmetric
_SPIN_FLIP = np.array([[0, 0, 0, -1],
                       [0, 0, 1, 0],
                       [0, 1, 0, 0],
                       [-1, 0, 0, 0]], dtype=np.float64)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    if w.size and w[-1] > 0.0:
        # zero eigenvalues of rank-deficient inputs surface as O(eps) noise;
        # sqrt would amplify that to O(sqrt(eps)), so cut well above the noise floor
        w[w < 1e-13 * w[-1]] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def concurrence_2x2(rho: DensityMatrix) -> float:
    """Two-qubit concurrence max{0, l1 - l2 - l3 - l4}.

    The l_k are computed as singular values of sqrt(rho) F sqrt(rho)^*
    with F the spin-flip matrix; that avoids taking square roots of
    near-zero eigenvalues of rho rho~, which would cap the accuracy at
    sqrt(machine eps) for rank-deficient states.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence is defined for dims (2, 2), got {rho.dims}")
    assert_valid(rho)
    root = _psd_sqrt(rho.entries)
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_werner(a: float) -> float:
    """Closed-form Werner concurrence max{0, (3a - 1)/2}."""
    return max(0.0, (3.0 * check_unit_interval(a, "Werner parameter") - 1.0) / 2.0)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) in ebits."""
    c = check_unit_interval(c, "concurrence")
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def eof_2x2(rho: DensityMatrix) -> float:
    return eof_from_concurrence(concurrence_2x2(rho))


def negativity(rho: DensityMatrix) -> float:
    """Trace norm of the partial transpose minus one, clamped at zero.

    Transposes party 0, so with more than two parties it measures the cut
    between party 0 and the rest.  With two parties the other partial
    transpose is the full transpose of this one, rho^{T_B} = (rho^{T_A})^T,
    with the same spectrum, so the choice of party cannot change the value.
    """
    assert_valid(rho)
    pt = partial_transpose(rho, 0)
    pt = (pt + pt.conj().T) / 2.0
    trace_norm = math.fsum(np.abs(np.linalg.eigvalsh(pt)).tolist())
    return max(0.0, trace_norm - 1.0)


# --- closed-form quantum discord ----------------------------------------


def discord_werner(a: float) -> float:
    """Discord of the Werner family at mixing parameter a in [0, 1]."""
    a = check_unit_interval(a, "Werner parameter")
    return 0.25 * (_xlog2(1.0 - a) + _xlog2(1.0 + 3.0 * a)
                   - 2.0 * _xlog2(1.0 + a)) + 0.0


def discord_bell_like(a, b) -> float:
    """Discord of a|01> + b|10> (or the |00>/|11> version): equals the EoF."""
    a, b = complex(a), complex(b)
    check_normalized(a, b)
    # h(|a|^2), the EoF; the norm check lets |a|^2 pass 1 by up to TOL_NORM
    return binary_entropy(min(abs(a) ** 2, 1.0))


def _qutrit_beta(alpha: float, gamma: float) -> float:
    """The third weight of the qubit-qutrit family, after checking all three."""
    beta = (1.0 - 2.0 * alpha - gamma) / 3.0
    for name, w in (("alpha", alpha), ("gamma", gamma), ("beta", beta)):
        check_residual(-w, TOL_UNIT, f"weight {name} must be >= 0")
    return beta


def discord_2x3(alpha: float, gamma: float) -> float:
    """Discord of the two-parameter qubit-qutrit family.

    The third weight is fixed by the trace, beta = (1 - 2 alpha - gamma)/3;
    all three weights must be nonnegative.
    """
    alpha, gamma = float(alpha), float(gamma)
    beta = max(_qutrit_beta(alpha, gamma), 0.0)
    gamma = max(gamma, 0.0)
    # beta log2(2 beta) + gamma log2(2 gamma) - (beta + gamma) log2(beta + gamma)
    return (beta + gamma + _xlog2(beta) + _xlog2(gamma) - _xlog2(beta + gamma))


# --- closed-form consonance ---------------------------------------------


def consonance_werner(a: float) -> float:
    """Consonance of the Werner family: a itself, for a in [0, 1]."""
    return check_unit_interval(a, "Werner parameter")


def consonance_pair(a, b) -> float:
    """2|a||b|, the consonance (and the concurrence) of a|00> + b|11> or
    a|01> + b|10>."""
    check_normalized(a, b)
    return 2.0 * abs(a) * abs(b)


def consonance_pure_2x2(a, b, c, d) -> float:
    """2|ad - bc| for a|11> + b|10> + c|01> + d|00>."""
    check_normalized(a, b, c, d)
    return 2.0 * abs(a * d - b * c)


def consonance_2x3(alpha: float, gamma: float) -> float:
    """|beta - gamma| for the two-parameter qubit-qutrit family."""
    alpha, gamma = float(alpha), float(gamma)
    return abs(_qutrit_beta(alpha, gamma) - gamma)
