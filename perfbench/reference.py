"""Independent answers that every benchmark operation is checked against.

Plain numpy, written from the physics rather than from lossyqpt's code,
and calling nothing in the package: a faster path in the program that
changes an answer disagrees with these values.

Conventions (the ones lossyqpt documents): E(rho) = sum_mn chi_mn A_m rho
A_n^dag over the Pauli basis {I, X, Y, Z}; the count in cell (a, b) has
expectation N <psi_b|E(|phi_a><phi_a|)|psi_b>; the device is the single
Kraus operator diag(1, sqrt(gamma)).
"""

from __future__ import annotations

import numpy as np

_S = 1.0 / np.sqrt(2.0)
KETS = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "D": (_S, _S),
    "A": (_S, -_S),
    "R": (_S, 1j * _S),
    "L": (_S, -1j * _S),
}
LABELS = tuple(KETS)  # the order of a count table's rows and columns
PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


def _hermitian_basis() -> np.ndarray:
    """16 Hermitian 4x4 matrices spanning the real space of Hermitian chi."""
    out = []
    for i in range(4):
        for j in range(i, 4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            out.append(e)
            if i != j:
                e = np.zeros((4, 4), dtype=complex)
                e[i, j], e[j, i] = 1j, -1j
                out.append(e)
    return np.array(out)


class Protocol:
    """Forward model of one 6x6 protocol (inputs x analyzers)."""

    def __init__(self, inputs, analyzers):
        phi = np.array([KETS[lab] for lab in inputs], dtype=complex)
        psi = np.array([KETS[lab] for lab in analyzers], dtype=complex)
        # amps[a, b, m] = <psi_b|A_m|phi_a>
        self.amps = np.einsum("bi,mij,aj->abm", psi.conj(), PAULI, phi)
        herm = _hermitian_basis()
        self._herm = herm
        design = np.array([self.probabilities(h).reshape(-1) for h in herm]).T
        self._pinv = np.linalg.pinv(design)

    def probabilities(self, chi: np.ndarray) -> np.ndarray:
        return np.einsum("abm,mn,abn->ab", self.amps, chi, self.amps.conj()).real

    def objective(self, chi: np.ndarray, counts: np.ndarray, exposure: float) -> float:
        """sum_ab (n_ab - N p_ab)^2 / max(n_ab, 1): the documented MLE misfit."""
        r = counts - exposure * self.probabilities(chi)
        return float(np.sum(r * r / np.maximum(counts, 1.0)))

    def least_squares_chi(self, rates: np.ndarray) -> np.ndarray:
        """Hermitian chi minimizing sum_ab (rates_ab - p_ab(chi))^2.

        For a product protocol this equals the two-stage linear inversion
        (state tomography per input, then a least-squares map fit).
        """
        x = self._pinv @ rates.reshape(-1)
        return np.tensordot(x, self._herm, axes=(0, 0))


def true_chi(gamma: float) -> np.ndarray:
    """chi_mn = c_m conj(c_n) with c_m = Tr[A_m^dag K] / 2, K = diag(1, sqrt(gamma))."""
    kraus = np.diag([1.0, np.sqrt(gamma)]).astype(complex)
    c = np.array([np.trace(a.conj().T @ kraus) / 2.0 for a in PAULI])
    return np.outer(c, c.conj())


def p_operator(chi: np.ndarray) -> np.ndarray:
    """P = sum_mn chi_mn A_n^dag A_m (success probability operator)."""
    p = np.einsum("mn,nji,mjk->ik", chi, PAULI.conj(), PAULI)
    return 0.5 * (p + p.conj().T)


def p_eigenvalues(chi: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(p_operator(chi))


def fidelity_to_pure(chi: np.ndarray, ref: np.ndarray) -> float:
    """Generalized process fidelity against a rank-one reference.

    For ref = |v><v| the fidelity (Tr sqrt(sqrt(a) ref sqrt(a)))^2 of the
    unit-trace matrices is <v|a_+|v>, where a_+ keeps the nonnegative part
    of a = chi / Tr chi; that is how an indefinite chi is scored when the
    negativity clamp is loosened (clamp_tol=1.0).
    """
    top = np.linalg.eigh(ref)[1][:, -1]
    a = chi / np.trace(chi).real
    wa, va = np.linalg.eigh(a)
    a_plus = (va * np.clip(wa, 0.0, None)) @ va.conj().T
    return float((top.conj() @ a_plus @ top).real)
