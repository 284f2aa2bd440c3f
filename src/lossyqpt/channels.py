"""Channel representations and the success-probability operator.

A channel E acts as E(rho) = sum_mn chi_mn A_m rho A_n^dag for a fixed
operator basis {A_m} normalized to Tr[A_m A_n^dag] = d delta_mn.  The chi
matrix always travels together with its basis: mixing coefficients from
different bases silently is the main bug class in process tomography, so
every cross-basis operation goes through change_basis explicitly.

For maps that are not trace preserving the trace of the output state is
Tr[P rho], with P = sum_mn chi_mn A_n^dag A_m the success-probability
operator.  Its spectrum classifies the channel: all eigenvalues 1 means
trace preserving, all equal below 1 means a uniform loss, anything else
means the success probability depends on the input state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import qmath
from .errors import NotPsdError, RepresentationError

_BASIS_TOL = 1e-12

#: Absolute tolerance separating the spectral classes of P.
CLASSIFY_TOL = 1e-6

#: How far an eigenvalue of P may lie outside [0, 1] by rounding alone:
#: analyze-p refuses or warns about a largest eigenvalue beyond
#: 1 + P_ROUNDING_TOL, and a written P clamps excursions within it.
P_ROUNDING_TOL = 1e-9

#: process_fidelity_ntp refuses a chi with an entry larger than this many
#: times its trace.  No positive semidefinite chi has an entry above its
#: trace, and below the bound chi / Tr[chi] and the fidelity of two such
#: matrices stay far inside the floating-point range.
MAX_ENTRY_PER_TRACE = 1e100

TRACE_PRESERVING = "trace-preserving"
UNIFORM_LOSSY = "uniform-lossy"
STATE_DEPENDENT = "state-dependent"

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
PAULI.flags.writeable = False


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """A complete operator basis {A_m} with Tr[A_m A_n^dag] = d delta_mn.

    Bases compare and hash by identity, so the constants derived from one
    (the factors of p_matrix) are cached per basis object; the operators
    are a read-only copy, so a cached constant cannot go stale.  Two
    bases with the same operators still hold the same chi: change_basis
    compares operators, not objects.
    """

    dim: int
    ops: np.ndarray  # shape (d*d, d, d)
    label: str

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex)
        ops.flags.writeable = False
        d = self.dim
        if ops.shape != (d * d, d, d):
            raise RepresentationError(
                f"operator basis for d={d} needs {d * d} operators of shape "
                f"({d},{d}), got array of shape {ops.shape}"
            )
        gram = np.einsum("mij,nij->mn", ops, ops.conj())
        if np.abs(gram - d * np.eye(d * d)).max() > _BASIS_TOL * d:
            raise RepresentationError(
                f"basis {self.label!r} violates Tr[A_m A_n^dag] = d delta_mn"
            )
        object.__setattr__(self, "ops", ops)

    @property
    def size(self) -> int:
        return self.dim * self.dim


@lru_cache(maxsize=None)
def pauli_basis() -> OperatorBasis:
    """The qubit basis {I, sigma_x, sigma_y, sigma_z}: one shared instance."""
    return OperatorBasis(2, PAULI, "pauli")


@lru_cache(maxsize=8)
def elementary_basis(d: int) -> OperatorBasis:
    """The scaled matrix units sqrt(d)|i><j| in lexicographic (i, j) order:
    one shared instance per d."""
    if d < 2:
        raise RepresentationError("elementary basis needs d >= 2")
    ops = np.zeros((d * d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            ops[i * d + j, i, j] = np.sqrt(d)
    return OperatorBasis(d, ops, "elementary-scaled")


def named_basis(label: str, dim: int) -> OperatorBasis:
    """The basis a (label, dim) pair names: "pauli" for d = 2, or
    "elementary-scaled" for any d >= 2."""
    if label == "pauli" and dim == 2:
        return pauli_basis()
    if label == "elementary-scaled":
        return elementary_basis(dim)
    raise RepresentationError(f"no operator basis named {label!r} for d={dim}")


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix chi_mn relative to a declared operator basis.

    The matrix is validated Hermitian at construction and read-only
    after it, so its spectrum is computed once.  Positivity is NOT
    enforced here: linear inversion of noisy data legitimately produces
    indefinite matrices and callers decide how to handle them (see
    min_eigenvalue / is_psd).
    """

    basis: OperatorBasis
    mat: np.ndarray

    def __post_init__(self):
        m = qmath.require_hermitian(self.mat, "chi matrix")
        n = self.basis.size
        if m.shape != (n, n):
            raise RepresentationError(
                f"chi matrix must be {n}x{n} for d={self.basis.dim}, "
                f"got {m.shape}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    @cached_property
    def _spectrum(self) -> qmath.EigDecomposition:
        # mat was checked and symmetrized at construction
        return qmath.EigDecomposition(*np.linalg.eigh(self.mat))

    def min_eigenvalue(self) -> float:
        return float(self._spectrum.eigenvalues[0])

    def is_psd(self) -> bool:
        """No eigenvalue below -DEFAULT_CLAMP_TOL * max(1, lambda_max)."""
        w = self._spectrum.eigenvalues
        return bool(w[0] >= -qmath.DEFAULT_CLAMP_TOL * max(1.0, float(w[-1])))


@dataclass(frozen=True)
class ProbabilityOperator:
    """Success-probability operator P with its spectrum and classification."""

    mat: np.ndarray
    spectrum: qmath.EigDecomposition
    classification: str

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues


def apply_channel(chi: ChiMatrix, rho: np.ndarray) -> np.ndarray:
    """Apply the map to a state: sum_mn chi_mn A_m rho A_n^dag.

    The output is not renormalized; its trace is the success probability
    Tr[P rho] of the channel on this input.
    """
    rho = np.asarray(rho, dtype=complex)
    d = chi.dim
    if rho.shape != (d, d):
        raise RepresentationError(
            f"state must be {d}x{d} for this channel, got {rho.shape}"
        )
    a = chi.basis.ops
    out = np.einsum("mn,mij,jk,nlk->il", chi.mat, a, rho, a.conj())
    return 0.5 * (out + out.conj().T)


def chi_from_kraus(kraus, basis: OperatorBasis) -> ChiMatrix:
    """Expand Kraus operators in the basis and build chi_mn = sum_i a_im a_in^*."""
    d = basis.dim
    coeffs = np.array(
        [
            [np.trace(basis.ops[m].conj().T @ np.asarray(e, dtype=complex)) / d
             for m in range(basis.size)]
            for e in kraus
        ]
    )
    mat = coeffs.T @ coeffs.conj()
    return ChiMatrix(basis, mat)


def kraus_from_chi(chi: ChiMatrix) -> list:
    """Spectral factorization of chi into Kraus operators.

    Components with eigenvalue below 1e-12 * lambda_max are dropped;
    a chi that is not is_psd() raises NotPsdError.
    """
    if not chi.is_psd():
        w0 = chi.min_eigenvalue()
        raise NotPsdError(
            f"chi has eigenvalue {w0:.6e}; not a physical channel", eigenvalue=w0
        )
    eig = chi._spectrum
    w = eig.eigenvalues
    keep = w > 1e-12 * max(float(w[-1]), 0.0)
    ops = []
    for i in np.nonzero(keep)[0][::-1]:  # largest component first
        c = np.sqrt(w[i]) * eig.eigenvectors[:, i]
        ops.append(np.tensordot(c, chi.basis.ops, axes=(0, 0)))
    return ops


def change_basis(chi: ChiMatrix, target: OperatorBasis) -> ChiMatrix:
    """Re-express chi in another normalized basis of the same dimension.

    The conversion chi' = C chi C^dag with C_pm = Tr[B_p^dag A_m]/d is
    unitary, so spectra, traces and fidelities are unchanged.  chi itself
    is returned if its operators are those of target, in order: the same
    label does not make the same basis, only the operators do.
    """
    if target.dim != chi.dim:
        raise RepresentationError(
            f"cannot change basis across dimensions {chi.dim} -> {target.dim}"
        )
    if chi.basis is target or np.array_equal(chi.basis.ops, target.ops):
        return chi
    c = np.einsum("pij,mij->pm", target.ops.conj(), chi.basis.ops) / chi.dim
    return ChiMatrix(target, c @ chi.mat @ c.conj().T)


@lru_cache(maxsize=8)
def _p_factors(basis: OperatorBasis) -> tuple[np.ndarray, np.ndarray]:
    """(L, R) with L[(j, i), n] = conj(A_n)[j, i] and R[(j, m), k] =
    A_m[j, k], the operators as p_matrix multiplies them."""
    a, d, n = basis.ops, basis.dim, basis.size
    return (a.conj().transpose(1, 2, 0).reshape(d * d, n),
            a.transpose(1, 0, 2).reshape(d * n, d))


def p_matrix(basis: OperatorBasis, chi_mats: np.ndarray) -> np.ndarray:
    """sum_mn chi_mn A_n^dag A_m for the n x n chi_mats written in basis,
    or for each matrix of a stack of them; not symmetrized."""
    left, right = _p_factors(basis)
    d, n, stack = basis.dim, basis.size, chi_mats.shape[:-2]
    # two matrix products in a fixed summation order: a change of order
    # changes the P that analyze-p prints, down to the sign of its zero
    # entries; t[i, j, m] = sum_n conj(A_n)[j, i] chi_mn
    t = (left @ chi_mats.swapaxes(-1, -2)).reshape(*stack, d, d, n)
    return t.swapaxes(-3, -2).reshape(*stack, d, d * n) @ right


def probability_operator(chi: ChiMatrix) -> ProbabilityOperator:
    """P = sum_mn chi_mn A_n^dag A_m, with spectrum and spectral class.

    P is symmetrized before its spectrum is taken, so it is Hermitian by
    construction and skips herm_eig's Hermiticity check; chi itself was
    validated when the ChiMatrix was built.
    """
    p = p_matrix(chi.basis, chi.mat)
    p = 0.5 * (p + p.conj().T)
    spectrum = qmath.EigDecomposition(*np.linalg.eigh(p))
    # the eigenvalues ascend, so the extreme two decide the class
    lo, hi = float(spectrum.eigenvalues[0]), float(spectrum.eigenvalues[-1])
    if hi - 1.0 <= CLASSIFY_TOL and 1.0 - lo <= CLASSIFY_TOL:
        tag = TRACE_PRESERVING
    elif hi - lo <= CLASSIFY_TOL:
        tag = UNIFORM_LOSSY
    else:
        tag = STATE_DEPENDENT
    return ProbabilityOperator(p, spectrum, tag)


def process_fidelity_ntp(
    chi: ChiMatrix,
    chi_id: ChiMatrix,
    clamp_tol: float = qmath.DEFAULT_CLAMP_TOL,
) -> float:
    """Generalized process fidelity for non-trace-preserving channels.

    Fidelity of the two chi matrices divided by the product of their
    traces.  Invariant under rescaling either argument: channels that
    differ only by a global loss are indistinguishable by this figure.
    Either chi must have a positive trace and no entry above
    MAX_ENTRY_PER_TRACE times it.  It is qmath.spectral_fidelity of the
    spectra both ChiMatrix objects keep (a reference in another basis is
    changed into chi's first), so once both are cached a call takes no
    eigensolver, and against a rank-one reference, such as every
    ppbs_chi, no numpy.linalg call at all.
    """
    ta, tb = chi.trace(), chi_id.trace()
    if ta <= 0.0 or tb <= 0.0:
        raise RepresentationError(
            f"process fidelity needs positive traces, got {ta:.3e} and {tb:.3e}"
        )
    for arg, tr in ((chi, ta), (chi_id, tb)):
        peak = float(np.abs(arg.mat).max())
        if peak > MAX_ENTRY_PER_TRACE * tr:
            raise RepresentationError(
                f"process fidelity argument has an entry of {peak:.3e}, more than "
                f"{MAX_ENTRY_PER_TRACE:g} times its trace {tr:.3e}"
            )
    if chi.dim != chi_id.dim:
        raise RepresentationError(
            f"cannot compare channels of dimension {chi.dim} and {chi_id.dim}"
        )
    # dividing the fidelity by the traces equals the fidelity of the
    # unit-trace matrices chi' = chi/Tr[chi]: their spectra are the cached
    # spectra of chi, eigenvalues divided by the trace, so the spectral
    # clamp acts at unit scale
    a, b = chi._spectrum, change_basis(chi_id, chi.basis)._spectrum
    return qmath.spectral_fidelity(
        qmath.EigDecomposition(a.eigenvalues / ta, a.eigenvectors),
        qmath.EigDecomposition(b.eigenvalues / tb, b.eigenvectors), clamp_tol)
