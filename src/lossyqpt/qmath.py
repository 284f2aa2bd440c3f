"""Dense complex linear algebra for small Hermitian matrices.

Everything here operates on plain complex ndarrays.  Spectra come from
LAPACK (np.linalg.eigh) behind a Hermiticity check.  Eigenvalues come back
ascending; in degenerate subspaces only the projector is well defined, so
tests and callers must not rely on individual eigenvectors there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError, RepresentationError

#: Default relative tolerance below which an eigenvalue is treated as zero
#: when taking matrix square roots of reconstructed (noisy) matrices.
DEFAULT_CLAMP_TOL = 1e-10

_HERM_TOL = 1e-12


def real_number(value) -> bool:
    """Whether value is an int, a float or a NumPy real: the types an
    exposure, a transmittivity or a tolerance may have.  Booleans,
    Python's and NumPy's, are not, as comparisons would read True as 1,
    and neither are strings, which comparisons refuse with TypeError."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors is unitary with the
    i-th column belonging to eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate dtype, shape, finiteness and Hermiticity, returning the
    symmetrized matrix.

    Entries must be integers, floats or complex numbers: a boolean or
    string array is refused, not read as numbers.  The returned copy is
    (M + M^dag)/2, which removes rounding-level asymmetry without
    changing anything above the validation tolerance.
    """
    m = np.asarray(m)
    if m.dtype.kind not in "iufc":
        raise RepresentationError(f"{what} must hold numbers, got dtype {m.dtype}")
    m = m.astype(complex, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise RepresentationError(f"{what} must be square, got shape {m.shape}")
    peak = float(np.abs(m).max())  # NaN or inf if any entry is
    if not np.isfinite(peak):
        raise RepresentationError(f"{what} has a non-finite entry")
    scale = max(1.0, peak)
    deviation = float(np.abs(m - m.conj().T).max())
    if deviation > _HERM_TOL * scale:
        raise RepresentationError(
            f"{what} is not Hermitian within tolerance "
            f"(deviation {deviation:.3e}, scale {scale:.3e})"
        )
    return 0.5 * (m + m.conj().T)


def herm_eig(m: np.ndarray) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Args:
        m: Hermitian matrix (validated against the standard tolerance).

    Returns:
        EigDecomposition with ascending real eigenvalues and orthonormal
        eigenvector columns.

    Raises:
        RepresentationError: non-square, non-finite or non-Hermitian input.
    """
    w, v = np.linalg.eigh(require_hermitian(m, "herm_eig input"))
    return EigDecomposition(w, v)


def psd_projection(m: np.ndarray) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius norm: the
    negative eigenvalues of Hermitian m clipped to zero.

    m is not validated: herm_eig's check costs about as much as the
    eigensolver.  The chi-space fits clip the same way through PsdCone,
    which builds m from real frame coordinates, Hermitian by construction.
    """
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0.0)).dot(v.conj().T)


class PsdCone:
    """The positive semidefinite cone of n x n matrices in real frame
    coordinates x_k = Re Tr[F_k M], given by the frame's real lift (see
    tomography.ProtocolPlan, which holds one cone per protocol).
    coords(M) and matrix(x) convert between matrices and coordinates;
    calling the cone projects x onto it by the eigenvalue clipping of
    psd_projection and returns the eigendecomposition eig it took with
    the result, and derivative(eig) is the Jacobian of the projection at
    the x that eig came from.  The cone keeps no state between calls, so
    one cone serves any number of solves.

    The eigendecomposition M = Q diag(lambda) Q^H of the projection gives
    the Jacobian with no second eigensolver call.  The projection's
    derivative along a Hermitian H is Q (Omega o Q^H H Q) Q^H, where
    Omega_ij is the divided difference of max(lambda, 0) at lambda_i and
    lambda_j: 1 where both are positive, 0 where neither is, and
    lambda_+ / (lambda_+ - lambda_-) where one is positive and the other
    not, a ratio in (0, 1] whose denominator is positive.
    """

    def __init__(self, lift: np.ndarray):
        self.lift = lift
        self.size = math.isqrt(lift.shape[1])
        self.frame = np.ascontiguousarray(lift.T).view(complex)  # rows vec(F_k)

    def coords(self, mats: np.ndarray) -> np.ndarray:
        """The coordinates of one n x n matrix, or a row of coordinates per
        matrix of a stack."""
        mats = np.ascontiguousarray(mats, complex)
        return mats.reshape(mats.shape[:-2] + (-1,)).view(float).dot(self.lift)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The n x n matrix sum_k x_k F_k."""
        n = self.size
        return self.lift.dot(x).view(complex).reshape(n, n)

    def __call__(self, x: np.ndarray):
        """(coordinates of the projection of x, eig): eig is the
        eigendecomposition (lambda, Q) of the matrix of x, for
        derivative()."""
        w, q = np.linalg.eigh(self.matrix(x))
        return self.coords((q * np.maximum(w, 0.0)).dot(q.conj().T)), (w, q)

    def derivative(self, eig) -> np.ndarray:
        """D_jk = Re Tr[F_j Q (Omega o Q^H F_k Q) Q^H] at the point whose
        projection returned eig: symmetric, with eigenvalues in [0, 1]."""
        w, q = eig
        n = self.size
        k = n - np.count_nonzero(w > 0.0)  # the eigenvalues <= 0 come first
        # Omega with each entry repeated for the real and imaginary parts
        omega = np.zeros((n, n, 2))
        omega[k:, k:] = 1.0
        positive = w[k:, None]
        mixed = (positive / (positive - w[:k]))[:, :, None]
        omega[k:, :k] = mixed
        omega[:k, k:] = mixed.transpose(1, 0, 2)
        # row k is vec(Q^H F_k Q) = vec(F_k)^T kron(conj Q, Q), split into
        # real and imaginary parts, so that D is one real product
        rotated = self.frame.dot(
            (q.conj()[:, None, :, None] * q[None, :, None, :]).reshape(n * n, n * n)
        ).view(float)
        return (rotated * omega.reshape(-1)).dot(rotated.T)


def _kept_eigenpairs(eig: EigDecomposition, clamp_tol: float, what: str):
    """(eigenvalues, eigenvectors) of the Hermitian matrix eig decomposes
    that psd_sqrt keeps; raises NotPsdError, naming the matrix `what`,
    if an eigenvalue lies below -clamp_tol * max(1, lambda_max), and
    ValueError unless clamp_tol is a finite non-negative real."""
    if not (real_number(clamp_tol) and 0.0 <= clamp_tol < math.inf):
        raise ValueError(f"clamp_tol must be finite and non-negative, got {clamp_tol!r}")
    w = eig.eigenvalues
    scale = max(1.0, float(w[-1]))
    if w[0] < -clamp_tol * scale:
        raise NotPsdError(
            f"{what} has eigenvalue {w[0]:.6e} below -{clamp_tol * scale:.1e}",
            eigenvalue=float(w[0]),
        )
    zero_window = min(clamp_tol, DEFAULT_CLAMP_TOL) * max(float(w[-1]), 0.0)
    # the eigenvalues ascend, so the kept ones, above the window, come last
    first = np.count_nonzero(w <= zero_window)
    return w[first:], eig.eigenvectors[:, first:]


def psd_sqrt(
    m: np.ndarray, clamp_tol: float = DEFAULT_CLAMP_TOL
) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix.

    clamp_tol sets the negativity tolerance: an eigenvalue below
    -clamp_tol * max(1, lambda_max) raises NotPsdError, anything above
    that is clamped to zero.  Positive eigenvalues below the (never
    larger than default) zeroing window are treated as exact zeros, so
    loosening clamp_tol for noisy reconstructed matrices does not erase
    genuine spectrum.
    """
    w, v = _kept_eigenpairs(herm_eig(m), clamp_tol, "matrix")
    return (v * np.sqrt(w)) @ v.conj().T


def spectral_fidelity(
    a: EigDecomposition, b: EigDecomposition, clamp_tol: float = DEFAULT_CLAMP_TOL
) -> float:
    """The fidelity ||sqrt(a_+) sqrt(b_+)||_1^2 of two Hermitian matrices
    of equal shape, given by their spectra; state_fidelity's formula.

    a_+ and b_+ are built from the eigenpairs that psd_sqrt keeps, with
    its NotPsdError threshold and its zeroing window.  With (alpha_i, p_i)
    and (beta_j, q_j) the kept pairs, the singular values of sqrt(a_+)
    sqrt(b_+) are those of the k_a x k_b matrix M_ij = sqrt(alpha_i
    beta_j) <p_i|q_j>.  Where either side has rank one, M is a vector and
    F = sum_ij alpha_i beta_j |<p_i|q_j>|^2, with no eigensolver: every
    PPBS reference chi is rank one.  Otherwise F = (sum sqrt(mu))^2 over
    the eigenvalues mu of the smaller of M M^H and M^H M, the inner
    product sqrt(a_+) b_+ sqrt(a_+) on the support of a_+ or of b_+.
    """
    wa, va = _kept_eigenpairs(a, clamp_tol, "fidelity inner product: a")
    wb, vb = _kept_eigenpairs(b, clamp_tol, "fidelity inner product: b")
    overlap = va.conj().T @ vb  # <p_i|q_j>
    if min(wa.size, wb.size) <= 1:
        return float(wa @ np.abs(overlap) ** 2 @ wb)
    m = (np.sqrt(wa)[:, None] * overlap) * np.sqrt(wb)
    inner = m.conj().T @ m if wb.size <= wa.size else m @ m.conj().T
    mu = np.linalg.eigvalsh(inner)
    # rank-deficient inputs leave rounding residue ~1e-16 in the inner
    # spectrum; through the square root each such eigenvalue would inject
    # ~1e-8, so anything that far below the leading eigenvalue is noise
    mu = np.where(mu > 1e-13 * max(float(mu[-1]), 0.0), mu, 0.0)
    return float(np.sum(np.sqrt(mu)) ** 2)


def state_fidelity(
    a: np.ndarray, b: np.ndarray, clamp_tol: float = DEFAULT_CLAMP_TOL
) -> float:
    """Quantum state fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2 =
    ||sqrt(a) sqrt(b)||_1^2.

    Traces need not be one; callers that want a normalized figure divide
    by the traces themselves.  Symmetric in its arguments to numerical
    precision.  Both arguments are validated and their spectra taken
    here; spectral_fidelity, which process_fidelity_ntp calls with the
    spectra a ChiMatrix keeps, does the rest.  A negative eigenvalue of
    either one below -clamp_tol * max(1, lambda_max) raises NotPsdError,
    and smaller ones are clipped as psd_sqrt clips them.
    """
    a = require_hermitian(a, "fidelity argument")
    b = require_hermitian(b, "fidelity argument")
    if a.shape != b.shape:
        raise RepresentationError(
            f"fidelity arguments must have equal shapes, got {a.shape} and {b.shape}"
        )
    return spectral_fidelity(EigDecomposition(*np.linalg.eigh(a)),
                             EigDecomposition(*np.linalg.eigh(b)), clamp_tol)
