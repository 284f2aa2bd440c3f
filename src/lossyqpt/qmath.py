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


@dataclass(frozen=True)
class EigDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors is unitary with the
    i-th column belonging to eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_deviation(m: np.ndarray) -> float:
    """max|M - M^dag|, the absolute deviation from Hermiticity."""
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate shape, finiteness and Hermiticity, returning the
    symmetrized matrix.

    The returned copy is (M + M^dag)/2, which removes rounding-level
    asymmetry without changing anything above the validation tolerance.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise RepresentationError(f"{what} must be square, got shape {m.shape}")
    peak = float(np.abs(m).max())  # NaN or inf if any entry is
    if not np.isfinite(peak):
        raise RepresentationError(f"{what} has a non-finite entry")
    scale = max(1.0, peak)
    if hermitian_deviation(m) > _HERM_TOL * scale:
        raise RepresentationError(
            f"{what} is not Hermitian within tolerance "
            f"(deviation {hermitian_deviation(m):.3e}, scale {scale:.3e})"
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
    tomography.ProtocolPlan): calling it projects x onto the cone by the
    eigenvalue clipping of psd_projection, and derivative() is the
    Jacobian of that projection at the last x projected.

    The cone keeps the last eigendecomposition M = Q diag(lambda) Q^H, so
    the Jacobian needs no second eigensolver call.  The projection's
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
        self._spectrum = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = self.size
        w, q = np.linalg.eigh(self.lift.dot(x).view(complex).reshape(n, n))
        self._spectrum = w, q
        clipped = (q * np.maximum(w, 0.0)).dot(q.conj().T)
        return clipped.reshape(-1).view(float).dot(self.lift)

    def derivative(self) -> np.ndarray:
        """D_jk = Re Tr[F_j Q (Omega o Q^H F_k Q) Q^H] at the last point
        projected: symmetric, with eigenvalues in [0, 1]."""
        w, q = self._spectrum
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
    eig = herm_eig(m)
    w = eig.eigenvalues
    scale = max(1.0, float(w[-1]))
    if w[0] < -clamp_tol * scale:
        raise NotPsdError(
            f"matrix has eigenvalue {w[0]:.6e} below -{clamp_tol * scale:.1e}",
            eigenvalue=float(w[0]),
        )
    zero_window = min(clamp_tol, DEFAULT_CLAMP_TOL) * max(float(w[-1]), 0.0)
    w = np.where(w > zero_window, w, 0.0)
    v = eig.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T


def state_fidelity(
    a: np.ndarray, b: np.ndarray, clamp_tol: float = DEFAULT_CLAMP_TOL
) -> float:
    """Quantum state fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    Traces need not be one; callers that want a normalized figure divide
    by the traces themselves.  Symmetric in its arguments to numerical
    precision.  Both arguments are validated, a by psd_sqrt and b here;
    the inner product sqrt(a) b sqrt(a) is symmetrized before its spectrum
    is taken, so that spectrum skips herm_eig's Hermiticity check.
    """
    a = np.asarray(a, dtype=complex)
    b = require_hermitian(b, "fidelity argument")
    if a.shape != b.shape:
        raise RepresentationError(
            f"fidelity arguments must have equal shapes, got {a.shape} and {b.shape}"
        )
    sa = psd_sqrt(a, clamp_tol)
    inner = sa @ b @ sa
    inner = 0.5 * (inner + inner.conj().T)
    w = np.linalg.eigh(inner)[0]
    scale = max(1.0, float(w[-1])) if w.size else 1.0
    if w.size and w[0] < -clamp_tol * scale:
        raise NotPsdError(
            f"fidelity inner product has eigenvalue {w[0]:.6e}",
            eigenvalue=float(w[0]),
        )
    # rank-deficient inputs leave rounding residue ~1e-16 in the inner
    # spectrum; through the square root each such eigenvalue would inject
    # ~1e-8, so anything that far below the leading eigenvalue is noise
    w = np.where(w > 1e-13 * max(float(w[-1]), 0.0), w, 0.0)
    return float(np.sum(np.sqrt(w)) ** 2)
