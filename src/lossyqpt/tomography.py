"""Count tables, the forward model and the reference linear inversion.

The beta/tau chain is the reference route from count data to a chi
matrix; the linear fits in mle compute the same chi from the
pseudo-inverse of measurement_design, and the tests compare the two:

  1. state_tomography turns the per-input analyzer counts into an
     unnormalized output density matrix whose trace estimates the success
     probability of that input.
  2. lambda_from_outputs expresses each output in a fixed state basis and
     solves for the coefficient matrix lambda of the linear map.
  3. linear_inversion contracts lambda with the generalized inverse tau of
     the beta tensor, giving chi in the chosen operator basis.

On noiseless data this chain is exact.  On noisy data the resulting chi
may be indefinite; it is returned unclamped, with the minimum eigenvalue
reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import states as pol
from .channels import ChiMatrix, OperatorBasis
from .errors import DataError, RepresentationError, SingularSystemError

_COND_LIMIT = 1e6


@dataclass(frozen=True)
class StateBasis:
    """d^2 matrices spanning the space of d x d matrices."""

    dim: int
    states: np.ndarray  # shape (d*d, d, d)

    def __post_init__(self):
        s = np.asarray(self.states, dtype=complex)
        d = self.dim
        if s.shape != (d * d, d, d):
            raise RepresentationError(
                f"state basis for d={d} needs shape ({d * d},{d},{d}), got {s.shape}"
            )
        flat = s.reshape(d * d, d * d)
        cond = np.linalg.cond(flat)
        if cond > _COND_LIMIT:
            raise SingularSystemError(
                f"state basis condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}"
            )
        object.__setattr__(self, "states", s)

    def expand(self, mats: np.ndarray) -> np.ndarray:
        """Coefficients of one or more matrices in this basis.

        mats has shape (..., d, d); the result has shape (..., d*d) with
        M = sum_k coeff[k] * states[k].
        """
        d = self.dim
        flat = self.states.reshape(d * d, d * d).T  # columns are vec(rho_k)
        vecs = np.asarray(mats, dtype=complex).reshape(-1, d * d).T
        coeff = np.linalg.solve(flat, vecs).T
        return coeff.reshape(np.shape(mats)[:-2] + (d * d,))


@dataclass(frozen=True)
class BetaTensor:
    """beta^{mn}_{jk} with A_m rho_j A_n^dag = sum_k beta^{mn}_{jk} rho_k.

    Stored as a d^4 x d^4 matrix: row index (j, k) flattened row-major,
    column index (m, n), so that lambda_vec = mat @ chi_vec.
    """

    basis: OperatorBasis
    states: StateBasis
    mat: np.ndarray


@dataclass(frozen=True)
class TauTensor:
    """Moore-Penrose inverse of a BetaTensor: chi_vec = mat @ lambda_vec."""

    basis: OperatorBasis
    states: StateBasis
    mat: np.ndarray


@dataclass(frozen=True)
class LambdaMatrix:
    """Coefficients lambda_jk of E(rho_j) = sum_k lambda_jk rho_k.

    residual is the least-squares misfit of the overdetermined system that
    produced it (zero when the prepared inputs are exactly d^2)."""

    states: StateBasis
    mat: np.ndarray
    residual: float = 0.0


@dataclass(frozen=True)
class CountTable:
    """Coincidence counts indexed by (input state, analyzer projector).

    Labels are distinct strings and dim is an integer.  exposure is the
    expected number of pairs per input setting.  Counts are kept as
    floats: Poisson draws are integer valued, while noiseless tables
    carry the exact expected values so that the algebraic pipeline
    reproduces the underlying channel to machine precision.
    """

    dim: int
    inputs: tuple
    projectors: tuple
    exposure: float
    counts: np.ndarray

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise DataError(f"dim must be an integer, got {self.dim!r}")
        for what in ("inputs", "projectors"):
            labels = tuple(getattr(self, what))
            if not all(isinstance(lab, str) for lab in labels):
                raise DataError(f"{what} labels must be strings, got {list(labels)!r}")
            if len(set(labels)) != len(labels):
                raise DataError(f"duplicate {what} labels in {list(labels)!r}")
            object.__setattr__(self, what, labels)
        c = np.asarray(self.counts, dtype=float)
        shape = (len(self.inputs), len(self.projectors))
        if c.shape != shape:
            raise DataError(f"counts must have shape {shape}, got {c.shape}")
        if not np.all(np.isfinite(c)) or c.min() < 0:
            raise DataError("counts must be finite and nonnegative")
        if not (np.isfinite(self.exposure) and self.exposure > 0):
            raise DataError(
                f"exposure must be finite and positive, got {self.exposure}"
            )
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "counts", c)

    def row(self, input_label: str) -> dict:
        """Projector-labeled counts for one input setting."""
        try:
            i = self.inputs.index(input_label)
        except ValueError:
            raise DataError(f"no input {input_label!r} in table") from None
        return dict(zip(self.projectors, self.counts[i]))


def measurement_amplitudes(
    basis: OperatorBasis, input_kets: np.ndarray, analyzer_kets: np.ndarray
) -> np.ndarray:
    """The amplitudes c_ab = (<psi_b|A_m|phi_a>)_m of every protocol cell,
    one row per cell (a, b), with rows ordered like
    CountTable.counts.reshape(-1)."""
    if input_kets.shape[-1] != basis.dim or analyzer_kets.shape[-1] != basis.dim:
        raise RepresentationError(
            f"protocol states must have dimension {basis.dim} for this basis"
        )
    amps = np.einsum(
        "bi,mij,aj->abm", analyzer_kets.conj(), basis.ops, input_kets
    )
    return amps.reshape(-1, basis.size)


def design_from_amplitudes(amps: np.ndarray) -> np.ndarray:
    """The design rows c_m conj(c_n), flattened over (m, n), of amplitude
    rows c."""
    outer = amps[:, :, None] * amps.conj()[:, None, :]
    return outer.reshape(amps.shape[0], -1)


def measurement_design(
    basis: OperatorBasis, input_kets: np.ndarray, analyzer_kets: np.ndarray
) -> np.ndarray:
    """The forward model: the matrix D mapping vec(chi) to detection
    probabilities Tr[Pi_b E(rho_a)], so that expected counts are
    exposure * Re(D @ vec(chi)).

    Row (a, b) holds <psi_b|A_m|phi_a><phi_a|A_n^dag|psi_b> flattened over
    (m, n), with rows ordered like CountTable.counts.reshape(-1).
    """
    return design_from_amplitudes(
        measurement_amplitudes(basis, input_kets, analyzer_kets)
    )


def canonical_state_basis(d: int) -> StateBasis:
    """Matrix units |i><j| in lexicographic order; orthonormal under
    the Hilbert-Schmidt inner product."""
    if d < 2:
        raise RepresentationError("state basis needs d >= 2")
    s = np.zeros((d * d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, i, j] = 1.0
    return StateBasis(d, s)


def build_beta(basis: OperatorBasis, state_basis: StateBasis) -> BetaTensor:
    """Expand every A_m rho_j A_n^dag in the state basis."""
    if basis.dim != state_basis.dim:
        raise RepresentationError("operator and state bases must share d")
    d = basis.dim
    n = d * d
    # conj[(m,n), j] block of transformed states, expanded per (m, n, j)
    mat = np.zeros((n * n, n * n), dtype=complex)
    for m in range(n):
        for nn in range(n):
            transformed = np.einsum(
                "ij,kjl,ml->kim",
                basis.ops[m], state_basis.states, basis.ops[nn].conj(),
            )
            coeff = state_basis.expand(transformed)  # (j, k)
            # lambda index (j, k) on rows, chi index (m, n) on columns
            mat[:, m * n + nn] = coeff.reshape(-1)
    return BetaTensor(basis, state_basis, mat)


def invert_beta(beta: BetaTensor) -> TauTensor:
    """Moore-Penrose generalized inverse of the beta tensor."""
    mat = np.linalg.pinv(beta.mat, rcond=1e-10)
    n4 = beta.mat.shape[1]
    if np.abs(mat @ beta.mat - np.eye(n4)).max() > 1e-8:
        raise SingularSystemError(
            "beta tensor is rank deficient; tau @ beta does not recover identity"
        )
    return TauTensor(beta.basis, beta.states, mat)


def analyzer_dual_frame(projector_mats: np.ndarray) -> np.ndarray:
    """Dual frame {M_b} of a set of analyzer projectors.

    The linear estimator rho_hat = sum_b p_b M_b inverts p_b = Tr[Pi_b rho]
    in the least-squares sense.  Requires the projectors to span the
    Hermitian matrices (rank d^2).
    """
    projs = np.asarray(projector_mats, dtype=complex)
    nb, d, _ = projs.shape
    herm_basis = _hermitian_basis(d)
    t = np.einsum("bij,aji->ba", projs, herm_basis).real  # Tr[Pi_b h_a]
    if np.linalg.matrix_rank(t, tol=1e-10) < d * d:
        raise SingularSystemError(
            "analyzer set is not informationally complete for state tomography"
        )
    tinv = np.linalg.pinv(t)  # (d*d, nb)
    return np.einsum("ab,aij->bij", tinv, herm_basis)


def _hermitian_basis(d: int) -> np.ndarray:
    """An orthogonal real basis of Hermitian d x d matrices."""
    out = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            out.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j
            e[j, i] = 1j
            out.append(e)
    return np.array(out)


def state_tomography(counts_for_input, exposure: float) -> np.ndarray:
    """Unnormalized linear state estimate from projector-labeled counts.

    Args:
        counts_for_input: mapping {analyzer label: counts} for one input
            setting.  All six analyzer labels H, V, D, A, R, L must be
            present.
        exposure: expected pairs per setting; converts counts to rates.

    Returns:
        Hermitian d x d matrix.  Its trace estimates the success
        probability of the channel on this input; it is NOT normalized
        and may be indefinite for noisy counts.
    """
    projectors = pol.state_catalog()
    missing = [lab for lab in projectors if lab not in counts_for_input]
    if missing:
        raise DataError(f"missing analyzer rows: {missing}")
    labels = list(projectors)
    frame = analyzer_dual_frame(np.array([projectors[lab] for lab in labels]))
    p = np.array([counts_for_input[lab] for lab in labels], dtype=float) / exposure
    rho = np.einsum("b,bij->ij", p, frame)
    return 0.5 * (rho + rho.conj().T)


def lambda_from_outputs(
    outputs,
    inputs,
    state_basis: StateBasis,
) -> LambdaMatrix:
    """Solve for the map coefficients lambda from tomographed outputs.

    Args:
        outputs: sequence of (unnormalized) output density matrices, one
            per prepared input.
        inputs: the prepared input states (density matrices), at least
            d^2 of them spanning the state space.
        state_basis: basis in which lambda is expressed.

    Returns:
        LambdaMatrix on the given basis, with the least-squares residual
        of the overdetermined system.
    """
    inputs = np.asarray(inputs, dtype=complex)
    outputs = np.asarray(outputs, dtype=complex)
    if inputs.shape != outputs.shape:
        raise DataError(
            f"got {outputs.shape[0]} outputs for {inputs.shape[0]} inputs"
        )
    c = state_basis.expand(inputs)    # (a, j)
    o = state_basis.expand(outputs)   # (a, k)
    if np.linalg.matrix_rank(c, tol=1e-10) < state_basis.dim ** 2:
        raise SingularSystemError(
            "prepared inputs do not span the state space"
        )
    lam, *_ = np.linalg.lstsq(c, o, rcond=None)
    residual = float(np.linalg.norm(c @ lam - o))
    return LambdaMatrix(state_basis, lam, residual)


@dataclass(frozen=True)
class LinearInversionResult:
    """Raw linear-inversion chi with positivity diagnostics attached."""

    chi: ChiMatrix
    min_eigenvalue: float
    psd_ok: bool


def linear_inversion(lam: LambdaMatrix, tau: TauTensor) -> LinearInversionResult:
    """Contract lambda with tau: chi_mn = sum_jk tau^{mn}_{jk} lambda_jk.

    The result is exact algebra; for noisy data it can be indefinite and
    is returned unclamped with a PSD flag.
    """
    n = tau.basis.size
    chi_vec = tau.mat @ lam.mat.reshape(-1)
    mat = chi_vec.reshape(n, n)
    mat = 0.5 * (mat + mat.conj().T)
    chi = ChiMatrix(tau.basis, mat)
    return LinearInversionResult(chi, chi.min_eigenvalue(), chi.is_psd())


def reconstruct_linear(
    table: CountTable,
    basis: OperatorBasis,
    normalize_outputs: bool = False,
) -> LinearInversionResult:
    """Full linear-inversion pipeline from a count table.

    normalize_outputs=True rescales every tomographed output to unit
    trace before extracting lambda.  That reproduces what post-selected
    measurements do and is wrong for any lossy channel whose success
    probability depends on the state; it exists so that the error it
    introduces can be demonstrated.
    """
    d = table.dim
    state_basis = canonical_state_basis(d)
    inputs = np.array([pol.state_density(lab) for lab in table.inputs])
    outputs = []
    for lab in table.inputs:
        rho = state_tomography(table.row(lab), table.exposure)
        if normalize_outputs:
            tr = float(np.trace(rho).real)
            if abs(tr) < 1e-12:
                raise DataError(
                    f"output for input {lab!r} has zero trace; cannot normalize"
                )
            rho = rho / tr
        outputs.append(rho)
    lam = lambda_from_outputs(np.array(outputs), inputs, state_basis)
    return linear_inversion(lam, invert_beta(build_beta(basis, state_basis)))
