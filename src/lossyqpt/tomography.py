"""Count tables, the forward model and the reference linear inversion.

The forward model, counts = N Tr[Pi_b E_chi(rho_a)], lives in one place:
protocol_plan, one cached plan per pair of input and analyzer label
tuples, with chi in the Pauli basis.  The simulator draws its counts
from the plan's per-cell amplitudes, and every fit in mle reads its
constants from the same plan.

The beta/tau chain is the reference route from count data to a chi
matrix; the linear fits in mle compute the same chi from the
pseudo-inverse of the plan's design, and the tests compare the two.  It
works in the matrix units E_k = |i><l| (k = i d + l, row-major), in which
the expansion coefficients of a matrix are its entries:

  1. state_tomography turns the per-input analyzer counts into an
     unnormalized output density matrix whose trace estimates the success
     probability of that input.
  2. lambda_from_outputs solves for the coefficients lambda of the linear
     map, E(E_j) = sum_k lambda_jk E_k.
  3. linear_inversion contracts lambda with tau, the generalized inverse
     of the beta tensor of build_beta, giving chi in the chosen operator
     basis.

On noiseless data this chain is exact.  On noisy data the resulting chi
may be indefinite; it is returned unclamped, and its min_eigenvalue and
is_psd say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import states as pol
from .channels import ChiMatrix, OperatorBasis, p_matrix, pauli_basis
from .errors import DataError, SingularSystemError

# the largest exposure a table or a simulation may have: numpy's Poisson
# sampler stops at means of ~9.2e18, and the chi-space fits converge up
# to here but not at 1e40 and above
MAX_EXPOSURE = 1e18

# the largest rate counts / exposure a table may have.  A cell's rate
# estimates a probability, so it exceeds one only by Poisson noise; a
# far larger one means a wrong exposure, on which the linear fits write
# P far above I and the trace-preserving fit fails (from rates of ~1e4).
# From an exposure of MIN_EXPOSURE pairs on, a Poisson draw whose mean
# is at most the exposure exceeds MAX_RATE times it with probability
# below 1e-150, so the simulator takes exposures in [MIN_EXPOSURE,
# MAX_EXPOSURE]
MAX_RATE = 100.0
MIN_EXPOSURE = 1.0


@dataclass(frozen=True)
class CountTable:
    """Coincidence counts indexed by (input state, analyzer projector).

    Labels are distinct strings and dim is the integer 2: every label
    names a qubit polarization state.  exposure is the
    expected number of pairs per input setting.  Counts are kept as
    floats: Poisson draws are integer valued, while noiseless tables
    carry the exact expected values so that the algebraic pipeline
    reproduces the underlying channel to machine precision.  The table
    keeps a read-only copy of the counts it was given.
    """

    dim: int
    inputs: tuple
    projectors: tuple
    exposure: float
    counts: np.ndarray

    def __post_init__(self):
        if (isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer))
                or self.dim != 2):
            raise DataError(f"dim must be 2 (the labels name qubit states), "
                            f"got {self.dim!r}")
        for what in ("inputs", "projectors"):
            labels = tuple(getattr(self, what))
            if not all(isinstance(lab, str) for lab in labels):
                raise DataError(f"{what} labels must be strings, got {list(labels)!r}")
            if len(set(labels)) != len(labels):
                raise DataError(f"duplicate {what} labels in {list(labels)!r}")
            object.__setattr__(self, what, labels)
        # a read-only copy: a validated table cannot change under its caller
        c = np.array(self.counts, dtype=float)
        shape = (len(self.inputs), len(self.projectors))
        if c.shape != shape:
            raise DataError(f"counts must have shape {shape}, got {c.shape}")
        if not 0 < self.exposure <= MAX_EXPOSURE:
            raise DataError(
                f"exposure must lie in (0, {MAX_EXPOSURE:g}], got {self.exposure}"
            )
        if not np.all((c >= 0) & (c <= MAX_RATE * self.exposure)):
            raise DataError(f"counts must lie in [0, {MAX_RATE:g} x exposure] = "
                            f"[0, {MAX_RATE * self.exposure:g}]")
        c.flags.writeable = False
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "counts", c)

    def row(self, input_label: str) -> dict:
        """Projector-labeled counts for one input setting."""
        try:
            i = self.inputs.index(input_label)
        except ValueError:
            raise DataError(f"no input {input_label!r} in table") from None
        return dict(zip(self.projectors, self.counts[i]))


# singular values of the unit-exposure design below this count as zero:
# the cells then do not determine chi
RANK_TOL = 1e-10


def hermitian_frame(n: int) -> np.ndarray:
    """Rows: vec of n*n Hermitian n x n matrices F_k, orthonormal under
    Re Tr[F_j F_k].  Coordinates x_k = Re Tr[F_k M] of a Hermitian M give
    vec(M) = frame.T @ x and ||M||_F = ||x||: first the diagonal matrix
    units, then for each i < j the symmetric and the antisymmetric
    combinations of |i><j| and |j><i|."""
    frame = np.zeros((n * n, n, n), dtype=complex)
    diag = np.arange(n)
    frame[diag, diag, diag] = 1.0
    i, j = np.triu_indices(n, 1)
    k = n + 2 * np.arange(i.size)
    frame[k, i, j] = frame[k, j, i] = 1.0
    frame[k + 1, i, j] = -1j
    frame[k + 1, j, i] = 1j
    frame[n:] /= np.sqrt(2.0)
    return frame.reshape(n * n, n * n)


@dataclass(frozen=True)
class ProtocolPlan:
    """The constants of a protocol (input labels, analyzer labels), for
    chi in the Pauli basis, that the simulator and every fit share; built
    once per protocol by protocol_plan, read-only.

    amplitudes holds the row c_ab = (<psi_b|A_m|phi_a>)_m of each cell,
    rows ordered like CountTable.counts.reshape(-1), so that the cell's
    probability Tr[Pi_b E_chi(rho_a)] is c_ab chi c_ab^H: the forward
    model.  design maps frame coordinates of chi to those probabilities;
    the misfit, the whitening of the chi-space fits and the simulated
    counts are all built from amplitudes.  lift, the frame with each
    complex entry split into its real and imaginary parts (2 n^2 x n^2
    for n x n chi), turns coordinates into matrices and back in real
    arithmetic: lift @ x, viewed as complex, is vec(sum_k x_k F_k), and
    vec(M), viewed as real, @ lift is the vector of Re Tr[F_k M].
    tp_equations (E, e) give ||E x - e|| = ||P(chi(x)) - I||_F.  seed_map
    is the pseudo-inverse of design, which turns rates into the
    least-squares chi; output_traces, the traces of the analyzers' dual
    frame, turns rates into output-state traces.  Both are None when the
    protocol does not determine chi.
    """

    lift: np.ndarray
    amplitudes: np.ndarray
    design: np.ndarray
    tp_equations: tuple[np.ndarray, np.ndarray]
    seed_map: np.ndarray | None
    output_traces: np.ndarray | None


@lru_cache(maxsize=32)
def protocol_plan(inputs: tuple, analyzers: tuple) -> ProtocolPlan:
    """The plan of a protocol in the Pauli basis, cached per pair of label
    tuples."""
    basis = pauli_basis()
    in_kets, an_kets = pol.kets_for(inputs), pol.kets_for(analyzers)
    amplitudes = np.einsum(
        "bi,mij,aj->abm", an_kets.conj(), basis.ops, in_kets
    ).reshape(-1, basis.size)
    frame = hermitian_frame(basis.size)
    # design row (a, b): c_m conj(c_n) flattened over (m, n), in frame coordinates
    outer = amplitudes[:, :, None] * amplitudes.conj()[:, None, :]
    design = (outer.reshape(len(amplitudes), -1) @ frame.T).real
    seed_map = output_traces = None
    if np.linalg.matrix_rank(design, tol=RANK_TOL) == frame.shape[0]:
        seed_map = np.linalg.pinv(design)
        dual = analyzer_dual_frame(np.array([pol.state_density(lab) for lab in analyzers]))
        output_traces = np.trace(dual, axis1=1, axis2=2).real
    lift = np.ascontiguousarray(frame.view(float).T)
    plan = ProtocolPlan(lift, amplitudes, design, _tp_equations(basis, frame), seed_map,
                        output_traces)
    # cached plans are shared by every later call with this protocol
    for arr in (lift, amplitudes, design, *plan.tp_equations, seed_map, output_traces):
        if arr is not None:
            arr.flags.writeable = False
    return plan


def _tp_equations(basis: OperatorBasis, frame: np.ndarray):
    """(E, e) with ||E x - e|| = ||P(chi(x)) - I||_F, in the frame
    coordinates of chi and of P, for chi written in basis."""
    dim, n = basis.dim, basis.size
    # p_of_frame[k] = P(F_k), so E x holds the coordinates of P(sum_k x_k F_k)
    p_of_frame = p_matrix(basis, frame.reshape(n * n, n, n))
    p_frame = hermitian_frame(dim).conj()
    e_mat = (p_frame @ p_of_frame.reshape(n * n, dim * dim).T).real
    e_rhs = (p_frame @ np.eye(dim).reshape(-1)).real
    return e_mat, e_rhs


def build_beta(basis: OperatorBasis) -> np.ndarray:
    """beta with A_m E_j A_n^dag = sum_k beta[(j, k), (m, n)] E_k, as a
    d^4 x d^4 array: row (j, k) and column (m, n) flattened row-major,
    so that vec(lambda) = beta @ vec(chi)."""
    n = basis.size
    ops = basis.ops
    # E_j = |a><b| with j = a d + b: A_m E_j A_n^dag has entry (i, l) equal
    # to A_m[i, a] conj(A_n[l, b]), and k = i d + l
    return np.einsum("mia,nlb->abilmn", ops, ops.conj()).reshape(n * n, n * n)


def invert_beta(beta: np.ndarray) -> np.ndarray:
    """tau, the Moore-Penrose inverse of beta: vec(chi) = tau @ vec(lambda)."""
    tau = np.linalg.pinv(beta, rcond=1e-10)
    if np.abs(tau @ beta - np.eye(beta.shape[1])).max() > 1e-8:
        raise SingularSystemError(
            "beta tensor is rank deficient; tau @ beta does not recover identity"
        )
    return tau


def analyzer_dual_frame(projector_mats: np.ndarray) -> np.ndarray:
    """Dual frame {M_b} of a set of analyzer projectors, expanded in
    hermitian_frame.

    The linear estimator rho_hat = sum_b p_b M_b inverts p_b = Tr[Pi_b rho]
    in the least-squares sense.  Requires the projectors to span the
    Hermitian matrices (rank d^2).
    """
    projs = np.asarray(projector_mats, dtype=complex)
    nb, d, _ = projs.shape
    frame = hermitian_frame(d).reshape(d * d, d, d)
    t = np.einsum("bij,aji->ba", projs, frame).real  # Tr[Pi_b F_a]
    if np.linalg.matrix_rank(t, tol=1e-10) < d * d:
        raise SingularSystemError(
            "analyzer set is not informationally complete for state tomography"
        )
    tinv = np.linalg.pinv(t)  # (d*d, nb)
    return np.einsum("ab,aij->bij", tinv, frame)


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


def lambda_from_outputs(outputs, inputs) -> np.ndarray:
    """lambda with E(E_j) = sum_k lambda[j, k] E_k, the least-squares
    solution for (unnormalized) outputs E(rho_a) of prepared inputs rho_a,
    at least d^2 of them spanning the state space."""
    inputs = np.asarray(inputs, dtype=complex)
    outputs = np.asarray(outputs, dtype=complex)
    if inputs.shape != outputs.shape:
        raise DataError(
            f"got {outputs.shape[0]} outputs for {inputs.shape[0]} inputs"
        )
    n = inputs.shape[-1] ** 2
    # in the matrix units, a matrix's coefficients are its entries
    c, o = inputs.reshape(-1, n), outputs.reshape(-1, n)
    if np.linalg.matrix_rank(c, tol=1e-10) < n:
        raise SingularSystemError("prepared inputs do not span the state space")
    return np.linalg.lstsq(c, o, rcond=None)[0]


def linear_inversion(lam: np.ndarray, basis: OperatorBasis) -> ChiMatrix:
    """chi_mn = sum_jk tau[(m, n), (j, k)] lambda_jk in the given basis.

    The result is exact algebra; for noisy data it can be indefinite and
    is returned unclamped.
    """
    n = basis.size
    mat = (invert_beta(build_beta(basis)) @ lam.reshape(-1)).reshape(n, n)
    return ChiMatrix(basis, 0.5 * (mat + mat.conj().T))


def reconstruct_linear(
    table: CountTable,
    basis: OperatorBasis,
    normalize_outputs: bool = False,
) -> ChiMatrix:
    """Full linear-inversion pipeline from a count table.

    normalize_outputs=True rescales every tomographed output to unit
    trace before extracting lambda.  That reproduces what post-selected
    measurements do and is wrong for any lossy channel whose success
    probability depends on the state; it exists so that the error it
    introduces can be demonstrated.
    """
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
    return linear_inversion(lambda_from_outputs(outputs, inputs), basis)
