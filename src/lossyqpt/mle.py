"""Maximum-likelihood reconstruction of the process matrix.

The figure of merit compares model counts to measured counts,

    f(chi) = sum_ab (n_ab - N <psi_b|E_chi(|phi_a><phi_a|)|psi_b>)^2 / w_ab

with w_ab = max(n_ab, 1); the floor keeps dark analyzer settings (exact
zeros at strong polarization-dependent loss) from blowing up the weight.
Setting weight_mode="drop" in FitOptions omits zero-count terms instead.
Model counts are linear in chi and the weights depend on the data only,
so f is a convex quadratic in chi.  Writing Hermitian chi in d^4 real
orthonormal coordinates x (chi = sum_k x_k F_k, Re Tr[F_j F_k] =
delta_jk) turns every fit into

    minimize 1/2 x^T H x - b^T x + c   over the positive semidefinite cone,

a convex problem with a single optimum, which optimize.minimize_adaptive
solves by ADMM steps, each followed by a chain of semismooth Newton
steps, projecting onto the cone with eigenvalue clipping (orthonormal
coordinates make that projection the Euclidean one).  The projection, a
qmath.PsdCone, keeps its eigendecomposition for the Newton steps.  No
restarts are needed, and the gradient matrix at the result certifies
optimality.  Counts, model and weights are scaled by exact powers of two
before any product is formed, so a table at exposure 1e-300 or 1e18 is
fitted like one at 1e4, and reported misfits that leave the
floating-point range underflow to zero or raise DegenerateFitError.

Four reconstruction flavors, each reporting the misfit f of its chi
through one report builder (the chi-space fits add their solver result):

  * fit_linear: the least-squares chi of the rates counts / exposure.
  * fit_unconstrained: the correct treatment for lossy maps.  The result
    is rescaled so that the largest eigenvalue of the success operator P
    is one, since a global loss factor is not measurable.
  * fit_trace_preserving: adds the affine constraint P = I, which every
    solver step satisfies exactly and the returned positive semidefinite
    iterate meets to the solver's tolerance.  For genuinely lossy,
    state-dependent devices this is a wrong model, and its fidelity to
    the true map degrades as the polarization dependence grows.
  * fit_post_selected: the linear fit of rates whose rows are each
    divided by the trace of their output state, mimicking post-selected
    measurements.  Also a wrong model; the result can even be indefinite,
    so it is flagged rather than silently repaired.

The least-squares chi equals tomography's beta/tau linear inversion on a
complete protocol.  The chi-space fits start from its positive
semidefinite projection and are deterministic given the count table.
Both are solved for a whitened chi' = S chi S^H, a congruence built from
the weighted per-cell amplitudes that keeps the cone and its
eigenvalue-clipping projection.  On benchmark tables it about halves the
solver steps of the trace-preserving fit and, with the solver's
whole-spectrum penalty, cuts those of the unconstrained fit by about
40 %.  Only a table whose kept cells do not determine chi is solved in
chi itself.  Everything that depends only on the protocol comes from
tomography.protocol_plan, the plan the simulator reads too.  A protocol
whose inputs or analyzers do not determine chi raises
SingularSystemError, and a table without counts raises
DegenerateFitError in the chi-space fits.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, replace

import numpy as np

from . import qmath
from .channels import (
    ChiMatrix,
    OperatorBasis,
    in_basis,
    pauli_basis,
    probability_operator,
)
from .errors import (
    DataError,
    DegenerateFitError,
    RepresentationError,
    SingularSystemError,
)
from .optimize import _RHO_FLOOR, minimize_adaptive
from .tomography import RANK_TOL, CountTable, protocol_plan


@dataclass(frozen=True)
class FitOptions:
    """Solver and weighting knobs; defaults reproduce the standard fit.

    maxfev caps the solver's iterations (its projections onto the cone);
    xtol bounds its primal residual (chi units) and its dual residual
    (relative to the data's gradient scale).  The convex fit has a single
    start, so restarts and seed are only recorded in the report.
    constraint_tol, the largest ||P - I||_F a trace-preserving fit may
    return, is a fixed class constant.
    """

    restarts: int = 4
    maxfev: int = 50_000
    xtol: float = 1e-9
    seed: int = 0
    weight_mode: str = "floor"  # "floor" -> w = max(n, 1); "drop" -> skip n = 0
    constraint_tol = 1e-6

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.maxfev < 1:
            raise ValueError(f"maxfev must be at least 1, got {self.maxfev}")
        if not (np.isfinite(self.xtol) and self.xtol > 0.0):
            raise ValueError(f"xtol must be finite and positive, got {self.xtol}")
        if self.weight_mode not in ("floor", "drop"):
            raise ValueError(f"unknown weight_mode {self.weight_mode!r}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one reconstruction.

    converged is False when a chi-space fit used up its iteration budget
    before meeting its residual tolerance; fits without a solver always
    report True.
    """

    chi: ChiMatrix
    objective: float
    iterations: int
    evaluations: int
    restarts_used: int
    normalization_scale: float
    seed: int
    min_chi_eigenvalue: float
    psd_ok: bool
    constraint_residual: float | None = None
    method: str = "mle"
    converged: bool = True


class _Misfit:
    """The weighted misfit of one count table in frame coordinates.

    It is held in units in which no exposure over- or underflows: counts
    and model counts are divided by count_unit = 2^k, the power of two
    nearest above the exposure, and the weights by the power of two 2^e
    nearest above the smallest of them, so that the largest inv_w lies in
    (1, 2].  Both are exact, and f = 2^power times the misfit in these
    units, with power = 2k - e.
    """

    def __init__(self, counts: CountTable, basis, weight_mode):
        if basis is None:
            if counts.dim != 2:
                raise RepresentationError("a basis must be given for d != 2")
            basis = pauli_basis()
        self.basis = basis
        self.plan = protocol_plan(basis, counts.inputs, counts.projectors)
        k = math.frexp(counts.exposure)[1]
        self.count_unit = math.ldexp(1.0, k)
        model = math.ldexp(counts.exposure, -k) * self.plan.design
        n_flat = counts.counts.reshape(-1)
        amps = self.plan.amplitudes
        if weight_mode == "drop":
            keep = n_flat > 0
            model, n_flat, amps = model[keep], n_flat[keep], amps[keep]
            weights = n_flat
        else:
            weights = np.maximum(n_flat, 1.0)
        # 2^e / w from w = mantissa 2^exponent, so that a weight too small
        # to matter next to the largest underflows quietly to zero
        mantissa, exponent = np.frexp(weights)
        e = int(exponent.min()) if exponent.size else 0
        self.inv_w = np.ldexp(1.0 / mantissa, e - exponent)
        self.model, self.n, self.amps = model, np.ldexp(n_flat, -k), amps
        self.power = 2 * k - e
        self.hessian = 2.0 * (model.T * self.inv_w) @ model

    def __call__(self, x):
        """(f, gradient of f) at coordinates x, both divided by 2^power."""
        r = self.n - self.model @ x
        wr = self.inv_w * r
        return float(r @ wr), -2.0 * (self.model.T @ wr)

    def unscaled(self, value):
        """value times 2^power, exact; inf where that overflows."""
        try:
            return math.ldexp(value, self.power)
        except OverflowError:
            return math.inf

    def coords(self, mat: np.ndarray) -> np.ndarray:
        vec = np.ascontiguousarray(mat, complex).reshape(-1)
        return vec.view(float).dot(self.plan.lift)

    def matrix(self, x: np.ndarray) -> np.ndarray:
        n = self.basis.size
        return self.plan.lift.dot(x).view(complex).reshape(n, n)

    def chi(self, x: np.ndarray) -> ChiMatrix:
        return ChiMatrix(self.basis, self.matrix(x))

    @property
    def project(self) -> qmath.PsdCone:
        """A new PsdCone in these coordinates: project(x) is the
        coordinates of the positive semidefinite projection of matrix(x)."""
        return qmath.PsdCone(self.plan.lift)

    def congruence(self):
        """(T, T^-1): the frame-coordinate matrices of the congruence
        chi = S^-1 chi' S^-H and of its inverse.

        The probability of cell (a, b) is u^H chi u with u = conj(c_ab), so
        S = (K / lambda_min)^(1/2) with K = sum_ab u u^H / w_ab over the kept
        cells makes the weighted cell operators of chi' sum to lambda_min I.
        Cells that determine chi make K positive definite; its eigenvalues
        are still floored at _RHO_FLOOR of the largest, so that rounding
        cannot make S infinite.  The smallest singular value of S is one,
        so ||T||_2 <= 1.  A congruence maps the positive semidefinite cone
        onto itself, so chi' is projected onto it by the same eigenvalue
        clipping as chi.
        """
        amps = self.amps
        k = (amps.conj().T * self.inv_w) @ amps
        eigs, vecs = np.linalg.eigh(k)
        eigs = np.maximum(eigs, _RHO_FLOOR * eigs[-1])
        roots = np.sqrt(eigs / eigs[0])
        lift = self.plan.lift
        # the frame matrices F_k, read back from the lift
        frame = np.ascontiguousarray(lift.T).view(complex).reshape(len(lift.T), *k.shape)

        def coordinates_of(op):
            mats = op @ frame @ op.conj().T
            return (mats.reshape(len(frame), -1).view(float) @ lift).T

        return (coordinates_of((vecs / roots) @ vecs.conj().T),
                coordinates_of((vecs * roots) @ vecs.conj().T))

    def transformed(self, t: np.ndarray) -> _Misfit:
        """The misfit of y with x = T y: f(T y), gradient T^T grad f and
        Hessian T^T H T, formed from the new model rather than from H so
        that it stays positive semidefinite to the rounding of its own norm
        where the weights span many orders of magnitude."""
        other = copy(self)
        other.model = self.model @ t
        other.hessian = 2.0 * (other.model.T * self.inv_w) @ other.model
        return other


def _chi_and_basis(chi, basis):
    """(matrix, basis) of a ChiMatrix, in `basis` if one is given, or of an
    array given in `basis`."""
    if not isinstance(chi, ChiMatrix):
        return np.asarray(chi, dtype=complex), basis
    if basis is None:
        return chi.mat, chi.basis
    return in_basis(chi, basis).mat, basis


def likelihood(
    chi,
    counts: CountTable,
    basis: OperatorBasis | None = None,
    weight_mode: str = "floor",
) -> float:
    """Weighted squared misfit between measured and model counts at chi
    (a ChiMatrix, changed into `basis` if one is given, or a d^2 x d^2
    Hermitian array in `basis`)."""
    mat, basis = _chi_and_basis(chi, basis)
    misfit = _Misfit(counts, basis, weight_mode)
    return misfit.unscaled(misfit(misfit.coords(mat))[0])


def likelihood_gradient(
    chi,
    counts: CountTable,
    basis: OperatorBasis | None = None,
    weight_mode: str = "floor",
) -> np.ndarray:
    """Gradient matrix G of the misfit at chi: the Hermitian matrix with
    f(chi + D) = f(chi) + Re Tr[G D] + O(||D||^2).  At an unconstrained
    optimum G is positive semidefinite and Tr[G chi] = 0.  G is written in
    `basis` if one is given, else in chi's own."""
    mat, basis = _chi_and_basis(chi, basis)
    misfit = _Misfit(counts, basis, weight_mode)
    return misfit.matrix(np.ldexp(misfit(misfit.coords(mat))[1], misfit.power))


def _least_squares(misfit: _Misfit, counts: CountTable, post_select=False):
    """Frame coordinates of the least-squares chi of the rates; with
    post_select, each input's rates are first divided by its output trace."""
    plan = misfit.plan
    if plan.seed_map is None:
        raise SingularSystemError(
            "the protocol's inputs and analyzers do not determine chi"
        )
    rates = counts.counts / counts.exposure
    if post_select:
        traces = rates @ plan.output_traces
        zero = np.abs(traces) < 1e-12
        if zero.any():
            lab = counts.inputs[np.argmax(zero)]
            raise DataError(f"output of input {lab!r} has zero trace; cannot normalize")
        rates = rates / traces[:, None]
    return plan.seed_map @ rates.reshape(-1)


def _solve(counts, basis, opts, tp: bool):
    """(misfit, solver result) of a chi-space fit.

    A fit whose kept cells determine chi, with or without P = I, is solved
    for the coordinates y of the whitened chi' (see _Misfit.congruence) and
    mapped back as x = T y; since ||T||_2 <= 1, a primal residual of xtol
    in y is at most xtol in chi.  When dropped dark cells leave chi
    undetermined, the optimum is not unique and the whitened solve can
    stall or diverge where the plain one converges, so such a fit keeps
    frame coordinates.
    """
    if not counts.counts.any():
        # grad f(0) = 0 would set the solver's dual tolerance to zero
        raise DegenerateFitError("the count table holds no counts; nothing to fit")
    misfit = _Misfit(counts, basis, opts.weight_mode)
    # the solver starts from the projection of x0, the least-squares chi,
    # onto the cone
    x0 = _least_squares(misfit, counts)
    problem, t = misfit, None
    equations = misfit.plan.tp_equations if tp else None
    # with every cell kept, the plan's rank check already holds
    if len(misfit.n) == len(misfit.plan.design) or np.linalg.matrix_rank(
            misfit.model, tol=RANK_TOL * counts.exposure / misfit.count_unit) == x0.size:
        t, t_inv = misfit.congruence()
        problem, x0 = misfit.transformed(t), t_inv @ x0
        if tp:
            equations = (equations[0] @ t, equations[1])
    res = minimize_adaptive(
        problem,
        x0,
        problem.hessian,
        misfit.project,
        equations=equations,
        xtol=opts.xtol,
        maxfev=opts.maxfev,
    )
    if t is not None:
        res = replace(res, x=t @ res.x)
    return misfit, replace(res, fun=misfit.unscaled(res.fun))


def _report(method, chi, objective, opts, res=None, scale=1.0, residual=None):
    """The FitReport of chi; res is the solver result, None without one.
    Raises DegenerateFitError if the misfit overflows."""
    if not math.isfinite(objective):
        raise DegenerateFitError(
            f"the misfit of the {method} fit overflows: the table's weights span "
            "more than the floating-point range")
    return FitReport(
        chi=chi,
        objective=objective,
        iterations=res.iterations if res else 0,
        evaluations=res.evaluations if res else 0,
        restarts_used=opts.restarts if res else 0,
        normalization_scale=scale,
        seed=opts.seed,
        min_chi_eigenvalue=chi.min_eigenvalue(),
        psd_ok=chi.is_psd(),
        constraint_residual=residual,
        method=method,
        converged=res.converged if res else True,
    )


def normalize_max_p(chi: ChiMatrix):
    """Rescale chi so the largest eigenvalue of P is exactly one.

    Returns (rescaled chi, scale), where scale is the eigenvalue divided
    out.  Idempotent, and irrelevant for the generalized process fidelity,
    which ignores global loss.
    """
    p = probability_operator(chi)
    pmax = float(p.eigenvalues[-1])
    if pmax <= 0.0:
        raise DegenerateFitError("cannot normalize a zero map (max P eigenvalue <= 0)")
    # real divisions: 1 / pmax, and numpy's complex division, overflow
    # where P is tiny
    return ChiMatrix(chi.basis, chi.mat.real / pmax + 1j * (chi.mat.imag / pmax)), pmax


def fit_unconstrained(
    counts: CountTable,
    basis: OperatorBasis | None = None,
    opts: FitOptions = FitOptions(),
) -> FitReport:
    """Maximum-likelihood fit of a (possibly lossy) process matrix.

    Minimizes the misfit over positive semidefinite chi and rescales the
    optimum to max eigenvalue of P equal to one; the reported objective
    is the misfit of the optimum before rescaling.
    """
    misfit, res = _solve(counts, basis, opts, tp=False)
    chi, scale = normalize_max_p(misfit.chi(res.x))
    return _report("mle", chi, res.fun, opts, res, scale=scale)


def fit_trace_preserving(
    counts: CountTable,
    basis: OperatorBasis | None = None,
    opts: FitOptions = FitOptions(),
) -> FitReport:
    """Fit under the (often wrong) assumption that the map preserves trace.

    Minimizes the misfit over positive semidefinite chi with P = I and
    reports ||P - I||_F as constraint_residual.  Raises DegenerateFitError
    if the returned chi misses P = I by FitOptions.constraint_tol or
    more, which happens only when the iteration budget runs out first.
    """
    misfit, res = _solve(counts, basis, opts, tp=True)
    e_mat, e_rhs = misfit.plan.tp_equations
    residual = float(np.linalg.norm(e_mat @ res.x - e_rhs))
    if residual >= opts.constraint_tol:
        raise DegenerateFitError(
            f"trace-preserving fit missed its constraint: ||P - I|| = {residual:.3e} "
            f"after {res.iterations} iterations (target {opts.constraint_tol:.1e})"
        )
    return _report("mle-tp", misfit.chi(res.x), res.fun, opts, res, residual=residual)


def _fit_linear(counts, basis, opts, post_select: bool) -> FitReport:
    misfit = _Misfit(counts, basis, opts.weight_mode)
    x = _least_squares(misfit, counts, post_select)
    method = "post-selected" if post_select else "linear"
    return _report(method, misfit.chi(x), misfit.unscaled(misfit(x)[0]), opts)


def fit_linear(
    counts: CountTable,
    basis: OperatorBasis | None = None,
    opts: FitOptions = FitOptions(),
) -> FitReport:
    """Plain linear inversion packaged as a report (no optimizer, no
    rescaling).  Exact on noiseless data; indefinite results are flagged,
    never repaired."""
    return _fit_linear(counts, basis, opts, post_select=False)


def fit_post_selected(
    counts: CountTable,
    basis: OperatorBasis | None = None,
    opts: FitOptions = FitOptions(),
) -> FitReport:
    """Linear inversion after normalizing every output state to unit trace.

    This imitates reconstruction from post-selected measurements.  For a
    state-dependent lossy map the normalization breaks the linearity the
    inversion relies on: the result depends on which inputs were prepared
    and may be indefinite, which psd_ok / min_chi_eigenvalue expose.
    """
    return _fit_linear(counts, basis, opts, post_select=True)
