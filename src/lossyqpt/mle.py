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
eigenvalue-clipping projection.  Unwhitened, the MLE and
trace-preserving fits of the benchmark's 300 held-out tables take 5 106
projections instead of 4 347, and the largest fit of optimize's harder
grid 99 instead of 21.  Only a table whose kept cells do not determine
chi is solved in chi itself.  Everything that depends only on the
protocol comes from tomography.protocol_plan, the plan the simulator
reads too.  Everything that depends on the table as well, the weighted
misfit, the least-squares start and, built on the first chi-space fit,
the whitened problem with its Hessian and ADMM penalty, is a _Problem,
built once per table object and weight mode and cached by _problem (a
CountTable hashes by identity, and its counts are read-only): the MLE
and trace-preserving fits of one table share it, as the paper fits
every table both ways, and the linear fits and likelihood read the
misfit from it without paying for the whitening.  A _Misfit is only the
quadratic a solve minimizes, of the table's model or of the whitened
one.  A protocol
whose inputs or analyzers do not determine chi raises
SingularSystemError, and a table without counts raises
DegenerateFitError in the chi-space fits.

Every fit works in the paper's Pauli basis {I, sigma_x, sigma_y,
sigma_z}, the basis of the plan: reports carry chi in it, likelihood
reads an array as a Pauli-basis chi, and channels.change_basis is the
one way into or out of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import qmath
from .channels import ChiMatrix, change_basis, pauli_basis, probability_operator
from .errors import DataError, DegenerateFitError, SingularSystemError
from .optimize import _RHO_FLOOR, _penalty, minimize_adaptive
from .tomography import RANK_TOL, CountTable, protocol_plan


def _check_weight_mode(weight_mode):
    """Refuse a weight mode other than "floor" and "drop": FitOptions and
    every set-up check it here, so no other value is read as "floor"."""
    if weight_mode not in ("floor", "drop"):
        raise ValueError(f"unknown weight_mode {weight_mode!r}")


@dataclass(frozen=True)
class FitOptions:
    """Solver and weighting knobs; defaults reproduce the standard fit.

    maxfev caps the solver's iterations (its projections onto the cone);
    xtol bounds its primal residual (chi units) and its dual residual
    (relative to the data's gradient scale).  The convex fit has a single
    start, so restarts and seed are only recorded in the report.
    restarts, maxfev and seed are integers (NumPy's too, kept as int) and
    xtol is a float; booleans are refused.
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
        for name, least in (("restarts", 1), ("maxfev", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, int(value))
        if isinstance(self.xtol, bool) or not (np.isfinite(self.xtol) and self.xtol > 0.0):
            raise ValueError(f"xtol must be finite and positive, got {self.xtol}")
        _check_weight_mode(self.weight_mode)


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
    """The quadratic a chi-space solve minimizes: the weighted misfit
    sum_i inv_w_i (n_i - (model @ x)_i)^2 of counts n against model
    counts at coordinates x, in the units its _Problem holds them in.  Its
    arrays are read-only, as a cached set-up shares them.  The whitened
    problem of a table is the misfit of the model times T: f(T y), with
    gradient T^T grad f.
    """

    def __init__(self, model: np.ndarray, n: np.ndarray, inv_w: np.ndarray):
        self.model, self.n, self.inv_w = model, n, inv_w
        _freeze(model, n, inv_w)

    def __call__(self, x):
        """(f, gradient of f) at coordinates x."""
        r = self.n - self.model @ x
        wr = self.inv_w * r
        return float(r @ wr), -2.0 * (self.model.T @ wr)


def _freeze(*arrays):
    """Make the arrays read-only, as a cached set-up is shared; returns
    the first."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0]


class _Problem:
    """The set-up of one count table that all its fits share, built once
    per table object and weight mode by _problem: the protocol plan, the
    cone of chi in frame coordinates (a qmath.PsdCone, here only to
    convert coordinates to matrices and back: each solve projects with a
    cone of its own), the weighted misfit and the least-squares start,
    and, on the first chi-space fit, the problem that both chi-space fits
    solve (see chi_space).  fit_linear, fit_post_selected and likelihood
    never build the latter.  Its arrays are read-only.

    The misfit is held in units in which no exposure over- or underflows:
    counts and model counts are divided by count_unit = 2^k, the power of
    two nearest above the exposure, and the weights by the power of two
    2^e nearest above the smallest of them, so that the largest inv_w lies
    in (1, 2].  Both are exact, and f = 2^power times the misfit in these
    units, with power = 2k - e.
    """

    def __init__(self, counts: CountTable, weight_mode: str):
        _check_weight_mode(weight_mode)
        self.counts = counts
        self.plan = protocol_plan(counts.inputs, counts.projectors)
        self.cone = qmath.PsdCone(self.plan.lift)
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
        inv_w = np.ldexp(1.0 / mantissa, e - exponent)
        self.misfit = _Misfit(model, np.ldexp(n_flat, -k), inv_w)
        self.amps = _freeze(amps)
        self.power = 2 * k - e

    def unscaled(self, value):
        """value times 2^power, exact; inf where that overflows."""
        try:
            return math.ldexp(value, self.power)
        except OverflowError:
            return math.inf

    def chi(self, x: np.ndarray) -> ChiMatrix:
        return ChiMatrix(pauli_basis(), self.cone.matrix(x))

    def least_squares(self, post_select=False):
        """Frame coordinates of the least-squares chi of the rates; with
        post_select, each input's rates are first divided by its output
        trace."""
        plan, counts = self.plan, self.counts
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
        k = (amps.conj().T * self.misfit.inv_w) @ amps
        eigs, vecs = np.linalg.eigh(k)
        eigs = np.maximum(eigs, _RHO_FLOOR * eigs[-1])
        roots = np.sqrt(eigs / eigs[0])
        frame = self.cone.frame.reshape(-1, *k.shape)  # the matrices F_k

        def coordinates_of(op):
            return self.cone.coords(op @ frame @ op.conj().T).T

        return (coordinates_of((vecs / roots) @ vecs.conj().T),
                coordinates_of((vecs * roots) @ vecs.conj().T))

    @cached_property
    def x0(self) -> np.ndarray:
        """Frame coordinates of the least-squares chi of the rates."""
        return _freeze(self.least_squares())

    @cached_property
    def chi_space(self):
        """(problem, start, T, H, rho) of the chi-space fits: the misfit
        they minimize, the start of the solve, the congruence T that maps
        its coordinates back (None for an unwhitened fit), the Hessian H
        and the ADMM penalty rho of H.

        A table whose kept cells determine chi is solved for the
        coordinates y of the whitened chi' (see congruence) and mapped
        back as x = T y; since ||T||_2 <= 1, a primal residual of xtol in
        y is at most xtol in chi.  When dropped dark cells leave chi
        undetermined, the optimum is not unique and the whitened solve can
        stall or diverge where the plain one converges, so such a fit keeps
        frame coordinates.  H = 2 M^T W M is formed from the model M of the
        problem solved, not as T^T H T, so that it stays positive
        semidefinite to the rounding of its own norm where the weights
        span many orders of magnitude.
        """
        misfit, x0 = self.misfit, self.x0
        problem, t = misfit, None
        # with every cell kept, the plan's rank check already holds
        if len(misfit.n) == len(self.plan.design) or np.linalg.matrix_rank(
                misfit.model,
                tol=RANK_TOL * self.counts.exposure / self.count_unit) == x0.size:
            t, t_inv = self.congruence()
            problem = _Misfit(misfit.model @ _freeze(t), misfit.n, misfit.inv_w)
            x0 = _freeze(t_inv @ x0)
        hessian = _freeze(2.0 * (problem.model.T * problem.inv_w) @ problem.model)
        return problem, x0, t, hessian, _penalty(hessian)


# the shared set-up of a table, cached per table object: a CountTable
# compares and hashes by identity, and its counts are read-only
_problem = lru_cache(maxsize=4)(_Problem)


def _as_chi(chi) -> ChiMatrix:
    """chi as a ChiMatrix: an array is read as a chi in the Pauli basis,
    and validated like every other chi."""
    return chi if isinstance(chi, ChiMatrix) else ChiMatrix(pauli_basis(), chi)


def likelihood(chi, counts: CountTable, weight_mode: str = "floor") -> float:
    """Weighted squared misfit between measured and model counts at chi
    (a ChiMatrix in any basis, or a 4 x 4 Hermitian array in the Pauli
    basis)."""
    mat = change_basis(_as_chi(chi), pauli_basis()).mat
    setup = _problem(counts, weight_mode)
    return setup.unscaled(setup.misfit(setup.cone.coords(mat))[0])


def likelihood_gradient(
    chi, counts: CountTable, weight_mode: str = "floor"
) -> np.ndarray:
    """Gradient matrix G of the misfit at chi: the Hermitian matrix with
    f(chi + D) = f(chi) + Re Tr[G D] + O(||D||^2).  At an unconstrained
    optimum G is positive semidefinite and Tr[G chi] = 0.  G is written in
    chi's own basis, the Pauli basis for an array."""
    chi = _as_chi(chi)
    mat = change_basis(chi, pauli_basis()).mat
    setup = _problem(counts, weight_mode)
    cone = setup.cone
    grad = cone.matrix(np.ldexp(setup.misfit(cone.coords(mat))[1], setup.power))
    if chi.basis is not pauli_basis():
        # G changes basis like chi
        grad = change_basis(ChiMatrix(pauli_basis(), grad), chi.basis).mat
    return grad


def _solve(counts, opts, tp: bool):
    """(set-up, solver result) of a chi-space fit of the table's shared
    set-up (_Problem.chi_space), started from the projection of the
    least-squares chi onto the cone."""
    if not counts.counts.any():
        # grad f(0) = 0 would set the solver's dual tolerance to zero
        raise DegenerateFitError("the count table holds no counts; nothing to fit")
    setup = _problem(counts, opts.weight_mode)
    problem, x0, t, hessian, rho = setup.chi_space
    equations = setup.plan.tp_equations if tp else None
    if tp and t is not None:
        equations = (equations[0] @ t, equations[1])
    # a cone of its own: the projection keeps its last spectrum
    res = minimize_adaptive(problem, x0, hessian, qmath.PsdCone(setup.plan.lift),
                            equations=equations, xtol=opts.xtol, maxfev=opts.maxfev,
                            rho=rho)
    if t is not None:
        res = replace(res, x=t @ res.x)
    return setup, replace(res, fun=setup.unscaled(res.fun))


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


def fit_unconstrained(counts: CountTable, opts: FitOptions = FitOptions()) -> FitReport:
    """Maximum-likelihood fit of a (possibly lossy) process matrix.

    Minimizes the misfit over positive semidefinite chi and rescales the
    optimum to max eigenvalue of P equal to one; the reported objective
    is the misfit of the optimum before rescaling.
    """
    setup, res = _solve(counts, opts, tp=False)
    chi, scale = normalize_max_p(setup.chi(res.x))
    return _report("mle", chi, res.fun, opts, res, scale=scale)


def fit_trace_preserving(
    counts: CountTable, opts: FitOptions = FitOptions()
) -> FitReport:
    """Fit under the (often wrong) assumption that the map preserves trace.

    Minimizes the misfit over positive semidefinite chi with P = I and
    reports ||P - I||_F as constraint_residual.  Raises DegenerateFitError
    if the returned chi misses P = I by FitOptions.constraint_tol or
    more, which happens only when the iteration budget runs out first.
    """
    setup, res = _solve(counts, opts, tp=True)
    e_mat, e_rhs = setup.plan.tp_equations
    residual = float(np.linalg.norm(e_mat @ res.x - e_rhs))
    if residual >= opts.constraint_tol:
        raise DegenerateFitError(
            f"trace-preserving fit missed its constraint: ||P - I|| = {residual:.3e} "
            f"after {res.iterations} iterations (target {opts.constraint_tol:.1e})"
        )
    return _report("mle-tp", setup.chi(res.x), res.fun, opts, res, residual=residual)


def _fit_linear(counts, opts, post_select: bool) -> FitReport:
    setup = _problem(counts, opts.weight_mode)
    x = setup.least_squares(post_select=True) if post_select else setup.x0
    method = "post-selected" if post_select else "linear"
    return _report(method, setup.chi(x), setup.unscaled(setup.misfit(x)[0]), opts)


def fit_linear(counts: CountTable, opts: FitOptions = FitOptions()) -> FitReport:
    """Plain linear inversion packaged as a report (no optimizer, no
    rescaling).  Exact on noiseless data; indefinite results are flagged,
    never repaired."""
    return _fit_linear(counts, opts, post_select=False)


def fit_post_selected(counts: CountTable, opts: FitOptions = FitOptions()) -> FitReport:
    """Linear inversion after normalizing every output state to unit trace.

    This imitates reconstruction from post-selected measurements.  For a
    state-dependent lossy map the normalization breaks the linearity the
    inversion relies on: the result depends on which inputs were prepared
    and may be indefinite, which psd_ok / min_chi_eigenvalue expose.
    """
    return _fit_linear(counts, opts, post_select=True)
