"""Projection solver for convex quadratics over a cone.

Solves

    minimize    f(x) = 1/2 x^T H x - b^T x + c
    subject to  x in K    and, optionally,    E x = e

for real coordinates x, where K is a closed convex set given only by its
Euclidean projection (for chi fits: the positive semidefinite cone, a
projection by eigenvalue clipping).  The method is ADMM, the alternating
direction method of multipliers, in scaled form: x carries the quadratic
and the equations, a copy z carries the cone, and u is the scaled dual
variable of the consensus x = z,

    x <- argmin f(x) + rho/2 ||x - z + u||^2   subject to  E x = e
    z <- project(x + u)
    u <- u + x - z

Because f is quadratic, the x-step is closed form, x = (H + rho I)^-1
(b + rho (z - u)); the matrix is inverted once per solve.  With the
equations, x = x_e + N y runs over their solutions, N an orthonormal
basis of the null space of E and x_e the least-norm solution, and y
solves a system in N^T (H + rho I) N, whose eigenvalues lie in [rho,
lambda_max + rho] however E is scaled.  The matrix of H + rho I
bordered by E can instead be singular to working precision: on a
whitened table whose dropped weights span 271 orders of magnitude,
H ~ 1e-24 stands next to E's unit rows.  The penalty rho adapts to the
problem: it is the geometric mean of H's whole spectrum, never below
the geometric mean of its extreme eigenvalues, the optimum for
well-conditioned strongly convex quadratics (Ghadimi et al., IEEE
Trans. Autom. Control 60, 644 (2015)).  The extreme-eigenvalue rule alone sets rho far too low where
one eigenvalue stands far above the rest and a few lie near zero: on
whitened chi fits, and on the singular Hessians of count tables whose
kept cells do not determine chi.  The whole-spectrum mean alone falls
to about 4e-10 of lambda_max on a Hessian of rank one, where the
extreme-eigenvalue bound keeps 1e-6.  f itself is evaluated twice per
solve, for b = -grad f(0) and at the result.

One ADMM step is a fixed-point map of the state w = (z, u).  The
x-step, the relaxation and the dual update are all affine in w, so one
(2n x 2n) matrix and one offset, built once per solve, map w to both the
x-step result x and the projection argument v = relaxed x + u.  A step
is then one mat-vec, one projection and a few vector operations, and
the new state is (z, v - z) with z the projection of v.  Products in
the loop call ndarray.dot, which gives the same bits as @ on these
arrays and skips the ufunc dispatch of @, about 1 us a call.

Plain ADMM takes hundreds of steps on chi fits, most at rank-deficient
optima, where the fixed-point residual falls only slowly.  A semismooth
Newton step on the fixed point converges quadratically once it has the
optimum's face (which eigenvalues stay positive) (Ali, Wong & Kolter,
"A semismooth Newton method for fast, generic convex programming", ICML
2017; Themelis & Patrinos, "SuperMann", IEEE Trans. Autom. Control 64,
4875 (2019)).  From a state (Pi(v), v - Pi(v)), Pi the projection, one
ADMM step is a map of v alone, G(v) = A_z Pi(v) + A_u (v - Pi(v)) + c,
with A_z, A_u and c the v-rows of the affine map and its offset (for
P = I fits with the equations bordered in).  Its residual is R(v) =
G(v) - v = _RELAX (x - Pi(v)).  A Newton step solves

    (A_u - I + (A_z - A_u) D) delta = -R(v)

with D the Jacobian of Pi at v, which the projection builds from the
eigendecomposition it has already computed (qmath.PsdCone).

The loop alternates the two.  It takes one ADMM step; unless that step
passes the stop test, a chain of up to _NEWTON_CHAIN Newton candidates
follows, the first from the step's v, each next one from the previous
candidate, kept or not.  The state moves to every candidate whose
||R|| is below that of each point kept so far in the chain, the ADMM
step's included, and the chain ends once the kept ||R|| is small enough
that the next ADMM step must pass the stop test.  Semismooth Newton
steps alone are not monotone: a candidate built from the wrong face
overshoots, and the next step from it, on the right face, lands close
to the optimum, which is why a chain goes on from a rejected candidate.
This is the SuperMann scheme in its simplest form: Newton directions on
the ADMM operator, a candidate kept by a residual-decrease test and an
ADMM step between chains, without its line search, so without its proof
of global convergence; every fit measured below converges.  The ADMM
stop test alone decides convergence, `iterations` counts every
projection, Newton candidates included, and nothing depends on wall
clock, so a solve is bit-for-bit reproducible.

A candidate costs the Jacobian, a 16 x 16 solve and one projection,
about 1.4 ADMM steps.  Over the MLE and TP fits of the 300 held-out
tables op_inputs("fit-sweep", 7, i) of the benchmark this loop takes
4 347 projections (largest fit 11); over a harder grid of 240 tables
(Gamma in {1, .55, .255, .1, .02} x exposures 1e2, 1e4, 1e6, 1e7 x 6
seeds) 1 761 with floored dark cells (largest fit 16) and 1 540 with
dropped ones.  The Newton steps once waited for the residual to fall
to 1e-3 of the first step's, with Anderson-accelerated ADMM (a damped
20-step memory) until then and a backoff after rejected chains; that
took 8 027, 3 610 (largest fit 85) and 2 612 projections.  Where no
candidate is ever kept, on tables whose lit cells leave the optimum a
set, about four fifths of the projections are candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the smallest eigenvalue of H counts as at least this fraction of the
# largest in the extreme-eigenvalue bound on rho, so that bound stays
# positive on a singular H (sqrt(1e-12) = 1e-6 of the largest)
_RHO_FLOOR = 1e-12
# in the whole-spectrum mean, each eigenvalue of H counts as at least
# this fraction of the largest, so near-null directions cannot drag the
# mean to zero
_MEAN_FLOOR = 1e-10
# over-relaxation of the x-step in the z- and u-updates (Boyd et al.,
# "Distributed optimization and statistical learning via the alternating
# direction method of multipliers", 2011, sec. 3.4.3); it saves about a
# third of the iterations here
_RELAX = 1.6
# the most Newton candidates taken after one ADMM step
_NEWTON_CHAIN = 4


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray  # the projected iterate z: always inside the cone
    fun: float  # f at x
    iterations: int
    evaluations: int
    converged: bool


def _penalty(hessian: np.ndarray) -> float:
    """The ADMM penalty rho of a positive semidefinite H: the larger of
    sqrt(max(lambda_min, _RHO_FLOOR lambda_max) lambda_max) and the
    geometric mean of the eigenvalues, each floored at _MEAN_FLOOR
    lambda_max; 1 for H = 0."""
    eigs = np.linalg.eigvalsh(hessian)
    top = float(eigs[-1])
    if top <= 0.0:
        return 1.0
    extremes = np.sqrt(max(float(eigs[0]), _RHO_FLOOR * top) * top)
    spectrum = np.exp(np.log(np.maximum(eigs, _MEAN_FLOOR * top)).mean())
    return float(max(extremes, spectrum))


def minimize_adaptive(
    func,
    x0: np.ndarray,
    hessian: np.ndarray,
    project,
    equations: tuple[np.ndarray, np.ndarray] | None = None,
    xtol: float = 1e-9,
    maxfev: int = 50_000,
) -> MinimizeResult:
    """Minimize the convex quadratic func over the set `project` maps onto.

    func(x) returns (f(x), gradient of f at x); hessian is H.  project(x)
    is the Euclidean projection onto the set, and project.derivative()
    its Jacobian at the last x projected (see qmath.PsdCone).  equations,
    if given, is (E, e) for the affine constraint E x = e, E of full row
    rank.  The solve starts from x0 with zero dual and stops (converged)
    once both residuals of an ADMM step are at most xtol: the primal one
    ||x - z||, in x units, and the dual one rho ||z - z_previous||,
    relative to the gradient scale ||b|| of the data; or it stops after
    maxfev projections, ADMM steps and Newton candidates alike.  x is the
    projection z of the state: the converged step's, or else the last
    point kept, an ADMM step or a Newton candidate.  evaluations counts
    the calls of func, two per solve.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    rho = _penalty(hessian)
    b = -func(np.zeros(n))[1]
    eye = np.eye(n)
    shifted = hessian + rho * eye
    # x = x_e + N y runs over the solutions of E x = e: N an orthonormal
    # basis of the null space of E, x_e the least-norm solution (N = I
    # and x_e = 0 without equations)
    null, x_e = eye, np.zeros(n)
    if equations is not None:
        e_mat, e_rhs = equations
        left, sing, right = np.linalg.svd(e_mat)
        null = right[sing.size:].T
        x_e = right[:sing.size].T @ ((left.T @ e_rhs) / sing)
    step = null @ np.linalg.solve(null.T @ shifted @ null, null.T)
    x_data = x_e + step @ (b - shifted @ x_e)
    # the x-step is x = x_data + gain (z - u); x and the projection argument
    # v = relaxed x + u are then one affine map of the state w = (z, u),
    # [x; v] = affine @ w + offset
    gain = rho * step
    affine = np.empty((2 * n, 2 * n))
    affine[:n, :n] = gain
    affine[:n, n:] = -gain
    affine[n:, :n] = _RELAX * gain + (1.0 - _RELAX) * eye
    affine[n:, n:] = eye - _RELAX * gain
    offset = np.concatenate([x_data, _RELAX * x_data])
    # from a state (Pi(v), v - Pi(v)) the v-rows give the next v: G(v) =
    # A_z Pi(v) + A_u (v - Pi(v)) + c, whose fixed-point residual G(v) - v
    # has the Jacobian (A_u - I) + (A_z - A_u) D
    v_rows, v_offset = affine[n:], offset[n:]
    base = affine[n:, n:] - eye
    coupling = affine[n:, :n] - affine[n:, n:]
    primal_tol2 = xtol**2
    dual_tol2 = (xtol * np.linalg.norm(b) / rho) ** 2
    # the step from (Pi(v), v - Pi(v)) has primal residual R(v) / _RELAX +
    # Pi(v) - Pi(G(v)) and moves z by Pi(G(v)) - Pi(v), both bounded by
    # ||R(v)|| times (1 + 1 / _RELAX) and 1, as the projection is
    # nonexpansive: below this ||R||^2 that step converges
    newton_done2 = min(primal_tol2 / (1.0 + 1.0 / _RELAX) ** 2, dual_tol2)

    w = np.concatenate([project(x0), np.zeros(n)])
    converged, iterations = False, 0
    while iterations < maxfev:
        iterations += 1
        image = affine.dot(w)
        image += offset  # [x; v]
        x, v = image[:n], image[n:]
        z = project(v)
        primal, moved = x - z, z - w[:n]
        converged = (primal.dot(primal) <= primal_tol2
                     and moved.dot(moved) <= dual_tol2)
        w = np.concatenate([z, v - z])
        if converged:
            break
        # a chain of Newton candidates on R(v) = G(v) - v from this step's v
        r = v_rows.dot(w) + v_offset - v
        kept2 = r.dot(r)
        for _ in range(min(_NEWTON_CHAIN, maxfev - iterations)):
            if kept2 <= newton_done2:
                break
            try:
                delta = np.linalg.solve(base + coupling.dot(project.derivative()), r)
            except np.linalg.LinAlgError:  # an exactly singular Newton matrix
                break
            iterations += 1
            v = v - delta
            z = project(v)
            candidate = np.concatenate([z, v - z])
            r = v_rows.dot(candidate) + v_offset - v
            norm2 = r.dot(r)
            if norm2 < kept2:
                w, kept2 = candidate, norm2
    fun, _ = func(w[:n])
    return MinimizeResult(w[:n], float(fun), iterations, 2, bool(converged))
