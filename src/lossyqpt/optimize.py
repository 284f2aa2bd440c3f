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

Because f is quadratic, the x-step is one exact Newton step with the
matrix H + rho I (bordered by E for the equations), inverted once per
solve.  The penalty rho adapts to the problem: it is the geometric mean
of the extreme eigenvalues of H.  Every iteration evaluates f and its
gradient once, and nothing depends on wall clock, so a solve is
bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# eigenvalues of H below this fraction of the largest are treated as this
# fraction when rho is chosen, so a singular H still gets a positive rho
_RHO_FLOOR = 1e-12
# over-relaxation of the x-step in the z- and u-updates (Boyd et al.,
# "Distributed optimization and statistical learning via the alternating
# direction method of multipliers", 2011, sec. 3.4.3); it saves about a
# third of the iterations here
_RELAX = 1.6


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray  # the projected iterate z: always inside the cone
    fun: float  # f at x
    iterations: int
    evaluations: int
    converged: bool


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

    func(x) returns (f(x), gradient of f at x); hessian is H.  equations,
    if given, is (E, e) for the affine constraint E x = e.  The solve
    starts from x0 with zero dual and stops (converged) once both
    residuals are at most xtol: the primal one ||x - z||, in x units, and
    the dual one rho ||z - z_previous||, relative to the gradient scale
    ||b|| of the data; or it stops after maxfev iterations.
    """
    x = np.asarray(x0, dtype=float)
    n = x.size
    eigs = np.linalg.eigvalsh(hessian)
    top = max(float(eigs[-1]), 0.0)
    rho = np.sqrt(max(float(eigs[0]), _RHO_FLOOR * top) * top) or 1.0
    kkt = hessian + rho * np.eye(n)
    if equations is not None:
        e_mat, e_rhs = equations
        m = e_mat.shape[0]
        kkt = np.block([[kkt, e_mat.T], [e_mat, np.zeros((m, m))]])
    step = np.linalg.inv(kkt)
    grad_scale = np.linalg.norm(func(np.zeros(n))[1])  # ||b||
    primal_tol2 = xtol**2
    dual_tol2 = (xtol * grad_scale / rho) ** 2
    z = project(x)
    u = np.zeros(n)
    iterations = 0
    converged = False
    while not converged and iterations < maxfev:
        iterations += 1
        _, grad = func(x)
        # exact x-step: one Newton step on f + rho/2 ||x - z + u||^2
        rhs = grad + rho * (x - z + u)
        if equations is not None:
            rhs = np.concatenate([rhs, e_mat @ x - e_rhs])
        x = x - (step @ rhs)[:n]
        relaxed = _RELAX * x + (1.0 - _RELAX) * z
        moved = z
        z = project(relaxed + u)
        u += relaxed - z
        primal, moved = x - z, z - moved
        converged = bool(primal @ primal <= primal_tol2 and moved @ moved <= dual_tol2)
    fun, _ = func(z)
    return MinimizeResult(z, float(fun), iterations, iterations + 2, converged)
