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
(b + rho (z - u)), bordered by E for the equations; the matrix is
inverted once per solve.  The penalty rho adapts to the problem: it is
the geometric mean of H's whole spectrum, never below the geometric mean
of its extreme eigenvalues, the optimum for well-conditioned strongly
convex quadratics (Ghadimi et al., IEEE Trans. Autom. Control 60, 644
(2015)).  The extreme-eigenvalue rule alone sets rho far too low where
one eigenvalue stands far above the rest and a few lie near zero: on
whitened chi fits, and on the singular Hessians of count tables whose
kept cells do not determine chi.  The whole-spectrum mean alone falls
to about 4e-10 of lambda_max on a Hessian of rank one, where the
extreme-eigenvalue bound keeps 1e-6.  f itself is evaluated twice per
solve, for b = -grad f(0) and at the result.

One ADMM step is a fixed-point map T of the state w = (z, u).  Plain
ADMM iterates w <- T(w) and takes hundreds of steps on chi fits, most at
rank-deficient optima.  Type-II Anderson acceleration (Walker & Ni, SIAM J. Numer.
Anal. 49, 1715 (2011)) instead steps to T(w) minus the combination of
recent T-differences whose residual differences best cancel the
residual T(w) - w.  A safeguard as in Zhang, O'Donoghue & Boyd (SIAM J.
Optim. 30, 3170 (2020)) keeps it at least as good as ADMM: when an
extrapolated point has a larger residual than the last accepted point,
it is discarded, the memory is cleared and the plain step from the last
accepted point is taken, so with an empty memory the method is plain
ADMM.  Nothing depends on wall clock, so a solve is bit-for-bit
reproducible.

The memory holds the last 20 steps, and the Gram matrix of the residual
differences is damped: each diagonal entry is scaled by 1 + lambda with
lambda = 1e-2, a Tikhonov term as in regularized nonlinear acceleration
(Scieur, d'Aspremont & Bach, Math. Program. 179, 47 (2020); Fu, Zhang &
Boyd, SIAM J. Sci. Comput. 42, A3560 (2020)).  It shrinks extrapolations
built from stale, nearly collinear differences, which the safeguard
would otherwise throw away, and keeps the normal equations solvable.
Over the MLE and TP fits of 120 benchmark tables (5 values of Gamma, 24
seeds each; measured before the fits were whitened and before rho took
the whole spectrum into account) the step totals with a memory of 15
are 11 146 at lambda = 1e-10 (a guard only), 10 823 at 1e-6, 10 264 at
1e-3, 10 484 at 1e-2, 12 082 at 1e-1 and 13 578 at 3e-1; with a memory
of 20 they are 9 902 at 1e-3, 9 715 at 5e-3, 9 716 at 1e-2 and 9 926 at
2e-2.
Memories of 25 and 30 save a few more steps (9 573 and 9 544), but each
step costs more.  At (1e-2, 20) the largest fit over 300 further tables
takes 92 steps; at (3e-3, 20) it takes 159, so the larger damping is
kept.  All fits converge at each setting.  The differences live in
preallocated ring buffers, and the Gram matrix gains one row and column
per step; the row is damped before it is written, so each step solves
the leading block of the Gram matrix as it stands: no copy, no per-step
shift.

The x-step, the relaxation and the dual update are all affine in w, so
one (2n x 2n) matrix and one offset, built once per solve, map w to both
the x-step result x and the projection argument v = relaxed x + u.  A
step is then one mat-vec, one projection and a few vector operations,
and the new state is (z, v - z) with z the projection of v.  Products
in the loop call ndarray.dot, which gives the same bits as @ on these
arrays and skips the ufunc dispatch of @, about 1 us a call.  On chi fits
(n = 16) a step costs 60-75 us on one core of a 2-vCPU Intel Xeon VM
with numpy 2.4, the range being the VM's varying clock speed.  Timed
section by section over those 120 tables, about 46 % of that is the
projection (eigensolver, clip and the real lift products), 25 % the
solve of up to 20 normal equations, 10 % the Gram row update, 9 % the
residuals and the stopping test, and the rest the mat-vec and the
Anderson combination.  Of the solve and of the eigensolver, about half
is the Python wrapper of np.linalg around the LAPACK call.

Anderson acceleration finds the optimum's face (which eigenvalues stay
positive) within a few steps, but from there the fixed-point residual
falls only 3-5 times a step.  There a semismooth Newton step on the
fixed point converges quadratically (Ali, Wong & Kolter, "A semismooth
Newton method for fast, generic convex programming", ICML 2017;
Themelis & Patrinos, "SuperMann", IEEE Trans. Autom. Control 64, 4875
(2019)).  From a state (Pi(v), v - Pi(v)), Pi the projection, one ADMM
step is a map of v alone, G(v) = A_z Pi(v) + A_u (v - Pi(v)) + c, with
A_z, A_u and c the v-rows of the affine map and its offset (for P = I
fits with the equations bordered in).  Its residual is R(v) = G(v) - v
= _RELAX (x - Pi(v)).  A Newton step solves

    (A_u - I + (A_z - A_u) D) delta = -R(v)

with D the Jacobian of Pi at v, which the projection builds from the
eigendecomposition it has already computed (qmath.PsdCone).  The step
is first tried once the residual of a step is at most 1e-3 of the first
step's.  A chain takes up to 4 Newton steps, each from the last
candidate v + delta, and accepts a candidate whose ||R|| is at most a
tenth of the last accepted point's (the start's at first).  The chain
stops early after an accepted candidate from which the next ADMM step
must pass the stop test, and after a rejected one whose residual is
above the level that first triggers Newton steps: from so far off, the
next Newton step is no better informed.  A chain that accepts a
candidate restarts ADMM from the last accepted one's (Pi(v), v -
Pi(v)) with an empty Anderson memory.  After a chain that accepts none,
the next try waits 3 steps, and each rejected candidate doubles the
wait; an acceptance resets it.  The ADMM stop test still decides
convergence, and `iterations` counts every projection, Newton
candidates included.  Semismooth Newton steps alone are not monotone:
a candidate built from the wrong face overshoots, and the next step
from it, on the right face, lands close to the optimum, which is why a
chain goes on from a rejected candidate.  Where an eigenvalue of the
iterate crawls towards zero for many steps (dense tables with floored
weights), this is what ends the crawl.

A candidate costs the Jacobian, a 16 x 16 solve and one projection,
about 1.4 ADMM steps.  Over the MLE and TP fits of the 300 held-out
tables op_inputs("fit-sweep", 7, i) of the benchmark and of a harder
grid of 240 tables (Gamma in {1, .55, .255, .1, .02} x exposures 1e2,
1e4, 1e6, 1e7 x floored or dropped dark cells x 6 seeds), ADMM with
Anderson acceleration alone takes 12 757 and 10 630 projections, its
largest grid fit 251.  With the constants below it takes 8 027 and
6 222 (largest grid fit 85), 1 327 and 1 093 of them Newton
candidates.  Each constant varied alone:

    trigger  1e-2: 6 833 / 5 589 (largest held-out fit 29 -> 37,
                   41 % more candidates); 3e-3: 7 425 / 6 001;
             1e-4: 9 221 / 7 144
    gain     3: 8 027 / 6 290; 30: 8 027 / 6 329
    chain    1: 8 814 / 8 264 (largest grid fit 243); 2: 8 135 / 7 503;
             3: 8 038 / 7 045 (185); 5: 8 027 / 6 181 (120)
    wait     1: 8 027 / 6 289 (156); 10: 8 027 / 6 338 (152)

An earlier trigger saves projections, but spends more candidates far
from the face and lengthens the largest fits, so 1e-3 is kept.  On a
table whose one lit cell leaves the optimum a set (no candidate is ever
accepted, and at xtol 1e-11 the solve runs out of its 50 000 steps),
the backoff keeps the candidates to 15 (16 with a wait of 1, 13 with
10).  A wait fixed at 3 steps spends 11 766 there, about one projection
in four, and makes 150 drop-mode tables whose lit cells do not
determine chi take 38 % longer to fit.
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
# number of past steps Anderson acceleration combines
_MEMORY = 20
# relative damping of each diagonal entry of the Anderson Gram matrix,
# made once when its row is written: it shrinks extrapolations along
# nearly collinear residual differences and keeps the normal equations
# solvable
_REGULARIZATION = 1e-2
# a Newton step on the fixed point is first tried once the residual of a
# step is at most this fraction of the first step's
_NEWTON_TRIGGER = 1e-3
# a Newton candidate is kept only if it cuts the fixed-point residual
# ||G(v) - v|| at least by this factor
_NEWTON_GAIN = 10.0
# Newton steps taken in a row, each from the last candidate
_NEWTON_CHAIN = 4
# steps to wait after a chain of Newton steps without an accepted
# candidate; each rejected candidate doubles the wait after the next such
# chain, and an acceptance resets it
_NEWTON_WAIT = 3


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


def _newton(state, project, v_rows, v_offset, base, coupling, done2, trigger2, budget):
    """(state, candidates): a chain of up to min(_NEWTON_CHAIN, budget)
    semismooth Newton steps on R(v) = G(v) - v from the state (z, u) =
    (Pi(v), v - Pi(v)), where G(v) = v_rows @ (Pi(v), v - Pi(v)) +
    v_offset is one ADMM step of the projection argument and project
    last projected v.

    Each step solves (base + coupling D) delta = -R(v), with D the
    Jacobian of the projection at v, and projects v + delta: a
    candidate, from which the next step starts.  A candidate is accepted
    if its ||R|| is at most 1/_NEWTON_GAIN of the last accepted point's
    (the start's at first).  The chain stops after an accepted candidate
    with ||R||^2 <= done2, from which the next ADMM step must converge,
    and after a rejected one with ||R||^2 > trigger2.  state is the last
    accepted candidate's (Pi(v), v - Pi(v)), None if none was."""
    n = state.size // 2
    v = state[:n] + state[n:]
    r = v_rows.dot(state) + v_offset - v
    bound2 = r.dot(r) / _NEWTON_GAIN**2
    accepted, candidates = None, 0
    while candidates < min(_NEWTON_CHAIN, budget):
        try:
            delta = np.linalg.solve(base + coupling.dot(project.derivative()), r)
        except np.linalg.LinAlgError:  # an exactly singular Newton matrix
            break
        candidates += 1
        v = v - delta
        z = project(v)
        state = np.concatenate([z, v - z])
        r = v_rows.dot(state) + v_offset - v
        norm2 = r.dot(r)
        if norm2 <= bound2:
            accepted, bound2 = state, norm2 / _NEWTON_GAIN**2
            if norm2 <= done2:
                break
        elif norm2 > trigger2:
            break
    return accepted, candidates


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
    if given, is (E, e) for the affine constraint E x = e.  The solve
    starts from x0 with zero dual and stops (converged) once both
    residuals of an ADMM step are at most xtol: the primal one ||x - z||,
    in x units, and the dual one rho ||z - z_previous||, relative to the
    gradient scale ||b|| of the data; or it stops after maxfev
    projections, ADMM steps and Newton candidates alike.  Unless the last
    step converged, x is the projection of the last accepted point.
    evaluations counts the calls of func, two per solve.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    rho = _penalty(hessian)
    b = -func(np.zeros(n))[1]
    m = 0 if equations is None else equations[0].shape[0]
    eye = np.eye(n)
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = hessian + rho * eye
    rhs = b
    if m:
        e_mat, e_rhs = equations
        kkt[n:, :n] = e_mat
        kkt[:n, n:] = e_mat.T
        rhs = np.concatenate([b, e_rhs])
    step = np.linalg.inv(kkt)[:n]
    # the x-step is x = x_data + gain (z - u); x and the projection argument
    # v = relaxed x + u are then one affine map of the state w = (z, u),
    # [x; v] = affine @ w + offset
    x_data, gain = step @ rhs, rho * step[:, :n]
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

    image = w = np.concatenate([project(x0), np.zeros(n)])
    # ring buffers of the recent differences of T(w) - w and of T(w), and
    # the Gram matrix of the former, updated by one row and column a step
    d_residual = np.empty((_MEMORY, 2 * n))
    d_image = np.empty((_MEMORY, 2 * n))
    gram = np.empty((_MEMORY, _MEMORY))
    filled = slot = 0  # differences held; the slot the next one goes to
    previous = None  # (T(w), T(w) - w) of the last point in the memory
    # T(w) and ||T(w) - w||^2 of the last accepted w (the start at first)
    accepted, accepted_norm2 = image, None
    extrapolated = converged = False
    newton_norm2 = None  # residual a Newton step waits for, from the first step's
    newton_at, newton_wait = 0, _NEWTON_WAIT  # earliest try; wait after a rejection
    iterations = 0
    while not converged and iterations < maxfev:
        iterations += 1
        image = affine.dot(w)
        image += offset  # [x; v]
        x, v = image[:n], image[n:]
        z_new = project(v)
        primal = x - z_new
        # T(w) = (z_new, u + relaxed x - z_new) = (z_new, v - z_new)
        x[:] = z_new
        v -= z_new
        residual = image - w
        moved = residual[:n]  # z_new - z
        converged = (primal.dot(primal) <= primal_tol2
                     and moved.dot(moved) <= dual_tol2)
        norm2 = residual.dot(residual)
        if newton_norm2 is None:
            newton_norm2 = _NEWTON_TRIGGER**2 * norm2
        if extrapolated and norm2 > accepted_norm2:
            # safeguard: drop w and the memory, step plainly from the last
            # accepted point
            filled = slot = 0
            previous, w, extrapolated = None, accepted, False
            continue
        accepted, accepted_norm2 = image, norm2
        if not converged and norm2 <= newton_norm2 and newton_at <= iterations < maxfev:
            jump, candidates = _newton(image, project, v_rows, v_offset, base,
                                       coupling, newton_done2, newton_norm2,
                                       maxfev - iterations)
            iterations += candidates
            if jump is not None:
                # restart plain ADMM from the jump, with an empty memory
                newton_wait = _NEWTON_WAIT
                filled = slot = 0
                previous, w, accepted, extrapolated = None, jump, jump, False
                continue
            newton_at = iterations + newton_wait
            newton_wait *= 2 ** max(candidates, 1)
        if previous is not None:
            np.subtract(residual, previous[1], out=d_residual[slot])
            np.subtract(image, previous[0], out=d_image[slot])
            filled = min(filled + 1, _MEMORY)
            row = d_residual[:filled].dot(d_residual[slot])
            row[slot] *= 1.0 + _REGULARIZATION
            gram[slot, :filled] = row
            gram[:filled, slot] = row
            slot = (slot + 1) % _MEMORY
        previous = (image, residual)
        w, extrapolated = image, filled > 0
        if extrapolated:
            coef = np.linalg.solve(
                gram[:filled, :filled], d_residual[:filled].dot(residual)
            )
            w = image - coef.dot(d_image[:filled])
    z = (image if converged else accepted)[:n]
    fun, _ = func(z)
    return MinimizeResult(z, float(fun), iterations, 2, bool(converged))
