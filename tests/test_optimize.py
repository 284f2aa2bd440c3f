import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lossyqpt.tomography import hermitian_frame
from lossyqpt.optimize import _RELAX, _RHO_FLOOR, _penalty, minimize_adaptive
from lossyqpt.qmath import PsdCone

FRAME = hermitian_frame(4)
# projection onto the cone in FRAME coordinates, with its Jacobian
project = PsdCone(np.ascontiguousarray(FRAME.view(float).T))


def coords(mat):
    return (FRAME.conj() @ mat.reshape(-1)).real


def matrix(x):
    return (FRAME.T @ x).reshape(4, 4)


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def isotropic_quadratic(c, b):
    """f(x) = c/2 ||x||^2 - b.x, whose minimum over the cone is the
    projection of b / c."""
    return lambda x: (0.5 * c * x @ x - b @ x, c * x - b)


class TestAnalyticOracle:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("c", [0.5, 3.0, 1e3])
    def test_random_b(self, seed, c):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=16) * c
        res = minimize_adaptive(isotropic_quadratic(c, b), rng.normal(size=16),
                                c * np.eye(16), project)
        assert res.converged
        assert np.abs(res.x - project(b / c)).max() <= 1e-8

    @pytest.mark.parametrize("spectrum, rank", [
        ([2.0, 0.5, -0.3, -1.0], 2),
        ([1.0, -1e-3, -0.5, -4.0], 1),
        ([3.0, 1.0, 0.2, 0.1], 4),
    ])
    def test_known_rank(self, spectrum, rank):
        rng = np.random.default_rng(rank)
        v = random_unitary(rng, 4)
        target = coords((v * np.array(spectrum)) @ v.conj().T)
        c = 2.0
        res = minimize_adaptive(isotropic_quadratic(c, c * target), np.zeros(16),
                                c * np.eye(16), project)
        expected = project(target)
        assert res.converged
        assert np.abs(res.x - expected).max() <= 1e-8
        assert np.sum(np.linalg.eigvalsh(matrix(res.x)) > 1e-6) == rank
        assert res.fun == pytest.approx(isotropic_quadratic(c, c * target)(expected)[0],
                                        rel=1e-12, abs=1e-12)

    def test_evaluations_count_calls(self):
        calls = []
        f = isotropic_quadratic(1.0, np.ones(16))

        def counted(x):
            calls.append(x)
            return f(x)

        res = minimize_adaptive(counted, np.zeros(16), np.eye(16), project)
        assert res.converged and res.iterations > 2
        assert res.evaluations == len(calls) == 2


def textbook_rho(hessian):
    """(rho, the branch that sets it): the larger of the geometric mean of
    H's extreme eigenvalues, the smallest floored at 1e-12 of the largest,
    and the geometric mean of its spectrum, each floored at 1e-10 of the
    largest."""
    eigs = np.linalg.eigvalsh(hessian)
    top = eigs[-1]
    extremes = np.sqrt(max(eigs[0], 1e-12 * top) * top)
    spectrum = top * np.prod(np.maximum(eigs / top, 1e-10)) ** (1.0 / eigs.size)
    return max(extremes, spectrum), "extremes" if extremes >= spectrum else "spectrum"


def textbook_step(hessian, b, equations, z, u):
    """v = relaxed x + u after one relaxed-ADMM x-step on 1/2 x.H.x - b.x
    (and E x = e) from (z, u), written out."""
    n = b.size
    rho, _ = textbook_rho(hessian)
    # x = argmin f(x) + rho/2 ||x - z + u||^2, subject to E x = e
    if equations is None:
        x = np.linalg.solve(hessian + rho * np.eye(n), b + rho * (z - u))
    else:
        e_mat, e_rhs = equations
        m = e_mat.shape[0]
        kkt = np.zeros((n + m, n + m))
        kkt[:n, :n] = hessian + rho * np.eye(n)
        kkt[:n, n:] = e_mat.T
        kkt[n:, :n] = e_mat
        x = np.linalg.solve(kkt, np.concatenate([b + rho * (z - u), e_rhs]))[:n]
    return _RELAX * x + (1.0 - _RELAX) * z + u


def textbook_jacobian(v):
    """Jacobian of the projection at v, from its own eigendecomposition:
    column k is Q (Omega o Q^H F_k Q) Q^H with Omega the divided
    differences of max(lambda, 0)."""
    lam, q = np.linalg.eigh(matrix(v))
    pos = np.maximum(lam, 0.0)
    omega = np.empty((4, 4))
    for i, j in np.ndindex(4, 4):
        if lam[i] == lam[j]:
            omega[i, j] = float(lam[i] > 0.0)
        else:
            omega[i, j] = (pos[i] - pos[j]) / (lam[i] - lam[j])
    return np.array([coords(q @ (omega * (q.conj().T @ f @ q)) @ q.conj().T)
                     for f in FRAME.reshape(16, 4, 4)]).T


def textbook_solve(hessian, b, x0, equations, steps):
    """z after one relaxed-ADMM step from z = project(x0), u = 0 and, for
    steps = 2, the first semismooth Newton candidate on its fixed-point
    residual R(v) = G(v) - v, kept only if ||R|| falls."""
    n = b.size
    z = project(x0)
    v = textbook_step(hessian, b, equations, z, np.zeros(n))
    if steps == 1:
        return project(v)

    def step_of_v(v):  # G(v): the step from (Pi(v), v - Pi(v))
        z = project(v)
        return textbook_step(hessian, b, equations, z, v - z)

    # G is affine in (Pi(v), v - Pi(v)): its linear part, column by column
    eye, zero = np.eye(n), np.zeros(n)
    offset = textbook_step(hessian, b, equations, zero, zero)
    lin_z = np.array([textbook_step(hessian, b, equations, e, zero) - offset
                      for e in eye]).T
    lin_u = np.array([textbook_step(hessian, b, equations, zero, e) - offset
                      for e in eye]).T
    jac = textbook_jacobian(v)
    newton = lin_z @ jac + lin_u @ (eye - jac) - eye
    residual = step_of_v(v) - v
    candidate = v - np.linalg.solve(newton, residual)
    kept = np.linalg.norm(step_of_v(candidate) - candidate) < np.linalg.norm(residual)
    return project(candidate if kept else v)


class TestOneStepOracle:
    # step 1 is a relaxed ADMM step and, as it does not converge, step 2
    # the first Newton candidate from its v
    @staticmethod
    def check_first_steps(rng, hessian, constrained, steps):
        b = rng.normal(size=16) * 3.0
        x0 = rng.normal(size=16)
        equations = None
        if constrained:
            equations = (rng.normal(size=(4, 16)), rng.normal(size=4))

        def f(x):
            return 0.5 * x @ hessian @ x - b @ x, hessian @ x - b

        res = minimize_adaptive(f, x0, hessian, project, equations=equations,
                                xtol=1e-15, maxfev=steps)
        expected = textbook_solve(hessian, b, x0, equations, steps)
        assert res.iterations == steps and not res.converged
        assert np.abs(res.x - expected).max() <= 1e-12
        assert res.fun == f(res.x)[0]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("steps", [1, 2])
    def test_first_steps_are_textbook_admm(self, seed, constrained, steps):
        # a shifted Wishart H takes rho from its extreme eigenvalues
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(16, 16))
        hessian = g @ g.T + 4.0 * np.eye(16)
        assert textbook_rho(hessian)[1] == "extremes"
        self.check_first_steps(rng, hessian, constrained, steps)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("steps", [1, 2])
    def test_first_steps_with_a_near_null_eigenvalue(self, seed, constrained, steps):
        # one eigenvalue of 1e-8 drops the extreme-eigenvalue bound far
        # below the mean of the spectrum, which then sets rho
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        spectrum = rng.uniform(1.0, 50.0, size=16)
        spectrum[0] = 1e-8
        hessian = (q * spectrum) @ q.T
        hessian = 0.5 * (hessian + hessian.T)
        assert textbook_rho(hessian)[1] == "spectrum"
        self.check_first_steps(rng, hessian, constrained, steps)


def spectrum_matrix(seed, spectrum):
    """Coordinates of Q diag(spectrum) Q^H for a random unitary Q."""
    q = random_unitary(np.random.default_rng(seed), 4)
    return coords((q * np.asarray(spectrum)) @ q.conj().T)


class TestProjectionJacobian:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(1e-3, 10.0), min_size=4, max_size=4),
           st.lists(st.booleans(), min_size=4, max_size=4))
    def test_matches_central_differences(self, seed, magnitudes, negative):
        # eigenvalues of either sign, at least 1e-3 from zero, so that no
        # difference step of 1e-7 moves one across it
        x = spectrum_matrix(seed, np.where(negative, -1.0, 1.0) * np.array(magnitudes))
        project(x)
        jacobian = project.derivative()
        h = 1e-7
        columns = [(project(x + h * e) - project(x - h * e)) / (2 * h) for e in np.eye(16)]
        assert np.abs(jacobian - np.array(columns).T).max() <= 1e-6

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
    def test_symmetric_with_spectrum_in_unit_interval(self, seed, spectrum):
        project(spectrum_matrix(seed, spectrum))
        jacobian = project.derivative()
        assert np.abs(jacobian - jacobian.T).max() <= 1e-14
        eigs = np.linalg.eigvalsh(jacobian)
        assert eigs[0] >= -1e-12 and eigs[-1] <= 1.0 + 1e-12

    def test_identity_inside_the_cone(self):
        project(spectrum_matrix(1, [3.0, 1.0, 0.2, 1e-9]))
        assert np.abs(project.derivative() - np.eye(16)).max() <= 1e-12

    @pytest.mark.parametrize("spectrum", [
        [-3.0, -1.0, -0.2, -1e-9],
        [-1.0, -2.0, -1e-9, -1e-9],
        [0.0] * 4,
    ])
    def test_zero_outside_the_cone(self, spectrum):
        project(spectrum_matrix(2, spectrum))
        assert np.abs(project.derivative()).max() <= 1e-12


class TestNewtonSteps:
    def test_budget_ends_on_rejected_newton_candidate(self):
        # the 9th projection of this solve is the third Newton candidate of
        # its second chain, and it does not lower ||R||; out of budget
        # there, the solve returns the state it kept, the result of the
        # 8th projection, not the rejected candidate
        rng = np.random.default_rng(3)
        g = rng.normal(size=(16, 16))
        hessian = g @ g.T + 4.0 * np.eye(16)
        b = rng.normal(size=16) * 3.0
        x0 = rng.normal(size=16)
        equations = (rng.normal(size=(4, 16)), rng.normal(size=4))
        calls, projected = [], []

        def spy(x):
            calls.append("projection")
            projected.append(project(x))
            return projected[-1]

        def derivative():
            calls.append("derivative")
            return project.derivative()

        spy.derivative = derivative

        def f(x):
            return 0.5 * x @ hessian @ x - b @ x, hessian @ x - b

        def solve(maxfev):
            return minimize_adaptive(f, x0, hessian, spy, equations=equations,
                                     xtol=1e-15, maxfev=maxfev)

        before, res = solve(8), solve(9)
        assert res.iterations == 9 and not res.converged
        # a Newton candidate is the projection that follows a Jacobian
        assert calls[-2:] == ["derivative", "projection"]
        assert not np.array_equal(res.x, projected[-1])
        assert np.array_equal(res.x, before.x)
        assert res.fun == f(res.x)[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_newton_candidates_count_as_iterations(self, seed):
        # every projection is one iteration, Newton candidates included
        rng = np.random.default_rng(seed)
        v = random_unitary(rng, 4)
        target = coords((v * np.array([2.0, 0.5, -0.3, -1.0])) @ v.conj().T)
        g = rng.normal(size=(16, 16))
        hessian = g @ g.T + np.eye(16)
        b = hessian @ target
        calls = []

        def spy(x):
            calls.append("projection")
            return project(x)

        def derivative():
            calls.append("derivative")
            return project.derivative()

        spy.derivative = derivative
        res = minimize_adaptive(lambda x: (0.5 * x @ hessian @ x - b @ x, hessian @ x - b),
                                np.zeros(16), hessian, spy, xtol=1e-12)
        assert res.converged
        assert "derivative" in calls
        # the start is projected once before the first step
        assert res.iterations == calls.count("projection") - 1


class TestPenalty:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e6)),
                    min_size=1, max_size=16),
           st.floats(1e-6, 1e6))
    def test_rule(self, spectrum, c):
        # any nonzero positive semidefinite spectrum, singular ones included
        spectrum = np.array(spectrum)
        top = spectrum.max()
        assume(top > 0.0)
        rho = _penalty(np.diag(spectrum))
        assert np.isfinite(rho) and rho > 0.0
        assert rho == pytest.approx(_penalty(np.diag(c * spectrum)) / c, rel=1e-12)
        assert np.sqrt(max(spectrum.min(), _RHO_FLOOR * top) * top) <= rho
        assert rho <= top * (1.0 + 1e-12)

    def test_zero_hessian(self):
        assert _penalty(np.zeros((16, 16))) == 1.0
