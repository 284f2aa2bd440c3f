import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lossyqpt.tomography import hermitian_frame
from lossyqpt.optimize import _RELAX, _RHO_FLOOR, _penalty, minimize_adaptive
from lossyqpt.qmath import psd_projection

FRAME = hermitian_frame(4)


def coords(mat):
    return (FRAME.conj() @ mat.reshape(-1)).real


def matrix(x):
    return (FRAME.T @ x).reshape(4, 4)


def project(x):
    return coords(psd_projection(matrix(x)))


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


def textbook_admm(hessian, b, x0, equations, steps):
    """z after `steps` relaxed-ADMM steps on 1/2 x.H.x - b.x over the cone
    (and E x = e), from z = project(x0), u = 0, written out step by step."""
    n = b.size
    rho, _ = textbook_rho(hessian)
    z, u = project(x0), np.zeros(n)
    for _ in range(steps):
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
        relaxed = _RELAX * x + (1.0 - _RELAX) * z
        z_new = project(relaxed + u)
        u = u + relaxed - z_new
        z = z_new
    return z


class TestOneStepOracle:
    # Anderson acceleration first moves the point stepped from at step 3,
    # so the first two steps are plain relaxed ADMM
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
        expected = textbook_admm(hessian, b, x0, equations, steps)
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
