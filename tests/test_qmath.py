import numpy as np
import pytest

from lossyqpt.errors import NotPsdError, RepresentationError
from lossyqpt.qmath import herm_eig, psd_sqrt, state_fidelity


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def random_psd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T


def reconstruct(e):
    """V diag(w) V^H of an eigendecomposition."""
    v = e.eigenvectors
    return (v * e.eigenvalues) @ v.conj().T


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestHermEig:
    def test_diagonal_case(self):
        e = herm_eig(np.diag([2.0, 1.0]).astype(complex))
        assert np.allclose(e.eigenvalues, [1.0, 2.0])
        # eigenvectors are the basis vectors, in swapped order
        proj0 = np.outer(e.eigenvectors[:, 0], e.eigenvectors[:, 0].conj())
        assert np.allclose(proj0, np.diag([0.0, 1.0]))

    def test_pauli_x_spectrum(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        e = herm_eig(sx)
        assert np.allclose(e.eigenvalues, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        proj = np.outer(e.eigenvectors[:, 0], e.eigenvectors[:, 0].conj())
        assert np.allclose(proj, np.outer(minus, minus))

    def test_reconstruction_oracle_4x4(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(rng, 4)
        e = herm_eig(m)
        assert np.linalg.norm(reconstruct(e) - m) <= 1e-10 * np.linalg.norm(m)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            m = random_hermitian(rng, n)
            e = herm_eig(m)
            rel = np.linalg.norm(reconstruct(e) - m) / np.linalg.norm(m)
            assert rel <= 1e-10
            gram = e.eigenvectors.conj().T @ e.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10
            assert np.all(np.diff(e.eigenvalues) >= -1e-14)

    def test_eigenvalues_match_lapack(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 6)
        e = herm_eig(m)
        assert np.allclose(e.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(RepresentationError):
            herm_eig(np.ones((2, 3), dtype=complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(RepresentationError):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    @pytest.mark.parametrize("entry,where", [
        (np.nan, (slice(None), slice(None))),
        (np.inf, (0, 0)),
        (-np.inf, (1, 1)),
        (complex(0.0, np.nan), (0, 1)),
    ])
    def test_rejects_non_finite(self, entry, where):
        m = np.eye(2, dtype=complex)
        m[where] = entry
        with pytest.raises(RepresentationError, match="non-finite"):
            herm_eig(m)

    def test_degenerate_subspace_projector(self):
        # eigenvectors inside a degenerate block are arbitrary, the
        # projector onto the block is not
        m = np.diag([1.0, 1.0, 3.0]).astype(complex)
        e = herm_eig(m)
        block = e.eigenvectors[:, :2]
        proj = block @ block.conj().T
        assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]))


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        s = psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex))
        assert np.allclose(s, np.diag([2.0, 1.0, 0.0, 0.0]))

    def test_clamps_numerical_zero(self):
        s = psd_sqrt(np.diag([1e-15, 1.0]).astype(complex), clamp_tol=1e-12)
        assert np.allclose(s, np.diag([0.0, 1.0]), atol=0)

    def test_square_reproduces_input(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            m = random_psd(rng, n)
            s = psd_sqrt(m)
            assert np.linalg.norm(s @ s - m) <= 1e-9 * np.linalg.norm(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPsdError) as exc:
            psd_sqrt(np.diag([-0.5, 1.0]).astype(complex))
        assert exc.value.eigenvalue == pytest.approx(-0.5)

    def test_loose_clamp_keeps_genuine_spectrum(self):
        # a loose negativity tolerance must not erase real eigenvalues
        s = psd_sqrt(np.diag([-0.04, 0.25, 1.0]).astype(complex), clamp_tol=0.1)
        assert np.allclose(s, np.diag([0.0, 0.5, 1.0]))


class TestStateFidelity:
    def test_identical_state(self):
        rng = np.random.default_rng(5)
        rho = random_psd(rng, 3)
        rho /= np.trace(rho).real
        assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        h = np.diag([1.0, 0.0]).astype(complex)
        v = np.diag([0.0, 1.0]).astype(complex)
        assert state_fidelity(h, v) == pytest.approx(0.0, abs=1e-12)

    def test_h_d_overlap(self):
        # oracle: |<H|D>|^2 = 1/2 by direct inner product
        h = np.diag([1.0, 0.0]).astype(complex)
        d = 0.5 * np.ones((2, 2), dtype=complex)
        assert state_fidelity(h, d) == pytest.approx(0.5, abs=1e-12)

    def test_pure_state_inner_product_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            phi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            expected = abs(np.vdot(psi, phi)) ** 2
            got = state_fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        a, b = random_psd(rng, 4), random_psd(rng, 4)
        a /= np.trace(a).real
        b /= np.trace(b).real
        assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a), abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(29)
        a, b = random_psd(rng, 3), random_psd(rng, 3)
        u = random_unitary(rng, 3)
        f1 = state_fidelity(a, b)
        f2 = state_fidelity(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert f2 == pytest.approx(f1, abs=1e-9 * max(1.0, f1))

    def test_unit_trace_bound(self):
        rng = np.random.default_rng(31)
        a, b = random_psd(rng, 4), random_psd(rng, 4)
        a /= np.trace(a).real
        b /= np.trace(b).real
        assert 0.0 <= state_fidelity(a, b) <= 1.0 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(RepresentationError):
            state_fidelity(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_non_hermitian_argument_rejected(self):
        # the inner product is symmetrized, so without its own check a
        # non-Hermitian b would be scored as if it were Hermitian
        a = np.eye(2, dtype=complex) / 2
        b = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        for args in ((a, b), (b, a)):
            with pytest.raises(RepresentationError):
                state_fidelity(*args)


def test_fidelity_against_an_indefinite_argument():
    with pytest.raises(NotPsdError, match="inner product"):
        state_fidelity(np.eye(2), np.diag([1.0, -0.5]))
