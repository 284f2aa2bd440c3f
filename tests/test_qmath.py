import warnings

import numpy as np
import pytest

from lossyqpt.channels import ChiMatrix, pauli_basis, process_fidelity_ntp
from lossyqpt.errors import NotPsdError, RepresentationError
from lossyqpt.qmath import (
    EigDecomposition,
    herm_eig,
    psd_sqrt,
    require_hermitian,
    spectral_fidelity,
    state_fidelity,
)


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


# NaN and +-inf entries are refused as non-finite, and complex entries
# are a Hermitian matrix's own; these were read as numbers, or escaped
# as a bare ValueError or TypeError
_NON_NUMERIC = {
    "bool": [[True, False], [False, True]],
    "np.bool_": np.eye(2, dtype=np.bool_),
    "str": [["1", "0"], ["0", "1"]],
    "non-numeric-str": [["x", "0"], ["0", "x"]],
    "None": [[None, 0.0], [0.0, None]],
}

_HERMITIAN_ENTRY_POINTS = {
    "require_hermitian": lambda m: require_hermitian(m, "matrix"),
    "herm_eig": herm_eig,
    "psd_sqrt": psd_sqrt,
    "state_fidelity": lambda m: state_fidelity(m, np.eye(2)),
    "ChiMatrix": lambda m: ChiMatrix(pauli_basis(),
                                     np.asarray(m).repeat(2, 0).repeat(2, 1)),
}


@pytest.mark.parametrize("kind", list(_NON_NUMERIC))
@pytest.mark.parametrize("entry", list(_HERMITIAN_ENTRY_POINTS))
def test_matrices_must_hold_numbers(entry, kind):
    m = _NON_NUMERIC[kind]
    with pytest.raises(RepresentationError) as info:
        _HERMITIAN_ENTRY_POINTS[entry](m)
    assert str(info.value).endswith(f" must hold numbers, got dtype {np.asarray(m).dtype}")


# full rank, so that clamp_tol=0 refuses no rounding-level eigenvalue
_CHI = ChiMatrix(pauli_basis(), np.diag([0.5, 0.25, 0.125, 0.125]))
_SPECTRUM = EigDecomposition(*np.linalg.eigh(np.diag([0.5, 0.25, 0.25])))

# every entry point reaches the one check in qmath._kept_eigenpairs
_CLAMP_ENTRY_POINTS = {
    "psd_sqrt": lambda tol: psd_sqrt(np.diag([0.25, 1.0]), tol),
    "spectral_fidelity": lambda tol: spectral_fidelity(_SPECTRUM, _SPECTRUM, tol),
    "state_fidelity": lambda tol: state_fidelity(np.eye(2), np.diag([1.0, 0.5]), tol),
    "process_fidelity_ntp": lambda tol: process_fidelity_ntp(_CHI, _CHI, tol),
}


# NaN gave a LinAlgError, negatives a NotPsdError below "--1.0e+00",
# strings, None and complex numbers a TypeError; booleans read as 1 and
# inf clipped nothing
@pytest.mark.parametrize("clamp_tol", [True, np.True_, "1", None, 1.0 + 0j,
                                       float("nan"), float("inf"), -float("inf"),
                                       -1.0, -1e-300])
@pytest.mark.parametrize("entry", list(_CLAMP_ENTRY_POINTS))
def test_clamp_tol_must_be_finite_and_non_negative(entry, clamp_tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            _CLAMP_ENTRY_POINTS[entry](clamp_tol)
    assert str(info.value) == (
        f"clamp_tol must be finite and non-negative, got {clamp_tol!r}")


@pytest.mark.parametrize("clamp_tol", [0, 0.0, np.float64(1.0), np.int64(1)])
@pytest.mark.parametrize("entry", list(_CLAMP_ENTRY_POINTS))
def test_clamp_tol_accepts_non_negative_reals(entry, clamp_tol):
    _CLAMP_ENTRY_POINTS[entry](clamp_tol)
