import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossyqpt import qmath, serialize
from lossyqpt.channels import (
    ChiMatrix,
    OperatorBasis,
    apply_channel,
    change_basis,
    chi_from_kraus,
    elementary_basis,
    kraus_from_chi,
    named_basis,
    pauli_basis,
    probability_operator,
    process_fidelity_ntp,
)
from lossyqpt.errors import NotPsdError, RepresentationError
from lossyqpt.simulator import PpbsParams, ppbs_chi
from lossyqpt.states import state_density

PB = pauli_basis()
# the Pauli operators in the order (I, z, x, y), under the named basis's label
REORDERED = OperatorBasis(2, PB.ops[[0, 3, 1, 2]], "pauli")


def bell_projector(d):
    """|Phi><Phi| with |Phi> = sum_j |jj>/sqrt(d): the Choi state of the
    identity channel."""
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    return np.outer(phi, phi).astype(complex)


def choi_state(chi):
    """The map applied to the first half of |Phi><Phi|: chi in the scaled
    matrix units."""
    return change_basis(chi, elementary_basis(chi.dim)).mat


def ppbs_kraus(t_h, t_v):
    return np.diag([np.sqrt(t_h), np.sqrt(t_v)]).astype(complex)


def ppbs_reference(t_h, t_v):
    """Closed-form process matrix of the polarization-dependent loss map."""
    sh, sv = np.sqrt(t_h), np.sqrt(t_v)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = (sh + sv) ** 2 / 4.0
    mat[3, 3] = (sh - sv) ** 2 / 4.0
    mat[0, 3] = mat[3, 0] = (t_h - t_v) / 4.0
    return mat


def random_channel(rng, rank, dim=2):
    """Random lossy channel with sum E_i^dag E_i <= I."""
    ops = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(rank)
    ]
    total = sum(op.conj().T @ op for op in ops)
    scale = np.sqrt(np.linalg.eigvalsh(total)[-1] * (1.0 + rng.uniform(0.0, 2.0)))
    return [op / scale for op in ops]


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian_chi(rng, basis):
    g = rng.normal(size=(basis.size,) * 2) + 1j * rng.normal(size=(basis.size,) * 2)
    return ChiMatrix(basis, 0.5 * (g + g.conj().T))


def random_state(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestBases:
    def test_pauli_ops(self):
        assert np.allclose(PB.ops[0], np.eye(2))
        assert np.trace(PB.ops[1] @ PB.ops[1].conj().T) == pytest.approx(2.0)
        assert np.trace(PB.ops[1] @ PB.ops[3].conj().T) == pytest.approx(0.0)

    def test_elementary_scaling(self):
        eb = elementary_basis(2)
        assert np.allclose(eb.ops[0], np.sqrt(2.0) * np.diag([1.0, 0.0]))
        for op in eb.ops:
            assert np.trace(op @ op.conj().T) == pytest.approx(2.0)

    def test_elementary_d3(self):
        eb = elementary_basis(3)
        assert eb.ops.shape == (9, 3, 3)

    # a chi file names its basis by label: chi_to_dict writes a chi in the
    # basis its label names as it is, and converts it otherwise
    def test_named_bases_are_named(self):
        rng = np.random.default_rng(4)
        for basis in (PB, elementary_basis(2), elementary_basis(3),
                      named_basis("elementary-scaled", 4)):
            chi = random_hermitian_chi(rng, basis)
            doc = json.dumps(serialize.chi_to_dict(chi))
            assert json.loads(doc)["mat"] == serialize.complex_matrix_to_json(chi.mat)
            copy = OperatorBasis(basis.dim, basis.ops.copy(), basis.label)
            assert json.dumps(serialize.chi_to_dict(ChiMatrix(copy, chi.mat))) == doc

    def test_label_alone_does_not_name_a_basis(self):
        rng = np.random.default_rng(5)
        for basis in (REORDERED, OperatorBasis(2, elementary_basis(2).ops, "pauli"),
                      OperatorBasis(2, PB.ops, "elementary-scaled")):
            chi = random_hermitian_chi(rng, basis)
            named = named_basis(basis.label, 2)
            loaded = serialize.chi_from_dict(serialize.chi_to_dict(chi))
            assert loaded.basis is named
            assert np.abs(loaded.mat - change_basis(chi, named).mat).max() < 1e-12
            assert np.abs(loaded.mat - chi.mat).max() > 1e-3
        custom = OperatorBasis(2, PB.ops, "custom")
        with pytest.raises(RepresentationError, match="custom"):
            serialize.chi_to_dict(random_hermitian_chi(rng, custom))

    def test_bases_compare_by_identity(self):
        # equal operators and label, yet distinct objects: comparing them
        # must neither raise nor call them equal, and both must hash
        a = OperatorBasis(2, PB.ops, "pauli")
        b = OperatorBasis(2, PB.ops, "pauli")
        assert a == a and a != b and a != PB
        assert len({a, b, PB, pauli_basis()}) == 3

    def test_operators_are_a_read_only_copy(self):
        ops = PB.ops.copy()
        basis = OperatorBasis(2, ops, "custom")
        ops[0] = 0.0
        assert np.array_equal(basis.ops, PB.ops)
        with pytest.raises(ValueError):
            basis.ops[0, 0, 0] = 2.0

    def test_bad_normalization_rejected(self):
        from lossyqpt.channels import OperatorBasis

        with pytest.raises(RepresentationError):
            OperatorBasis(2, np.array([np.eye(2)] * 4, dtype=complex), "broken")


class TestChiMatrix:
    @pytest.mark.parametrize("mat", [
        np.full((4, 4), np.nan),
        np.diag([np.inf, 0.0, 0.0, 0.0]),
        np.diag([1.0, -np.inf, 0.0, 0.0]),
    ], ids=["nan", "inf-diagonal", "minus-inf-diagonal"])
    def test_non_finite_matrix_rejected(self, mat):
        with pytest.raises(RepresentationError, match="non-finite"):
            ChiMatrix(PB, mat)


class TestApplyChannel:
    def test_identity_channel(self):
        chi = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        rng = np.random.default_rng(0)
        rho = random_state(rng)
        assert np.allclose(apply_channel(chi, rho), rho, atol=1e-12)

    def test_projective_limit_on_diagonal_input(self):
        # oracle: K = diag(1, 0) sends |D> to |H>/sqrt(2)
        chi = chi_from_kraus([ppbs_kraus(1.0, 0.0)], PB)
        d_state = state_density("D")
        out = apply_channel(chi, d_state)
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    def test_h_input_scales_by_transmittivity(self):
        for t_h in (0.3, 0.7, 1.0):
            chi = chi_from_kraus([ppbs_kraus(t_h, 0.2)], PB)
            out = apply_channel(chi, np.diag([1.0, 0.0]).astype(complex))
            assert np.allclose(out, t_h * np.diag([1.0, 0.0]), atol=1e-12)

    def test_trace_rule(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            chi = chi_from_kraus(random_channel(rng, rng.integers(1, 5)), PB)
            rho = random_state(rng)
            p = probability_operator(chi)
            lhs = np.trace(apply_channel(chi, rho)).real
            rhs = np.trace(p.mat @ rho).real
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_mismatch(self):
        chi = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        with pytest.raises(RepresentationError):
            apply_channel(chi, np.eye(3, dtype=complex))


class TestChiKraus:
    def test_identity_kraus(self):
        chi = chi_from_kraus([np.eye(2, dtype=complex)], PB)
        assert np.allclose(chi.mat, np.diag([1.0, 0, 0, 0]), atol=1e-14)

    def test_single_kraus_closed_form(self):
        for t_h, t_v in [(1.0, 0.0), (1.0, 0.5), (0.7, 0.3), (0.2, 0.9)]:
            chi = chi_from_kraus([ppbs_kraus(t_h, t_v)], PB)
            assert np.abs(chi.mat - ppbs_reference(t_h, t_v)).max() < 1e-14

    def test_two_kraus_coefficients(self):
        sx = PB.ops[1] / np.sqrt(2.0)
        sz = PB.ops[3] / np.sqrt(2.0)
        chi = chi_from_kraus([sx, sz], PB)
        assert np.allclose(chi.mat, np.diag([0.0, 0.5, 0.0, 0.5]), atol=1e-14)
        # application oracle: sum_i E_i rho E_i^dag
        rng = np.random.default_rng(2)
        rho = random_state(rng)
        direct = sx @ rho @ sx.conj().T + sz @ rho @ sz.conj().T
        assert np.allclose(apply_channel(chi, rho), direct, atol=1e-12)

    def test_kraus_from_chi_identity(self):
        chi = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        ops = kraus_from_chi(chi)
        assert len(ops) == 1
        op = ops[0]
        phase = op[0, 0] / abs(op[0, 0])
        assert np.allclose(op / phase, np.eye(2), atol=1e-12)

    def test_kraus_from_chi_rank_one(self):
        chi = chi_from_kraus([ppbs_kraus(0.8, 0.3)], PB)
        ops = kraus_from_chi(chi)
        assert len(ops) == 1
        op = ops[0]
        phase = op[0, 0] / abs(op[0, 0])
        assert np.allclose(op / phase, ppbs_kraus(0.8, 0.3), atol=1e-9)

    def test_round_trip_random_channels(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            chi = chi_from_kraus(random_channel(rng, rng.integers(1, 5)), PB)
            back = chi_from_kraus(kraus_from_chi(chi), PB)
            assert np.linalg.norm(back.mat - chi.mat) < 1e-9

    def test_kraus_from_indefinite_chi_rejected(self):
        chi = ChiMatrix(PB, np.diag([1.0, -0.2, 0, 0]).astype(complex))
        with pytest.raises(NotPsdError):
            kraus_from_chi(chi)


class TestChangeBasis:
    def test_pauli_to_pauli_is_identity(self):
        chi = chi_from_kraus([ppbs_kraus(0.9, 0.4)], PB)
        again = change_basis(chi, pauli_basis())
        assert np.allclose(again.mat, chi.mat, atol=1e-14)

    def test_identity_channel_becomes_bell_projector(self):
        chi = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        chi_e = change_basis(chi, elementary_basis(2))
        assert np.allclose(chi_e.mat, bell_projector(2), atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        chi = chi_from_kraus(random_channel(rng, 2), PB)
        back = change_basis(change_basis(chi, elementary_basis(2)), pauli_basis())
        assert np.abs(back.mat - chi.mat).max() < 1e-10

    def test_channel_action_preserved(self):
        rng = np.random.default_rng(6)
        chi = chi_from_kraus(random_channel(rng, 3), PB)
        chi_e = change_basis(chi, elementary_basis(2))
        for _ in range(5):
            rho = random_state(rng)
            assert np.allclose(
                apply_channel(chi, rho), apply_channel(chi_e, rho), atol=1e-10
            )

    def test_dimension_guard(self):
        chi = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        with pytest.raises(RepresentationError):
            change_basis(chi, elementary_basis(3))


class TestProbabilityOperator:
    def test_identity_is_trace_preserving(self):
        chi = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        p = probability_operator(chi)
        assert np.allclose(p.mat, np.eye(2), atol=1e-12)
        assert p.classification == "trace-preserving"

    def test_ppbs_spectrum(self):
        chi = chi_from_kraus([ppbs_kraus(1.0, 0.3)], PB)
        p = probability_operator(chi)
        assert np.allclose(p.mat, np.diag([1.0, 0.3]), atol=1e-12)
        assert p.classification == "state-dependent"

    def test_global_loss_is_uniform(self):
        chi = ChiMatrix(PB, np.diag([0.5, 0, 0, 0]).astype(complex))
        p = probability_operator(chi)
        assert np.allclose(p.mat, 0.5 * np.eye(2), atol=1e-12)
        assert p.classification == "uniform-lossy"

    def test_trace_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            chi = chi_from_kraus(random_channel(rng, rng.integers(1, 5)), PB)
            p = probability_operator(chi)
            assert chi.trace() == pytest.approx(
                np.trace(p.mat).real / 2.0, abs=1e-10
            )


def _rotated(basis, rng):
    """basis mixed by a random unitary: B_m = sum_k U_mk A_k, again a
    basis with Tr[B_m B_n^dag] = d delta_mn."""
    u = random_unitary(rng, basis.size)
    return OperatorBasis(basis.dim, np.einsum("mk,kij->mij", u, basis.ops), "rotated")


class TestProbabilityOperatorProperty:
    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(["pauli", "elementary-2", "elementary-3", "rotated-2",
                            "rotated-3"]),
           st.integers(0, 2**32 - 1))
    def test_matches_explicit_sum(self, kind, seed):
        rng = np.random.default_rng(seed)
        family, _, dim = kind.partition("-")
        basis = PB if family == "pauli" else elementary_basis(int(dim))
        if family == "rotated":
            basis = _rotated(basis, rng)
        n = basis.size
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        chi = ChiMatrix(basis, 0.5 * (g + g.conj().T))
        expected = np.zeros((basis.dim, basis.dim), dtype=complex)
        for m in range(n):
            for k in range(n):
                expected += chi.mat[m, k] * basis.ops[k].conj().T @ basis.ops[m]
        p = probability_operator(chi)
        assert np.abs(p.mat - expected).max() <= 1e-12
        assert np.abs(p.eigenvalues - np.linalg.eigvalsh(expected)).max() <= 1e-12


class TestJamiolkowski:
    def test_identity_gives_bell_state(self):
        chi = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        assert np.allclose(choi_state(chi), bell_projector(2), atol=1e-12)

    def test_projective_ppbs(self):
        chi = chi_from_kraus([ppbs_kraus(1.0, 0.0)], PB)
        rho_e = choi_state(chi)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.5
        assert np.allclose(rho_e, expected, atol=1e-12)
        assert np.trace(rho_e).real == pytest.approx(0.5, abs=1e-12)

    def test_direct_construction_oracle(self):
        # (E x I)|Phi><Phi| expanded term by term must agree
        rng = np.random.default_rng(8)
        chi = chi_from_kraus(random_channel(rng, 2), PB)
        phi = bell_projector(2)
        direct = np.zeros((4, 4), dtype=complex)
        for m in range(4):
            for n in range(4):
                am = np.kron(chi.basis.ops[m], np.eye(2))
                an = np.kron(chi.basis.ops[n], np.eye(2))
                direct += chi.mat[m, n] * (am @ phi @ an.conj().T)
        assert np.abs(choi_state(chi) - direct).max() < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        chi = chi_from_kraus(random_channel(rng, 3), PB)
        assert np.trace(choi_state(chi)).real == pytest.approx(
            chi.trace(), abs=1e-10
        )


class TestProcessFidelity:
    def test_self_fidelity(self):
        chi = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        assert process_fidelity_ntp(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_channels(self):
        chi_id = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        chi_x = ChiMatrix(PB, np.diag([0.0, 1.0, 0, 0]).astype(complex))
        assert process_fidelity_ntp(chi_id, chi_x) == pytest.approx(0.0, abs=1e-12)

    def test_identity_vs_depolarizing(self):
        chi_id = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        chi_dep = ChiMatrix(PB, np.diag([0.25] * 4).astype(complex))
        assert process_fidelity_ntp(chi_id, chi_dep) == pytest.approx(0.25, abs=1e-12)

    def test_global_loss_invisible(self):
        rng = np.random.default_rng(10)
        chi = chi_from_kraus(random_channel(rng, 2), PB)
        for alpha in (1e-3, 0.1, 0.9):
            lossy = ChiMatrix(PB, alpha * chi.mat)
            assert process_fidelity_ntp(lossy, chi) == pytest.approx(1.0, abs=1e-9)

    def test_scaling_invariance_both_arguments(self):
        rng = np.random.default_rng(12)
        a = chi_from_kraus(random_channel(rng, 2), PB)
        b = chi_from_kraus(random_channel(rng, 3), PB)
        base = process_fidelity_ntp(a, b)
        scaled = process_fidelity_ntp(ChiMatrix(PB, 0.01 * a.mat),
                                      ChiMatrix(PB, 0.6 * b.mat))
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_closed_form_ppbs_vs_identity(self):
        chi_id = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        for gamma in np.linspace(0.0, 1.0, 11):
            chi = chi_from_kraus([ppbs_kraus(1.0, gamma)], PB)
            expected = (1.0 + np.sqrt(gamma)) ** 2 / (2.0 * (1.0 + gamma))
            assert process_fidelity_ntp(chi, chi_id) == pytest.approx(
                expected, abs=1e-9
            )

    def test_basis_independence(self):
        rng = np.random.default_rng(13)
        a = chi_from_kraus(random_channel(rng, 2), PB)
        b = chi_from_kraus(random_channel(rng, 3), PB)
        base = process_fidelity_ntp(a, b)
        eb = elementary_basis(2)
        moved = process_fidelity_ntp(change_basis(a, eb), change_basis(b, eb))
        assert moved == pytest.approx(base, abs=1e-9)

    def test_same_label_different_operators(self):
        # REORDERED shares the named basis's label but not its operators
        ref = chi_from_kraus([ppbs_kraus(1.0, 0.5)], PB)
        moved = change_basis(ref, REORDERED)
        assert process_fidelity_ntp(moved, ref) == pytest.approx(1.0, abs=1e-12)
        assert process_fidelity_ntp(ref, moved) == pytest.approx(1.0, abs=1e-12)

    def test_zero_trace_rejected(self):
        chi = ChiMatrix(PB, np.zeros((4, 4), dtype=complex))
        ref = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))
        with pytest.raises(RepresentationError):
            process_fidelity_ntp(chi, ref)


def psd_sqrt_fidelity(a, b, clamp_tol):
    """The fidelity by the square-root formula, the oracle of the spectral
    one: (Tr sqrt(sqrt(a) b sqrt(a)))^2 with qmath.psd_sqrt's clamp on a
    and the inner spectrum zeroed below 1e-13 of its largest eigenvalue."""
    sa = qmath.psd_sqrt(a, clamp_tol)
    inner = sa @ b @ sa
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    w = np.where(w > 1e-13 * max(float(w[-1]), 0.0), w, 0.0)
    return float(np.sum(np.sqrt(w)) ** 2)


def random_psd_chi(rng, basis, rank):
    g = rng.normal(size=(basis.size, rank)) + 1j * rng.normal(size=(basis.size, rank))
    return ChiMatrix(basis, g @ g.conj().T)


class TestSpectralFidelity:
    """process_fidelity_ntp and state_fidelity, scored from spectra, against
    the square-root formula."""

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(["pauli", "elementary"]), st.integers(1, 4),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_psd_pairs_match_the_square_root_formula(self, kind, rank_a, rank_b, seed):
        rng = np.random.default_rng(seed)
        basis = PB if kind == "pauli" else elementary_basis(2)
        a, b = random_psd_chi(rng, basis, rank_a), random_psd_chi(rng, PB, rank_b)
        b_mat = change_basis(b, basis).mat
        expected = psd_sqrt_fidelity(a.mat / a.trace(), b_mat / b.trace(),
                                     qmath.DEFAULT_CLAMP_TOL)
        assert process_fidelity_ntp(a, b) == pytest.approx(expected, rel=0, abs=1e-12)
        assert qmath.state_fidelity(a.mat, b_mat) == pytest.approx(
            psd_sqrt_fidelity(a.mat, b_mat, qmath.DEFAULT_CLAMP_TOL), rel=0,
            abs=1e-12 * a.trace() * b.trace())

    @settings(deadline=None, max_examples=200)
    @given(st.sampled_from(["pauli", "elementary"]), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_indefinite_chi_against_rank_one_references(self, kind, negative, seed):
        # how the CLI scores a fit: clamp_tol=1.0 clips the negative part
        rng = np.random.default_rng(seed)
        basis = PB if kind == "pauli" else elementary_basis(2)
        spectrum = np.concatenate([rng.uniform(-0.2, 0.0, negative),
                                   rng.uniform(0.5, 1.0, 4 - negative)])
        u = random_unitary(rng, 4)
        chi = ChiMatrix(basis, (u * spectrum) @ u.conj().T)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        ref = ChiMatrix(PB, np.outer(psi, psi.conj()))
        if chi.trace() <= 0.0:
            # three negative eigenvalues can outweigh the positive one
            with pytest.raises(RepresentationError, match="positive traces"):
                process_fidelity_ntp(chi, ref, clamp_tol=1.0)
            return
        ref_mat = change_basis(ref, basis).mat
        expected = psd_sqrt_fidelity(chi.mat / chi.trace(), ref_mat / ref.trace(), 1.0)
        got = process_fidelity_ntp(chi, ref, clamp_tol=1.0)
        assert got == pytest.approx(expected, rel=0, abs=1e-12)

    def test_cached_spectra_score_without_linear_algebra(self, monkeypatch):
        # every PPBS reference is rank one: from the two spectra a ChiMatrix
        # keeps, the fidelity is a closed form
        rng = np.random.default_rng(2)
        chi = random_psd_chi(rng, PB, 4)
        ref = ppbs_chi(PpbsParams.from_gamma(0.55))
        chi.min_eigenvalue(), ref.min_eigenvalue()  # the spectra, cached
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, counting(name, fn))
        fidelity = process_fidelity_ntp(chi, ref, clamp_tol=1.0)
        assert calls == []
        monkeypatch.undo()
        expected = psd_sqrt_fidelity(chi.mat / chi.trace(), ref.mat / ref.trace(), 1.0)
        assert fidelity == pytest.approx(expected, rel=0, abs=1e-12)


class TestErrorPaths:
    """Representations the channel layer refuses."""

    def test_fidelity_across_dimensions(self):
        qubit = ChiMatrix(pauli_basis(), np.eye(4) / 4)
        qutrit = ChiMatrix(elementary_basis(3), np.eye(9) / 9)
        with pytest.raises(RepresentationError, match="dimension 2 and 3"):
            process_fidelity_ntp(qubit, qutrit)

    @pytest.mark.parametrize("first", [True, False], ids=["chi", "reference"])
    def test_fidelity_of_near_cancelling_trace(self, first):
        # every entry finite, the trace 1e-300: chi / Tr[chi] would overflow
        bad = ChiMatrix(PB, np.diag([1e150, -1e150, 1e-300, 0.0]))
        ref = ChiMatrix(PB, np.diag([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(RepresentationError, match="times its trace"):
            process_fidelity_ntp(*((bad, ref) if first else (ref, bad)))

    def test_chi_of_the_wrong_size(self):
        with pytest.raises(RepresentationError, match="must be 4x4"):
            ChiMatrix(pauli_basis(), np.eye(3))

    def test_basis_of_the_wrong_shape(self):
        with pytest.raises(RepresentationError, match="needs 4 operators"):
            OperatorBasis(2, np.zeros((3, 2, 2)), "three")

    def test_elementary_basis_of_dimension_one(self):
        with pytest.raises(RepresentationError, match="d >= 2"):
            elementary_basis(1)
