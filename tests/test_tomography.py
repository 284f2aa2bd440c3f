import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossyqpt.channels import (
    ChiMatrix,
    OperatorBasis,
    apply_channel,
    chi_from_kraus,
    elementary_basis,
    pauli_basis,
    probability_operator,
)
from lossyqpt.errors import DataError, SingularSystemError
from lossyqpt.simulator import SimConfig, PpbsParams, simulate_counts
from lossyqpt.states import STATE_LABELS, state_catalog, state_density
from lossyqpt.tomography import (
    MAX_EXPOSURE,
    MAX_RATE,
    MIN_EXPOSURE,
    CountTable,
    _tp_equations,
    analyzer_dual_frame,
    build_beta,
    hermitian_frame,
    invert_beta,
    lambda_from_outputs,
    linear_inversion,
    reconstruct_linear,
    state_tomography,
)

PB = pauli_basis()


def random_channel(rng, rank, dim=2):
    ops = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(rank)
    ]
    total = sum(op.conj().T @ op for op in ops)
    scale = np.sqrt(np.linalg.eigvalsh(total)[-1] * (1.0 + rng.uniform(0.0, 2.0)))
    return chi_from_kraus([op / scale for op in ops], PB)


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def exact_table(chi, exposure=1e4, inputs=STATE_LABELS):
    cfg = SimConfig(PpbsParams(1.0, 1.0), exposure=exposure, noise="none", inputs=inputs)
    return simulate_counts(cfg, chi=chi)


class TestCountTable:
    @pytest.mark.parametrize("exposure", [0.0, -1.0, float("nan"), float("inf"), 1e19])
    def test_exposure_must_be_finite_and_positive(self, exposure):
        with pytest.raises(DataError, match="exposure"):
            CountTable(2, STATE_LABELS, STATE_LABELS, exposure, np.ones((6, 6)))

    @pytest.mark.parametrize("count", [-1.0, 2.1e18, float("nan"), float("inf")])
    def test_counts_must_lie_in_range(self, count):
        counts = np.ones((6, 6))
        counts[2, 3] = count
        with pytest.raises(DataError, match="counts"):
            CountTable(2, STATE_LABELS, STATE_LABELS, 1e4, counts)

    def test_counts_are_a_read_only_copy(self):
        # a validated table cannot change when its caller's array does
        arr = np.full((6, 6), 10.0)
        table = CountTable(2, STATE_LABELS, STATE_LABELS, 1e4, arr)
        arr[0, 0] = -5.0
        assert table.counts[0, 0] == 10.0
        assert not table.counts.flags.writeable
        with pytest.raises(ValueError):
            table.counts[0, 0] = -5.0

    def test_poisson_table_at_largest_exposure(self):
        # an exposure at the bound is accepted, and draws overshoot their
        # mean, the exposure itself on six cells
        table = simulate_counts(SimConfig(PpbsParams(1.0, 1.0), exposure=MAX_EXPOSURE))
        assert table.counts.max() > MAX_EXPOSURE

    @pytest.mark.parametrize("exposure", [1.0, 1e-10, 1e-30, 1e-300])
    def test_rates_are_bounded(self, exposure):
        # counts / exposure estimates a probability: a table whose rates
        # exceed MAX_RATE holds a wrong exposure, whatever its parts
        counts = np.full((6, 6), MAX_RATE * exposure)
        CountTable(2, STATE_LABELS, STATE_LABELS, exposure, counts)
        counts[4, 1] *= 1.0 + 1e-12
        with pytest.raises(DataError, match="counts"):
            CountTable(2, STATE_LABELS, STATE_LABELS, exposure, counts)

    def test_poisson_tables_at_smallest_exposure(self):
        # where Poisson draws spread most in rate, they keep the rate bound
        for seed in range(50):
            simulate_counts(SimConfig(PpbsParams(1.0, 1.0), exposure=MIN_EXPOSURE,
                                      seed=seed))

    @pytest.mark.parametrize("exposure", [0.999, 1e-10])
    def test_simulation_exposure_starts_at_min_exposure(self, exposure):
        with pytest.raises(DataError, match="exposure"):
            SimConfig(PpbsParams(1.0, 1.0), exposure=exposure)


class TestBetaTau:
    def test_identity_conjugation(self):
        beta = build_beta(PB)
        # A_0 = I: beta^{00}_{jk} = delta_jk
        block = beta[:, 0].reshape(4, 4)
        assert np.allclose(block, np.eye(4), atol=1e-12)

    def test_sigma_x_on_ground_unit(self):
        beta = build_beta(PB)
        # sigma_x |0><0| sigma_x = |1><1|: row (j=0, k=3), column (m=n=1)
        col = beta[:, 1 * 4 + 1].reshape(4, 4)
        assert np.allclose(col[0], [0, 0, 0, 1], atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([PB, elementary_basis(2), elementary_basis(3)]),
           st.integers(0, 2**32 - 1))
    def test_defining_relation_random_bases(self, named, seed):
        # B_m = sum_k U_mk A_k for a random unitary U is again a basis
        u = random_unitary(np.random.default_rng(seed), named.size)
        basis = OperatorBasis(named.dim, np.einsum("mk,kij->mij", u, named.ops),
                              "rotated")
        d, n = basis.dim, basis.size
        units = np.eye(n).reshape(n, d, d)  # E_k = |i><l|, k = i d + l
        beta = build_beta(basis).reshape(n, n, n, n)  # (j, k, m, nn)
        lhs = np.einsum("mia,jab,nlb->jmnil", basis.ops, units, basis.ops.conj())
        rhs = np.einsum("jkmn,kil->jmnil", beta, units)
        assert np.abs(lhs - rhs).max() < 1e-10
        tau = invert_beta(beta.reshape(n * n, n * n))
        assert np.abs(tau @ beta.reshape(n * n, n * n) - np.eye(n * n)).max() < 1e-10

    def test_invert_identity(self):
        tau = invert_beta(np.eye(16, dtype=complex))
        assert np.allclose(tau, np.eye(16))

    def test_delta_relation(self):
        beta = build_beta(PB)
        tau = invert_beta(beta)
        assert np.abs(tau @ beta - np.eye(16)).max() < 1e-10

    def test_pseudo_inverse_axiom(self):
        beta = build_beta(PB)
        tau = invert_beta(beta)
        assert np.abs(beta @ tau @ beta - beta).max() < 1e-8

    def test_singular_beta_rejected(self):
        mat = np.zeros((16, 16), dtype=complex)
        mat[0, 0] = 1.0
        with pytest.raises(SingularSystemError):
            invert_beta(mat)


class TestTpEquations:
    """The plan's equations (E, e) of P = I against probability_operator."""

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(["pauli", "elementary", "rotated"]),
           st.integers(0, 2**32 - 1))
    def test_residual_is_p_minus_identity(self, which, seed):
        # E x - e holds the P-frame coordinates of P(chi(x)) - I
        rng = np.random.default_rng(seed)
        if which == "rotated":
            ops = np.einsum("mk,kij->mij", random_unitary(rng, 4), PB.ops)
            basis = OperatorBasis(2, ops, "rotated")
        else:
            basis = PB if which == "pauli" else elementary_basis(2)
        frame = hermitian_frame(4)
        e_mat, e_rhs = _tp_equations(basis, frame)
        x = rng.normal(size=16)
        chi = ChiMatrix(basis, (frame.T @ x).reshape(4, 4))
        p = probability_operator(chi).mat - np.eye(2)
        coords = (hermitian_frame(2).conj() @ p.reshape(-1)).real
        tol = 1e-12 * max(1.0, np.abs(x).max())
        assert np.abs(e_mat @ x - e_rhs - coords).max() <= tol

    @pytest.mark.parametrize("basis", [PB, elementary_basis(2)],
                             ids=["pauli", "elementary"])
    def test_gram_oracle_bits(self, basis):
        # vec(P) = gram.T @ vec(chi), row (m, n) of gram being vec(A_n^dag A_m)
        frame = hermitian_frame(4)
        gram = np.einsum("nji,mjk->mnik", basis.ops.conj(), basis.ops).reshape(16, 4)
        oracle = (hermitian_frame(2).conj() @ (frame @ gram).T).real
        assert _tp_equations(basis, frame)[0].tobytes() == oracle.tobytes()


class TestStateTomography:
    def test_noiseless_lossy_h(self):
        rho = 0.7 * state_density("H")
        cat = state_catalog()
        n = 1e4
        counts = {lab: n * np.trace(p @ rho).real for lab, p in cat.items()}
        est = state_tomography(counts, n)
        assert np.abs(est - rho).max() < 1e-12
        assert np.trace(est).real == pytest.approx(0.7, abs=1e-12)

    def test_all_zero_counts(self):
        est = state_tomography({lab: 0.0 for lab in STATE_LABELS}, 1e4)
        assert np.abs(est).max() == 0.0

    def test_uniform_loss_on_mixed_state(self):
        rho = 0.25 * np.eye(2, dtype=complex)
        cat = state_catalog()
        counts = {lab: 1e4 * np.trace(p @ rho).real for lab, p in cat.items()}
        est = state_tomography(counts, 1e4)
        assert np.abs(est - rho).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(33)
        c1 = {lab: float(rng.integers(0, 500)) for lab in STATE_LABELS}
        c2 = {lab: float(rng.integers(0, 500)) for lab in STATE_LABELS}
        total = {lab: c1[lab] + c2[lab] for lab in STATE_LABELS}
        lhs = state_tomography(total, 1e4)
        rhs = state_tomography(c1, 1e4) + state_tomography(c2, 1e4)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_missing_analyzer(self):
        counts = {lab: 1.0 for lab in STATE_LABELS[:-1]}
        with pytest.raises(DataError, match="missing analyzer"):
            state_tomography(counts, 1e4)


class TestLambda:
    def test_identity_channel(self):
        inputs = np.array([state_density(lab) for lab in STATE_LABELS])
        lam = lambda_from_outputs(inputs, inputs)
        assert np.abs(lam - np.eye(4)).max() < 1e-12

    def test_matrix_units_row_major(self):
        # sigma_x E_1 sigma_x = sigma_x |0><1| sigma_x = |1><0| = E_2
        chi = chi_from_kraus([PB.ops[1]], PB)
        inputs = np.array([state_density(lab) for lab in STATE_LABELS])
        outputs = np.array([apply_channel(chi, r) for r in inputs])
        lam = lambda_from_outputs(outputs, inputs)
        assert np.abs(lam - np.eye(4)[[3, 2, 1, 0]]).max() < 1e-12

    def test_projective_ppbs_structure(self):
        # K = diag(1, 0): E(|u><v|) = delta_u0 delta_v0 |0><0|
        chi = chi_from_kraus([np.diag([1.0, 0.0]).astype(complex)], PB)
        inputs = np.array([state_density(lab) for lab in STATE_LABELS])
        outputs = np.array([apply_channel(chi, r) for r in inputs])
        lam = lambda_from_outputs(outputs, inputs)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(lam - expected).max() < 1e-12

    def test_overcomplete_residual(self):
        # six inputs for four unknowns: lambda must reproduce every output
        rng = np.random.default_rng(41)
        chi = random_channel(rng, 2)
        inputs = np.array([state_density(lab) for lab in STATE_LABELS])
        outputs = np.array([apply_channel(chi, r) for r in inputs])
        lam = lambda_from_outputs(outputs, inputs)
        # vec(E(rho)) = vec(rho) @ lambda in the matrix units
        assert np.abs(inputs.reshape(6, 4) @ lam - outputs.reshape(6, 4)).max() < 1e-12

    def test_rank_deficient_inputs(self):
        inputs = np.array([state_density("H")] * 4)
        with pytest.raises(SingularSystemError):
            lambda_from_outputs(inputs, inputs)


class TestLinearInversion:
    def test_identity_lambda(self):
        chi = linear_inversion(np.eye(4, dtype=complex), PB)
        assert chi.basis is PB
        assert np.abs(chi.mat - np.diag([1.0, 0, 0, 0])).max() < 1e-12
        assert chi.is_psd()

    def test_noiseless_ppbs_grid(self):
        for t_h, t_v in [(1.0, 0.1), (1.0, 0.5), (0.8, 0.4), (0.6, 0.6)]:
            chi = chi_from_kraus(
                [np.diag([np.sqrt(t_h), np.sqrt(t_v)]).astype(complex)], PB
            )
            table = exact_table(chi)
            got = reconstruct_linear(table, PB)
            assert np.abs(got.mat - chi.mat).max() < 1e-10

    def test_poisson_data_hermitian_and_flagged(self):
        cfg = SimConfig(PpbsParams(1.0, 0.2), seed=5)
        table = simulate_counts(cfg)
        chi = reconstruct_linear(table, PB)
        dev = np.abs(chi.mat - chi.mat.conj().T).max()
        assert dev < 1e-12
        assert isinstance(chi.is_psd(), bool)
        assert chi.min_eigenvalue() == pytest.approx(
            np.linalg.eigvalsh(chi.mat)[0], abs=1e-10
        )


class TestEndToEnd:
    def test_noiseless_identity_pipeline(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(30):
            chi = random_channel(rng, int(rng.integers(1, 5)))
            table = exact_table(chi)
            got = reconstruct_linear(table, PB)
            worst = max(worst, float(np.linalg.norm(got.mat - chi.mat)))
        assert worst < 1e-8

    def test_output_trace_matches_success_probability(self):
        # Poisson statistics: reconstructed trace ~ Tr[P rho] within 3 sigma
        params = PpbsParams(1.0, 0.35)
        n = 1e4
        table = simulate_counts(SimConfig(params, exposure=n, seed=77))
        p = probability_operator(chi_from_kraus(
            [np.diag([1.0, np.sqrt(0.35)]).astype(complex)], PB))
        for lab in table.inputs:
            est = state_tomography(table.row(lab), n)
            expected = float(np.trace(p.mat @ state_density(lab)).real)
            # trace estimate is (n_H + n_V + ... ) / (3N); dominant variance
            # from six Poisson cells of mean ~ N/2 each
            sigma = np.sqrt(6 * (n / 2)) / (3 * n)
            assert abs(np.trace(est).real - expected) < 3 * sigma + 3e-2


class TestErrorPaths:
    """Inputs the reference inversion and the count table refuse."""

    TABLE = CountTable(2, STATE_LABELS, STATE_LABELS, 1e4, np.ones((6, 6)))

    def test_counts_of_the_wrong_shape(self):
        with pytest.raises(DataError, match=r"shape \(6, 6\)"):
            CountTable(2, STATE_LABELS, STATE_LABELS, 1e4, np.ones((6, 5)))

    def test_row_of_an_unknown_input(self):
        with pytest.raises(DataError, match="no input 'Q'"):
            self.TABLE.row("Q")

    def test_incomplete_analyzers(self):
        projectors = np.array([state_density(lab) for lab in ("H", "V", "D")])
        with pytest.raises(SingularSystemError, match="not informationally complete"):
            analyzer_dual_frame(projectors)

    def test_outputs_and_inputs_of_different_shapes(self):
        with pytest.raises(DataError, match="3 outputs for 4 inputs"):
            lambda_from_outputs(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)))

    def test_normalizing_an_output_of_zero_trace(self):
        counts = np.full((6, 6), 100.0)
        counts[0] = 0.0  # input H is never detected
        table = CountTable(2, STATE_LABELS, STATE_LABELS, 1e4, counts)
        with pytest.raises(DataError, match="'H' has zero trace"):
            reconstruct_linear(table, pauli_basis(), normalize_outputs=True)
