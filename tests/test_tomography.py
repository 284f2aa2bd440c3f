import numpy as np
import pytest

from lossyqpt.channels import apply_channel, chi_from_kraus, pauli_basis, probability_operator
from lossyqpt.errors import DataError, SingularSystemError
from lossyqpt.simulator import SimConfig, PpbsParams, simulate_counts
from lossyqpt.states import STATE_LABELS, state_catalog, state_density
from lossyqpt.tomography import (
    BetaTensor,
    CountTable,
    StateBasis,
    build_beta,
    canonical_state_basis,
    invert_beta,
    lambda_from_outputs,
    linear_inversion,
    reconstruct_linear,
    state_tomography,
)

PB = pauli_basis()
UNITS = canonical_state_basis(2)


def random_channel(rng, rank, dim=2):
    ops = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(rank)
    ]
    total = sum(op.conj().T @ op for op in ops)
    scale = np.sqrt(np.linalg.eigvalsh(total)[-1] * (1.0 + rng.uniform(0.0, 2.0)))
    return chi_from_kraus([op / scale for op in ops], PB)


def exact_table(chi, exposure=1e4, inputs=STATE_LABELS):
    cfg = SimConfig(PpbsParams(1.0, 1.0), exposure=exposure, noise="none", inputs=inputs)
    return simulate_counts(cfg, chi=chi)


class TestCountTable:
    @pytest.mark.parametrize("exposure", [0.0, -1.0, float("nan"), float("inf")])
    def test_exposure_must_be_finite_and_positive(self, exposure):
        with pytest.raises(DataError, match="exposure"):
            CountTable(2, STATE_LABELS, STATE_LABELS, exposure, np.ones((6, 6)))


class TestStateBasis:
    def test_canonical_units(self):
        s = UNITS.states
        assert np.allclose(s[0], [[1, 0], [0, 0]])
        assert np.allclose(s[1], [[0, 1], [0, 0]])
        assert np.allclose(s[2], [[0, 0], [1, 0]])
        assert np.allclose(s[3], [[0, 0], [0, 1]])

    def test_gram_is_identity(self):
        flat = UNITS.states.reshape(4, 4)
        gram = flat.conj() @ flat.T
        assert np.allclose(gram, np.eye(4))

    def test_d3_count(self):
        assert canonical_state_basis(3).states.shape == (9, 3, 3)

    def test_ill_conditioned_rejected(self):
        states = UNITS.states.copy()
        states[1] = states[0] * (1.0 + 1e-9)
        with pytest.raises(SingularSystemError):
            StateBasis(2, states)


class TestBetaTau:
    def test_identity_conjugation(self):
        beta = build_beta(PB, UNITS)
        # A_0 = I: beta^{00}_{jk} = delta_jk
        block = beta.mat[:, 0].reshape(4, 4)
        assert np.allclose(block, np.eye(4), atol=1e-12)

    def test_sigma_x_on_ground_unit(self):
        beta = build_beta(PB, UNITS)
        # sigma_x |0><0| sigma_x = |1><1|: row (j=0, k=3), column (m=n=1)
        col = beta.mat[:, 1 * 4 + 1].reshape(4, 4)
        assert np.allclose(col[0], [0, 0, 0, 1], atol=1e-12)

    def test_defining_relation_random_bases(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            g = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
            try:
                sb = StateBasis(2, g)
            except SingularSystemError:
                continue
            beta = build_beta(PB, sb)
            worst = 0.0
            for m in range(4):
                for n in range(4):
                    for j in range(4):
                        lhs = PB.ops[m] @ sb.states[j] @ PB.ops[n].conj().T
                        coeff = beta.mat[j * 4 : j * 4 + 4, m * 4 + n]
                        rhs = np.tensordot(coeff, sb.states, axes=(0, 0))
                        worst = max(worst, np.abs(lhs - rhs).max())
            assert worst < 1e-10

    def test_invert_identity(self):
        beta = BetaTensor(PB, UNITS, np.eye(16, dtype=complex))
        tau = invert_beta(beta)
        assert np.allclose(tau.mat, np.eye(16))

    def test_delta_relation(self):
        beta = build_beta(PB, UNITS)
        tau = invert_beta(beta)
        assert np.abs(tau.mat @ beta.mat - np.eye(16)).max() < 1e-10

    def test_pseudo_inverse_axiom(self):
        beta = build_beta(PB, UNITS)
        tau = invert_beta(beta)
        assert np.abs(beta.mat @ tau.mat @ beta.mat - beta.mat).max() < 1e-8

    def test_singular_beta_rejected(self):
        mat = np.zeros((16, 16), dtype=complex)
        mat[0, 0] = 1.0
        with pytest.raises(SingularSystemError):
            invert_beta(BetaTensor(PB, UNITS, mat))


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
        lam = lambda_from_outputs(inputs, inputs, UNITS)
        assert np.abs(lam.mat - np.eye(4)).max() < 1e-12
        assert lam.residual < 1e-10

    def test_projective_ppbs_structure(self):
        # K = diag(1, 0): E(|u><v|) = delta_u0 delta_v0 |0><0|
        chi = chi_from_kraus([np.diag([1.0, 0.0]).astype(complex)], PB)
        inputs = np.array([state_density(lab) for lab in STATE_LABELS])
        outputs = np.array([apply_channel(chi, r) for r in inputs])
        lam = lambda_from_outputs(outputs, inputs, UNITS)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(lam.mat - expected).max() < 1e-12

    def test_overcomplete_residual(self):
        rng = np.random.default_rng(41)
        chi = random_channel(rng, 2)
        inputs = np.array([state_density(lab) for lab in STATE_LABELS])
        outputs = np.array([apply_channel(chi, r) for r in inputs])
        lam = lambda_from_outputs(outputs, inputs, UNITS)
        assert lam.residual < 1e-10

    def test_rank_deficient_inputs(self):
        inputs = np.array([state_density("H")] * 4)
        with pytest.raises(SingularSystemError):
            lambda_from_outputs(inputs, inputs, UNITS)


class TestLinearInversion:
    def test_identity_lambda(self):
        from lossyqpt.tomography import LambdaMatrix

        tau = invert_beta(build_beta(PB, UNITS))
        lam = LambdaMatrix(UNITS, np.eye(4, dtype=complex))
        res = linear_inversion(lam, tau)
        assert np.abs(res.chi.mat - np.diag([1.0, 0, 0, 0])).max() < 1e-12
        assert res.psd_ok

    def test_noiseless_ppbs_grid(self):
        for t_h, t_v in [(1.0, 0.1), (1.0, 0.5), (0.8, 0.4), (0.6, 0.6)]:
            chi = chi_from_kraus(
                [np.diag([np.sqrt(t_h), np.sqrt(t_v)]).astype(complex)], PB
            )
            table = exact_table(chi)
            res = reconstruct_linear(table, PB)
            assert np.abs(res.chi.mat - chi.mat).max() < 1e-10

    def test_poisson_data_hermitian_and_flagged(self):
        cfg = SimConfig(PpbsParams(1.0, 0.2), seed=5)
        table = simulate_counts(cfg)
        res = reconstruct_linear(table, PB)
        dev = np.abs(res.chi.mat - res.chi.mat.conj().T).max()
        assert dev < 1e-12
        assert isinstance(res.psd_ok, bool)
        assert res.min_eigenvalue == pytest.approx(
            np.linalg.eigvalsh(res.chi.mat)[0], abs=1e-10
        )


class TestEndToEnd:
    def test_noiseless_identity_pipeline(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(30):
            chi = random_channel(rng, int(rng.integers(1, 5)))
            table = exact_table(chi)
            res = reconstruct_linear(table, PB)
            worst = max(worst, float(np.linalg.norm(res.chi.mat - chi.mat)))
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
