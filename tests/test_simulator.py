import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossyqpt.channels import (
    ChiMatrix,
    OperatorBasis,
    apply_channel,
    change_basis,
    chi_from_kraus,
    elementary_basis,
    pauli_basis,
    probability_operator,
)
from lossyqpt.errors import DataError, RepresentationError
from lossyqpt.mle import _Problem
from lossyqpt.simulator import (
    PpbsParams,
    SimConfig,
    expected_counts,
    ppbs_chi,
    ppbs_kraus,
    simulate_counts,
)
from lossyqpt.states import STATE_LABELS, state_catalog, state_density
from lossyqpt.tomography import CountTable, reconstruct_linear

PB = pauli_basis()


class TestStateCatalog:
    def test_states_pure_and_normalized(self):
        from lossyqpt.states import state_catalog

        for rho in state_catalog().values():
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-15)

    def test_basis_pairs_orthogonal(self):
        for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
            overlap = np.trace(state_density(a) @ state_density(b)).real
            assert overlap == pytest.approx(0.0, abs=1e-15)

    def test_unknown_label(self):
        from lossyqpt.states import state_ket

        with pytest.raises(DataError):
            state_ket("Q")


class TestParams:
    def test_gamma_ratio(self):
        assert PpbsParams(0.8, 0.2).gamma == pytest.approx(0.25)

    def test_from_gamma_convention(self):
        p = PpbsParams.from_gamma(0.3)
        assert p.t_h == 1.0 and p.t_v == 0.3
        # NumPy reals are numbers too
        assert PpbsParams.from_gamma(np.float64(0.3)) == p
        assert PpbsParams(np.float32(1.0), np.int64(0)).gamma == 0.0

    def test_domain_checks(self):
        with pytest.raises(DataError):
            PpbsParams(1.2, 0.5)
        with pytest.raises(DataError):
            PpbsParams.from_gamma(0.0)
        with pytest.raises(DataError):
            PpbsParams.from_gamma(1.0001)
        with pytest.raises(DataError):
            PpbsParams(0.0, 0.0).gamma

    @pytest.mark.parametrize("t_h, t_v", [
        (True, 0.5), (1.0, np.True_), ("1", 0.5), (1.0, None)])
    def test_transmittivities_must_be_numbers(self, t_h, t_v):
        # a comparison reads True as 1 and refuses a string with TypeError
        with pytest.raises(DataError, match="transmittivities"):
            PpbsParams(t_h, t_v)

    @pytest.mark.parametrize("gamma", [True, np.True_, "0.5"])
    def test_gamma_must_be_a_number(self, gamma):
        with pytest.raises(DataError, match="gamma"):
            PpbsParams.from_gamma(gamma)


class TestAnalyticChi:
    def test_identity_limit(self):
        chi = ppbs_chi(PpbsParams(1.0, 1.0))
        assert np.allclose(chi.mat, np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_projective_limit_corner_matrix(self):
        chi = ppbs_chi(PpbsParams(1.0, 0.0))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.25
        expected[0, 3] = expected[3, 0] = 0.25
        assert np.allclose(chi.mat, expected, atol=1e-15)

    def test_single_kraus_oracle_on_grid(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            t_h, t_v = rng.uniform(0.0, 1.0, 2)
            p = PpbsParams(t_h, t_v)
            oracle = chi_from_kraus([ppbs_kraus(p)], PB)
            assert np.abs(ppbs_chi(p).mat - oracle.mat).max() < 1e-14

    def test_rank_one(self):
        w = np.linalg.eigvalsh(ppbs_chi(PpbsParams(0.9, 0.4)).mat)
        assert np.sum(w > 1e-12) == 1


class TestAnalyticP:
    def test_trace_preserving_limit(self):
        p = probability_operator(ppbs_chi(PpbsParams(1.0, 1.0)))
        assert np.allclose(p.mat, np.eye(2), atol=1e-15)
        assert p.classification == "trace-preserving"

    def test_eigenvalues_are_transmittivities(self):
        p = probability_operator(ppbs_chi(PpbsParams(1.0, 0.3)))
        assert np.allclose(sorted(p.eigenvalues), [0.3, 1.0], atol=1e-15)
        assert p.classification == "state-dependent"

    def test_balanced_loss_is_uniform(self):
        p = probability_operator(ppbs_chi(PpbsParams(0.5, 0.5)))
        assert np.allclose(p.mat, 0.5 * np.eye(2), atol=1e-15)
        assert p.classification == "uniform-lossy"


class TestSimConfig:
    # booleans and strings are not exposures: True would read as 1
    @pytest.mark.parametrize("exposure", [0.0, -5.0, float("nan"), float("inf"),
                                          True, np.True_, "1e4"])
    def test_exposure_must_be_finite_and_positive(self, exposure):
        with pytest.raises(DataError, match="exposure"):
            SimConfig(PpbsParams.from_gamma(0.5), exposure=exposure)

    @pytest.mark.parametrize("seed", [2.5, True, -1, "x", None])
    def test_rejects_malformed_seed(self, seed):
        # True would draw the table of seed 1; the others fail in numpy
        with pytest.raises(DataError, match="seed"):
            SimConfig(PpbsParams.from_gamma(0.5), seed=seed)

    # these were accepted, and simulate_counts then raised AttributeError
    @pytest.mark.parametrize("params", [True, np.True_, "0.5", None, 0.5 + 0j,
                                        float("nan"), float("inf"), -float("inf"),
                                        -1.0, 0.5, (1.0, 0.5)])
    def test_params_must_be_ppbs_params(self, params):
        with pytest.raises(DataError) as info:
            SimConfig(params)
        assert str(info.value) == f"params must be a PpbsParams, got {params!r}"

    def test_accepts_numpy_integer_seed(self):
        cfg = SimConfig(PpbsParams.from_gamma(0.5), seed=np.int64(3))
        assert cfg.seed == 3 and type(cfg.seed) is int
        assert np.array_equal(simulate_counts(cfg).counts, simulate_counts(
            SimConfig(PpbsParams.from_gamma(0.5), seed=3)).counts)


class TestSimulateCounts:
    def test_identity_channel_aligned_analyzer(self):
        cfg = SimConfig(PpbsParams(1.0, 1.0), exposure=1e4, noise="none")
        table = simulate_counts(cfg)
        assert table.row("H")["H"] == pytest.approx(1e4, abs=1e-9)

    def test_blocked_input_row_is_dark(self):
        cfg = SimConfig(PpbsParams(1.0, 0.0), noise="none")
        table = simulate_counts(cfg)
        assert np.abs(np.array(list(table.row("V").values()))).max() == 0.0

    def test_diagonal_quarter(self):
        cfg = SimConfig(PpbsParams(1.0, 0.0), exposure=1e4, noise="none")
        table = simulate_counts(cfg)
        assert table.row("D")["D"] == pytest.approx(2500.0, abs=1e-9)

    def test_deterministic_per_seed(self):
        a = simulate_counts(SimConfig(PpbsParams.from_gamma(0.255), seed=7))
        b = simulate_counts(SimConfig(PpbsParams.from_gamma(0.255), seed=7))
        assert np.array_equal(a.counts, b.counts)
        c = simulate_counts(SimConfig(PpbsParams.from_gamma(0.255), seed=8))
        assert not np.array_equal(a.counts, c.counts)

    def test_poisson_counts_integral(self):
        table = simulate_counts(SimConfig(PpbsParams.from_gamma(0.5), seed=1))
        assert np.array_equal(table.counts, np.round(table.counts))

    def test_column_sums_give_success_probability(self):
        params = PpbsParams.from_gamma(0.4)
        table = simulate_counts(SimConfig(params, exposure=1e4, noise="none"))
        p = probability_operator(ppbs_chi(params))
        for i, lab in enumerate(table.inputs):
            joint = table.counts[i, 0] + table.counts[i, 1]  # H and V analyzers
            expected = 1e4 * np.trace(p.mat @ state_density(lab)).real
            assert joint == pytest.approx(expected, abs=1e-8)

    def test_poisson_sample_mean(self):
        params = PpbsParams.from_gamma(0.7)
        mu = expected_counts(ppbs_chi(params), 400.0)
        cell = np.empty(1000)
        for s in range(1000):
            cell[s] = simulate_counts(
                SimConfig(params, exposure=400.0, seed=s)
            ).counts[0, 0]
        sigma = np.sqrt(mu[0, 0] / 1000)
        assert abs(cell.mean() - mu[0, 0]) < 5 * sigma

    def test_noiseless_pipeline_closure(self):
        worst = 0.0
        for gamma in np.linspace(0.1, 1.0, 10):
            params = PpbsParams.from_gamma(float(gamma))
            table = simulate_counts(SimConfig(params, noise="none"))
            chi = reconstruct_linear(table, PB)
            worst = max(worst, float(np.linalg.norm(chi.mat - ppbs_chi(params).mat)))
        assert worst < 1e-8


def per_cell_counts(chi, exposure, inputs, analyzers):
    """The per-cell route exposure * Tr[Pi_b E(rho_a)], with E applied to
    each input state on its own: an oracle for the design matrix."""
    cat = state_catalog()
    mu = np.array([
        [exposure * np.trace(cat[b] @ apply_channel(chi, cat[a])).real
         for b in analyzers]
        for a in inputs
    ])
    return np.clip(mu, 0.0, None)


label_subsets = st.lists(st.sampled_from(STATE_LABELS), min_size=1, max_size=6,
                         unique=True).map(tuple)


@st.composite
def kraus_channels(draw):
    """chi of a random rank 1-4 Kraus set, trace decreasing, in one of the
    two named bases."""
    rank = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = draw(st.sampled_from([pauli_basis(), elementary_basis(2)]))
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(rank)]
    total = sum(op.conj().T @ op for op in ops)
    scale = np.sqrt(np.linalg.eigvalsh(total)[-1] / draw(st.floats(0.05, 1.0)))
    return chi_from_kraus([op / scale for op in ops], basis)


class TestForwardModel:
    @settings(deadline=None, max_examples=60)
    @given(kraus_channels(), label_subsets, label_subsets, st.floats(1.0, 1e6))
    def test_design_matrix_matches_per_cell_oracle(self, chi, inputs, analyzers,
                                                   exposure):
        mu = expected_counts(chi, exposure, inputs, analyzers)
        assert mu.shape == (len(inputs), len(analyzers))
        oracle = per_cell_counts(chi, exposure, inputs, analyzers)
        assert np.abs(mu - oracle).max() <= 1e-12 * exposure

    @settings(deadline=None, max_examples=60)
    @given(kraus_channels(), label_subsets, label_subsets, st.floats(1.0, 1e6))
    def test_fit_and_simulator_share_the_model(self, chi, inputs, analyzers,
                                               exposure):
        mu = expected_counts(chi, exposure, inputs, analyzers)
        table = CountTable(2, inputs, analyzers, exposure, mu)
        setup = _Problem(table, "floor")
        # the misfit holds model counts in units of count_unit, in the
        # coordinates of the Pauli-basis chi
        coords = setup.plan.cone.coords(change_basis(chi, pauli_basis()).mat)
        model = setup.count_unit * (setup.misfit.model @ coords)
        assert np.abs(model - mu.ravel()).max() <= 1e-12 * exposure

    def test_reordered_basis_under_a_named_label(self):
        # the Pauli operators in the order (I, z, x, y), labelled "pauli":
        # the counts must come from this basis's own plan, not from the
        # one cached for the named Pauli basis
        reordered = OperatorBasis(2, PB.ops[[0, 3, 1, 2]], "pauli")
        chi = ppbs_chi(PpbsParams.from_gamma(0.3))
        named = expected_counts(chi, 1e4)
        mu = expected_counts(change_basis(chi, reordered), 1e4)
        assert np.abs(mu - named).max() <= 1e-12 * 1e4
        assert np.abs(expected_counts(chi, 1e4) - named).max() == 0.0

    def test_protocol_dimension_must_match_channel(self):
        chi = ChiMatrix(elementary_basis(3), np.eye(9, dtype=complex) / 9.0)
        with pytest.raises(RepresentationError):
            expected_counts(chi, 1e4)


def test_unknown_noise_model():
    with pytest.raises(DataError, match="noise must be"):
        SimConfig(PpbsParams.from_gamma(0.5), noise="x")
