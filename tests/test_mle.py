import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lossyqpt.channels import (
    ChiMatrix,
    OperatorBasis,
    change_basis,
    chi_from_kraus,
    elementary_basis,
    pauli_basis,
    probability_operator,
    process_fidelity_ntp,
)
from lossyqpt.errors import (
    DataError,
    DegenerateFitError,
    RepresentationError,
    SingularSystemError,
)
from lossyqpt import mle, tomography
from lossyqpt.mle import (
    FitOptions,
    _Misfit,
    _Problem,
    fit_linear,
    fit_post_selected,
    fit_trace_preserving,
    fit_unconstrained,
    likelihood,
    likelihood_gradient,
    normalize_max_p,
)
from lossyqpt.qmath import psd_projection
from lossyqpt.simulator import (
    PpbsParams,
    SimConfig,
    ppbs_chi,
    simulate_counts,
)
from lossyqpt.states import STATE_LABELS, state_catalog, state_density
from lossyqpt.tomography import (
    CountTable,
    hermitian_frame,
    protocol_plan,
    reconstruct_linear,
)

PB = pauli_basis()

FAST = FitOptions(restarts=2, maxfev=10_000)


def table_for(gamma, seed=None, exposure=1e4, inputs=None):
    cfg = SimConfig(
        PpbsParams.from_gamma(gamma),
        exposure=exposure,
        seed=0 if seed is None else seed,
        noise="none" if seed is None else "poisson",
        inputs=inputs if inputs is not None else ("H", "V", "D", "A", "R", "L"),
    )
    return simulate_counts(cfg)


def _one_cell_bounds(table, report, xtol):
    """Bounds on the trace-preserving misfit of a table whose one lit cell
    is (H, H), with n > N counts at exposure N.

    A trace-preserving map sends H to H with probability q <= 1, so the
    optimum f* = (n - N)^2 / n lies at q = 1.  f is convex in q with slope
    s = 2 N (n - N) / n at q = 1, so f >= f* - s (q - 1), and q <=
    Tr E(|H><H|) <= 1 + ||P - I|| bounds f from below by the constraint
    residual.  From above, the solver is accurate to xtol in frame
    coordinates, and q = a.x moves by at most ||a|| xtol, so f <= f* +
    s ||a|| xtol.
    """
    n, exposure = table.counts[0, 0], table.exposure
    optimum, slope = (n - exposure) ** 2 / n, 2.0 * exposure * (n - exposure) / n
    a = np.linalg.norm(protocol_plan(table.inputs, table.projectors).design[0])
    return optimum - slope * report.constraint_residual, optimum + slope * a * xtol


def _one_row_bounds(table, report, xtol):
    """f* to rel 1e-7 for the lit row of input H of table_for(0.5, seed=1).

    A trace-preserving map may send H to any state rho = (I + r.sigma) / 2,
    so the optimum is the weighted least-squares fit of the row over the
    Bloch ball |r| <= 1.  The unconstrained minimum of that quadratic lies
    outside the ball (|r| = 1.0007), so the optimum solves the secular
    equation |(A + lambda I)^-1 g| = 1 on the sphere, which gives f* =
    0.5573076466616298 (by bisection on lambda in 50-digit arithmetic).
    """
    optimum = 0.5573076466616298
    return optimum * (1.0 - 1e-7), optimum * (1.0 + 1e-7)


def random_hermitian(rng, n=4):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


class TestProjection:
    def test_projection_is_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            proj = psd_projection(random_hermitian(rng))
            assert np.abs(proj - proj.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(proj).min() >= -1e-12

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            once = psd_projection(random_hermitian(rng))
            assert np.abs(psd_projection(once) - once).max() < 1e-12

    def test_projection_keeps_psd_chi(self):
        chi = ppbs_chi(PpbsParams(1.0, 0.5)).mat
        assert np.abs(psd_projection(chi) - chi).max() < 1e-12

    def test_projection_repairs_indefinite_chi(self):
        mat = np.diag([1.0, -1e-4, 0.0, 0.0]).astype(complex)
        assert np.abs(psd_projection(mat) - np.diag([1.0, 0, 0, 0])).max() < 1e-15

    def test_frame_is_orthonormal(self):
        frame = hermitian_frame(4)
        assert np.abs(frame.conj() @ frame.T - np.eye(16)).max() < 1e-15
        mats = frame.reshape(16, 4, 4)
        assert np.array_equal(mats, mats.conj().transpose(0, 2, 1))


def _rotated_basis():
    """The Pauli basis mixed by a fixed random 4 x 4 unitary: a basis that
    is not named, with complex combinations of the Pauli operators."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return OperatorBasis(2, np.tensordot(q, PB.ops, axes=(1, 0)), "rotated")


class TestLift:
    """The cone of the misfit, built from the real lift matrix of the
    protocol plan, against the complex frame."""

    FRAME = hermitian_frame(4)
    CONE = _Problem(table_for(0.5), "floor").cone

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16),
           st.lists(st.floats(-10.0, 10.0), min_size=32, max_size=32))
    def test_lift_matches_complex_frame(self, x, m):
        # the lift depends on the frame alone, not on an operator basis
        cone = self.CONE
        x = np.array(x)
        m = np.array(m[:16]).reshape(4, 4) + 1j * np.array(m[16:]).reshape(4, 4)
        tol = 1e-14 * max(1.0, np.abs(x).max(), np.abs(m).max())
        mats = self.FRAME.reshape(16, 4, 4)
        assert np.abs(cone.matrix(x) - np.tensordot(x, mats, axes=1)).max() <= tol
        traces = np.einsum("kij,ji->k", mats, m).real  # Re Tr[F_k M]
        assert np.abs(cone.coords(m) - traces).max() <= tol
        # a stack of matrices gives a row of coordinates per matrix
        stack = np.array([m, m.conj().T, 2.0 * m])
        rows = np.array([cone.coords(a) for a in stack])
        assert np.abs(cone.coords(stack) - rows).max() <= 2.0 * tol
        assert np.abs(cone.coords(cone.matrix(x)) - x).max() <= tol
        old = psd_projection((self.FRAME.T @ x).reshape(4, 4))
        old = (self.FRAME.conj() @ old.reshape(-1)).real
        assert np.abs(cone(x) - old).max() <= tol


class TestLikelihood:
    def test_zero_at_truth_noiseless(self):
        table = table_for(0.5)
        assert likelihood(ppbs_chi(PpbsParams(1.0, 0.5)), table) < 1e-12

    def test_zero_map_value(self):
        table = table_for(0.4, seed=2)
        f = likelihood(np.zeros((4, 4)), table)
        n = table.counts.reshape(-1)
        assert f == pytest.approx(np.sum(n * n / np.maximum(n, 1.0)))

    def test_quadratic_growth_in_chi_perturbation(self):
        table = table_for(0.5)
        chi = ppbs_chi(PpbsParams(1.0, 0.5)).mat
        def f_of(eps):
            return likelihood(chi + eps * np.diag([0, 1.0, 0, 0]), table)
        f1, f2 = f_of(1e-3), f_of(2e-3)
        assert f2 / f1 == pytest.approx(4.0, rel=1e-4)

    def test_drop_mode_skips_dark_cells(self):
        table = table_for(0.3)  # noiseless table with exact zero cells
        zero = np.zeros((4, 4))
        f_floor = likelihood(zero, table, weight_mode="floor")
        f_drop = likelihood(zero, table, weight_mode="drop")
        n = table.counts.reshape(-1)
        assert f_drop == pytest.approx(np.sum(n[n > 0]))
        assert f_floor >= f_drop

    @pytest.mark.parametrize("weight_mode", ["Drop", "bogus", None, ""])
    def test_unknown_weight_mode_is_refused(self, weight_mode):
        # refused as FitOptions refuses it, not read as "floor", and
        # without leaving a set-up in the cache
        table = table_for(0.3)
        mle._problem.cache_clear()
        for func in (likelihood, likelihood_gradient):
            with pytest.raises(ValueError, match="unknown weight_mode"):
                func(np.eye(4) / 4, table, weight_mode=weight_mode)
        with pytest.raises(ValueError, match="unknown weight_mode"):
            FitOptions(weight_mode=weight_mode)
        assert mle._problem.cache_info().currsize == 0

    def test_matches_design_matrix_route(self):
        # independent route: probabilities as Re(D @ vec(chi)) with the
        # design built cell by cell from Tr[Pi_b A_m rho_a A_n^dag]
        table = table_for(0.5, seed=7)
        cat = state_catalog()
        design = np.array([
            [np.trace(cat[b] @ am @ cat[a] @ an.conj().T) for am in PB.ops for an in PB.ops]
            for a in table.inputs for b in table.projectors
        ])
        n = table.counts.reshape(-1)
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            chi = g.conj().T @ g
            model = table.exposure * (design @ chi.reshape(-1)).real
            direct = float(np.sum((n - model) ** 2 / np.maximum(n, 1.0)))
            assert likelihood(chi, table) == pytest.approx(direct, rel=1e-12)

    def test_chi_matrix_is_read_in_its_own_basis(self):
        # a ChiMatrix given in another basis is changed into the Pauli basis,
        # not read as if its entries were written in it
        table = table_for(0.5, seed=3)
        chi = ppbs_chi(PpbsParams.from_gamma(0.5))
        eb = elementary_basis(2)
        f = likelihood(chi, table)
        assert likelihood(change_basis(chi, eb), table) == pytest.approx(f, rel=1e-12)
        assert likelihood(change_basis(chi, _rotated_basis()), table) == pytest.approx(
            f, rel=1e-12)
        # the gradient changes basis like chi
        g = ChiMatrix(PB, likelihood_gradient(chi, table))
        expected = change_basis(g, eb).mat
        got = likelihood_gradient(change_basis(chi, eb), table)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("mat, match", [
        (np.eye(3), "must be 4x4"),
        (np.triu(np.ones((4, 4))), "not Hermitian"),
        (np.full((4, 4), np.nan), "non-finite"),
    ])
    @pytest.mark.parametrize("of", [likelihood, likelihood_gradient])
    def test_array_is_validated_as_chi(self, of, mat, match):
        # an array is read as a Pauli-basis chi, so it is checked like one
        with pytest.raises(RepresentationError, match=match):
            of(mat, table_for(0.5, seed=1))

    def test_gradient_matches_central_differences(self):
        # f is quadratic in chi, so a central difference is exact up to
        # rounding at any step size
        table = table_for(0.6, seed=3)
        rng = np.random.default_rng(4)
        chi = ppbs_chi(PpbsParams(1.0, 0.6)).mat
        grad = likelihood_gradient(chi, table)
        assert np.abs(grad - grad.conj().T).max() == 0.0
        for h in (1e-1, 1e-3):
            for _ in range(5):
                d = random_hermitian(rng)
                d /= np.linalg.norm(d)
                central = (likelihood(chi + h * d, table)
                           - likelihood(chi - h * d, table)) / (2 * h)
                assert central == pytest.approx(np.trace(grad @ d).real,
                                                rel=1e-7, abs=1e-6)

    def test_objective_quadratic_in_chi(self):
        # third differences of a quadratic vanish: f(t) along a line is
        # fixed by three points
        table = table_for(0.3, seed=5)
        rng = np.random.default_rng(6)
        chi = ppbs_chi(PpbsParams(1.0, 0.3)).mat
        d = random_hermitian(rng)
        f = [likelihood(chi + k * 0.1 * d, table) for k in range(4)]
        third = f[3] - 3 * f[2] + 3 * f[1] - f[0]
        assert abs(third) <= 1e-9 * max(f)

    @pytest.mark.parametrize("weight_mode", ["floor", "drop"])
    @pytest.mark.parametrize("fit", [fit_linear, fit_unconstrained,
                                     fit_trace_preserving, fit_post_selected])
    def test_report_objective_is_misfit(self, fit, weight_mode):
        # every method reports the misfit of its chi before any rescaling;
        # at gamma = 0.1 the table has dark cells, so the two modes differ
        table = table_for(0.1, seed=19)
        opts = FitOptions(weight_mode=weight_mode)
        report = fit(table, opts=opts)
        raw = ChiMatrix(report.chi.basis, report.chi.mat * report.normalization_scale)
        f = likelihood(raw, table, weight_mode=weight_mode)
        assert report.objective == pytest.approx(f, rel=1e-9)


class TestFitUnconstrained:
    def test_noiseless_matches_reference(self):
        table = table_for(0.5)
        report = fit_unconstrained(table)
        ref = ppbs_chi(PpbsParams(1.0, 0.5))
        assert process_fidelity_ntp(report.chi, ref) >= 1.0 - 1e-6
        assert report.objective <= 1e-6

    def test_noiseless_identity_channel(self):
        table = table_for(1.0)
        report = fit_unconstrained(table, opts=FAST)
        assert np.abs(report.chi.mat - np.diag([1.0, 0, 0, 0])).max() < 1e-5
        p = probability_operator(report.chi)
        assert np.abs(p.mat - np.eye(2)).max() < 1e-5

    def test_poisson_fit_quality(self):
        table = table_for(0.5, seed=11)
        report = fit_unconstrained(table)
        ref = ppbs_chi(PpbsParams(1.0, 0.5))
        assert process_fidelity_ntp(report.chi, ref) >= 0.96
        eigs = probability_operator(report.chi).eigenvalues
        assert eigs[-1] == pytest.approx(1.0, abs=1e-9)
        assert abs(eigs[0] - 0.5) < 0.02

    def test_matches_linear_inversion_when_psd(self):
        table = table_for(0.7)
        li = reconstruct_linear(table, PB)
        assert li.is_psd()
        report = fit_unconstrained(table, opts=FAST)
        rescaled = report.chi.mat * report.normalization_scale
        assert np.abs(rescaled - li.mat).max() < 1e-6

    def test_seeded_determinism(self):
        table = table_for(0.4, seed=9)
        a = fit_unconstrained(table, opts=FAST)
        b = fit_unconstrained(table, opts=FAST)
        assert np.array_equal(a.chi.mat, b.chi.mat)
        assert a.objective == b.objective
        assert a.evaluations == b.evaluations

    def test_restarts_monotone(self):
        table = table_for(0.4, seed=13)
        single = fit_unconstrained(table, opts=FitOptions(restarts=1, maxfev=10_000))
        multi = fit_unconstrained(table, opts=FitOptions(restarts=4, maxfev=10_000))
        assert multi.objective <= single.objective
        assert multi.restarts_used == 4

    def test_objective_not_above_seed(self):
        table = table_for(0.4, seed=17)
        report = fit_unconstrained(table, opts=FAST)
        li = reconstruct_linear(table, PB)
        seed_value = likelihood(psd_projection(li.mat), table)
        assert report.objective <= seed_value + 1e-12


class TestFitTracePreserving:
    def test_genuinely_tp_channel(self):
        table = table_for(1.0)
        report = fit_trace_preserving(table, opts=FAST)
        assert report.constraint_residual < 1e-6
        assert np.abs(report.chi.mat - np.diag([1.0, 0, 0, 0])).max() < 1e-5
        assert report.chi.trace() == pytest.approx(1.0, abs=1e-6)

    def test_lossy_data_degrades_fidelity(self):
        table = table_for(0.2, seed=19)
        ref = ppbs_chi(PpbsParams.from_gamma(0.2))
        tp = fit_trace_preserving(table, opts=FAST)
        un = fit_unconstrained(table, opts=FAST)
        assert tp.constraint_residual < 1e-6
        f_tp = process_fidelity_ntp(tp.chi, ref)
        f_un = process_fidelity_ntp(un.chi, ref)
        assert f_tp < f_un - 0.05

    @pytest.mark.parametrize("gamma", [1.0, 0.55, 0.1])
    def test_residual_is_p_distance(self, gamma):
        # checked against P of the reported chi, not the solver's equations
        report = fit_trace_preserving(table_for(gamma, seed=29), opts=FAST)
        p = probability_operator(report.chi).mat
        assert report.constraint_residual == pytest.approx(
            np.linalg.norm(p - np.eye(2)), rel=0, abs=1e-12)

    def test_budget_exhaustion_raises(self):
        # one projection is one relaxed ADMM step (TestOneStepOracle checks
        # it against the textbook step): its x-step meets P = I exactly, but
        # the eigenvalue clipping of the projection moves P off I, here to
        # ||P - I|| = 0.475, far from constraint_tol (four projections
        # still miss it by 2.8e-6, five meet it)
        table = table_for(0.2, seed=23)
        with pytest.raises(DegenerateFitError, match="missed its constraint"):
            fit_trace_preserving(table, opts=FitOptions(maxfev=1))

    @pytest.mark.parametrize("lit, bounds", [
        (np.s_[0, 0], _one_cell_bounds),
        (np.s_[0], _one_row_bounds),
    ], ids=["one-cell", "one-row"])
    def test_few_lit_cells_fit_unwhitened(self, lit, bounds):
        # with dark cells dropped, one lit cell or one lit row does not
        # determine chi and leaves K singular: the fit runs unwhitened and
        # must reach the exact optimum of each table, derived with its bounds
        table = table_for(0.5, seed=1)
        counts = np.zeros_like(table.counts)
        counts[lit] = table.counts[lit]
        table = CountTable(2, table.inputs, table.projectors, table.exposure, counts)
        opts = FitOptions(weight_mode="drop")
        report = fit_trace_preserving(table, opts=opts)
        assert report.converged
        lower, upper = bounds(table, report, opts.xtol)
        assert lower <= report.objective <= upper

    @pytest.mark.parametrize("gamma", [0.1, 0.55])
    def test_undetermined_drop_table_converges(self, gamma):
        # dark diagonal cells, dropped, leave kept design rows of rank 15:
        # the optimum is not unique and H is singular.  With rho from H's
        # extreme eigenvalues alone both fits ran out of budget here (the
        # MLE stopped at objective 20 133 after 50 000 steps at gamma 0.1,
        # where the optimum is 13.92); they now converge in 20-32 steps
        table = table_for(gamma, seed=5)
        counts = table.counts.copy()
        np.fill_diagonal(counts, 0.0)
        table = CountTable(2, table.inputs, table.projectors, table.exposure, counts)
        opts = FitOptions(weight_mode="drop", maxfev=500)
        scale = np.linalg.norm(likelihood_gradient(np.zeros((4, 4)), table,
                                                   weight_mode="drop"))
        report = fit_unconstrained(table, opts=opts)
        assert report.converged
        raw = report.chi.mat * report.normalization_scale
        _assert_kkt(likelihood_gradient(raw, table, weight_mode="drop"), raw,
                    tol=1e-7, scale=scale)
        tp = fit_trace_preserving(table, opts=opts)
        assert tp.converged and tp.constraint_residual < 1e-6
        _assert_tp_kkt(tp.chi.mat, table, tol=1e-7, scale=scale, weight_mode="drop")

    @pytest.mark.parametrize("weight_mode", ["floor", "drop"])
    @pytest.mark.parametrize("fit", [fit_unconstrained, fit_trace_preserving])
    def test_table_without_counts_raises(self, monkeypatch, fit, weight_mode):
        # grad f(0) = 0 would make the solver's dual tolerance zero, so the
        # fit must stop before the solver runs
        monkeypatch.setattr(mle, "minimize_adaptive", None)
        table = table_for(0.5)
        table = CountTable(2, table.inputs, table.projectors, table.exposure,
                           np.zeros_like(table.counts))
        with pytest.raises(DegenerateFitError, match="no counts"):
            fit(table, opts=FitOptions(weight_mode=weight_mode))


class TestCongruence:
    """The whitening of the chi-space fits, over random tables."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["floor", "drop"]),
           st.floats(1e2, 1e7), st.integers(0, 12))
    def test_congruence(self, seed, weight_mode, exposure, dark):
        rng = np.random.default_rng(seed)
        counts = np.round(rng.uniform(0.0, exposure, size=36))
        counts[rng.choice(36, dark, replace=False)] = 0.0
        table = CountTable(2, STATE_LABELS, STATE_LABELS, exposure, counts.reshape(6, 6))
        setup = _Problem(table, weight_mode)
        misfit = setup.misfit
        design = misfit.model * setup.count_unit / exposure
        assume(np.linalg.matrix_rank(design, tol=1e-10) == 16)
        t, t_inv = setup.congruence()
        assert np.linalg.norm(t, 2) <= 1.0 + 1e-12
        # a floored dark cell at high exposure weighs up to 1e7 times a lit
        # one, and T^-1 grows with that contrast, so its rounding does too
        assert np.abs(t @ t_inv - np.eye(16)).max() <= 1e-12 * max(
            1.0, np.linalg.norm(t_inv, 2))
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = setup.cone.coords(g @ g.conj().T)  # a positive semidefinite chi'
        chi = setup.cone.matrix(t @ y)
        assert np.linalg.eigvalsh(chi)[0] >= -1e-12 * np.linalg.norm(chi)
        whitened = _Misfit(misfit.model @ t, misfit.n, misfit.inv_w)
        fun, grad = misfit(t @ y)
        white_fun, white_grad = whitened(y)
        assert white_fun == pytest.approx(fun, rel=1e-12)
        assert np.abs(white_grad - t.T @ grad).max() <= 1e-12 * np.abs(grad).max()
        # the Hessians 2 M^T W M of the two models: T^T H T, and positive
        # semidefinite to rounding of its own norm
        plain, hessian = (2.0 * (m.model.T * m.inv_w) @ m.model for m in (misfit, whitened))
        assert np.abs(hessian - t.T @ plain @ t).max() <= 1e-12 * np.abs(plain).max()
        eigs = np.linalg.eigvalsh(hessian)
        assert eigs[0] >= -1e-12 * eigs[-1]


def _one_row_table():
    """table_for(0.5, seed=1) with only input H's row lit:
    test_few_lit_cells_fit_unwhitened's one-row table, which with dark
    cells dropped does not determine chi."""
    table = table_for(0.5, seed=1)
    counts = np.zeros_like(table.counts)
    counts[0] = table.counts[0]
    return CountTable(2, table.inputs, table.projectors, table.exposure, counts)


def _chi_space_fits(table, opts, order):
    """The chi bytes, objective, iterations and converged flag of each fit
    in order, by fit name."""
    out = {}
    for fit in order:
        r = fit(table, opts=opts)
        out[fit.__name__] = (r.chi.mat.tobytes(), r.objective, r.iterations, r.converged)
    return out


def _spy_on_congruence(monkeypatch):
    """The list of set-ups whose congruence is built from now on."""
    calls = []
    congruence = _Problem.congruence

    def spy(setup):
        calls.append(setup)
        return congruence(setup)

    monkeypatch.setattr(_Problem, "congruence", spy)
    return calls


class TestSharedSetUp:
    """The MLE and TP fits of one table share its set-up, built once."""

    @pytest.mark.parametrize("weight_mode, whitened", [("floor", True), ("drop", False)],
                             ids=["floor-whitened", "drop-one-row"])
    def test_fits_do_not_depend_on_the_cache(self, monkeypatch, weight_mode, whitened):
        calls = _spy_on_congruence(monkeypatch)
        table = table_for(0.55, seed=3) if whitened else _one_row_table()
        opts = FitOptions(weight_mode=weight_mode)
        both = (fit_unconstrained, fit_trace_preserving)
        cold = {}
        for fit in both:
            mle._problem.cache_clear()
            cold.update(_chi_space_fits(table, opts, [fit]))
        mle._problem.cache_clear()
        forward = _chi_space_fits(table, opts, both)
        built = len(calls)
        # the set-up is cached per table object, so a content-equal copy of
        # the table builds its own, with the same answers
        copied = CountTable(2, table.inputs, table.projectors, table.exposure,
                            table.counts.copy())
        copy_fits = _chi_space_fits(copied, opts, both)
        assert len(calls) == built + (1 if whitened else 0)
        assert mle._problem(copied, weight_mode) is not mle._problem(table, weight_mode)
        mle._problem.cache_clear()
        reverse = _chi_space_fits(table, opts, both[::-1])
        assert cold == forward == copy_fits == reverse
        setup = mle._problem(table, weight_mode)
        assert setup.counts is table
        assert (setup.chi_space[2] is not None) == whitened

    def test_congruence_runs_once_per_table(self, monkeypatch):
        calls = _spy_on_congruence(monkeypatch)
        table = table_for(0.1, seed=8)
        mle._problem.cache_clear()
        fit_linear(table)
        fit_post_selected(table)
        likelihood(np.eye(4) / 4, table)
        assert not calls
        fit_unconstrained(table)
        fit_trace_preserving(table)
        fit_unconstrained(table)
        assert len(calls) == 1
        # another weight mode is another set-up
        fit_trace_preserving(table, opts=FitOptions(weight_mode="drop"))
        assert len(calls) == 2
        mle._problem.cache_clear()

    def test_set_up_is_read_only(self):
        table = table_for(0.55, seed=4)
        setup = mle._problem(table, "floor")
        problem, x0, t, hessian, rho = setup.chi_space
        misfit = setup.misfit
        for arr in (misfit.model, misfit.n, misfit.inv_w, setup.amps, setup.x0,
                    problem.model, x0, t, hessian):
            assert not arr.flags.writeable
        assert rho == mle._penalty(hessian)


class TestFitReportFields:
    @pytest.mark.parametrize("fit, method", [
        (fit_linear, "linear"), (fit_post_selected, "post-selected"),
        (fit_unconstrained, "mle"), (fit_trace_preserving, "mle-tp"),
    ])
    def test_readme_rules(self, fit, method):
        report = fit(table_for(0.25, seed=31), opts=FAST)
        assert report.method == method
        if method in ("mle", "mle-tp"):
            assert report.evaluations == 2
        else:
            assert report.evaluations == 0
            assert report.iterations == 0 and report.restarts_used == 0
            assert report.converged
        if method != "mle":
            assert report.normalization_scale == 1.0
        assert (report.constraint_residual is None) == (method != "mle-tp")
        assert report.psd_ok == report.chi.is_psd()
        assert report.min_chi_eigenvalue == report.chi.min_eigenvalue()


class TestFitPostSelected:
    def test_tp_data_matches_linear_inversion(self):
        table = table_for(1.0)
        ps = fit_post_selected(table)
        li = fit_linear(table)
        assert np.abs(ps.chi.mat - li.chi.mat).max() < 1e-10

    def test_zero_trace_output_rejected(self):
        cfg = SimConfig(PpbsParams(1.0, 0.0), noise="none")
        table = simulate_counts(cfg)
        with pytest.raises(DataError, match="zero trace"):
            fit_post_selected(table)

    def test_input_set_dependence(self):
        full = fit_post_selected(table_for(0.25))
        subset = fit_post_selected(
            table_for(0.25, inputs=("H", "V", "D", "R"))
        )
        assert np.linalg.norm(full.chi.mat - subset.chi.mat) > 1e-3

    def test_flags_nonphysical_result(self):
        report = fit_post_selected(table_for(0.25))
        assert not report.psd_ok
        assert report.min_chi_eigenvalue < -1e-4


class TestNormalizeMaxP:
    def test_scale_and_new_spectrum(self):
        chi = ChiMatrix(PB, np.diag([0.4, 0, 0, 0.1]).astype(complex))
        p = probability_operator(chi)
        normalized, scale = normalize_max_p(chi)
        assert scale == pytest.approx(float(p.eigenvalues[-1]), abs=1e-12)
        p2 = probability_operator(normalized)
        assert float(p2.eigenvalues[-1]) == pytest.approx(1.0, abs=1e-12)

    def test_diag_example(self):
        # P = diag(0.8, 0.2) for chi built from K = diag(sqrt(.8), sqrt(.2))
        chi = ppbs_chi(PpbsParams(0.8, 0.2))
        normalized, scale = normalize_max_p(chi)
        assert scale == pytest.approx(0.8, abs=1e-12)
        p = probability_operator(normalized)
        assert np.allclose(sorted(p.eigenvalues), [0.25, 1.0], atol=1e-12)

    def test_idempotent(self):
        chi = ppbs_chi(PpbsParams(0.6, 0.3))
        once, scale1 = normalize_max_p(chi)
        twice, scale2 = normalize_max_p(once)
        assert scale2 == pytest.approx(1.0, abs=1e-12)
        assert np.abs(twice.mat - once.mat).max() < 1e-12

    def test_ppbs_homogeneity(self):
        lhs, _ = normalize_max_p(ppbs_chi(PpbsParams(0.5, 0.25)))
        rhs = ppbs_chi(PpbsParams(1.0, 0.5))
        assert np.abs(lhs.mat - rhs.mat).max() < 1e-12

    def test_fidelity_unchanged(self):
        chi = ppbs_chi(PpbsParams(0.5, 0.25))
        ref = ppbs_chi(PpbsParams(1.0, 1.0))
        normalized, _ = normalize_max_p(chi)
        assert process_fidelity_ntp(normalized, ref) == pytest.approx(
            process_fidelity_ntp(chi, ref), abs=1e-9
        )

    def test_tiny_p_is_normalized(self):
        # 1 / pmax overflows for pmax below ~5.6e-309, so the rescaling
        # must divide
        chi = ppbs_chi(PpbsParams(0.5, 0.25))
        tiny, scale = normalize_max_p(ChiMatrix(chi.basis, chi.mat * 1e-310))
        assert scale == pytest.approx(0.5e-310, rel=1e-10)
        assert np.abs(tiny.mat - normalize_max_p(chi)[0].mat).max() <= 1e-10

    def test_zero_map_rejected(self):
        chi = ChiMatrix(PB, np.zeros((4, 4), dtype=complex))
        with pytest.raises(DegenerateFitError):
            normalize_max_p(chi)


def _lagrange_adjoint(lam):
    """Hermitian matrix L*(lam) with Re Tr[L*(lam) chi] = Re Tr[lam P(chi)]
    for P(chi) = sum_mn chi_mn A_n^dag A_m: L*(lam)_nm = Tr[lam A_n^dag A_m]."""
    return np.einsum("ij,nkj,mki->nm", lam, PB.ops.conj(), PB.ops)


def _assert_kkt(grad, chi, tol=1e-6, scale=None):
    # optimality over the PSD cone: grad >= 0 and complementary to chi,
    # to tol relative to scale (default ||grad||)
    norm = np.linalg.norm(grad) if scale is None else scale
    assert np.linalg.eigvalsh(grad)[0] >= -tol * norm
    assert abs(np.trace(grad @ chi).real) <= tol * norm * np.trace(chi).real


def _assert_tp_kkt(chi, table, tol=1e-6, scale=None, weight_mode="floor"):
    grad = likelihood_gradient(chi, table, weight_mode=weight_mode)
    paulis = PB.ops
    # least-squares multiplier lam of P = I from complementarity,
    # (grad - L*(lam)) chi = 0, over Hermitian 2x2 lam
    cols = np.array([(_lagrange_adjoint(h) @ chi).reshape(-1) for h in paulis]).T
    rhs = (grad @ chi).reshape(-1)
    coef, *_ = np.linalg.lstsq(np.vstack([cols.real, cols.imag]),
                               np.concatenate([rhs.real, rhs.imag]), rcond=None)
    slack = grad - _lagrange_adjoint(np.tensordot(coef, paulis, axes=(0, 0)))
    _assert_kkt(slack, chi, tol=tol, scale=scale)


@st.composite
def lossy_channels(draw):
    """chi of a random Kraus set of rank 1-4, scaled by a random global
    loss so that the largest eigenvalue of P is `transmission`."""
    rank = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    transmission = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(seed)
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(rank)]
    total = sum(op.conj().T @ op for op in ops)
    scale = np.sqrt(np.linalg.eigvalsh(total)[-1] / transmission)
    return chi_from_kraus([op / scale for op in ops], PB)


class TestOptimalityCertificate:
    @pytest.mark.parametrize("gamma", [1.0, 0.55, 0.1])
    def test_mle_is_global_optimum(self, gamma):
        for seed in (41, 42, 43):
            table = table_for(gamma, seed=seed)
            report = fit_unconstrained(table)
            raw = report.chi.mat * report.normalization_scale
            _assert_kkt(likelihood_gradient(raw, table), raw)

    @pytest.mark.parametrize("gamma", [1.0, 0.55, 0.1])
    def test_tp_is_global_optimum(self, gamma):
        for seed in (41, 42, 43):
            table = table_for(gamma, seed=seed)
            _assert_tp_kkt(fit_trace_preserving(table).chi.mat, table)

    # sparse (1e2) to dense (1e7) tables, with dark cells floored or dropped,
    # at a lossless, a lossy and an almost opaque channel.  The solver stops
    # on residuals relative to the data's gradient scale ||grad f(0)||; at
    # 1e7 with dropped cells the gradient at the optimum is 1e-4 of that,
    # so the certificate is measured against ||grad f(0)||, to 100 xtol.
    # The MLE fits here take at most 15 projections and the TP fits 9
    GRID = [
        (gamma, exposure, mode)
        for gamma in (1.0, 0.255, 0.02)
        for exposure in (1e2, 1e4, 1e7)
        for mode in ("floor", "drop")
    ]

    @pytest.mark.parametrize("gamma,exposure,weight_mode", GRID)
    def test_global_optimum_over_exposures(self, gamma, exposure, weight_mode):
        opts = FitOptions(weight_mode=weight_mode)
        for seed in (41, 42, 43):
            table = table_for(gamma, seed=seed, exposure=exposure)
            scale = np.linalg.norm(likelihood_gradient(np.zeros((4, 4)), table))
            report = fit_unconstrained(table, opts=opts)
            assert report.converged and report.iterations <= 20
            raw = report.chi.mat * report.normalization_scale
            grad = likelihood_gradient(raw, table, weight_mode=weight_mode)
            _assert_kkt(grad, raw, tol=1e-7, scale=scale)
            tp = fit_trace_preserving(table, opts=opts)
            assert tp.converged and tp.iterations <= 12
            _assert_tp_kkt(tp.chi.mat, table, tol=1e-7, scale=scale,
                           weight_mode=weight_mode)

    @pytest.mark.parametrize("gamma", [1.0, 0.255, 0.02])
    def test_tight_tolerance(self, gamma):
        # dense tables with dark cells dropped, where the stop test is
        # loosest relative to the optimum's gradient, solved to xtol 1e-12:
        # the MLE fits take at most 6 projections here and the TP fits 8
        opts = FitOptions(weight_mode="drop", xtol=1e-12)
        for seed in (41, 42, 43):
            table = table_for(gamma, seed=seed, exposure=1e7)
            scale = np.linalg.norm(likelihood_gradient(np.zeros((4, 4)), table))
            report = fit_unconstrained(table, opts=opts)
            assert report.converged and report.iterations <= 9
            raw = report.chi.mat * report.normalization_scale
            _assert_kkt(likelihood_gradient(raw, table, weight_mode="drop"), raw,
                        tol=1e-7, scale=scale)
            tp = fit_trace_preserving(table, opts=opts)
            assert tp.converged and tp.iterations <= 11
            _assert_tp_kkt(tp.chi.mat, table, tol=1e-7, scale=scale, weight_mode="drop")

    @pytest.mark.parametrize("gamma", [1.0, 0.55, 0.1])
    def test_iteration_budget(self, gamma):
        # plain ADMM takes 364-848 steps on these tables; with a chain of
        # Newton candidates after each step both fits take at most 9
        # projections
        for seed in (41, 42, 43):
            table = table_for(gamma, seed=seed)
            for report, budget in ((fit_unconstrained(table), 12),
                                   (fit_trace_preserving(table), 12)):
                assert report.converged
                assert report.iterations <= budget

    # Gamma x exposures 1e2-1e7 x 6 seeds, dark cells floored or dropped:
    # the largest fit takes 21 projections; a solver whose Newton steps
    # wait for a small residual lets the tail grow (to 85 with the steps
    # waiting for a 1000-fold fall)
    HARD_GRID = [
        (gamma, exposure, mode)
        for gamma in (1.0, 0.55, 0.255, 0.1, 0.02)
        for exposure in (1e2, 1e4, 1e6, 1e7)
        for mode in ("floor", "drop")
    ]

    @pytest.mark.parametrize("gamma,exposure,weight_mode", HARD_GRID)
    def test_hard_grid_tail(self, gamma, exposure, weight_mode):
        opts = FitOptions(weight_mode=weight_mode)
        for seed in range(100, 106):
            table = table_for(gamma, seed=seed, exposure=exposure)
            for fit in (fit_unconstrained, fit_trace_preserving):
                report = fit(table, opts=opts)
                assert report.converged and report.iterations <= 30

    @pytest.mark.parametrize("exposure", [1e11, 1e12, 1e14])
    def test_high_exposure_fits_converge(self, exposure):
        # noiseless and Poisson tables with dark cells floored or dropped.
        # Newton steps that wait for the residual to fall 1000-fold leave 7
        # and 30 of these 80 fits at 1e11 and 1e12, all floor-weight Poisson
        # fits, out of their 50 000.  At 1e14 a penalty that floors H's
        # near-null eigenvalues into its geometric mean leaves 8 of 80
        for gamma in (1.0, 0.55, 0.255, 0.1, 0.02):
            for seed in (None, 1, 2, 3):
                table = table_for(gamma, seed=seed, exposure=exposure)
                for weight_mode in ("floor", "drop"):
                    opts = FitOptions(weight_mode=weight_mode)
                    assert fit_unconstrained(table, opts=opts).converged
                    assert fit_trace_preserving(table, opts=opts).converged

    def test_few_lit_cells_converge(self):
        # drop-weight tables with 5-9 random lit cells, whose kept cells
        # leave chi undetermined and H with 7 or more null eigenvalues: a
        # penalty that floors those into its geometric mean leaves 17 of
        # these 40 fits unconverged or failing P = I
        rng = np.random.default_rng(2024)
        opts = FitOptions(weight_mode="drop", maxfev=3000)
        for i in range(20):
            gamma = rng.choice([1.0, 0.55, 0.255, 0.1])
            table = simulate_counts(
                SimConfig(PpbsParams.from_gamma(gamma), exposure=1e4, seed=1000 + i))
            lit = rng.choice(36, rng.integers(5, 10), replace=False)
            counts = np.zeros(36)
            counts[lit] = np.maximum(table.counts.reshape(-1)[lit], 1.0)
            table = CountTable(2, table.inputs, table.projectors, table.exposure,
                               counts.reshape(6, 6))
            assert fit_unconstrained(table, opts=opts).converged
            tp = fit_trace_preserving(table, opts=opts)
            assert tp.converged and tp.constraint_residual < opts.constraint_tol

    @settings(deadline=None, max_examples=25)
    @given(lossy_channels(), st.integers(0, 2**32 - 1))
    def test_noisy_random_channel(self, chi, seed):
        table = simulate_counts(
            SimConfig(PpbsParams(1.0, 1.0), exposure=1e4, seed=seed), chi=chi
        )
        # a full-rank chi has an interior optimum, where the gradient (or
        # the slack) is solver noise of norm ~1e-4 with no sign; measure it
        # against the data's gradient scale ||grad f(0)|| instead
        scale = np.linalg.norm(likelihood_gradient(np.zeros((4, 4)), table))
        report = fit_unconstrained(table)
        assert report.converged
        raw = report.chi.mat * report.normalization_scale
        _assert_kkt(likelihood_gradient(raw, table), raw, scale=scale)
        tp = fit_trace_preserving(table)
        assert tp.converged
        _assert_tp_kkt(tp.chi.mat, table, scale=scale)


class TestScaleFreeFits:
    # rates on a grid of 1/64, so that every count and its multiple by 4^k
    # is a normal float and the scaling is exact
    @settings(deadline=None, max_examples=30)
    @given(st.floats(-300.0, 18.0),
           st.lists(st.integers(0, 64 * 100), min_size=36, max_size=36),
           st.integers(-30, 30), st.sampled_from(["floor", "drop"]))
    def test_scaling_by_powers_of_four(self, log_exposure, rates, k, weight_mode):
        exposure = 10.0 ** log_exposure
        counts = np.array(rates).reshape(6, 6) / 64.0 * exposure
        scaled_exposure = math.ldexp(exposure, 2 * k)
        assume(1e-300 <= scaled_exposure <= tomography.MAX_EXPOSURE)
        scaled_counts = np.ldexp(counts, 2 * k)
        # a floored weight max(n, 1) scales with the counts only if every
        # count lies on the same side of 1 before and after: then f scales
        # by 16^k (every weight the floor 1) or 4^k (every weight its count)
        power = 2 * k
        if weight_mode == "floor":
            low = max(counts.max(), scaled_counts.max()) <= 1.0
            assume(low or min(counts.min(), scaled_counts.min()) >= 1.0)
            power = 4 * k if low else 2 * k
        tables = [CountTable(2, STATE_LABELS, STATE_LABELS, n, c)
                  for n, c in ((exposure, counts), (scaled_exposure, scaled_counts))]
        assume(tables[0].counts.any())
        opts = FitOptions(weight_mode=weight_mode, maxfev=2000)
        for fit in (fit_unconstrained, fit_trace_preserving):
            try:
                plain, scaled = (fit(table, opts=opts) for table in tables)
            except (DegenerateFitError, SingularSystemError):
                # a table whose fit cannot meet P = I, or whose lit cells
                # leave the protocol short, fails alike at every scale
                for table in tables:
                    with pytest.raises((DegenerateFitError, SingularSystemError)):
                        fit(table, opts=opts)
                continue
            assert np.array_equal(scaled.chi.mat, plain.chi.mat)
            assert scaled.iterations == plain.iterations
            # exact unless the misfit underflows past the normal floats
            if min(plain.objective, scaled.objective) >= np.finfo(float).tiny:
                assert scaled.objective == math.ldexp(plain.objective, power)


    @pytest.mark.parametrize("fit", [fit_linear, fit_post_selected])
    def test_overflowing_misfit_raises(self, fit):
        # with dark cells dropped, a cell of 1e-320 counts weighs 1e321
        # times its neighbours; the linear chi misses it by about one
        # count, so its misfit lies beyond the floating-point range
        counts = np.full((6, 6), 10.0)
        counts[0, 0] = 1e-320
        table = CountTable(2, STATE_LABELS, STATE_LABELS, 10.0, counts)
        assert likelihood(fit_linear(table).chi, table, weight_mode="drop") == math.inf
        with pytest.raises(DegenerateFitError, match="overflows"):
            fit(table, opts=FitOptions(weight_mode="drop"))


class TestNoiselessProperty:
    @settings(deadline=None, max_examples=25)
    @given(lossy_channels())
    def test_fit_recovers_random_channel(self, chi):
        table = simulate_counts(
            SimConfig(PpbsParams(1.0, 1.0), exposure=1e4, noise="none"), chi=chi
        )
        report = fit_unconstrained(table)
        assert report.converged
        assert process_fidelity_ntp(report.chi, chi) >= 1.0 - 1e-6
        eigs = probability_operator(report.chi).eigenvalues
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)


@st.composite
def spanning_inputs(draw):
    """Input label subsets whose states span the 2x2 matrices."""
    labels = draw(st.lists(st.sampled_from(STATE_LABELS), min_size=4, max_size=6,
                           unique=True))
    rhos = np.array([state_density(lab).reshape(-1) for lab in labels])
    assume(np.linalg.matrix_rank(rhos) == 4)
    return tuple(labels)


class TestLeastSquaresSeed:
    @settings(deadline=None, max_examples=60)
    @given(spanning_inputs(), st.permutations(STATE_LABELS),
           st.sampled_from([PB, elementary_basis(2)]), st.floats(10.0, 1e6),
           st.integers(0, 2**32 - 1))
    def test_seed_is_linear_inversion(self, inputs, analyzers, basis, exposure,
                                      seed):
        # any nonnegative table, physical or not
        rng = np.random.default_rng(seed)
        counts = rng.uniform(0.0, exposure, size=(len(inputs), len(analyzers)))
        table = CountTable(2, inputs, tuple(analyzers), exposure, counts)
        plan = protocol_plan(table.inputs, table.projectors)
        x = plan.seed_map @ (table.counts.reshape(-1) / exposure)
        chi = change_basis(ChiMatrix(PB, (hermitian_frame(4).T @ x).reshape(4, 4)),
                           basis).mat
        linear = reconstruct_linear(table, basis).mat
        assert np.abs(chi - linear).max() <= 1e-10 * max(1.0, np.abs(linear).max())
        # the linear fits take the same map, the post-selected one after
        # normalizing each output state
        for fit, normalize in ((fit_linear, False), (fit_post_selected, True)):
            reference = reconstruct_linear(table, basis, normalize_outputs=normalize).mat
            got = change_basis(fit(table).chi, basis).mat
            scale = max(1.0, np.abs(reference).max())
            assert np.abs(got - reference).max() <= 1e-10 * scale

    @pytest.mark.parametrize("protocol", [
        {"inputs": ("H", "V", "D")},
        {"inputs": ("H", "V", "D", "A")},
        {"analyzers": ("H", "V", "D", "A")},
    ])
    @pytest.mark.parametrize("fit", [fit_unconstrained, fit_trace_preserving,
                                     fit_linear, fit_post_selected])
    def test_incomplete_protocol_is_singular(self, protocol, fit):
        cfg = SimConfig(PpbsParams.from_gamma(0.5), seed=3, **protocol)
        with pytest.raises(SingularSystemError):
            fit(simulate_counts(cfg))


class TestPlanCache:
    def test_custom_basis_builds_its_constants_once(self):
        info = tomography.protocol_plan.cache_info
        tomography.protocol_plan.cache_clear()  # so that no plan is cached
        chi = change_basis(ppbs_chi(PpbsParams.from_gamma(0.5)), _rotated_basis())
        table = simulate_counts(SimConfig(PpbsParams.from_gamma(0.5), seed=0), chi)
        # the simulator alone builds the plan ...
        assert info().misses == 1
        hits = info().hits
        fit_unconstrained(table, FAST)
        # ... that the fit then reads
        assert info().misses == 1 and info().hits > hits
        for seed in range(1, 3):
            table = simulate_counts(SimConfig(PpbsParams.from_gamma(0.5), seed=seed), chi)
            likelihood(chi, table)
            fit_unconstrained(table, FAST)
        assert info().misses == 1


class TestFitOptions:
    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0}, {"maxfev": 0}, {"maxfev": -1}, {"xtol": 0.0},
        {"xtol": -1e-9}, {"xtol": float("nan")}, {"xtol": float("inf")},
        {"weight_mode": "bogus"},
        # a float budget fails inside the solver, and a boolean reads as 1
        {"maxfev": 2.5}, {"maxfev": 10.0}, {"maxfev": True}, {"restarts": 2.5},
        {"restarts": True}, {"restarts": "4"}, {"xtol": True},
    ])
    def test_rejects_malformed(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            FitOptions(**kwargs)

    def test_accepts_numpy_integers(self):
        opts = FitOptions(restarts=np.int64(2), maxfev=np.int32(3000))
        assert (opts.restarts, opts.maxfev) == (2, 3000)
        assert type(opts.restarts) is int and type(opts.maxfev) is int

    def test_convergence_reported(self):
        table = table_for(0.4, seed=9)
        assert fit_unconstrained(table).converged
        assert not fit_unconstrained(table, opts=FitOptions(maxfev=3)).converged
        assert fit_linear(table).converged and fit_post_selected(table).converged
