"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete; the statistical criteria share one set
of Poisson datasets (fixed base seed), so the whole module is
deterministic."""

import time

import numpy as np
import pytest

from lossyqpt.channels import (
    ChiMatrix,
    change_basis,
    chi_from_kraus,
    elementary_basis,
    pauli_basis,
    probability_operator,
    process_fidelity_ntp,
)
from lossyqpt.cli import main as cli_main
from lossyqpt.mle import (
    fit_post_selected,
    fit_trace_preserving,
    fit_unconstrained,
    normalize_max_p,
)
from lossyqpt.simulator import (
    PpbsParams,
    SimConfig,
    derive_seed,
    ppbs_chi,
    ppbs_kraus,
    simulate_counts,
)
from lossyqpt.tomography import (
    build_beta,
    invert_beta,
    reconstruct_linear,
)

PB = pauli_basis()
EXPOSURE = 1e4
GAMMAS = tuple(round(0.1 * k, 1) for k in range(1, 11))
TP_GAMMAS = (0.1, 0.2, 0.3, 1.0)
REPEATS = 5
BASE_SEED = 20260810

# 21-point transmittivity grid for the analytic checks
GRID = [(t_h, t_v) for t_h in np.linspace(0.0, 1.0, 7)
        for t_v in (0.0, 0.55, 1.0)]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def poisson_tables():
    tables = {}
    for gi, gamma in enumerate(GAMMAS):
        params = PpbsParams.from_gamma(gamma)
        for rep in range(REPEATS):
            seed = derive_seed(BASE_SEED, gi, rep)
            tables[gamma, rep] = simulate_counts(
                SimConfig(params, exposure=EXPOSURE, seed=seed)
            )
    return tables


@pytest.fixture(scope="module")
def mle_fits(poisson_tables):
    fits = {}
    start = time.monotonic()
    for (gamma, rep), table in poisson_tables.items():
        fits[gamma, rep] = fit_unconstrained(table)
    elapsed = time.monotonic() - start
    return fits, elapsed


@pytest.fixture(scope="module")
def tp_fits(poisson_tables):
    fits = {}
    for gamma in TP_GAMMAS:
        for rep in range(REPEATS):
            fits[gamma, rep] = fit_trace_preserving(poisson_tables[gamma, rep])
    return fits


@pytest.fixture(scope="module")
def ps_fits(poisson_tables):
    return {key: fit_post_selected(table) for key, table in poisson_tables.items()}


def fidelity_to_reference(chi, gamma):
    return process_fidelity_ntp(chi, ppbs_chi(PpbsParams.from_gamma(gamma)),
                                clamp_tol=1.0)


def test_criterion_1_analytic_chi():
    start = time.monotonic()
    worst_closed = worst_kraus = 0.0
    for t_h, t_v in GRID:
        params = PpbsParams(t_h, t_v)
        chi = ppbs_chi(params)
        sh, sv = np.sqrt(t_h), np.sqrt(t_v)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = (sh + sv) ** 2 / 4.0
        expected[3, 3] = (sh - sv) ** 2 / 4.0
        expected[0, 3] = expected[3, 0] = (t_h - t_v) / 4.0
        worst_closed = max(worst_closed, float(np.abs(chi.mat - expected).max()))
        oracle = chi_from_kraus([ppbs_kraus(params)], PB)
        worst_kraus = max(worst_kraus, float(np.abs(chi.mat - oracle.mat).max()))
    elapsed = time.monotonic() - start
    ok = worst_closed <= 1e-12 and worst_kraus <= 1e-12 and elapsed < 1.0
    report(1, ok,
           f"closed-form dev {worst_closed:.2e}, kraus-oracle dev "
           f"{worst_kraus:.2e}, {elapsed:.2f}s on 21-point grid")


def test_criterion_2_probability_operator(mle_fits):
    fits, elapsed = mle_fits
    worst_exact = 0.0
    for t_h, t_v in GRID:
        p = probability_operator(ppbs_chi(PpbsParams(t_h, t_v)))
        worst_exact = max(
            worst_exact, float(np.abs(p.mat - np.diag([t_h, t_v])).max())
        )
    worst_norm = 0.0
    for gamma in GAMMAS:
        chi, _ = normalize_max_p(ppbs_chi(PpbsParams.from_gamma(gamma)))
        eigs = probability_operator(chi).eigenvalues
        worst_norm = max(
            worst_norm,
            abs(float(eigs[-1]) - 1.0),
            abs(float(eigs[0]) - gamma),
        )
    worst_poisson = 0.0
    for (gamma, rep), fit in fits.items():
        lam2 = float(probability_operator(fit.chi).eigenvalues[0])
        worst_poisson = max(worst_poisson, abs(lam2 - gamma))
    sweep_time = elapsed / len(fits) * 10
    ok = (worst_exact <= 1e-12 and worst_norm <= 1e-12
          and worst_poisson < 0.02 and sweep_time < 60.0)
    report(2, ok,
           f"noiseless P dev {worst_exact:.2e}, normalized spectrum dev "
           f"{worst_norm:.2e}, poisson |lam2 - gamma| max {worst_poisson:.4f}, "
           f"10-point sweep {sweep_time:.1f}s")


def test_criterion_3_headline_fidelity(mle_fits):
    fits, elapsed = mle_fits
    fids = {key: fidelity_to_reference(fit.chi, key[0])
            for key, fit in fits.items()}
    worst = min(fids.values())
    ok = worst >= 0.96 and elapsed < 600.0
    report(3, ok,
           f"min fidelity {worst:.4f} over {len(fids)} runs "
           f"(gammas 0.1..1.0 x {REPEATS} repeats, N=1e4), {elapsed:.0f}s")


def test_criterion_4_wrong_method_trends(mle_fits, tp_fits, ps_fits):
    fits, _ = mle_fits
    mle_mean = {g: np.mean([fidelity_to_reference(fits[g, r].chi, g)
                            for r in range(REPEATS)]) for g in GAMMAS}
    tp_mean = {g: np.mean([fidelity_to_reference(tp_fits[g, r].chi, g)
                           for r in range(REPEATS)]) for g in TP_GAMMAS}
    ps_mean = {g: np.mean([fidelity_to_reference(ps_fits[g, r].chi, g)
                           for r in range(REPEATS)]) for g in GAMMAS}

    drop_ok = all(tp_mean[g] <= tp_mean[1.0] - 0.05 for g in (0.1, 0.2, 0.3))
    below_ok = all(tp_mean[g] < mle_mean[g] for g in (0.1, 0.2, 0.3))
    ps_monotone = all(
        ps_mean[GAMMAS[i]] <= ps_mean[GAMMAS[i + 1]] for i in range(len(GAMMAS) - 1)
    )
    ps_below = all(ps_mean[g] < mle_mean[g] for g in GAMMAS if g <= 0.5)
    ok = drop_ok and below_ok and ps_monotone and ps_below
    report(4, ok,
           f"tp(0.1/0.2/0.3)={tp_mean[0.1]:.3f}/{tp_mean[0.2]:.3f}/"
           f"{tp_mean[0.3]:.3f} vs tp(1.0)={tp_mean[1.0]:.3f}; "
           f"ps monotone={ps_monotone}, ps below mle for gamma<=0.5={ps_below}")


def test_criterion_5_input_set_dependence():
    params = PpbsParams.from_gamma(0.25)
    full = simulate_counts(SimConfig(params, noise="none"))
    subset = simulate_counts(
        SimConfig(params, noise="none", inputs=("H", "V", "D", "R"))
    )
    chi_full = fit_post_selected(full).chi
    chi_subset = fit_post_selected(subset).chi
    dist = float(np.linalg.norm(chi_full.mat - chi_subset.mat))
    ok = dist > 1e-3
    report(5, ok, f"post-selected chi differs by {dist:.4f} Frobenius "
                  "between six-input and four-input sets")


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(200):
        rank = int(rng.integers(1, 5))
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
               for _ in range(rank)]
        total = sum(op.conj().T @ op for op in ops)
        scale = np.sqrt(np.linalg.eigvalsh(total)[-1] * (1.0 + rng.uniform(0, 2)))
        chi = chi_from_kraus([op / scale for op in ops], PB)
        table = simulate_counts(
            SimConfig(PpbsParams(1.0, 1.0), exposure=EXPOSURE, noise="none"),
            chi=chi,
        )
        got = reconstruct_linear(table, PB)
        worst = max(worst, float(np.linalg.norm(got.mat - chi.mat)))

    worst_delta = 0.0
    for basis in (PB, elementary_basis(2)):
        beta = build_beta(basis)
        resid = float(np.abs(invert_beta(beta) @ beta - np.eye(16)).max())
        worst_delta = max(worst_delta, resid)
    ok = worst < 1e-8 and worst_delta < 1e-8
    report(6, ok,
           f"200-channel recovery worst {worst:.2e} Frobenius, "
           f"delta-relation residual {worst_delta:.2e} for both basis pairs")


def test_criterion_7_fidelity_properties():
    rng = np.random.default_rng(707)
    chi_id = ChiMatrix(PB, np.diag([1.0, 0, 0, 0]).astype(complex))

    def random_chi():
        rank = int(rng.integers(1, 5))
        ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
               for _ in range(rank)]
        total = sum(op.conj().T @ op for op in ops)
        scale = np.sqrt(np.linalg.eigvalsh(total)[-1] * (1.0 + rng.uniform(0, 2)))
        return chi_from_kraus([op / scale for op in ops], PB)

    worst_scale = 0.0
    for alpha in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        for chi in (random_chi(), ppbs_chi(PpbsParams.from_gamma(0.3))):
            worst_scale = max(
                worst_scale,
                abs(process_fidelity_ntp(ChiMatrix(chi.basis, alpha * chi.mat), chi)
                    - 1.0),
            )

    worst_sym = worst_basis = 0.0
    eb = elementary_basis(2)
    for _ in range(10):
        a, b = random_chi(), random_chi()
        f = process_fidelity_ntp(a, b)
        worst_sym = max(worst_sym, abs(f - process_fidelity_ntp(b, a)))
        moved = process_fidelity_ntp(change_basis(a, eb), change_basis(b, eb))
        worst_basis = max(worst_basis, abs(f - moved))

    worst_curve = 0.0
    for gamma in np.linspace(0.0, 1.0, 11):
        chi = chi_from_kraus([ppbs_kraus(PpbsParams(1.0, float(gamma)))], PB)
        expected = (1.0 + np.sqrt(gamma)) ** 2 / (2.0 * (1.0 + gamma))
        worst_curve = max(
            worst_curve, abs(process_fidelity_ntp(chi, chi_id) - expected)
        )

    ok = (worst_scale <= 1e-9 and worst_sym <= 1e-9
          and worst_basis <= 1e-9 and worst_curve <= 1e-9)
    report(7, ok,
           f"scaling dev {worst_scale:.2e}, symmetry dev {worst_sym:.2e}, "
           f"basis dev {worst_basis:.2e}, closed-form dev {worst_curve:.2e}")


def test_criterion_8_byte_identical_outputs(tmp_path):
    counts = tmp_path / "counts.json"
    args = ["simulate", "--gamma", "0.4", "--seed", "41", "--out", str(counts)]
    assert cli_main(list(args)) == 0
    first_counts = counts.read_bytes()
    assert cli_main(list(args)) == 0
    counts_ok = counts.read_bytes() == first_counts

    fit = tmp_path / "fit.json"
    args = ["reconstruct", "--counts", str(counts), "--method", "mle",
            "--restarts", "2", "--maxfev", "8000", "--seed", "41",
            "--out", str(fit)]
    assert cli_main(list(args)) == 0
    first_fit = fit.read_bytes()
    assert cli_main(list(args)) == 0
    fit_ok = fit.read_bytes() == first_fit
    ok = counts_ok and fit_ok
    report(8, ok,
           f"count table byte-identical={counts_ok}, "
           f"fit report byte-identical={fit_ok}")
