"""The closed-loop workloads: one client, one count table per operation.

Each operation's inputs (gamma, table seed) come from the workload seed
and the operation's index only; the program sees nothing else.  Program
calls go through module attributes (``lq.fit_unconstrained``,
``lq.cli.main``) so that the tracer's wrappers, installed on those
attributes, see them.  Every operation is checked against ``reference``,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time

import numpy as np

import lossyqpt as lq
import lossyqpt.cli
from lossyqpt.mle import FitOptions

import reference

EXPOSURE = 1e4
CLAMP_TOL = 1.0  # how `lossyqpt sweep` and `reconstruct --reference` score fits
FIDELITY_FLOOR = 0.96  # acceptance criterion 2: MLE fits on Poisson data
CONSTRAINT_TOL = FitOptions().constraint_tol
BUDGET = FitOptions().restarts * FitOptions().maxfev
ANSWER_TOL = 1e-9  # agreement with the independent reference, absolute

# fit-sweep puts gamma = 1 first: there every MLE restart exhausts its
# evaluation budget, and the TP model is right.  Gamma = 0.1 is strongly
# state dependent, where the TP fit is the wrong model (objective ~4e5).
WORKLOADS = {
    "fit-sweep": {
        "grid": (1.0, 0.1, 0.55),
        "why": "one point of the paper's curve: MLE and TP fits of one table; "
        "over 99% of op time is the optimizer and the objective",
    },
    "cli-files": {
        "grid": tuple(round(float(g), 3) for g in np.linspace(0.1, 1.0, 10)),
        "why": "four CLI calls per table: linear and post-selected fits, no "
        "optimizer; the only workload where cli, serialize and file writes work",
    },
}

# fixed per workload so that two workloads never share a table stream
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}


def op_inputs(workload: str, seed: int, index: int):
    """(gamma, table seed) of operation `index` under the workload seed."""
    grid = WORKLOADS[workload]["grid"]
    state = np.random.SeedSequence([seed, _STREAM[workload], index]).generate_state(1)
    return grid[index % len(grid)], int(state[0])


def simulate(gamma: float, table_seed: int):
    cfg = lq.SimConfig(lq.PpbsParams.from_gamma(gamma), exposure=EXPOSURE, seed=table_seed)
    return lq.simulate_counts(cfg)


def table_digest(counts: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(counts, dtype=float).tobytes()).hexdigest()[:16]


def fit_record(method, objective, fidelity, p_eigs, evaluations, iterations,
               restarts_used, constraint_residual, normalization_scale):
    """The answer of one fit, as stored in the operation's record."""
    return {
        "method": method,
        "objective": float(objective),
        "fidelity": float(fidelity),
        "p_eigs": [float(x) for x in p_eigs],
        "evaluations": int(evaluations),
        "iterations": int(iterations),
        "restarts_used": int(restarts_used),
        "constraint_residual": (
            None if constraint_residual is None else float(constraint_residual)
        ),
        "normalization_scale": float(normalization_scale),
    }


def _record_from_report(report, fidelity, p):
    return fit_record(
        report.method, report.objective, fidelity, p.eigenvalues,
        report.evaluations, report.iterations, report.restarts_used,
        report.constraint_residual, report.normalization_scale,
    )


class OpFailure(Exception):
    """An operation that failed by the fail_ratio rule."""


class FitSweep:
    """Simulate a table; fit it unconstrained and trace-preserving (the
    correct and the wrong model); score each fit against the analytic chi
    with the generalized fidelity and take its P operator."""

    FITS = ("fit_unconstrained", "fit_trace_preserving")

    def __init__(self, name: str, workdir: str):
        self.grid = WORKLOADS[name]["grid"]
        self.refs = {g: lq.ppbs_chi(lq.PpbsParams.from_gamma(g)) for g in self.grid}

    def prepare(self):
        pass

    def execute(self, gamma, table_seed, fits=FITS, opts=None):
        table = simulate(gamma, table_seed)
        opts = opts or FitOptions(seed=table_seed)
        out = []
        for fit in fits:
            t0 = time.perf_counter()
            report = getattr(lq, fit)(table, opts=opts)
            fit_ms = (time.perf_counter() - t0) * 1e3
            fidelity = lq.process_fidelity_ntp(report.chi, self.refs[gamma], clamp_tol=CLAMP_TOL)
            out.append((report, fidelity, lq.probability_operator(report.chi), fit_ms))
        return table, out

    def warmup(self):
        """One untimed operation that fills the program's caches: a fit
        capped at 300 evaluations fills the same ones as a full fit."""
        return self.execute(self.grid[0], 0, fits=self.FITS[:1],
                            opts=FitOptions(restarts=1, maxfev=300))

    def evaluate(self, gamma, result, protocol):
        table, out = result
        records = [{**_record_from_report(report, fidelity, p), "fit_ms": fit_ms}
                   for report, fidelity, p, fit_ms in out]
        chis = [report.chi.mat for report, *_ in out]
        return table.counts, records, check(
            gamma, table.counts, table.exposure, records, chis, protocol)


_EIG_LINE = re.compile(r"^eigenvalues: (\[.*\])$", re.M)


class CliFiles:
    """Four in-process `lossyqpt` CLI calls per table, output captured:
    simulate, reconstruct linear and post-selected against the analytic
    chi, and analyze-p on that chi (its files are written at set-up)."""

    def __init__(self, name: str, workdir: str):
        self.grid = WORKLOADS[name]["grid"]
        self.refs = {}
        for g in self.grid:
            path = os.path.join(workdir, f"chi_ref_{g}.json")
            lq.serialize.write_json(path, lq.serialize.chi_to_dict(
                lq.ppbs_chi(lq.PpbsParams.from_gamma(g))))
            self.refs[g] = path
        self.counts = os.path.join(workdir, "counts.json")
        self.reports = [os.path.join(workdir, f"fit_{m}.json") for m in ("linear", "post-selected")]

    def argvs(self, gamma, table_seed):
        seed = str(table_seed)
        yield ["simulate", "--gamma", repr(gamma), "--seed", seed, "--out", self.counts]
        for method, path in zip(("linear", "post-selected"), self.reports):
            yield ["reconstruct", "--counts", self.counts, "--method", method,
                   "--reference", self.refs[gamma], "--seed", seed, "--out", path]
        yield ["analyze-p", "--chi", self.refs[gamma]]

    def prepare(self):
        """Remove the last operation's files, so that a step that writes
        nothing cannot pass on a stale file."""
        for path in (self.counts, *self.reports):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def execute(self, gamma, table_seed):
        steps = []
        for argv in self.argvs(gamma, table_seed):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lq.cli.main(argv)
            steps.append((argv[0], code, out.getvalue(), err.getvalue()))
        return steps

    def warmup(self):
        self.prepare()
        return self.execute(self.grid[0], 0)

    def evaluate(self, gamma, steps, protocol):
        for cmd, code, _, err in steps:
            if code != 0:
                raise OpFailure(f"{cmd} exited {code}: {err.strip()[:200]}")
        for path in (self.counts, *self.reports):
            if not os.path.exists(path) or os.path.getsize(path) == 0:
                raise OpFailure(f"{os.path.basename(path)} was not written")
        match = _EIG_LINE.search(steps[-1][2])
        if match is None:
            raise OpFailure("analyze-p printed no eigenvalues")
        with open(self.counts, encoding="utf-8") as fh:
            doc = json.load(fh)
        counts, exposure = np.array(doc["counts"], dtype=float), float(doc["exposure"])
        records, chis = [], []
        for path in self.reports:
            with open(path, encoding="utf-8") as fh:
                rep = json.load(fh)
            chis.append(np.array([[complex(a, b) for a, b in row] for row in rep["chi"]["mat"]]))
            records.append(fit_record(
                rep["method"], rep["objective"], rep["fidelity_vs_reference"],
                rep["p_operator"]["eigenvalues"], rep["evaluations"],
                rep["iterations"], rep["restarts_used"], rep["constraint_residual"],
                rep["normalization_scale"],
            ))
        problems = check(gamma, counts, exposure, records, chis, protocol)
        printed = json.loads(match.group(1))
        if not _close(sorted(printed), [gamma, 1.0]):
            problems.append(f"analyze-p: eigenvalues {printed} != [{gamma}, 1]")
        return counts, records, problems


def make(name: str, workdir: str):
    return CliFiles(name, workdir) if name == "cli-files" else FitSweep(name, workdir)


# ---------------------------------------------------------------- checks


def failure_of(records) -> str | None:
    """The fail_ratio rule for an operation that returned: a non-finite
    reported number, or a TP fit that misses its constraint tolerance."""
    for r in records:
        numbers = [r["objective"], r["fidelity"], r["normalization_scale"], *r["p_eigs"]]
        if r["constraint_residual"] is not None:
            numbers.append(r["constraint_residual"])
        if not all(math.isfinite(x) for x in numbers):
            return f"{r['method']}: non-finite reported number"
        if r["method"] == "mle-tp" and not r["constraint_residual"] < CONSTRAINT_TOL:
            return f"mle-tp: constraint residual {r['constraint_residual']:.3e}"
    return None


def _close(a, b, tol=ANSWER_TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol * np.maximum(1.0, np.abs(b))))


def check(gamma, counts, exposure, records, chis, protocol) -> list[str]:
    """Problems with one operation's answers (records, with the fitted chi
    matrices beside them), against independent numpy."""
    problems = []
    truth = reference.true_chi(gamma)
    mu = exposure * protocol.probabilities(truth)
    if (counts.shape != mu.shape or np.any(counts < 0) or np.any(counts != np.round(counts))
            or np.any(np.abs(counts - mu) > 10.0 * np.sqrt(np.maximum(mu, 1.0)) + 10.0)):
        problems.append("count table is not a Poisson draw from the device model")
    f_true = protocol.objective(truth, counts, exposure)
    for r, chi in zip(records, chis):
        m = r["method"]
        if not _close(r["fidelity"], reference.fidelity_to_pure(chi, truth)):
            problems.append(f"{m}: fidelity disagrees with the reference")
        if not _close(np.sort(r["p_eigs"]), reference.p_eigenvalues(chi), 1e-8):
            problems.append(f"{m}: P eigenvalues disagree with the reference")
        if m == "linear":
            if not _close(chi, protocol.least_squares_chi(counts / exposure)):
                problems.append("linear: chi is not the least-squares inversion")
        elif m == "post-selected":
            rates = counts / exposure
            rates = rates / (rates.sum(axis=1, keepdims=True) / 3.0)
            if not _close(chi, protocol.least_squares_chi(rates)):
                problems.append("post-selected: chi is not the normalized inversion")
        else:
            raw = chi * r["normalization_scale"]
            f = protocol.objective(raw, counts, exposure)
            if abs(f - r["objective"]) > 1e-7 * max(1.0, f):
                problems.append(f"{m}: reported objective {r['objective']} != {f}")
            if np.linalg.eigvalsh(chi)[0] < -ANSWER_TOL * max(1.0, np.abs(chi).max()):
                problems.append(f"{m}: chi is not positive semidefinite")
            # the analytic channel is a feasible point, so an optimum is no worse
            if (m == "mle" or gamma == 1.0) and f > f_true * (1 + 1e-9):
                problems.append(f"{m}: objective {f:.6g} above the true channel's {f_true:.6g}")
        if m == "mle":
            if r["fidelity"] < FIDELITY_FLOOR:
                problems.append(f"mle: fidelity {r['fidelity']:.5f} below {FIDELITY_FLOOR}")
            if abs(max(r["p_eigs"]) - 1.0) > ANSWER_TOL:
                problems.append("mle: largest P eigenvalue is not normalized to 1")
        if m == "mle-tp":
            residual = np.linalg.norm(reference.p_operator(chi) - np.eye(2))
            if abs(residual - r["constraint_residual"]) > ANSWER_TOL:
                problems.append("mle-tp: reported constraint residual is wrong")
    return problems
