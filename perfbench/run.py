"""lossyqpt benchmark: closed-loop workloads, one count table per operation.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

One client runs operations back to back for S seconds and checks every
answer against independent numpy (reference.py).  A run ends on a whole
cycle of the workload's gamma grid, so every run covers the same mix of
gammas; it starts no cycle that would end past S by more than half a
typical cycle.  With S = 0 each phase runs one cycle.  With --trace 0
the last line is a JSON object holding the bounded end-to-end metrics
(the others are printed above it, with unit and direction); with
--trace 1 the run spends half its time untraced and half traced on the
same inputs, and the JSON holds the per-layer metrics and the tracing
overhead.  Answer metrics, which repeat exactly for a seed, are printed
above it.  With --workload all, each workload runs in a process of its
own, so that its peak memory and the program's caches are its own; the
last line then holds every workload's metrics.  Records of every
operation (and the spans of a traced run) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import env

env.pin_blas_threads()

import numpy as np  # noqa: E402  (after the BLAS pin)

SETUP_PROBES = 11
# Answer metrics are taken over this many leading operations, which every
# run of the default length completes, so they repeat exactly for a seed.
ANSWER_OPS = {"fit-sweep": 3, "cli-files": 300}

# name -> (unit, better); every workload reports each of these.  Only the
# first three are bounded in BENCHMARK.json; the JSON line holds exactly
# those.  On a CPU whose speed switches between levels 25-100 % apart
# every few seconds, the mean and the median of operation time follow the
# share of a run spent at each level, while p90 sits at the slower level
# in every run (see README.md for the measured spreads).
END_TO_END = {
    "table_ms.p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "tables_per_s": ("tables/s", "higher"),
    "table_ms.p50": ("ms", "lower"),
}
BOUNDED = ("table_ms.p90", "setup_s", "peak_rss_mb")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_phase(name, wl, protocol, seed, seconds, tracer=None, probes=None):
    """Operations 0, 1, ... in whole grid cycles until the time is spent;
    one record each.  Set-up probes, if given, run between operations and
    do not count as time spent."""
    from workloads import WORKLOADS, op_inputs, failure_of, table_digest

    cycle = len(WORKLOADS[name]["grid"])
    records = []
    begin = time.perf_counter()
    while True:
        i = len(records)
        gamma, table_seed = op_inputs(name, seed, i)
        wl.prepare()
        failure = None
        if tracer:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            result = wl.execute(gamma, table_seed)
        except Exception as exc:  # a failed operation is counted, never fatal
            failure = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1e3
        if tracer:
            tracer.end_op()
        rec = {"op": i, "gamma": gamma, "table_seed": table_seed, "ms": ms}
        if failure is None:
            try:
                counts, fits, problems = wl.evaluate(gamma, result, protocol)
            except Exception as exc:  # unreadable or missing output
                failure = f"{type(exc).__name__}: {exc}"
            else:
                failure = failure_of(fits)
                rec.update(table=table_digest(counts), fits=fits, problems=problems)
        rec["failure"] = failure
        records.append(rec)
        n = len(records)
        elapsed = time.perf_counter() - begin - (probes.spent if probes else 0.0)
        if probes:
            probes.run_due(elapsed)
        if n % cycle == 0 and elapsed * (1 + 0.5 * cycle / n) >= seconds:
            return records


class SetupProbes:
    """setup_s: the median, over fresh processes, of the time to import
    lossyqpt and run one warm-up operation, as each process measures it.
    The probes run between operations, spread evenly over the run, so that
    they meet the machine at the speeds the operations meet."""

    def __init__(self, name, seconds, count=SETUP_PROBES):
        self.cmd = [sys.executable, str(env.BENCH / "setup_probe.py"), name]
        self.seconds, self.count = seconds, count
        self.times, self.spent = [], 0.0

    def run_due(self, elapsed):
        """The probes due after `elapsed` seconds of the run; all of them
        once the run's time is spent."""
        due = (self.count if elapsed >= self.seconds
               else math.ceil(self.count * elapsed / self.seconds))
        t0 = time.perf_counter()
        while len(self.times) < due:
            out = subprocess.run(self.cmd, cwd=env.ROOT, check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
            self.times.append(float(out.split()[-1]))
        self.spent += time.perf_counter() - t0


def end_to_end(records):
    ms = [r["ms"] for r in records]
    ok = sum(r["failure"] is None for r in records)
    p50, p90 = np.percentile(ms, [50, 90])
    return {
        "tables_per_s": ok / (sum(ms) / 1e3),
        "table_ms.p50": float(p50),
        "table_ms.p90": float(p90),
    }


def answer_metrics(name, records):
    """name -> (value, unit, better); exact for a given seed."""
    head = records[:ANSWER_OPS[name]]
    fits = [f for r in head if r["failure"] is None for f in r["fits"]]
    out = {"fail_ratio": (sum(r["failure"] is not None for r in records) / len(records),
                          "failed/attempted", "lower")}
    if name == "fit-sweep":
        for method in ("mle", "mle-tp"):
            mine = [f for f in fits if f["method"] == method]
            out[f"objective.sum.{method}"] = (math.fsum(f["objective"] for f in mine), "1", "lower")
            out[f"evaluations.sum.{method}"] = (sum(f["evaluations"] for f in mine), "count", "lower")
        out["fidelity.min"] = (min((f["fidelity"] for f in fits if f["method"] == "mle"),
                                   default=math.nan), "1", "higher")
        out["constraint_residual.max"] = (
            max((f["constraint_residual"] for f in fits if f["method"] == "mle-tp"),
                default=math.nan), "1", "lower")
    else:
        out["fidelity_over_1"] = (sum(f["fidelity"] > 1.0 for f in fits), "count", "lower")
    return out, len(head)


def fit_seconds(records):
    """Median wall time of each fit method, for the fit workload."""
    times = {}
    for r in records:
        for f in r.get("fits") or ():
            if "fit_ms" in f:
                times.setdefault(f["method"], []).append(f["fit_ms"] / 1e3)
    return {f"fit_s.{m}": (statistics.median(t), "s", "lower") for m, t in times.items()}


def fit_counts(untraced, traced):
    """mle.* metrics straight from FitReport (0 where nothing is fitted)."""
    from workloads import BUDGET

    fits = [f for r in untraced + traced if r["failure"] is None for f in r["fits"]
            if f["method"] in ("mle", "mle-tp")]
    per_eval = [f["fit_ms"] * 1e3 / f["evaluations"] for r in untraced
                if r["failure"] is None for f in r["fits"] if f["evaluations"] > 0]
    mle = [f for f in fits if f["method"] == "mle"]

    def median(values):
        return float(np.median(values)) if values else 0.0

    return {
        "mle.evals_per_fit": (median([f["evaluations"] for f in fits]), "count"),
        "mle.iters_per_fit": (median([f["iterations"] for f in fits]), "count"),
        "mle.us_per_eval": (median(per_eval), "us"),
        "mle.budget_hit_ratio": (
            sum(f["evaluations"] >= BUDGET for f in mle) / len(mle) if mle else 0.0, "fraction"),
    }


def run_workload(name, args):
    out = env.out_dir()
    stem = out / f"{name}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        return measure(name, args, stem, workdir)


def measure(name, args, stem, workdir):
    import reference
    import workloads
    from spans import Tracer

    wl = workloads.make(name, workdir)
    wl.warmup()
    protocol = reference.Protocol(reference.LABELS, reference.LABELS)

    if not args.trace:
        probes = SetupProbes(name, args.seconds)
        records = run_phase(name, wl, protocol, args.seed, args.seconds, probes=probes)
        probes.run_due(math.inf)
        values = end_to_end(records)
        values["setup_s"] = statistics.median(probes.times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: (values[k], *END_TO_END[k]) for k in END_TO_END}
        metrics.update(fit_seconds(records))
        traced, extra = [], {"setup_samples_s": probes.times}
    else:
        half = args.seconds / 2
        records = run_phase(name, wl, protocol, args.seed, half)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(name, wl, protocol, args.seed, half, tracer)
        finally:
            tracer.uninstall()
        tracer.save(str(stem) + "-spans.npz")
        metrics = {k: (v, unit, None) for k, (v, unit) in
                   {**tracer.layer_metrics(), **fit_counts(records, traced)}.items()}
        untraced_rate = end_to_end(records)["tables_per_s"]
        traced_rate = end_to_end(traced)["tables_per_s"]
        metrics["trace_overhead"] = (untraced_rate - traced_rate, "tables/s", None)
        extra = {"bindings": tracer.bindings, "untraced_tables_per_s": untraced_rate,
                 "traced_tables_per_s": traced_rate}
        print(f"# tables_per_s {untraced_rate!r} untraced, {traced_rate!r} traced")

    answers, answer_ops = answer_metrics(name, records)
    all_records = records + traced
    attempted = len(all_records)
    failed = sum(r["failure"] is not None for r in all_records)
    correct = not any(r.get("problems") for r in all_records)

    print(f"# workload {name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{attempted} ops ({len(records)} untraced, {len(traced)} traced), one closed-loop client")
    for key, (value, unit, better) in metrics.items():
        note = "" if key in BOUNDED or not better else "; not bounded"
        direction = f" ({better} is better{note})"
        print(f"metric {key} = {value!r} {unit}{direction if better else ''}")
    if not args.trace:
        print(f"# table_ms percentiles over n={len(records)} ops; p90 has "
              f"{int(len(records) * 0.1)} ops beyond it")
    for key, (value, unit, better) in answers.items():
        print(f"answer {key} = {value!r} {unit} ({better} is better; first {answer_ops} ops)")
    wrong = [(r, p) for r in all_records for p in r.get("problems") or ()]
    for r, p in wrong[:5]:
        print(f"# wrong answer, op {r['op']} (gamma {r['gamma']}): {p}")
    failures = [r for r in all_records if r["failure"]]
    for r in failures[:5]:
        print(f"# failed op {r['op']} (gamma {r['gamma']}): {r['failure']}")
    if len(wrong) > 5 or len(failures) > 5:
        print(f"# {len(wrong)} wrong answers, {len(failures)} failed ops in all")

    doc = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env.record(), "metrics": {k: v[0] for k, v in metrics.items()},
        "answers": {k: v[0] for k, v in answers.items()}, "answer_ops": answer_ops,
        **extra, "ops": records, "traced_ops": traced,
    }
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"# per-op records: {stem.relative_to(env.ROOT)}.json")
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()
                    if args.trace or k in BOUNDED},
    }


def run_all(names, args):
    """Each workload in a process of its own; one JSON line for all."""
    results = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                               text=True).stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    env.use_checkout_package()
    import workloads

    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)} or all")
    env.pin_cpu()
    rec = env.record()
    print(f"# env: {rec['nproc']} cpus ({rec['cpu_model']}), python {rec['python']}, "
          f"numpy {rec['numpy']}, {rec['blas']}, BLAS threads pinned to 1, "
          f"process pinned to cpu {rec['pinned_to_cpus']}, commit {rec['commit']}")
    print(f"# {env.NOT_CONTROLLED}")
    print(json.dumps(run_workload(args.workload, args)))


if __name__ == "__main__":
    main()
