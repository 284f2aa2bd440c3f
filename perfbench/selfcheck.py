"""Self-check of the benchmark at tiny size: one grid cycle per phase
(`--seconds 0`), which is 3 operations of fit-sweep and 10 of cli-files.

usage: python3 perfbench/selfcheck.py

For every workload it runs the real command twice with one seed, once
untraced and once traced, and checks that
  * every metric BENCHMARK.json names is printed, with its unit, and is
    in the JSON line (end_to_end untraced, per_layer traced);
  * the same seed gives identical answers: answer metrics, table digests,
    objectives and evaluation counts, traced or not;
  * a different seed gives a different table.
Exits 1 if any check fails.  Takes about three minutes.
"""

import json
import re
import subprocess
import sys

import env

env.pin_blas_threads()
env.use_checkout_package()

import workloads  # noqa: E402

SEED, OTHER_SEED = 101, 102
_METRIC = re.compile(r"^metric (\S+) = (\S+) (\S+)", re.M)
_ANSWER = re.compile(r"^answer .*$", re.M)

failures = []


def expect(ok, what):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(workload, trace):
    cmd = [sys.executable, str(env.BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(env.out_dir() / f"{workload}-seed{SEED}-trace{trace}.json", encoding="utf-8") as fh:
        record = json.load(fh)
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]), record


def answers_of(op):
    """An operation's record without its timings."""
    fits = [{k: v for k, v in f.items() if k != "fit_ms"} for f in op.get("fits") or ()]
    return {"table": op.get("table"), "failure": op["failure"], "fits": fits}


def check_metrics(workload, declared, printed, result, kind):
    shown = {name: unit for name, _, unit in _METRIC.findall(printed)}
    missing = [m["name"] for m in declared if shown.get(m["name"]) != m["unit"]]
    expect(not missing, f"{workload}: every {kind} metric printed with its unit {missing or ''}")
    in_json = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(in_json == {m["name"]: m["unit"] for m in declared},
           f"{workload}: JSON line holds exactly the {kind} metrics")


def main():
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect({w["name"]: w["why"] for w in bench["workloads"]}
           == {k: v["why"] for k, v in workloads.WORKLOADS.items()},
           "BENCHMARK.json lists the workloads run.py runs, with their reasons")
    for name in workloads.WORKLOADS:
        out0, res0, rec0 = run(name, 0)
        out1, res1, rec1 = run(name, 1)
        check_metrics(name, bench["end_to_end"], out0, res0, "end_to_end")
        check_metrics(name, bench["per_layer"], out1, res1, "per_layer")
        expect(res0["correct"] and res1["correct"] and not res0["failed"] and not res1["failed"],
               f"{name}: answers correct, no failed operation")
        expect(_ANSWER.findall(out0) == _ANSWER.findall(out1),
               f"{name}: same seed, same answer metrics")
        first = answers_of(rec0["ops"][0])
        expect(first == answers_of(rec1["ops"][0]) == answers_of(rec1["traced_ops"][0]),
               f"{name}: same seed, same table and fits, traced or not")
        expected, other = (
            workloads.table_digest(workloads.simulate(*workloads.op_inputs(name, s, 0)).counts)
            for s in (SEED, OTHER_SEED))
        expect(first["table"] == expected and other != expected,
               f"{name}: the seed alone determines the table, another seed gives another")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
