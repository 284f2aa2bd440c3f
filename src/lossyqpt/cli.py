"""Command-line interface.

Four subcommands cover the batch workflow:

    simulate     generate a coincidence count table for the lossy device
    reconstruct  fit a process matrix from a count table
    sweep        scan the transmittivity ratio and emit a CSV data series
    analyze-p    inspect the success-probability operator of a chi file

Every command writes a sidecar run manifest (<out>.manifest.json) with
the resolved configuration; data files reference the manifest by name so
that a result can always be traced to the exact invocation, while the
data files themselves stay byte-identical across reruns with the same
seed.  Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, serialize
from .channels import probability_operator, process_fidelity_ntp
from .errors import (
    DataError,
    DegenerateFitError,
    NotPsdError,
    RepresentationError,
    SingularSystemError,
)
from .mle import (
    FitOptions,
    fit_linear,
    fit_post_selected,
    fit_trace_preserving,
    fit_unconstrained,
)
from .simulator import PpbsParams, SimConfig, derive_seed, ppbs_chi, simulate_counts

SEED_ENV_VAR = "LOSSYQPT_SEED"

_METHODS = {
    "linear": fit_linear,
    "mle": fit_unconstrained,
    "mle-tp": fit_trace_preserving,
    "post-selected": fit_post_selected,
}

_SWEEP_COLUMNS = (
    "gamma",
    "method",
    "fidelity",
    "p_eig_1",
    "p_eig_2",
    "objective",
    "min_chi_eigenvalue",
    "seed",
)


class UsageError(Exception):
    """Bad flag values; maps to exit code 2."""


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return 0


def _load_config(args):
    if getattr(args, "config", None) is None:
        return {}
    doc = serialize.read_json(args.config)
    if not isinstance(doc, dict):
        raise DataError(f"config file {args.config} must hold a JSON object")
    return doc


def _resolve(args, config, name, default=None):
    """Flag value if given, else config entry, else default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _resolve_number(args, config, name, kind, default=None):
    """_resolve converted by kind (int or float); a value that does not
    convert, typically a string from --config, is a usage error."""
    value = _resolve(args, config, name, default)
    if value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise UsageError(f"--{name} must be {what}, got {value!r}") from None


def _write_manifest(out_path: str, command: str, config: dict, seed, outputs,
                    inputs=()):
    manifest = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": "run_manifest",
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": list(inputs),
        "outputs": [os.path.basename(p) for p in outputs],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = out_path + ".manifest.json"
    serialize.write_json(path, manifest)
    return os.path.basename(path)


def _ppbs_params(args, config) -> PpbsParams:
    gamma = _resolve_number(args, config, "gamma", float)
    t_h = _resolve_number(args, config, "t-h", float)
    t_v = _resolve_number(args, config, "t-v", float)
    if gamma is not None:
        if t_h is not None or t_v is not None:
            raise UsageError("--gamma and --t-h/--t-v are mutually exclusive")
        try:
            return PpbsParams.from_gamma(gamma)
        except DataError as exc:
            raise UsageError(str(exc)) from None
    if t_h is None or t_v is None:
        raise UsageError("need either --gamma or both --t-h and --t-v")
    try:
        return PpbsParams(t_h, t_v)
    except DataError as exc:
        raise UsageError(str(exc)) from None


def _sim_config(params, exposure, seed, noise) -> SimConfig:
    """SimConfig from flag values; values it rejects are usage errors."""
    try:
        return SimConfig(params, exposure=exposure, seed=seed, noise=noise)
    except DataError as exc:
        raise UsageError(str(exc)) from None


def cmd_simulate(args) -> int:
    config = _load_config(args)
    params = _ppbs_params(args, config)
    seed = _default_seed(args)
    exposure = _resolve_number(args, config, "exposure", float, 1e4)
    noise = _resolve(args, config, "noise", "poisson")
    table = simulate_counts(_sim_config(params, exposure, seed, noise))
    resolved = {
        "t_h": params.t_h,
        "t_v": params.t_v,
        "exposure": exposure,
        "noise": noise,
    }
    manifest = _write_manifest(args.out, "simulate", resolved, seed, [args.out])
    doc = serialize.count_table_to_dict(table)
    doc["manifest"] = manifest
    serialize.write_json(args.out, doc)
    return 0


def _fit_options(args, config, seed) -> FitOptions:
    try:
        return FitOptions(
            restarts=_resolve_number(args, config, "restarts", int, 4),
            maxfev=_resolve_number(args, config, "maxfev", int, 50_000),
            xtol=_resolve_number(args, config, "xtol", float, 1e-9),
            seed=seed,
            weight_mode=_resolve(args, config, "weight-mode", "floor"),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad fit option: {exc}") from None


def _report_dict(report, reference=None):
    p = probability_operator(report.chi)
    doc = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": "fit_report",
        "method": report.method,
        "chi": serialize.chi_to_dict(report.chi),
        "objective": report.objective,
        "iterations": report.iterations,
        "evaluations": report.evaluations,
        "restarts_used": report.restarts_used,
        "normalization_scale": report.normalization_scale,
        "constraint_residual": report.constraint_residual,
        "seed": report.seed,
        "min_chi_eigenvalue": report.min_chi_eigenvalue,
        "psd_ok": report.psd_ok,
        "converged": report.converged,
        "p_operator": serialize.probability_operator_to_dict(p),
    }
    if reference is not None:
        doc["fidelity_vs_reference"] = process_fidelity_ntp(
            report.chi, reference, clamp_tol=1.0
        )
    return doc


def cmd_reconstruct(args) -> int:
    config = _load_config(args)
    seed = _default_seed(args)
    method = _resolve(args, config, "method", "mle")
    if not isinstance(method, str) or method not in _METHODS:
        raise UsageError(
            f"unknown method {method!r}; choose from {sorted(_METHODS)}"
        )
    table = serialize.count_table_from_dict(serialize.read_json(args.counts))
    opts = _fit_options(args, config, seed)
    reference = None
    ref_path = _resolve(args, config, "reference")
    if ref_path is not None:
        reference = serialize.chi_from_dict(serialize.read_json(ref_path))
    report = _METHODS[method](table, opts=opts)
    doc = _report_dict(report, reference)
    in_files = [args.counts] + ([ref_path] if ref_path else [])
    manifest = _write_manifest(
        args.out,
        "reconstruct",
        {"method": method, "restarts": opts.restarts, "maxfev": opts.maxfev,
         "xtol": opts.xtol, "weight_mode": opts.weight_mode},
        seed,
        [args.out],
        inputs=in_files,
    )
    doc["manifest"] = manifest
    serialize.write_json(args.out, doc)
    return 0


def _list_items(value):
    """Items of a JSON list from --config, or the non-empty comma-separated
    tokens of a flag or config string."""
    if isinstance(value, list):
        return value
    return [tok for tok in str(value).split(",") if tok.strip()]


def _parse_gammas(args, config):
    gammas = _resolve(args, config, "gammas")
    grange = _resolve(args, config, "gamma-range")
    if (gammas is None) == (grange is None):
        raise UsageError("need exactly one of --gammas or --gamma-range")
    if gammas is not None:
        try:
            values = [float(tok) for tok in _list_items(gammas)]
        except (TypeError, ValueError):
            raise UsageError(f"cannot parse --gammas {gammas!r}") from None
    else:
        try:
            lo, hi, count = str(grange).split(":")
            values = np.linspace(float(lo), float(hi), int(count)).tolist()
        except ValueError:
            raise UsageError(
                f"--gamma-range must be start:stop:count, got {grange!r}"
            ) from None
    if not values:
        raise UsageError("empty gamma list")
    for g in values:
        if not 0.0 < g <= 1.0:
            raise UsageError(f"gamma values must lie in (0, 1], got {g}")
    return values


def cmd_sweep(args) -> int:
    config = _load_config(args)
    seed = _default_seed(args)
    gammas = _parse_gammas(args, config)
    methods = _list_items(_resolve(args, config, "methods", "mle"))
    if not all(isinstance(m, str) for m in methods):
        raise UsageError(f"--methods must be method names, got {methods!r}")
    methods = [m.strip() for m in methods if m.strip()]
    if not methods:
        raise UsageError("empty method set")
    for m in methods:
        if m not in _METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {sorted(_METHODS)}")
    repeats = _resolve_number(args, config, "repeats", int, 1)
    if repeats < 1:
        raise UsageError("--repeats must be at least 1")
    exposure = _resolve_number(args, config, "exposure", float, 1e4)
    noise = _resolve(args, config, "noise", "poisson")

    rows = []
    for gi, gamma in enumerate(gammas):
        params = PpbsParams.from_gamma(gamma)
        reference = ppbs_chi(params)
        for rep in range(repeats):
            run_seed = derive_seed(seed, gi, rep)
            table = simulate_counts(_sim_config(params, exposure, run_seed, noise))
            for method in methods:
                opts = FitOptions(seed=run_seed)
                report = _METHODS[method](table, opts=opts)
                fidelity = process_fidelity_ntp(report.chi, reference, clamp_tol=1.0)
                eigs = probability_operator(report.chi).eigenvalues
                rows.append(
                    (
                        gamma,
                        method,
                        fidelity,
                        float(eigs[-1]),
                        float(eigs[0]),
                        report.objective,
                        report.min_chi_eigenvalue,
                        run_seed,
                    )
                )

    manifest = _write_manifest(
        args.out,
        "sweep",
        {
            "gammas": gammas,
            "methods": methods,
            "repeats": repeats,
            "exposure": exposure,
            "noise": noise,
        },
        seed,
        [args.out],
    )
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest: {manifest}\n")
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return 0


def cmd_analyze_p(args) -> int:
    config = _load_config(args)
    chi = serialize.chi_from_dict(serialize.read_json(args.chi))
    policy = _resolve(args, config, "on-unphysical", "warn")
    p = probability_operator(chi)
    pmax = float(p.eigenvalues[-1])
    excess = pmax - 1.0
    if excess > 1e-9:
        message = f"max P eigenvalue exceeds 1 by {excess:.3e}"
        if policy == "fail" or excess > 1e-3:
            raise NotPsdError(message, eigenvalue=pmax)
        print(f"warning: {message}", file=sys.stderr)

    np.set_printoptions(precision=6, suppress=True)
    print("P matrix:")
    print(np.array2string(p.mat, precision=6, suppress_small=True))
    print(f"eigenvalues: {[float(x) for x in p.eigenvalues]}")
    print("eigenstate projectors (ascending eigenvalue):")
    for i in range(p.mat.shape[0]):
        v = p.spectrum.eigenvectors[:, i]
        proj = np.outer(v, v.conj())
        print(np.array2string(proj, precision=6, suppress_small=True))
    print(f"classification: {p.classification}")
    trace_chi = chi.trace()
    trace_p = float(np.trace(p.mat).real)
    print(
        f"Tr[chi] = {trace_chi!r}, (1/d) Tr[P] = {trace_p / chi.dim!r}, "
        f"difference = {trace_chi - trace_p / chi.dim:.3e}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossyqpt",
        description="Process tomography of lossy polarization channels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags take precedence")
    common.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a count table for the lossy device")
    p.add_argument("--gamma", type=float, default=None,
                   help="transmittivity ratio; implies t_h=1, t_v=gamma")
    p.add_argument("--t-h", type=float, default=None)
    p.add_argument("--t-v", type=float, default=None)
    p.add_argument("--exposure", type=float, default=None,
                   help="expected pairs per input setting (default 1e4)")
    p.add_argument("--noise", choices=["poisson", "none"], default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="fit a process matrix from a count table")
    p.add_argument("--counts", required=True)
    p.add_argument("--method", choices=sorted(_METHODS), default=None)
    p.add_argument("--reference", default=None,
                   help="chi JSON file to compute a fidelity against")
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--maxfev", type=int, default=None)
    p.add_argument("--xtol", type=float, default=None)
    p.add_argument("--weight-mode", choices=["floor", "drop"], default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("sweep", parents=[common],
                       help="scan the transmittivity ratio, write a CSV series")
    p.add_argument("--gammas", default=None, help="comma-separated ratios")
    p.add_argument("--gamma-range", default=None, help="start:stop:count")
    p.add_argument("--methods", default=None,
                   help=f"comma-separated subset of {sorted(_METHODS)}")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--exposure", type=float, default=None)
    p.add_argument("--noise", choices=["poisson", "none"], default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze-p", parents=[common],
                       help="report the success-probability operator of a chi file")
    p.add_argument("--chi", required=True)
    p.add_argument("--on-unphysical", choices=["warn", "fail"], default=None)
    p.set_defaults(func=cmd_analyze_p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotPsdError, SingularSystemError, DegenerateFitError,
            RepresentationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
