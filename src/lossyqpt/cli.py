"""Command-line interface.

Four subcommands cover the batch workflow:

    simulate     generate a coincidence count table for the lossy device
    reconstruct  fit a process matrix from a count table
    sweep        scan the transmittivity ratio and emit a CSV data series
    analyze-p    inspect the success-probability operator of a chi file

Every command except analyze-p writes a sidecar run manifest
(<out>.manifest.json) with the resolved configuration, after its data
file; if either cannot be written the command exits 3 and leaves
neither.  Data files reference the manifest by name so that a result
can always be traced to the exact invocation, while the data files
themselves stay byte-identical across reruns with the same seed.  Exit
codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.

A call whose first argument names a command is parsed by that
command's own parser (prog "lossyqpt <command>"), declared by the same
helper as its subparser, so no other command's parser and no top-level
parser is built.  The whole tree, the top-level parser with every
command's subparser, is built only when the first argument names no
command: for top-level help, --version and the error of a missing or
unknown command, which list all four.

A --config file is a JSON object whose keys are long flag names without
the dashes ("gamma", "t-h", "weight-mode").  Each entry is parsed as the
token --key=value, placed in front of the command's own arguments, so a
flag on the command line wins and a key the command has no flag for,
such as "weight_mode", is an unrecognized argument (a unique prefix of a
flag name works, as it does on the command line).  Values are strings or
numbers, converted and checked like the flag's own text; null leaves the
flag unset.  Only "gammas" and "methods" take a JSON list, whose items
are joined with commas.  Booleans, objects and other lists exit 2.  The
file flags --out, --counts and --chi must be given on the command line.
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


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a parse error, so that main reports it as
    `error: ...` with exit code 2 like any other bad flag value."""

    def error(self, message):
        raise UsageError(message)


def _default_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    if seed < 0:
        # numpy seeds only from non-negative integers
        raise UsageError(f"the seed must be non-negative, got {seed}")
    return seed


def _write_outputs(args, data, command: str, config: dict, seed, inputs=()):
    """Write args.out, then its manifest; data is a JSON document or the
    rows of a CSV file.  A manifest that cannot be written takes the data
    file with it, so a failed command leaves neither."""
    name = os.path.basename(args.out) + ".manifest.json"
    if isinstance(data, dict):
        serialize.write_json(args.out, {**data, "manifest": name})
    else:
        try:
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                fh.write(f"# manifest: {name}\n")
                csv.writer(fh).writerows(
                    [repr(v) if isinstance(v, float) else v for v in row] for row in data)
        except OSError as exc:
            raise DataError(f"cannot write {args.out}: {exc}") from None
    manifest = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": "run_manifest",
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": list(inputs),
        "outputs": [os.path.basename(args.out)],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    try:
        serialize.write_json(args.out + ".manifest.json", manifest)
    except DataError:
        os.remove(args.out)
        raise


# config keys whose JSON list value stands for a comma-separated flag
_LIST_KEYS = ("gammas", "methods")


def _config_tokens(path: str) -> list:
    """The entries of a --config file as --key=value flag tokens."""
    doc = serialize.read_json(path)
    if not isinstance(doc, dict):
        raise DataError(f"config file {path} must hold a JSON object")
    tokens = []
    for key, value in doc.items():
        if value is None:
            continue
        items = value if key in _LIST_KEYS and isinstance(value, list) else [value]
        if not all(isinstance(v, (str, int, float)) and not isinstance(v, bool)
                   for v in items):
            kinds = "a string or a number"
            if key in _LIST_KEYS:
                kinds += ", or a list of them"
            raise UsageError(f"config entry {key!r} must be {kinds}, got {value!r}")
        tokens.append(f"--{key}=" + ",".join(map(str, items)))
    return tokens


def _from_flags(make, *args, **kwargs):
    """make(*args, **kwargs) on flag values; a value it rejects is a
    usage error."""
    try:
        return make(*args, **kwargs)
    except (DataError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _ppbs_params(args) -> PpbsParams:
    gamma, t_h, t_v = args.gamma, args.t_h, args.t_v
    if gamma is not None:
        if t_h is not None or t_v is not None:
            raise UsageError("--gamma and --t-h/--t-v are mutually exclusive")
        return _from_flags(PpbsParams.from_gamma, gamma)
    if t_h is None or t_v is None:
        raise UsageError("need either --gamma or both --t-h and --t-v")
    return _from_flags(PpbsParams, t_h, t_v)


def _sim_config(args, params, seed) -> SimConfig:
    return _from_flags(SimConfig, params, exposure=args.exposure, seed=seed,
                       noise=args.noise)


def cmd_simulate(args) -> int:
    params = _ppbs_params(args)
    seed = _default_seed(args)
    table = simulate_counts(_sim_config(args, params, seed))
    resolved = {
        "t_h": params.t_h,
        "t_v": params.t_v,
        "exposure": args.exposure,
        "noise": args.noise,
    }
    _write_outputs(args, serialize.count_table_to_dict(table), "simulate",
                   resolved, seed)
    return 0


def _fit_options(args, seed) -> FitOptions:
    return _from_flags(FitOptions, restarts=args.restarts, maxfev=args.maxfev,
                       xtol=args.xtol, seed=seed, weight_mode=args.weight_mode)


def _score(chi, reference):
    """The fit's fidelity to the reference chi (None without one) and its
    success-probability operator P."""
    fidelity = None
    if reference is not None:
        fidelity = process_fidelity_ntp(chi, reference, clamp_tol=1.0)
    return fidelity, probability_operator(chi)


def _report_dict(report, reference=None):
    fidelity, p = _score(report.chi, reference)
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
    if fidelity is not None:
        doc["fidelity_vs_reference"] = fidelity
    return doc


def cmd_reconstruct(args) -> int:
    seed = _default_seed(args)
    table = serialize.count_table_from_dict(serialize.read_json(args.counts))
    opts = _fit_options(args, seed)
    reference = None
    if args.reference is not None:
        reference = serialize.chi_from_dict(serialize.read_json(args.reference))
    report = _METHODS[args.method](table, opts=opts)
    resolved = {"method": args.method, "restarts": opts.restarts,
                "maxfev": opts.maxfev, "xtol": opts.xtol,
                "weight_mode": opts.weight_mode}
    in_files = [args.counts] + ([args.reference] if args.reference else [])
    _write_outputs(args, _report_dict(report, reference), "reconstruct", resolved,
                   seed, inputs=in_files)
    return 0


def _list_items(value: str) -> list:
    """The non-empty comma-separated tokens of a flag value."""
    return [tok.strip() for tok in value.split(",") if tok.strip()]


def _parse_gammas(args):
    gammas, grange = args.gammas, args.gamma_range
    if (gammas is None) == (grange is None):
        raise UsageError("need exactly one of --gammas or --gamma-range")
    if gammas is not None:
        try:
            values = [float(tok) for tok in _list_items(gammas)]
        except ValueError:
            raise UsageError(f"cannot parse --gammas {gammas!r}") from None
    else:
        try:
            lo, hi, count = grange.split(":")
            values = np.linspace(float(lo), float(hi), int(count)).tolist()
        except ValueError:
            raise UsageError(
                f"--gamma-range must be start:stop:count, got {grange!r}"
            ) from None
    if not values:
        raise UsageError("empty gamma list")
    return values


def cmd_sweep(args) -> int:
    seed = _default_seed(args)
    gammas = _parse_gammas(args)
    methods = _list_items(args.methods)
    if not methods:
        raise UsageError("empty method set")
    for m in methods:
        if m not in _METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {sorted(_METHODS)}")
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    points = [_from_flags(PpbsParams.from_gamma, g) for g in gammas]

    rows = [_SWEEP_COLUMNS]
    for gi, params in enumerate(points):
        reference = ppbs_chi(params)
        for rep in range(args.repeats):
            run_seed = derive_seed(seed, gi, rep)
            table = simulate_counts(_sim_config(args, params, run_seed))
            for method in methods:
                report = _METHODS[method](table, opts=FitOptions(seed=run_seed))
                fidelity, p = _score(report.chi, reference)
                eigs = p.eigenvalues
                rows.append((params.gamma, method, fidelity, float(eigs[-1]),
                             float(eigs[0]), report.objective,
                             report.min_chi_eigenvalue, run_seed))

    resolved = {"gammas": gammas, "methods": methods, "repeats": args.repeats,
                "exposure": args.exposure, "noise": args.noise}
    _write_outputs(args, rows, "sweep", resolved, seed)
    return 0


def cmd_analyze_p(args) -> int:
    chi = serialize.chi_from_dict(serialize.read_json(args.chi))
    p = probability_operator(chi)
    pmax = float(p.eigenvalues[-1])
    excess = pmax - 1.0
    if not excess <= 1e-9:  # NaN included
        message = f"max P eigenvalue exceeds 1 by {excess:.3e}"
        if args.on_unphysical == "fail" or not excess <= 1e-3:
            raise NotPsdError(message, eigenvalue=pmax)
        print(f"warning: {message}", file=sys.stderr)

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


def _common_flags(p):
    """The flags of every command."""
    p.add_argument("--config",
                   help="JSON object of long flag names; flags take precedence")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")


def _acquisition_flags(p):
    p.add_argument("--exposure", type=float, default=SimConfig.exposure,
                   help="expected pairs per setting (default %(default)g)")
    p.add_argument("--noise", choices=["poisson", "none"], default=SimConfig.noise)


def _simulate_flags(p):
    _acquisition_flags(p)
    p.add_argument("--gamma", type=float, default=None,
                   help="transmittivity ratio; implies t_h=1, t_v=gamma")
    p.add_argument("--t-h", type=float, default=None)
    p.add_argument("--t-v", type=float, default=None)
    p.add_argument("--out", required=True)


def _reconstruct_flags(p):
    p.add_argument("--counts", required=True)
    p.add_argument("--method", choices=sorted(_METHODS), default="mle")
    p.add_argument("--reference", default=None,
                   help="chi JSON file to compute a fidelity against")
    p.add_argument("--restarts", type=int, default=FitOptions.restarts)
    p.add_argument("--maxfev", type=int, default=FitOptions.maxfev)
    p.add_argument("--xtol", type=float, default=FitOptions.xtol)
    # FitOptions checks the value, so its message names weight_mode
    p.add_argument("--weight-mode", default=FitOptions.weight_mode,
                   help="floor or drop (default %(default)s)")
    p.add_argument("--out", required=True)


def _sweep_flags(p):
    _acquisition_flags(p)
    p.add_argument("--gammas", default=None, help="comma-separated ratios")
    p.add_argument("--gamma-range", default=None, help="start:stop:count")
    p.add_argument("--methods", default="mle",
                   help=f"comma-separated subset of {sorted(_METHODS)}")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--out", required=True)


def _analyze_p_flags(p):
    p.add_argument("--chi", required=True)
    p.add_argument("--on-unphysical", choices=["warn", "fail"], default="warn")


# name: (help line, handler, flag declaration), in the order help lists them
_COMMANDS = {
    "simulate": ("generate a count table for the lossy device",
                 cmd_simulate, _simulate_flags),
    "reconstruct": ("fit a process matrix from a count table",
                    cmd_reconstruct, _reconstruct_flags),
    "sweep": ("scan the transmittivity ratio, write a CSV series",
              cmd_sweep, _sweep_flags),
    "analyze-p": ("report the success-probability operator of a chi file",
                  cmd_analyze_p, _analyze_p_flags),
}


def _declare(p, name):
    """Declare the flags of command `name` on p, its own parser or its
    subparser in the whole tree: the one declaration of every option, its
    type, choices and default, for flags and --config entries alike."""
    _, func, add_flags = _COMMANDS[name]
    _common_flags(p)
    add_flags(p)
    p.set_defaults(func=func)
    return p


def _command_parser(name) -> argparse.ArgumentParser:
    """The parser of one command, parsing the arguments after its name
    as its subparser in the whole tree does."""
    return _declare(_Parser(prog=f"lossyqpt {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level parser with every command's
    subparser, whose help and errors list all four."""
    parser = _Parser(
        prog="lossyqpt",
        description="Process tomography of lossy polarization channels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _declare(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in _COMMANDS:
            parser, argv = _command_parser(argv[0]), argv[1:]
        else:
            # top-level help, --version or a missing or unknown command
            parser = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's entries go in front of the command's own, so flags win
            args = parser.parse_args(_config_tokens(args.config) + argv)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return exc.code
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
