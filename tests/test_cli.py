import argparse
import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lossyqpt import __version__, cli, serialize
from lossyqpt.channels import (
    ChiMatrix,
    OperatorBasis,
    change_basis,
    pauli_basis,
    process_fidelity_ntp,
)
from lossyqpt.cli import main
from lossyqpt.errors import RepresentationError
from lossyqpt.simulator import PpbsParams, SimConfig, ppbs_chi, simulate_counts
from lossyqpt.states import STATE_LABELS
from lossyqpt.tomography import MAX_RATE


def run(*argv):
    return main(list(argv))


def write_reference(path, gamma):
    serialize.write_json(
        path, serialize.chi_to_dict(ppbs_chi(PpbsParams.from_gamma(gamma)))
    )


# per command: a valid call, --help, an unknown flag, a missing required
# flag, a bad choice, and --config files with a known and an unknown key
# (in the working directory, which holds counts.json, chi.json and the
# config files of the parser_case_files fixture)
_PARSER_CASES = {
    "simulate": [
        ["--gamma", "0.5", "--seed", "3", "--out", "out.json"],
        ["--help"],
        ["--gamma", "0.5", "--bogus", "--out", "out.json"],
        ["--gamma", "0.5"],
        ["--gamma", "0.5", "--noise", "gauss", "--out", "out.json"],
        ["--config", "simulate.json", "--out", "out.json"],
        ["--config", "unknown.json", "--gamma", "0.5", "--out", "out.json"],
    ],
    "reconstruct": [
        ["--counts", "counts.json", "--method", "linear", "--reference", "chi.json",
         "--out", "out.json"],
        ["--help"],
        ["--counts", "counts.json", "--bogus", "--out", "out.json"],
        ["--method", "linear", "--out", "out.json"],
        ["--counts", "counts.json", "--method", "ml", "--out", "out.json"],
        ["--counts", "counts.json", "--config", "reconstruct.json", "--out", "out.json"],
        ["--counts", "counts.json", "--config", "unknown.json", "--out", "out.json"],
    ],
    "sweep": [
        ["--gammas", "0.5", "--methods", "linear", "--out", "out.csv"],
        ["--help"],
        ["--gammas", "0.5", "--methods", "linear", "--bogus", "--out", "out.csv"],
        ["--gammas", "0.5", "--methods", "linear"],
        ["--gammas", "0.5", "--methods", "linear", "--noise", "gauss", "--out", "out.csv"],
        ["--config", "sweep.json", "--out", "out.csv"],
        ["--config", "unknown.json", "--gammas", "0.5", "--out", "out.csv"],
    ],
    "analyze-p": [
        ["--chi", "chi.json"],
        ["--help"],
        ["--chi", "chi.json", "--bogus"],
        [],
        ["--chi", "chi.json", "--on-unphysical", "maybe"],
        ["--chi", "chi.json", "--config", "analyze-p.json"],
        ["--chi", "chi.json", "--config", "unknown.json"],
    ],
}
_TOP_LEVEL_CASES = [[], ["--help"], ["-h", "simulate"], ["--version"], ["bogus"],
                    ["--bogus"], ["Simulate"]]


@pytest.fixture
def parser_case_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = simulate_counts(SimConfig(PpbsParams.from_gamma(0.5), seed=3))
    serialize.write_json("counts.json", serialize.count_table_to_dict(table))
    write_reference("chi.json", 0.5)
    configs = {"simulate": {"gamma": 0.5, "noise": "none"},
               "reconstruct": {"method": "post-selected"},
               "sweep": {"gammas": [0.5, 1.0], "methods": "linear"},
               "analyze-p": {"on-unphysical": "fail"},
               "unknown": {"bogus-key": 1}}
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    return tmp_path


def _main_outcome(argv, capsys, directory):
    """(exit code, stdout, stderr, bytes of the --out file or None)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    written = None
    for name in ("out.json", "out.csv"):
        if (directory / name).exists():
            written = (directory / name).read_bytes()
            (directory / name).unlink()
    return code, captured.out, captured.err, written


class _WholeTree:
    """Stands in for cli._command_parser: parses a command's arguments
    through the whole tree, as `lossyqpt <command> ...`."""

    def __init__(self, name):
        self.name, self.tree = name, cli.build_parser()

    def parse_args(self, args):
        return self.tree.parse_args([self.name, *args])


# argv that the per-command cases leave out: an abbreviated flag, a stray
# positional and a float flag that does not parse
_EXTRA_CASES = [
    ["simulate", "--gam", "0.5", "--seed", "3", "--out", "out.json"],
    ["reconstruct", "--counts", "counts.json", "stray", "--out", "out.json"],
    ["simulate", "--gamma", "half", "--out", "out.json"],
]


class TestParserPerCommand:
    """main parses a call with its command's own parser, or with the
    whole tree when the first argument names no command; either way it
    behaves as the whole tree does."""

    @pytest.mark.parametrize("argv", [
        pytest.param([command, *flags], id=f"{command}-{i}")
        for command, cases in _PARSER_CASES.items()
        for i, flags in enumerate(cases)
    ] + [pytest.param(argv, id=f"top-{i}") for i, argv in enumerate(_TOP_LEVEL_CASES)]
      + [pytest.param(argv, id=f"extra-{i}") for i, argv in enumerate(_EXTRA_CASES)])
    def test_same_outcome_as_the_whole_tree(self, parser_case_files, capsys,
                                            monkeypatch, argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_command_parser", _WholeTree)
            expected = _main_outcome(argv, capsys, parser_case_files)
        assert _main_outcome(argv, capsys, parser_case_files) == expected

    def test_top_level_help_lists_every_command(self, capsys):
        assert run("--help") == 0
        out = capsys.readouterr().out
        assert "{simulate,reconstruct,sweep,analyze-p}" in out
        for help_line in ("generate a count table", "fit a process matrix",
                          "scan the transmittivity ratio",
                          "success-probability operator"):
            assert help_line in out

    def test_version(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out == f"{__version__}\n"

    def test_no_command_is_usage_error(self, capsys):
        assert run() == 2
        assert capsys.readouterr().err == (
            "error: the following arguments are required: command\n")

    def test_unknown_command_lists_every_command(self, capsys):
        assert run("bogus") == 2
        assert capsys.readouterr().err == (
            "error: argument command: invalid choice: 'bogus' (choose from "
            "'simulate', 'reconstruct', 'sweep', 'analyze-p')\n")

    @pytest.mark.parametrize("argv, added", [
        (["analyze-p", "--chi", "chi.json"], []),
        (["analyze-p", "--chi", "chi.json", "--config", "analyze-p.json"], []),
        (["--version"], ["simulate", "reconstruct", "sweep", "analyze-p"]),
    ])
    def test_subparsers_added_per_call(self, parser_case_files, capsys, monkeypatch,
                                       argv, added):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        assert main(argv) == 0
        assert names == added


class TestSimulateCommand:
    def test_noiseless_identity_table(self, tmp_path):
        out = tmp_path / "counts.json"
        assert run("simulate", "--gamma", "1.0", "--noise", "none",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "count_table"
        assert doc["counts"][0][0] == 10000
        assert doc["manifest"] == "counts.json.manifest.json"
        manifest = json.loads((tmp_path / "counts.json.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"] == ["counts.json"]

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.255", "--seed", "7", "--out", str(out))
        first = out.read_bytes()
        run("simulate", "--gamma", "0.255", "--seed", "7", "--out", str(out))
        assert out.read_bytes() == first

    def test_gamma_domain_usage_error(self, tmp_path, capsys):
        code = run("simulate", "--gamma", "1.2", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_gamma_and_transmittivities_conflict(self, tmp_path):
        assert run("simulate", "--gamma", "0.5", "--t-h", "1.0", "--t-v", "0.5",
                   "--out", str(tmp_path / "x.json")) == 2

    def test_seed_env_var(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("LOSSYQPT_SEED", "99")
        run("simulate", "--gamma", "0.5", "--out", str(a))
        monkeypatch.delenv("LOSSYQPT_SEED")
        run("simulate", "--gamma", "0.5", "--seed", "99", "--out", str(b))
        assert json.loads(a.read_text())["counts"] == json.loads(b.read_text())["counts"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.5, "noise": "none", "exposure": 400}))
        out = tmp_path / "c.json"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["exposure"] == 400
        # flag wins over config
        out2 = tmp_path / "c2.json"
        run("simulate", "--config", str(cfg), "--exposure", "800", "--out", str(out2))
        assert json.loads(out2.read_text())["exposure"] == 800


class TestReconstructCommand:
    def test_linear_on_noiseless_counts(self, tmp_path):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--noise", "none", "--out", str(counts))
        ref = tmp_path / "ref.json"
        write_reference(ref, 0.5)
        out = tmp_path / "fit.json"
        assert run("reconstruct", "--counts", str(counts), "--method", "linear",
                   "--reference", str(ref), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "linear"
        assert doc["fidelity_vs_reference"] == pytest.approx(1.0, abs=1e-8)
        chi = serialize.chi_from_dict(doc["chi"])
        expected = ppbs_chi(PpbsParams.from_gamma(0.5))
        assert np.abs(chi.mat - expected.mat).max() < 1e-8

    def test_mle_on_poisson_counts(self, tmp_path):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        ref = tmp_path / "ref.json"
        write_reference(ref, 0.5)
        out = tmp_path / "fit.json"
        assert run("reconstruct", "--counts", str(counts), "--method", "mle",
                   "--reference", str(ref), "--restarts", "2",
                   "--maxfev", "10000", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["fidelity_vs_reference"] >= 0.96
        assert doc["p_operator"]["classification"] == "state-dependent"
        assert doc["p_operator"]["eigenvalues"][-1] == pytest.approx(1.0, abs=1e-9)

    def test_post_selected_matches_linear_on_tp_data(self, tmp_path):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "1.0", "--noise", "none", "--out", str(counts))
        lin, ps = tmp_path / "lin.json", tmp_path / "ps.json"
        run("reconstruct", "--counts", str(counts), "--method", "linear",
            "--out", str(lin))
        run("reconstruct", "--counts", str(counts), "--method", "post-selected",
            "--out", str(ps))
        chi_lin = serialize.chi_from_dict(json.loads(lin.read_text())["chi"])
        chi_ps = serialize.chi_from_dict(json.loads(ps.read_text())["chi"])
        assert np.abs(chi_lin.mat - chi_ps.mat).max() < 1e-10

    def test_unreadable_counts_is_data_error(self, tmp_path):
        assert run("reconstruct", "--counts", str(tmp_path / "nope.json"),
                   "--method", "linear", "--out", str(tmp_path / "o.json")) == 3

    def test_malformed_counts_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "kind": "count_table"}))
        assert run("reconstruct", "--counts", str(bad), "--method", "linear",
                   "--out", str(tmp_path / "o.json")) == 3

    @pytest.mark.parametrize("flags", [
        ("--restarts", "0"), ("--maxfev", "0"), ("--maxfev", "-5"),
        ("--xtol", "0"), ("--xtol", "nan"),
    ])
    def test_malformed_fit_option_is_usage_error(self, tmp_path, capsys, flags):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        capsys.readouterr()
        code = run("reconstruct", "--counts", str(counts), "--method", "mle",
                   *flags, "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    def test_bogus_weight_mode_in_config_is_usage_error(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"weight-mode": "bogus"}))
        capsys.readouterr()
        code = run("reconstruct", "--counts", str(counts), "--config", str(cfg),
                   "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == 2
        assert "weight_mode" in err and "Traceback" not in err

    @pytest.mark.parametrize("weight_mode", ["floor", "drop"])
    @pytest.mark.parametrize("method", ["mle", "mle-tp"])
    def test_table_without_counts_is_degenerate(self, tmp_path, capsys, method,
                                                weight_mode):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        doc = json.loads(counts.read_text())
        doc["counts"] = [[0] * 6 for _ in range(6)]
        counts.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("reconstruct", "--counts", str(counts), "--method", method,
                   "--weight-mode", weight_mode, "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and "no counts" in err
        assert not (tmp_path / "fit.json").exists()

    def test_undetermined_drop_table_fits_trace_preserving(self, tmp_path):
        # dark diagonal cells, dropped, leave chi undetermined; the fit
        # must still meet P = I within its default budget
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.1", "--seed", "5", "--out", str(counts))
        doc = json.loads(counts.read_text())
        for i in range(6):
            doc["counts"][i][i] = 0
        counts.write_text(json.dumps(doc))
        out = tmp_path / "fit.json"
        assert run("reconstruct", "--counts", str(counts), "--method", "mle-tp",
                   "--weight-mode", "drop", "--out", str(out)) == 0
        assert json.loads(out.read_text())["converged"] is True

    def test_fit_report_has_convergence_flag(self, tmp_path):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        for method, budget, expected in (("mle", "50000", True), ("mle", "3", False),
                                         ("linear", "3", True)):
            out = tmp_path / f"{method}{budget}.json"
            assert run("reconstruct", "--counts", str(counts), "--method", method,
                       "--maxfev", budget, "--out", str(out)) == 0
            assert json.loads(out.read_text())["converged"] is expected

    def test_deterministic_fit_report(self, tmp_path):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.4", "--seed", "5", "--out", str(counts))
        out = tmp_path / "fit.json"
        run("reconstruct", "--counts", str(counts), "--method", "mle",
            "--restarts", "2", "--maxfev", "8000", "--seed", "1",
            "--out", str(out))
        first = out.read_bytes()
        run("reconstruct", "--counts", str(counts), "--method", "mle",
            "--restarts", "2", "--maxfev", "8000", "--seed", "1",
            "--out", str(out))
        assert out.read_bytes() == first


class TestBadValues:
    @pytest.mark.parametrize("command, config, flags", [
        ("sweep", {"repeats": "x"}, ("--gammas", "0.5", "--methods", "linear")),
        ("sweep", {"exposure": "abc"}, ("--gammas", "0.5", "--methods", "linear")),
        ("sweep", {}, ("--gammas", "0.5", "--methods", "linear", "--exposure", "-5")),
        ("sweep", {}, ("--gammas", "0.5", "--methods", "linear", "--exposure", "nan")),
        ("sweep", {"noise": "gaussian"}, ("--gammas", "0.5", "--methods", "linear")),
        ("simulate", {"exposure": "abc"}, ("--gamma", "0.5")),
        ("simulate", {"gamma": "abc"}, ()),
        ("simulate", {"t-h": [1.0], "t-v": 0.5}, ()),
        ("simulate", {}, ("--gamma", "0.5", "--exposure", "-5")),
        ("simulate", {}, ("--gamma", "0.5", "--exposure", "nan")),
        ("simulate", {}, ("--gamma", "0.5", "--exposure", "inf")),
        ("reconstruct", {"maxfev": "many"}, ("--counts", "counts.json")),
        ("reconstruct", {"method": ["mle"]}, ("--counts", "counts.json")),
        ("reconstruct", {"method": {"name": "mle"}}, ("--counts", "counts.json")),
        ("reconstruct", {"method": 3}, ("--counts", "counts.json")),
        ("sweep", {"gammas": [0.5, "x"]}, ("--methods", "linear")),
        ("sweep", {"gammas": [[0.5]]}, ("--methods", "linear")),
        ("sweep", {"gammas": []}, ("--methods", "linear")),
        ("sweep", {"gammas": [0.5, 1.5]}, ("--methods", "linear")),
        ("sweep", {"methods": ["linear", 3]}, ("--gammas", "0.5")),
        ("sweep", {"methods": ["bogus"]}, ("--gammas", "0.5")),
        ("sweep", {"methods": []}, ("--gammas", "0.5")),
        ("reconstruct", {"reference": True}, ("--counts", "counts.json")),
        ("reconstruct", {"reference": ["a"]}, ("--counts", "counts.json")),
        ("reconstruct", {"weight_mode": "drop"}, ("--counts", "counts.json")),
        ("simulate", {"gamma": True}, ()),
        ("simulate", {"exposure": 1e19}, ("--gamma", "0.5")),
        ("simulate", {"seed": -1}, ("--gamma", "0.5")),
        ("sweep", {}, ("--gammas", "0.5", "--methods", "linear", "--seed", "-1")),
        ("simulate", {"exposure": 1e19, "noise": "none"}, ("--gamma", "0.5")),
    ])
    def test_usage_error(self, tmp_path, capsys, command, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        capsys.readouterr()
        out = tmp_path / "out"
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        code = run(command, "--config", str(cfg), *flags, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("target",
                             ["missing-directory", "directory", "manifest-directory"])
    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "sweep"])
    def test_unwritable_out_is_data_error(self, tmp_path, capsys, command, target):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        capsys.readouterr()
        flags = {
            "simulate": ("--gamma", "0.5"),
            "reconstruct": ("--method", "linear", "--counts", str(counts)),
            "sweep": ("--gammas", "0.5", "--methods", "linear"),
        }[command]
        out = tmp_path / "out"
        # the directory that stands where a file must be written
        blocker = {"missing-directory": None, "directory": out,
                   "manifest-directory": tmp_path / "out.manifest.json"}[target]
        if blocker is not None:
            blocker.mkdir()
        if target == "missing-directory":
            out = out / "data"
        code = run(command, *flags, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: cannot write") and "Traceback" not in err
        # neither the data file nor its manifest is left behind
        left = {p.name for p in tmp_path.iterdir()}
        assert left - {"counts.json", "counts.json.manifest.json"} == (
            set() if blocker is None else {blocker.name})
        if blocker is not None:
            assert not any(blocker.iterdir())

    @pytest.mark.parametrize("exposure", [float("nan"), float("inf")])
    def test_non_finite_exposure_in_counts_is_data_error(self, tmp_path, capsys,
                                                         exposure):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        doc = json.loads(counts.read_text())
        doc["exposure"] = exposure
        counts.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("reconstruct", "--counts", str(counts), "--method", "linear",
                   "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and "exposure" in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("method", ["linear", "mle"])
    @pytest.mark.parametrize("field, value", [
        ("inputs", [["H"], "V", "D", "A", "R", "L"]),
        ("inputs", ["H", "H", "D", "A", "R", "L"]),
        ("projectors", ["H", "V", "D", "A", "R", "R"]),
        ("dim", 2.5),
    ])
    def test_malformed_count_table_is_data_error(self, tmp_path, capsys, method,
                                                 field, value):
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        doc = json.loads(counts.read_text())
        doc[field] = value
        counts.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("reconstruct", "--counts", str(counts), "--method", method,
                   "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("method", ["linear", "post-selected", "mle", "mle-tp"])
    def test_extreme_exposure_is_data_error(self, tmp_path, capsys, method):
        # the noiseless table of Gamma = 0.5 at 1e100 pairs per setting,
        # at which the fits used to raise or write infinities
        table = simulate_counts(SimConfig(PpbsParams.from_gamma(0.5), noise="none"))
        doc = serialize.count_table_to_dict(table)
        doc["exposure"] = 1e100
        doc["counts"] = (table.counts * 1e96).tolist()
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(doc))
        code = run("reconstruct", "--counts", str(counts), "--method", method,
                   "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("method", ["linear", "post-selected", "mle", "mle-tp"])
    @pytest.mark.parametrize("exposure", [1e-10, 1e-30, 1e-300])
    def test_huge_rates_are_data_error(self, tmp_path, capsys, method, exposure):
        # a simulated table whose exposure is too small for its counts; the
        # fits used to raise LinAlgError or write P eigenvalues up to 1e303
        counts = tmp_path / "counts.json"
        run("simulate", "--gamma", "0.5", "--seed", "3", "--out", str(counts))
        doc = json.loads(counts.read_text())
        doc["exposure"] = exposure
        counts.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run("reconstruct", "--counts", str(counts), "--method", method,
                   "--out", str(tmp_path / "fit.json"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: counts must lie in") and err.count("\n") == 1
        assert not (tmp_path / "fit.json").exists()


def _valid_count_doc():
    table = simulate_counts(SimConfig(PpbsParams.from_gamma(0.5), seed=4))
    return serialize.count_table_to_dict(table)


_not_a_label = st.one_of(
    st.text(max_size=3).filter(lambda t: t not in STATE_LABELS),
    st.integers(), st.floats(), st.none(), st.booleans(),
    st.lists(st.sampled_from(STATE_LABELS), max_size=2),
)


@st.composite
def malformed_count_docs(draw):
    """(count-table document, method) that `reconstruct` must reject."""
    doc = _valid_count_doc()
    method = draw(st.sampled_from(["linear", "post-selected", "mle", "mle-tp"]))
    what = draw(st.sampled_from(["inputs", "projectors"]))
    i, j = draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
    defect = draw(st.sampled_from(
        ["label", "duplicate", "non-finite", "ragged", "dim", "kind", "schema",
         "zero-row"]))
    if defect == "label":
        doc[what][i] = draw(_not_a_label)
    elif defect == "duplicate":
        doc[what][j] = doc[what][i]
    elif defect == "non-finite":
        doc["counts"][i][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif defect == "ragged":
        row = doc["counts"][i]
        doc["counts"][i] = row[:j] if draw(st.booleans()) else row + row[:j + 1]
    elif defect == "dim":
        doc["dim"] = draw(st.one_of(
            st.integers().filter(lambda d: d != 2), st.floats(), st.text(max_size=2),
            st.none()))
    elif defect == "kind":
        doc["kind"] = draw(st.one_of(
            st.text(max_size=12).filter(lambda k: k != "count_table"), st.none()))
    elif defect == "schema":
        doc["schema"] = draw(st.one_of(
            st.integers().filter(lambda v: v != 1), st.text(max_size=2), st.none()))
    else:
        # post-selection cannot normalize an input that was never detected
        doc["counts"][i] = [0] * 6
        method = "post-selected"
    return doc, method


class TestCountTableFuzz:
    @settings(deadline=None, max_examples=150)
    @given(malformed_count_docs())
    def test_malformed_table_exits_cleanly(self, case):
        doc, method = case
        with tempfile.TemporaryDirectory() as tmp:
            counts = os.path.join(tmp, "counts.json")
            out = os.path.join(tmp, "fit.json")
            with open(counts, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("reconstruct", "--counts", counts, "--method", method,
                           "--out", out)
            assert code in (3, 4)
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()
            assert not os.path.exists(out)


@st.composite
def accepted_count_docs(draw):
    """A count-table document the reader accepts: exposure log-uniform in
    [1e-300, 1e18], rates counts / exposure anywhere in [0, MAX_RATE],
    some inputs never detected and some cells dark."""
    doc = _valid_count_doc()
    exposure = 10.0 ** draw(st.floats(-300.0, 18.0))
    rates = np.array(draw(st.lists(st.floats(0.0, MAX_RATE), min_size=36,
                                   max_size=36))).reshape(6, 6)
    rates[np.array(draw(st.lists(st.booleans(), min_size=6, max_size=6)))] = 0.0
    doc["exposure"] = exposure
    doc["counts"] = (rates * exposure).tolist()
    return doc


def _count_doc(exposure, cells):
    """A count-table document with the given exposure and nonzero cells
    {(row, column): count}."""
    doc = _valid_count_doc()
    doc["exposure"] = exposure
    doc["counts"] = [[cells.get((i, j), 0.0) for j in range(6)] for i in range(6)]
    return doc


def _reject_constant(name):
    raise ValueError(f"{name} in the output")


class TestAcceptedTableFuzz:
    @settings(deadline=None, max_examples=25)
    @given(accepted_count_docs(), st.sampled_from(["floor", "drop"]))
    # a lone count of 1.1e-308: the fitted P is so small that 1 / max P
    # overflows
    @example(_count_doc(1.0, {(5, 5): 1.1125369292536007e-308}), "floor")
    # dropped-weight cells spanning 57 orders of magnitude: the whitened
    # Hessian, formed as T^T H T, was indefinite rounding noise
    @example(_count_doc(4.438696666015727e-163, {
        (0, 0): 5.904724238895963e-162, (0, 1): 1.0789463388287924e-218,
        (0, 2): 4.438696666015727e-173, (0, 3): 4.438696666015727e-161,
        (0, 4): 1.9370079349304546e-162, (0, 5): 2.656231233077068e-161,
        (2, 0): 1.682759590598286e-161, (2, 1): 1.4785843771026866e-161,
        (2, 3): 3.770937196589897e-161, (2, 5): 3.868342069181357e-161,
        (4, 0): 2.9121144474244978e-161, (4, 1): 3.4174496596550774e-161,
        (4, 2): 3.66261829581704e-161, (4, 3): 2.45281337444498e-161,
        (4, 4): 1.3951334464066547e-161, (5, 0): 7.101914665625163e-163,
        (5, 1): 1.0749694168964401e-161, (5, 2): 2.1947026317049958e-161,
        (5, 3): 1.5156997951410628e-161, (5, 4): 1.331608999804718e-162}), "drop")
    # dropped weights spanning 271 orders of magnitude: the x-step matrix
    # of H + rho I bordered by the P = I rows was singular to working
    # precision
    @example(_count_doc(9.999999999999918e17, {
        **{cell: 9.999999999999918e17 for cell in [
            (0, 1), (0, 3), (0, 4), (0, 5), (1, 1), (1, 5), (2, 2), (2, 4),
            (2, 5), (3, 0), (3, 2), (4, 1), (4, 4), (4, 5), (5, 2)]},
        (1, 3): 1.0699031309277172e-253}), "drop")
    def test_every_method_exits_cleanly(self, doc, weight_mode):
        # a table the reader accepts, at any exposure, is fitted or refused
        # with a clean exit; an output never holds Infinity or NaN, and
        # nothing warns (a warning here would be an error)
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = os.path.join(tmp, "counts.json")
            with open(counts, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            for method in ("linear", "post-selected", "mle", "mle-tp"):
                out = os.path.join(tmp, f"{method}.json")
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = run("reconstruct", "--counts", counts, "--method", method,
                               "--weight-mode", weight_mode, "--maxfev", "3000",
                               "--out", out)
                assert code in (0, 3, 4), err.getvalue()
                assert "Traceback" not in err.getvalue()
                if code == 0:
                    with open(out, encoding="utf-8") as fh:
                        json.load(fh, parse_constant=_reject_constant)
                else:
                    assert err.getvalue().startswith("error: ")


def _valid_chi_doc():
    return serialize.chi_to_dict(ppbs_chi(PpbsParams.from_gamma(0.5)))


@st.composite
def malformed_chi_docs(draw):
    """(chi document, command reading it) that must fail cleanly."""
    doc = _valid_chi_doc()
    command = draw(st.sampled_from(["analyze-p", "reconstruct"]))
    i, j = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    defect = draw(st.sampled_from(
        ["dim", "basis", "entry", "hermitian", "ragged", "mat", "kind", "schema",
         "missing"]))
    if defect == "dim":
        doc["dim"] = draw(st.one_of(
            st.integers().filter(lambda d: d != 2), st.floats(), st.booleans(),
            st.text(max_size=2), st.none(), st.lists(st.integers(), max_size=2)))
    elif defect == "basis":
        doc["basis"] = draw(st.one_of(
            st.text(max_size=12).filter(
                lambda b: b not in ("pauli", "elementary-scaled")),
            st.integers(), st.none()))
    elif defect == "entry":
        doc["mat"][i][j] = draw(st.one_of(
            st.sampled_from([[math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0],
                             [10**400, 0.0]]),
            st.none(), st.text(max_size=2),
            st.lists(st.floats(-1.0, 1.0), max_size=3).filter(lambda v: len(v) != 2)))
    elif defect == "hermitian":
        real, imag = doc["mat"][i][j]
        doc["mat"][i][j] = [real + draw(st.floats(1e-3, 10.0)), imag]
    elif defect == "ragged":
        doc["mat"][i] = doc["mat"][i][:j]
    elif defect == "mat":
        k = draw(st.sampled_from([0, 1, 2, 3, 5, 9]))
        doc["mat"] = draw(st.one_of(
            st.just([[[0.0, 0.0]] * k for _ in range(k)]),
            st.none(), st.integers(), st.text(max_size=3)))
    elif defect == "kind":
        doc["kind"] = draw(st.one_of(
            st.text(max_size=12).filter(lambda k: k != "chi_matrix"), st.none()))
    elif defect == "schema":
        doc["schema"] = draw(st.one_of(
            st.integers().filter(lambda v: v != 1), st.text(max_size=2), st.none()))
    else:
        del doc[draw(st.sampled_from(["dim", "basis", "mat"]))]
    return doc, command


@contextlib.contextmanager
def _empty_stdin():
    """File descriptor 0 reads as empty, so no command can block on it."""
    saved = os.dup(0)
    try:
        with open(os.devnull, encoding="utf-8") as null:
            os.dup2(null.fileno(), 0)
        yield
    finally:
        os.dup2(saved, 0)
        os.close(saved)


class TestConfigFile:
    def test_number_is_a_file_name(self, tmp_path, monkeypatch):
        # {"reference": 0} names the file "0", as --reference 0 does
        monkeypatch.chdir(tmp_path)
        run("simulate", "--gamma", "0.5", "--noise", "none", "--out", "counts.json")
        write_reference(tmp_path / "0", 0.5)
        (tmp_path / "cfg.json").write_text(json.dumps({"reference": 0}))
        with _empty_stdin():
            code = run("reconstruct", "--counts", "counts.json", "--method", "linear",
                       "--config", "cfg.json", "--out", "fit.json")
        assert code == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["fidelity_vs_reference"] == pytest.approx(1.0, abs=1e-8)

    def test_seed_matches_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.5, "seed": 5}))
        paths = [tmp_path / f"{name}.json" for name in ("config", "flag", "zero")]
        assert run("simulate", "--config", str(cfg), "--out", str(paths[0])) == 0
        assert run("simulate", "--gamma", "0.5", "--seed", "5",
                   "--out", str(paths[1])) == 0
        assert run("simulate", "--gamma", "0.5", "--seed", "0",
                   "--out", str(paths[2])) == 0
        config, flag, zero = (json.loads(p.read_text())["counts"] for p in paths)
        assert config == flag != zero

    def test_bad_choice_is_usage_error(self, tmp_path, capsys):
        ref = tmp_path / "chi.json"
        write_reference(ref, 0.3)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"on-unphysical": "panic"}))
        code = run("analyze-p", "--chi", str(ref), "--config", str(cfg))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out == ""


# per subcommand: each config key with a value of the right kind ("chi.json"
# stands for a valid chi file), and the command line; its --method(s) and
# --repeats keep a run short, while the file's entries for them are still
# parsed and checked
_CONFIG_COMMANDS = {
    "simulate": ({"gamma": 0.5, "t-h": 1.0, "t-v": 0.5, "exposure": 400,
                  "noise": "none", "seed": 5}, []),
    "reconstruct": ({"method": "mle", "reference": "chi.json", "restarts": 2,
                     "maxfev": 100, "xtol": 1e-6, "weight-mode": "drop", "seed": 5},
                    ["--counts", "counts.json", "--method", "linear"]),
    "sweep": ({"gammas": [0.5, 1.0], "gamma-range": "0.5:1:2", "methods": ["linear"],
               "repeats": 2, "exposure": 400, "noise": "none", "seed": 5},
              ["--methods", "linear", "--repeats", "1"]),
    "analyze-p": ({"on-unphysical": "fail", "seed": 5}, ["--chi", "chi.json"]),
}
_UNDERSCORE_KEYS = ["t_h", "t_v", "weight_mode", "gamma_range", "on_unphysical"]
_json_scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=4))
_json_value = st.one_of(
    _json_scalar,
    st.lists(_json_scalar, max_size=3),
    st.lists(st.lists(_json_scalar, max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=3), _json_scalar, max_size=2),
)


@st.composite
def config_cases(draw):
    """(subcommand, config object) with known keys holding good or bad
    values, plus unknown and underscore-spelled keys."""
    command = draw(st.sampled_from(sorted(_CONFIG_COMMANDS)))
    known = _CONFIG_COMMANDS[command][0]
    config = {}
    for key in draw(st.lists(st.sampled_from(sorted(known)), unique=True)):
        config[key] = draw(st.one_of(st.just(known[key]), _json_value))
    for key in draw(st.lists(st.one_of(st.text(max_size=8),
                                       st.sampled_from(_UNDERSCORE_KEYS)),
                             max_size=1)):
        config[key] = draw(_json_value)
    return command, config


class TestConfigFuzz:
    @settings(deadline=None, max_examples=200)
    @given(config_cases())
    def test_config_exits_cleanly(self, case):
        command, config = case
        with tempfile.TemporaryDirectory() as tmp:
            files = {name: os.path.join(tmp, name)
                     for name in ("chi.json", "counts.json", "cfg.json")}
            serialize.write_json(files["chi.json"], _valid_chi_doc())
            serialize.write_json(files["counts.json"], _valid_count_doc())
            config = {k: files["chi.json"] if v == "chi.json" else v
                      for k, v in config.items()}
            with open(files["cfg.json"], "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            out = os.path.join(tmp, "out")
            argv = [command, "--config", files["cfg.json"]]
            argv += [files.get(a, a) for a in _CONFIG_COMMANDS[command][1]]
            if command != "analyze-p":
                argv += ["--out", out]
            err = io.StringIO()
            with _empty_stdin(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = run(*argv)
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert err.getvalue().startswith("error: ")
                assert not os.path.exists(out)


class TestChiFileFuzz:
    @settings(deadline=None, max_examples=150)
    @given(malformed_chi_docs())
    def test_malformed_chi_exits_cleanly(self, case):
        doc, command = case
        with tempfile.TemporaryDirectory() as tmp:
            chi, counts, out = (os.path.join(tmp, name)
                                for name in ("chi.json", "counts.json", "fit.json"))
            with open(chi, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            serialize.write_json(counts, _valid_count_doc())
            if command == "analyze-p":
                argv = ["analyze-p", "--chi", chi]
            else:
                argv = ["reconstruct", "--counts", counts, "--method", "linear",
                        "--reference", chi, "--out", out]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(*argv)
            assert code in (3, 4)
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()
            assert not os.path.exists(out)


class TestSweepCommand:
    def test_csv_structure(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--gammas", "0.5,1.0",
                   "--methods", "linear,post-selected", "--repeats", "2",
                   "--noise", "none", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# manifest: sweep.csv.manifest.json"
        header = lines[1].split(",")
        assert header == ["gamma", "method", "fidelity", "p_eig_1", "p_eig_2",
                          "objective", "min_chi_eigenvalue", "seed"]
        assert len(lines) == 2 + 2 * 2 * 2  # comment + header + rows

    def test_row_order_and_fidelity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run("sweep", "--gammas", "0.5,1.0", "--methods", "linear",
            "--noise", "none", "--out", str(out))
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [r[0] for r in rows] == ["0.5", "1.0"]
        for r in rows:
            assert float(r[2]) == pytest.approx(1.0, abs=1e-8)

    def test_empty_methods_usage_error(self, tmp_path):
        assert run("sweep", "--gammas", "0.5", "--methods", ",",
                   "--out", str(tmp_path / "s.csv")) == 2

    def test_config_list_forms(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gammas": [0.5, 1.0],
                                   "methods": ["linear", "post-selected"]}))
        from_lists, from_flags = tmp_path / "lists.csv", tmp_path / "flags.csv"
        assert run("sweep", "--config", str(cfg), "--noise", "none",
                   "--out", str(from_lists)) == 0
        assert run("sweep", "--gammas", "0.5,1.0", "--methods", "linear,post-selected",
                   "--noise", "none", "--out", str(from_flags)) == 0
        rows = from_lists.read_text().splitlines()[1:]
        assert len(rows) == 1 + 2 * 2
        assert rows == from_flags.read_text().splitlines()[1:]

    def test_gamma_range_form(self, tmp_path):
        # every cell but the method name reads back as a number, under both
        # ways of giving the gammas
        out = tmp_path / "sweep.csv"
        for flag, value, gammas in (
            ("--gamma-range", "0.2:1.0:5", np.linspace(0.2, 1.0, 5)),
            ("--gammas", "0.5,1.0", [0.5, 1.0]),
        ):
            assert run("sweep", flag, value, "--methods", "linear,post-selected",
                       "--noise", "none", "--out", str(out)) == 0
            rows = list(csv.reader(out.read_text().splitlines()[2:]))
            assert len(rows) == 2 * len(gammas)
            for row in rows:
                assert all(math.isfinite(float(c)) for k, c in enumerate(row) if k != 1)
            assert [float(r[0]) for r in rows[::2]] == pytest.approx(list(gammas))


# analyze-p output for _ODD_CHI, byte for byte: P and the projectors are
# printed at precision 6 with tiny entries suppressed
_ODD_CHI_STDOUT = """\
P matrix:
[[ 0.364583+0.j -0.      +0.j]
 [-0.      +0.j  0.197917+0.j]]
eigenvalues: [0.19791666666666666, 0.3645833333333333]
eigenstate projectors (ascending eigenvalue):
[[0.+0.j 0.+0.j]
 [0.+0.j 1.+0.j]]
[[1.+0.j 0.+0.j]
 [0.+0.j 0.+0.j]]
classification: state-dependent
Tr[chi] = 0.28125, (1/d) Tr[P] = 0.28125, difference = 0.000e+00
"""
_ODD_CHI = np.array([[0.5, 0, 0, 0.125], [0, 0.0625, 0, 0], [0, 0, 0.03125, 0],
                     [0.125, 0, 0, 0.25]]) / 3


class TestAnalyzeP:
    def test_output_leaves_print_options(self, tmp_path, capsys):
        path = tmp_path / "chi.json"
        serialize.write_json(path, serialize.chi_to_dict(
            ChiMatrix(pauli_basis(), _ODD_CHI.astype(complex))))
        with np.printoptions(precision=8, suppress=False):
            before = np.get_printoptions()
            assert run("analyze-p", "--chi", str(path)) == 0
            assert np.get_printoptions() == before
        assert capsys.readouterr().out == _ODD_CHI_STDOUT

    def test_classification_output(self, tmp_path, capsys):
        ref = tmp_path / "chi.json"
        write_reference(ref, 0.3)
        assert run("analyze-p", "--chi", str(ref)) == 0
        out = capsys.readouterr().out
        assert "state-dependent" in out
        eig_line = next(l for l in out.splitlines() if l.startswith("eigenvalues:"))
        values = json.loads(eig_line.split(":", 1)[1])
        assert values == pytest.approx([0.3, 1.0], abs=1e-9)

    def test_trace_preserving_tag(self, tmp_path, capsys):
        ref = tmp_path / "chi.json"
        write_reference(ref, 1.0)
        run("analyze-p", "--chi", str(ref))
        assert "trace-preserving" in capsys.readouterr().out

    def test_uniform_lossy_tag(self, tmp_path, capsys):
        chi = ChiMatrix(pauli_basis(), np.diag([0.7, 0, 0, 0]).astype(complex))
        path = tmp_path / "chi.json"
        serialize.write_json(path, serialize.chi_to_dict(chi))
        run("analyze-p", "--chi", str(path))
        assert "uniform-lossy" in capsys.readouterr().out

    def test_unphysical_chi_fails_numerically(self, tmp_path):
        chi = ChiMatrix(pauli_basis(), np.diag([1.1, 0, 0, 0]).astype(complex))
        path = tmp_path / "chi.json"
        serialize.write_json(path, serialize.chi_to_dict(chi))
        assert run("analyze-p", "--chi", str(path)) == 4

    def test_small_excess_warns_by_default(self, tmp_path, capsys):
        chi = ChiMatrix(pauli_basis(), np.diag([1.00005, 0, 0, 0]).astype(complex))
        path = tmp_path / "chi.json"
        serialize.write_json(path, serialize.chi_to_dict(chi))
        assert run("analyze-p", "--chi", str(path)) == 0
        assert "warning" in capsys.readouterr().err
        assert run("analyze-p", "--chi", str(path), "--on-unphysical", "fail") == 4


class TestRoundTrip:
    def test_chi_json_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chi = ChiMatrix(pauli_basis(), (g @ g.conj().T) / 10.0)
        p1 = tmp_path / "chi1.json"
        serialize.write_json(p1, serialize.chi_to_dict(chi))
        loaded = serialize.chi_from_dict(json.loads(p1.read_text()))
        assert np.array_equal(loaded.mat, chi.mat)
        p2 = tmp_path / "chi2.json"
        serialize.write_json(p2, serialize.chi_to_dict(loaded))
        assert p1.read_bytes() == p2.read_bytes()

    def test_chi_in_relabelled_basis_is_written_in_the_named_basis(self):
        # a Pauli basis reordered to (I, z, x, y) but labelled "pauli": the
        # file must hold chi in the Pauli basis the label names
        reordered = OperatorBasis(2, pauli_basis().ops[[0, 3, 1, 2]], "pauli")
        ref = ppbs_chi(PpbsParams.from_gamma(0.5))
        doc = json.loads(json.dumps(
            serialize.chi_to_dict(change_basis(ref, reordered))))
        loaded = serialize.chi_from_dict(doc)
        assert loaded.basis is pauli_basis()
        assert np.abs(loaded.mat - ref.mat).max() < 1e-12
        assert process_fidelity_ntp(loaded, ref) == pytest.approx(1.0, abs=1e-12)

    def test_chi_in_unnamed_basis_is_refused(self):
        custom = OperatorBasis(2, pauli_basis().ops[[0, 3, 1, 2]], "custom")
        chi = change_basis(ppbs_chi(PpbsParams.from_gamma(0.5)), custom)
        with pytest.raises(RepresentationError, match="custom"):
            serialize.chi_to_dict(chi)

    def test_count_table_round_trip(self, tmp_path):
        from lossyqpt.simulator import SimConfig, simulate_counts

        table = simulate_counts(SimConfig(PpbsParams.from_gamma(0.5), seed=2))
        doc = serialize.count_table_to_dict(table)
        back = serialize.count_table_from_dict(doc)
        assert np.array_equal(back.counts, table.counts)
        assert back.inputs == table.inputs
        assert back.exposure == table.exposure

    def test_schema_version_checked(self):
        with pytest.raises(Exception, match="schema"):
            serialize.chi_from_dict({"schema": 2, "kind": "chi_matrix"})


class TestWriteJson:
    def test_bytes_are_the_indented_dump(self, tmp_path, monkeypatch):
        # every document the CLI writes: a count table, a fit report and
        # their manifests
        written = []
        write_json = serialize.write_json

        def recording(path, doc):
            written.append((path, doc))
            write_json(path, doc)

        monkeypatch.setattr(serialize, "write_json", recording)
        counts, fit = str(tmp_path / "counts.json"), str(tmp_path / "fit.json")
        write_reference(tmp_path / "chi.json", 0.5)
        assert run("simulate", "--gamma", "0.5", "--seed", "3", "--out", counts) == 0
        assert run("reconstruct", "--counts", counts, "--method", "post-selected",
                   "--reference", str(tmp_path / "chi.json"), "--out", fit) == 0
        kinds = [doc["kind"] for _, doc in written[1:]]
        assert kinds == ["count_table", "run_manifest", "fit_report", "run_manifest"]
        for path, doc in written:
            with open(path, "rb") as fh:
                assert fh.read() == (json.dumps(doc, indent=2) + "\n").encode()

    def test_unencodable_document_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            serialize.write_json(path, {"x": object()})
        assert not path.exists()


def _count_doc_with(**fields):
    """The count-table document of a simulated table with some fields
    replaced."""
    doc = _valid_count_doc()
    doc.update(fields)
    return doc


def _pauli_chi_doc(entries):
    """The Pauli chi document with the given (row, column): [re, im]
    entries and zeros elsewhere."""
    mat = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
    for (i, j), pair in entries.items():
        mat[i][j] = pair
    return {"schema": 1, "kind": "chi_matrix", "dim": 2, "basis": "pauli",
            "mat": mat}


class TestErrorPaths:
    """Calls that end in an error no other test reaches: each exits with
    its code and an `error: ` line on stderr, never with a traceback, and
    writes no output."""

    def test_transmittivity_flags(self, tmp_path):
        out = tmp_path / "counts.json"
        assert run("simulate", "--t-h", "1", "--t-v", "0.3", "--seed", "2",
                   "--out", str(out)) == 0
        expected = simulate_counts(SimConfig(PpbsParams(1.0, 0.3), seed=2))
        doc = json.loads(out.read_text())
        assert doc["counts"] == serialize.count_table_to_dict(expected)["counts"]
        manifest = json.loads((tmp_path / doc["manifest"]).read_text())
        assert (manifest["config"]["t_h"], manifest["config"]["t_v"]) == (1.0, 0.3)

    FILES = {
        "array.json": [1, 2],
        "labels.json": _count_doc_with(inputs="HVDARL"),
        "invalid.json": "{not json",
        "exposure-string.json": _count_doc_with(exposure="10000"),
        # counts within the rate bound of an exposure of 1
        "exposure-bool.json": _count_doc_with(exposure=True, counts=[[1] * 6] * 6),
        "counts-strings.json": _count_doc_with(
            counts=[[str(c) for c in row] for row in _valid_count_doc()["counts"]]),
        "counts-bools.json": _count_doc_with(counts=[[True] * 6] * 6),
        # every label names a qubit polarization state
        "dim-3.json": _count_doc_with(dim=3),
        "counts.json": _valid_count_doc(),
        # entries within the chi file bound, trace 1e-300: chi / Tr[chi]
        # would overflow in the fidelity
        "near-cancelling-chi.json": _pauli_chi_doc(
            {(0, 0): [1e150, 0.0], (1, 1): [-1e150, 0.0], (2, 2): [1e-300, 0.0]}),
    }

    @pytest.mark.parametrize("argv, seed_env, code", [
        pytest.param(("sweep", "--gammas", "0.5", "--methods", "linear", "--repeats", "0"),
                     None, 2, id="zero-repeats"),
        pytest.param(("sweep", "--gamma-range", "0.1:1.0", "--methods", "linear"),
                     None, 2, id="gamma-range-two-fields"),
        pytest.param(("sweep", "--gamma-range", "a:b:3", "--methods", "linear"),
                     None, 2, id="gamma-range-not-numbers"),
        pytest.param(("simulate", "--gamma", "0.5"), "1.5", 2, id="seed-env-not-integer"),
        pytest.param(("simulate", "--config", "array.json", "--gamma", "0.5"),
                     None, 3, id="config-array"),
        pytest.param(("reconstruct", "--counts", "array.json", "--method", "linear"),
                     None, 3, id="counts-file-array"),
        pytest.param(("reconstruct", "--counts", "labels.json", "--method", "linear"),
                     None, 3, id="inputs-not-a-list"),
        pytest.param(("reconstruct", "--counts", "invalid.json", "--method", "linear"),
                     None, 3, id="counts-file-invalid-json"),
        # exposure and counts must be JSON numbers, not strings or booleans
        pytest.param(("reconstruct", "--counts", "exposure-string.json", "--method",
                      "linear"), None, 3, id="exposure-string"),
        pytest.param(("reconstruct", "--counts", "exposure-bool.json", "--method",
                      "linear"), None, 3, id="exposure-bool"),
        pytest.param(("reconstruct", "--counts", "counts-strings.json", "--method",
                      "linear"), None, 3, id="counts-strings"),
        pytest.param(("reconstruct", "--counts", "counts-bools.json", "--method", "mle"),
                     None, 3, id="counts-bools"),
        pytest.param(("reconstruct", "--counts", "dim-3.json", "--method", "linear"),
                     None, 3, id="dim-3-linear"),
        pytest.param(("reconstruct", "--counts", "dim-3.json", "--method", "mle"),
                     None, 3, id="dim-3-mle"),
        pytest.param(("reconstruct", "--counts", "counts.json", "--method", "linear",
                      "--reference", "near-cancelling-chi.json"),
                     None, 4, id="near-cancelling-reference"),
    ])
    def test_error_exit(self, tmp_path, capsys, monkeypatch, argv, seed_env, code):
        for name, doc in self.FILES.items():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            (tmp_path / name).write_text(text)
        if seed_env is not None:
            monkeypatch.setenv("LOSSYQPT_SEED", seed_env)
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    CHI_FILES = {
        # complex() would take the booleans as 1 and 0
        "bools": _pauli_chi_doc({(0, 0): [True, False]}),
        # finite entries whose sums in ChiMatrix and P overflow to NaN
        "huge-diagonal": _pauli_chi_doc({(k, k): [5e307, 0.0] for k in range(4)}),
        "huge-entry": _pauli_chi_doc({(0, 0): [1e308, 0.0]}),
    }

    @pytest.mark.parametrize("name", sorted(CHI_FILES))
    @pytest.mark.parametrize("command", ["analyze-p", "reconstruct"])
    def test_chi_file_is_data_error(self, tmp_path, capsys, command, name):
        chi, counts, out = (tmp_path / f for f in ("chi.json", "counts.json", "out"))
        chi.write_text(json.dumps(self.CHI_FILES[name]))
        counts.write_text(json.dumps(_valid_count_doc()))
        if command == "analyze-p":
            argv = ["analyze-p", "--chi", str(chi)]
        else:
            argv = ["reconstruct", "--counts", str(counts), "--method", "linear",
                    "--reference", str(chi), "--out", str(out)]
        assert run(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()
