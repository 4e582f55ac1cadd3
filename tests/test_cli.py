import argparse
import csv
import dataclasses
import inspect
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvlms import __version__, cli, experiment
from qvlms.cli import ConfigError, RunSpec, execute, main, parse_config_file
from qvlms.experiment import (
    ALGORITHMS,
    AveragedCurves,
    Protocol2Report,
    monte_carlo,
    nwd_db,
    protocol1,
    protocol2,
    steady_state_level,
)
from qvlms.volterra import RegressorMode


def _read(path):
    return path.read_bytes()


def _outputs(out):
    return {p.name: p.read_bytes() for p in out.iterdir()
            if p.suffix in (".csv", ".dat")}


def _tiny_manifest(tmp_path, protocol):
    """Run ``protocol`` at toy size and return its manifest path."""
    out = tmp_path / "orig"
    argv = [protocol, "--out", str(out), "--trials", "2", "--iterations", "10"]
    assert main(argv + (["--mu", "0.001"] if protocol == "run" else [])) == 0
    return out / "manifest.json"


class TestConfigParsing:
    def test_flat_key_value_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "trials = 4\n"
            "iterations = 50\n"
            "snr_db = 10, 20\n"
            "q_values = 2 5\n"
            "mu = 0.001\n"
            "regressor_mode = raw\n"
        )
        values = parse_config_file(cfg)
        assert values["trials"] == 4
        assert values["snr_db"] == (10.0, 20.0)
        assert values["q_values"] == (2.0, 5.0)
        assert values["mu"] == 0.001

    @pytest.mark.parametrize("protocol, function, unset", [
        ("protocol1", protocol1, {"mu_rule"}),
        ("protocol2", protocol2, set()),
    ])
    def test_protocol_defaults_are_the_librarys(self, protocol, function,
                                                unset):
        # each protocol default has two homes, cli.DEFAULTS and the keyword
        # defaults of its library function: they must not drift apart
        names = {"mu": "step_size", "seed": "master_seed",
                 "snr_db": "snr_db" if protocol == "protocol1" else "snr_db_values"}
        params = inspect.signature(function).parameters
        for key, value in cli.DEFAULTS[protocol].items():
            expected = params[names.get(key, key)].default
            if key == "seed":
                # the master seed has no library default
                assert expected is inspect.Parameter.empty
                continue
            if function is protocol1 and key == "snr_db":
                (value,) = value  # protocol1 runs at one SNR
            assert value == expected, key
        keywords = {name for name, param in params.items()
                    if param.kind is inspect.Parameter.KEYWORD_ONLY}
        set_by_cli = {names.get(key, key) for key in cli.DEFAULTS[protocol]}
        assert keywords - set_by_cli == unset

    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stepsize = 0.1\n")
        with pytest.raises(ConfigError, match="stepsize"):
            parse_config_file(cfg)

    def test_bad_value_named_in_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials = many\n")
        with pytest.raises(ConfigError, match="trials"):
            parse_config_file(cfg)

    def test_repeated_key_names_key_and_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("mu = 0.01\ntrials = 2\n# mu = 0.03\nmu = 0.02\n")
        with pytest.raises(ConfigError, match=r"'mu' given twice, on lines 1 and 4"):
            parse_config_file(cfg)
        out = tmp_path / "x"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "'mu' given twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    @pytest.mark.parametrize("command", ["config", "rerun"])
    def test_unreadable_input_file_is_config_error(self, tmp_path, capsys,
                                                   command, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "binary":
            path.write_bytes(b"\xff\xfe\x00mu = 0.01\n")
        out = tmp_path / "out"
        argv = (["run", "--config", str(path), "--mu", "0.001", "--out", str(out)]
                if command == "config" else ["rerun", str(path), "--out", str(out)])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and str(path) in err
        assert not out.exists()


def _setting_flags():
    """``pytest.param(command, flag, action)`` for each flag of the run
    commands and ``bound`` that sets a value: all but help, ``--config``
    and ``--out``."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [pytest.param(name, action.option_strings[0], action,
                         id=f"{name} {action.option_strings[0]}")
            for name in ("protocol1", "protocol2", "run", "bound")
            for action in commands[name]._actions
            if action.dest not in ("help", "config", "out")]


#: A malformed value of each flag that takes one; "x" for the others.
_MALFORMED = {"--iterations": "1.5", "--mode": "bogus", "--algorithm": "bogus"}


class TestFlagValues:
    @pytest.mark.parametrize("command, flag, action", _setting_flags())
    def test_each_flag_value_is_parsed_by_its_keys_parser_alone(
            self, command, flag, action):
        assert action.type is None and action.choices is None
        assert action.dest in cli._PARSERS

    @pytest.mark.parametrize("command, flag, action", [
        p for p in _setting_flags() if p.values[2].nargs != 0])
    def test_a_malformed_flag_value_is_a_config_error_naming_its_key(
            self, tmp_path, capsys, command, flag, action):
        argv = [command]
        if command != "bound":
            argv += ["--out", str(tmp_path / "x"), "--trials", "2",
                     "--iterations", "10"]
        if command == "run":
            argv += ["--mu", "0.001"]
        # a flag given twice takes its last value
        assert main(argv + [flag, _MALFORMED.get(flag, "x")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error")
        assert f"'{action.dest}'" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "x").exists()


class TestBoundCommand:
    def test_explicit_eigenvalues(self, capsys):
        assert main(["bound", "--q", "1", "--eigenvalues", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out

    def test_mode_derived_eigenvalues(self, capsys):
        assert main(["bound", "--q", "10", "--memory-length", "3",
                     "--mode", "orthonormalized"]) == 0
        out = capsys.readouterr().out
        assert f"{1.0 / 11.0:.10g}" in out

    @pytest.mark.parametrize("argv, key", [
        (["--q", "0"], "q_values"),
        (["--eigenvalues", "-1"], "eigenvalues"),
        (["--memory-length", "0"], "memory_length"),
        (["--mode", "sideways"], "regressor_mode"),
    ])
    def test_invalid_input_is_config_error(self, capsys, argv, key):
        assert main(["bound"] + argv) == 1
        captured = capsys.readouterr()
        assert f"'{key}'" in captured.err
        assert "bound" not in captured.out

    @pytest.mark.parametrize("argv, keys", [
        (["--memory-length", "5"], ["memory_length"]),
        (["--mode", "orthonormalized"], ["regressor_mode"]),
        (["--memory-length", "5", "--mode", "orthonormalized"],
         ["memory_length", "regressor_mode"]),
    ])
    def test_eigenvalues_with_channel_keys_is_config_error(self, capsys, argv,
                                                           keys):
        assert main(["bound", "--eigenvalues", "1", "3"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error")
        for key in ["eigenvalues"] + keys:
            assert f"'{key}'" in captured.err
        assert captured.out == ""


    def test_repeated_eigenvalues_are_a_spectrum(self, capsys):
        # a spectrum may repeat a value; the bound reads its largest
        assert main(["bound", "--eigenvalues", "1", "3", "3", "--q", "2"]) == 0
        assert capsys.readouterr().out == "q=2: bound = 0.1111111111\n"

    @pytest.mark.parametrize("argv, keys", [
        (["--q", "1", "1e308"], ["q_values"]),
        (["--eigenvalues", "1e308", "--q", "5"], ["q_values", "eigenvalues"]),
    ])
    def test_bound_that_overflows_is_config_error(self, capsys, argv, keys):
        # (q + 1) lambda overflows: no numpy warning, no "bound = 0", and no
        # line printed before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bound"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error")
        for key in keys:
            assert f"'{key}'" in captured.err
        assert captured.out == ""


class TestProtocolCommands:
    def test_protocol1_writes_outputs(self, tmp_path):
        out = tmp_path / "p1"
        rc = main(["protocol1", "--out", str(out), "--seed", "3",
                   "--trials", "4", "--iterations", "60", "--q", "1", "5"])
        assert rc == 0
        assert (out / "protocol1_curves.csv").exists()
        assert (out / "protocol1_summary.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "plot_protocol1_q1_sim.dat").exists()
        assert (out / "plot_protocol1_q5_theory.dat").exists()
        header = (out / "protocol1_curves.csv").read_text().splitlines()[0]
        assert header == "iteration,algorithm,q,snr_db,nwd,nwd_db,mae,mse"

    def test_protocol2_writes_outputs_and_whitened_flag(self, tmp_path):
        out = tmp_path / "p2"
        rc = main(["protocol2", "--out", str(out), "--seed", "3",
                   "--trials", "4", "--iterations", "60", "--q", "5",
                   "--snr", "10", "20", "--whitened"])
        assert rc == 0
        curves = (out / "protocol2_curves.csv").read_text()
        assert "whitened" in curves
        assert (out / "protocol2_gaps.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["protocol"] == "protocol2"
        assert manifest["config"]["include_whitened"] is True

    def test_invalid_config_file_names_key_and_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials = -5\n")
        rc = main(["protocol1", "--config", str(cfg),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_protocol1_rejects_several_snrs(self, tmp_path, capsys, source):
        argv = ["protocol1", "--out", str(tmp_path / "x"), "--trials", "2",
                "--iterations", "10"]
        if source == "flag":
            argv += ["--snr", "10", "30"]
        else:
            cfg = tmp_path / "p1.cfg"
            cfg.write_text("snr_db = 10, 30\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert "'snr_db'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_single_trial_smoke_run_is_fast(self, tmp_path):
        import time
        t0 = time.monotonic()
        rc = main(["protocol1", "--out", str(tmp_path / "smoke"), "--seed",
                   "1", "--trials", "1", "--iterations", "100", "--q", "5"])
        assert rc == 0
        assert time.monotonic() - t0 < 10.0

    def test_missing_out_dir_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        rc = main(["protocol2", "--out", str(out), "--seed", "1",
                   "--trials", "2", "--iterations", "30", "--q", "2",
                   "--snr", "20"])
        assert rc == 0
        assert (out / "protocol2_curves.csv").exists()

    def test_same_seed_byte_identical_csvs(self, tmp_path):
        args = ["protocol1", "--seed", "5", "--trials", "3",
                "--iterations", "40", "--q", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("protocol1_curves.csv", "protocol1_summary.csv"):
            assert _read(out_a / name) == _read(out_b / name)


    def test_protocol1_steady_state_takes_the_shared_tail(self, tmp_path):
        # 2,006 curve rows: the tail is round(0.1 * 2006) = 201 rows, as for
        # every other summary, not 2006 // 10 = 200
        out = tmp_path / "p1"
        assert main(["protocol1", "--out", str(out), "--seed", "1", "--trials",
                     "2", "--iterations", "2005", "--q", "5"]) == 0
        with (out / "protocol1_curves.csv").open(newline="") as fh:
            nwd = np.array([float(r["nwd"]) for r in csv.DictReader(fh)
                            if r["algorithm"] == "qvlms"])
        with (out / "protocol1_summary.csv").open(newline="") as fh:
            (summary,) = csv.DictReader(fh)
        assert nwd.size == 2006
        steady = float(summary["steady_state_nwd_db"])
        assert steady == float(nwd_db(steady_state_level(nwd)))
        assert steady == float(nwd_db(nwd[-201:].mean()))
        assert steady != float(nwd_db(nwd[-200:].mean()))

    def test_writing_streams_rows(self, tmp_path, monkeypatch):
        # 12 cells x 2,001 rows: writing holds a row at a time, not the
        # table's 24,012 rows or its text
        report = protocol2(3, trials=2, iterations=2000)
        monkeypatch.setattr(cli, "monte_carlo", lambda *args: report.curves)
        monkeypatch.setattr(cli, "_protocol2_report", lambda *args: report)
        spec = RunSpec.resolve("protocol2", {"trials": 2, "iterations": 2000})
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            assert execute(spec, tmp_path / "out") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lines = (tmp_path / "out" / "protocol2_curves.csv").read_text().splitlines()
        assert len(lines) == 1 + 12 * 2001
        assert peak - start < 2 * 2**20

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_out_dir_that_cannot_be_created_is_config_error(
            self, tmp_path, capsys, monkeypatch, source):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["run", "--mu", "0.01", "--trials", "2", "--iterations", "5"]
        for target in (blocker, blocker / "sub"):
            if source == "flag":
                rc = main(argv + ["--out", str(target)])
            else:
                monkeypatch.setenv("QVLMS_OUT_DIR", str(target))
                rc = main(argv)
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("configuration error")
            assert f"output directory {target}:" in err
        assert blocker.read_text() == ""


def _cell(algorithm, q, nwd, mae, mse, diverged):
    return AveragedCurves(
        algorithm=algorithm, q_value=q, snr_db=math.inf, step_size=1e-3,
        nwd=np.array(nwd), mae=np.array(mae), mse=np.array(mse), trials=4,
        diverged=diverged)


class TestOutputFormat:
    """Every file's text, from hand-made results: a float by its repr, NaN
    and None as empty, anything else by str; a ``.dat`` series has no
    header and a space separator."""

    VLMS = _cell("vlms", None, [1.0, 0.1 + 0.2, 0.0], [0.7, 1 / 3, 2 / 3],
                 [math.nan, 0.1, 1e-300], diverged=3)
    QVLMS = _cell("qvlms", 5.0, [1.0, math.nan, 0.25], [0.7, 0.5, 1 / 7],
                  [math.nan, 2.5e-7, 0.125], diverged=0)

    def _expected_tables(self, name):
        r = lambda x: repr(float(x))
        vdb, qdb = nwd_db(self.VLMS.nwd), nwd_db(self.QVLMS.nwd)
        curves = [
            "iteration,algorithm,q,snr_db,nwd,nwd_db,mae,mse",
            "0,vlms,,inf,1.0,0.0,0.7,",
            f"1,vlms,,inf,0.30000000000000004,{r(vdb[1])},{r(1 / 3)},0.1",
            f"2,vlms,,inf,0.0,-inf,{r(2 / 3)},1e-300",
            "0,qvlms,5.0,inf,1.0,0.0,0.7,",
            "1,qvlms,5.0,inf,,,0.5,2.5e-07",
            f"2,qvlms,5.0,inf,0.25,{r(qdb[2])},{r(1 / 7)},0.125",
        ]
        # the trailing tenth of three rows is the last row
        summary = [
            "algorithm,q,snr_db,steady_state_nwd_db,correlation,divergence_count",
            "vlms,,inf,-inf,,3",
            f"qvlms,5.0,inf,{r(qdb[2])},,0",
        ]
        return {f"{name}_curves.csv": curves, f"{name}_summary.csv": summary}

    @staticmethod
    def _texts(out):
        return {p.name: p.read_text().splitlines() for p in out.iterdir()
                if p.suffix in (".csv", ".dat")}

    def test_protocol2_outputs(self, tmp_path, monkeypatch):
        report = Protocol2Report(
            curves=(self.VLMS, self.QVLMS),
            advantages_db={(5.0, math.inf): 0.1 + 0.2},
            average_advantage_db=math.nan, master_seed=0, trials=4,
            iterations=2, snr_db_values=(math.inf,), q_values=(5.0,),
            step_size=1e-3, memory_length=3,
            regressor_mode=RegressorMode.RAW)
        monkeypatch.setattr(cli, "monte_carlo", lambda *args: report.curves)
        monkeypatch.setattr(cli, "_protocol2_report", lambda *args: report)
        spec = RunSpec.resolve("protocol2", {"trials": 4, "iterations": 2})
        assert execute(spec, tmp_path) == 0
        qdb = nwd_db(self.QVLMS.nwd)
        expected = self._expected_tables("protocol2")
        expected["protocol2_gaps.csv"] = [
            "q,snr_db,advantage_db", "5.0,inf,0.30000000000000004", "average,,"]
        expected["plot_protocol2_vlms_snrinf.dat"] = [
            "0 0.0", f"1 {repr(float(nwd_db(0.1 + 0.2)))}", "2 -inf"]
        expected["plot_protocol2_qvlms_q5_snrinf.dat"] = [
            "0 0.0", "1 ", f"2 {repr(float(qdb[2]))}"]
        assert self._texts(tmp_path) == expected
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == list(expected)

    def test_run_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "monte_carlo",
                            lambda *args: [self.VLMS, self.QVLMS])
        spec = RunSpec.resolve("run", {"mu": 1e-3, "q_values": [5.0],
                                       "algorithms": ["vlms", "qvlms"]})
        assert execute(spec, tmp_path) == 0
        assert self._texts(tmp_path) == self._expected_tables("run")


def _library_call(protocol, s):
    """The keyword front end ``protocol1`` or ``protocol2`` called with a
    spec's settings ``s``."""
    common = {key: s[key] for key in ("trials", "iterations", "q_values",
                                      "memory_length", "regressor_mode")}
    if protocol == "protocol1":
        return protocol1(s["seed"], snr_db=s["snr_db"][0],
                         mu_fraction=s["mu_fraction"], **common)
    return protocol2(s["seed"], snr_db_values=s["snr_db"], step_size=s["mu"],
                     include_whitened=s["include_whitened"], **common)


def _arrays_and_rest(report):
    """A report's arrays and its other values, each in field order."""
    arrays, rest = [], []

    def walk(value):
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                walk(getattr(value, f.name))
        elif isinstance(value, tuple):
            for item in value:
                walk(item)
        else:
            rest.append(value)

    walk(report)
    return arrays, rest


class TestOneMonteCarlo:
    """A CLI run is one ``monte_carlo`` of its spec's config and channel,
    then its protocol's report; the library's front ends build the same
    run from their keywords."""

    @pytest.mark.parametrize("protocol, settings", [
        ("protocol1", {}),
        ("protocol2", {"include_whitened": True}),
        ("run", {"algorithms": ALGORITHMS, "mu": 1e-3}),
    ])
    def test_execute_runs_one_monte_carlo_of_the_spec(self, tmp_path,
                                                      monkeypatch, protocol,
                                                      settings):
        spec = RunSpec.resolve(protocol, {**settings, "trials": 2,
                                          "iterations": 10})
        calls = []

        def spy(*args):
            calls.append(args)
            return monte_carlo(*args)

        def front_end(*args, **kwargs):
            raise AssertionError("execute calls no protocol front end")

        monkeypatch.setattr(cli, "monte_carlo", spy)
        monkeypatch.setattr(cli, "protocol1", front_end)
        monkeypatch.setattr(cli, "protocol2", front_end)
        assert execute(spec, tmp_path) == 0
        ((config, channel),) = calls
        assert config is spec.experiment and channel is spec.channel

    @pytest.mark.parametrize("protocol, settings", [
        ("protocol1", {}),
        ("protocol2", {}),
        ("protocol1", {"regressor_mode": "orthonormalized"}),
        ("protocol2", {"regressor_mode": "orthonormalized"}),
        ("protocol1", {"memory_length": 2}),
        ("protocol2", {"memory_length": 2}),
        ("protocol2", {"include_whitened": True}),
        ("protocol1", {"mu_fraction": 0.3}),
        ("protocol1", {"seed": 9, "trials": 7, "iterations": 30,
                       "q_values": (2.0, 3.0), "snr_db": (15.0,)}),
        ("protocol2", {"seed": 9, "trials": 7, "iterations": 30, "mu": 0.002,
                       "q_values": (3.0,), "snr_db": (15.0, 25.0)}),
    ])
    def test_front_end_hands_monte_carlo_the_specs_run(self, monkeypatch,
                                                       protocol, settings):
        spec = RunSpec.resolve(protocol, settings)
        handed = []

        class Handed(Exception):
            pass

        def spy(config, channel):
            handed.append((config, channel))
            raise Handed

        monkeypatch.setattr(experiment, "monte_carlo", spy)
        with pytest.raises(Handed):
            _library_call(protocol, spec.settings)
        ((config, channel),) = handed
        assert config == spec.experiment
        for name in ("memory_length", "regressor_mode", "kernel"):
            assert getattr(channel, name) == getattr(spec.channel, name), name

    @pytest.mark.parametrize("protocol, settings", [
        ("protocol1", {"q_values": (1.0, 5.0)}),
        ("protocol2", {"include_whitened": True, "snr_db": (10.0, 20.0)}),
    ])
    def test_a_cli_run_reports_the_front_ends_curves(self, tmp_path,
                                                     monkeypatch, protocol,
                                                     settings):
        spec = RunSpec.resolve(protocol, {**settings, "seed": 5, "trials": 5,
                                          "iterations": 60})
        name = f"_{protocol}_report"
        report_of, reports = getattr(cli, name), []

        def spy(*args):
            reports.append(report_of(*args))
            return reports[-1]

        monkeypatch.setattr(cli, name, spy)
        assert execute(spec, tmp_path) == 0
        cli_arrays, cli_rest = _arrays_and_rest(*reports)
        arrays, rest = _arrays_and_rest(_library_call(protocol, spec.settings))
        assert len(cli_arrays) == len(arrays) > 0
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(cli_arrays, arrays))
        assert cli_rest == rest


class TestRunCommand:
    def test_adhoc_run(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["run", "--out", str(out), "--seed", "2", "--trials", "3",
                   "--iterations", "50", "--q", "5", "--mu", "0.001",
                   "--snr", "20"])
        assert rc == 0
        assert (out / "run_curves.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "resolved_step_sizes" in manifest["checks"]

    def test_mu_fraction_resolves_from_bound(self, tmp_path):
        out = tmp_path / "runfrac"
        rc = main(["run", "--out", str(out), "--seed", "2", "--trials", "2",
                   "--iterations", "30", "--q", "1", "--mu-frac", "0.25",
                   "--snr", "20", "--mode", "orthonormalized"])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        resolved = manifest["checks"]["resolved_step_sizes"]
        # identity eigenvalues: bound = 1/(q+1) = 0.5, so mu = 0.125
        assert abs(next(iter(resolved.values())) - 0.125) < 1e-12

    def test_q1_run_matches_vlms_run(self, tmp_path):
        common = ["--seed", "9", "--trials", "3", "--iterations", "40",
                  "--mu", "0.002", "--snr", "20"]
        out_q = tmp_path / "q1"
        out_v = tmp_path / "vlms"
        assert main(["run", "--out", str(out_q), "--q", "1",
                     "--algorithm", "qvlms"] + common) == 0
        assert main(["run", "--out", str(out_v), "--q", "1",
                     "--algorithm", "vlms"] + common) == 0
        rows_q = (out_q / "run_curves.csv").read_text().splitlines()[1:]
        rows_v = (out_v / "run_curves.csv").read_text().splitlines()[1:]
        # identical numeric columns once the algorithm/q labels are dropped
        strip = lambda rows: [",".join(r.split(",")[3:]) for r in rows]
        assert strip(rows_q) == strip(rows_v)

    def test_excessive_mu_warns_but_runs(self, tmp_path, capsys):
        out = tmp_path / "hot"
        rc = main(["run", "--out", str(out), "--seed", "1", "--trials", "2",
                   "--iterations", "30", "--q", "1", "--mu", "1.5",
                   "--snr", "20", "--mode", "orthonormalized"])
        err = capsys.readouterr().err
        assert "warning" in err
        assert rc in (0, 2)  # divergence of every trial is acceptable here

    def test_missing_mu_is_config_error(self, tmp_path, capsys):
        rc = main(["run", "--out", str(tmp_path / "x"), "--q", "5"])
        assert rc == 1
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", [
        (["run", "--mu", "inf"], "mu"),
        (["run", "--mu-frac", "inf"], "mu_fraction"),
        (["protocol1", "--mu-fraction", "inf"], "mu_fraction"),
        (["protocol2", "--mu", "nan"], "mu"),
        (["run", "--mu", "0.001", "--q", "inf"], "q_values"),
        (["protocol2", "--q", "5", "nan"], "q_values"),
        (["protocol2", "--snr", "nan"], "snr_db"),
        (["run", "--mu", "0.001", "--snr=-inf"], "snr_db"),
        # 10^400 overflows a double
        (["run", "--mu", "0.001", "--snr=-4000"], "snr_db"),
        # 10^308 does not, but the noise power 10^308 h . R h does
        (["run", "--mu", "0.001", "--snr=-3080"], "snr_db"),
        (["protocol1", "--snr=-3080"], "snr_db"),
    ])
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys,
                                                argv, key):
        rc = main(argv + ["--trials", "2", "--iterations", "10",
                          "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("q, mu, warns", [
        # a vlms cell's bound is the q = 1 bound, 0.1, whatever q is: 0.3
        # diverges though it is within twice the q = 0.1 bound
        ("0.1", "0.3", True),
        # 0.02 converges though it is past twice the q = 50 bound
        ("50", "0.02", False),
    ])
    def test_step_size_warning_uses_each_cells_bound(self, tmp_path, capsys,
                                                     q, mu, warns):
        rc = main(["run", "--algorithm", "vlms", "--q", q, "--mu", mu,
                   "--trials", "3", "--iterations", "200",
                   "--out", str(tmp_path / "x")])
        assert ("warning" in capsys.readouterr().err) == warns
        assert rc == (2 if warns else 0)

    def test_step_size_warning_prints_once_per_algorithm_and_q(self, tmp_path,
                                                               capsys):
        # two SNRs, four cells: vlms at the q = 1 bound and qvlms at q = 5
        # exceed twice their bounds, qvlms at q = 0.1 does not
        rc = main(["run", "--algorithm", "vlms", "qvlms", "--q", "0.1", "5",
                   "--mu", "0.3", "--snr", "10", "20", "--trials", "3",
                   "--iterations", "50", "--out", str(tmp_path / "x")])
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning")]
        assert warnings == [
            "warning: mu=3.000e-01 exceeds twice the stability bound "
            "1.000e-01 for vlms at q=1; divergence likely",
            "warning: mu=3.000e-01 exceeds twice the stability bound "
            "3.333e-02 for qvlms at q=5; divergence likely",
        ]
        assert rc == 2

    @pytest.mark.parametrize("argv, expected", [
        # protocol2 at its absolute step: its q-VLMS cells at q = 5 and 10
        (["protocol2", "--mu", "0.08"], [
            "warning: mu=8.000e-02 exceeds twice the stability bound "
            "3.333e-02 for qvlms at q=5; divergence likely",
            "warning: mu=8.000e-02 exceeds twice the stability bound "
            "1.818e-02 for qvlms at q=10; divergence likely",
        ]),
        # protocol1 at three times each q's bound: every cell
        (["protocol1", "--mu-fraction", "3", "--q", "1", "5"], [
            "warning: mu=3.000e-01 exceeds twice the stability bound "
            "1.000e-01 for qvlms at q=1; divergence likely",
            "warning: mu=1.000e-01 exceeds twice the stability bound "
            "3.333e-02 for qvlms at q=5; divergence likely",
        ]),
    ])
    def test_step_size_warning_reads_every_protocols_cells(self, tmp_path,
                                                           capsys, argv,
                                                           expected):
        rc = main(argv + ["--trials", "3", "--iterations", "50",
                          "--out", str(tmp_path / "x")])
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning")]
        assert warnings == expected
        assert rc == 2

    @pytest.mark.parametrize("source", ["flag", "config", "manifest"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, source):
        if source == "manifest":
            path = _tiny_manifest(tmp_path, "run")
            manifest = json.loads(path.read_text())
            manifest["config"]["seed"] = -1
            path.write_text(json.dumps(manifest))
            argv = ["rerun", str(path)]
        else:
            argv = ["run", "--mu", "0.001", "--trials", "2", "--iterations", "10"]
            if source == "flag":
                argv += ["--seed", "-1"]
            else:
                cfg = tmp_path / "run.cfg"
                cfg.write_text("seed = -1\n")
                argv += ["--config", str(cfg)]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("protocol, key, value", [
        ("protocol1", "mu", "0.5"),
        ("protocol1", "include_whitened", "yes"),
        ("protocol2", "mu_fraction", "0.1"),
        ("protocol2", "algorithms", "vlms"),
        ("run", "include_whitened", "yes"),
    ])
    def test_key_outside_protocol_is_config_error(self, tmp_path, capsys,
                                                  protocol, key, value):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = [protocol, "--config", str(cfg), "--trials", "2",
                "--iterations", "10", "--out", str(tmp_path / "x")]
        assert main(argv + (["--mu", "0.001"] if protocol == "run" else [])) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, key", [
        # 5e-324 of the bound rounds to a step of 0
        (["run", "--mu-frac", "5e-324"], "mu_fraction"),
        (["protocol1", "--mu-fraction", "5e-324"], "mu_fraction"),
        # (q + 1) lambda_max overflows, at either step rule, since run's
        # step warning reads the bound too; protocol2, at its absolute
        # step, would otherwise see every trial diverge
        (["run", "--mu-frac", "0.1", "--q", "1e308"], "q_values"),
        (["run", "--mu", "0.001", "--q", "5", "1e308"], "q_values"),
        (["protocol1", "--q", "1e308"], "q_values"),
        (["protocol2", "--q", "1e308"], "q_values"),
        (["protocol2", "--q", "5", "1e308", "--whitened"], "q_values"),
    ])
    def test_step_that_is_not_positive_and_finite_is_config_error(
            self, tmp_path, capsys, argv, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--trials", "2", "--iterations", "5",
                              "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and f"'{key}'" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, key", [
        (["protocol2", "--q", "5", "5", "--snr", "20", "30"], "q_values"),
        (["protocol2", "--snr", "20", "20"], "snr_db"),
        (["protocol1", "--q", "1", "5", "1"], "q_values"),
        (["run", "--mu", "0.001", "--q", "5", "5.0"], "q_values"),
        (["run", "--mu", "0.001", "--snr", "10", "20", "10"], "snr_db"),
        (["run", "--mu", "0.001", "--algorithm", "vlms", "qvlms", "vlms"],
         "algorithms"),
    ])
    def test_repeated_list_value_is_config_error(self, tmp_path, capsys, argv,
                                                 key):
        # two equal cells would run twice and overwrite each other's plot
        # series, summary keys and divergence counts
        rc = main(argv + ["--trials", "2", "--iterations", "5",
                          "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and f"'{key}'" in err
        assert "must not repeat a value" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("protocol, settings, cells", [
        # each cell carries its bound: vlms and whitened at q = 1, qvlms at
        # its q
        ("run", {"algorithms": ("vlms", "qvlms"), "q_values": (50.0,),
                 "mu": 0.02, "snr_db": (20.0, 30.0)},
         [("vlms", None, 20.0, 0.1), ("qvlms", 50.0, 20.0, 1 / 255),
          ("vlms", None, 30.0, 0.1), ("qvlms", 50.0, 30.0, 1 / 255)]),
        ("protocol1", {"q_values": (1.0, 5.0)},
         [("qvlms", 1.0, 20.0, 0.1), ("qvlms", 5.0, 20.0, 1 / 30)]),
        ("protocol2", {"include_whitened": True, "q_values": (5.0,),
                       "snr_db": (20.0,)},
         [("vlms", None, 20.0, 0.1), ("qvlms", 5.0, 20.0, 1 / 30),
          ("whitened", None, 20.0, 0.1)]),
    ])
    def test_a_valid_spec_resolves_its_cells_once(self, tmp_path, monkeypatch,
                                                  capsys, protocol, settings,
                                                  cells):
        calls = []
        config_cells = cli._config_cells

        def spy(*args):
            calls.append(args)
            return config_cells(*args)

        monkeypatch.setattr(cli, "_config_cells", spy)
        spec = RunSpec.resolve(protocol, {**settings, "trials": 3,
                                          "iterations": 200})
        assert len(calls) == 1
        assert [(c.algorithm, c.q_value, c.snr_db, c.bound)
                for c in spec.cells] == cells
        # the run's objects are derived: neither compared nor recorded
        assert spec == RunSpec(spec.protocol, spec.settings, None, None, ())

        def no_bound(*args, **kwargs):
            raise AssertionError("execute resolves no cell and no bound")

        monkeypatch.setattr(cli, "_config_cells", no_bound)
        monkeypatch.setattr(cli, "step_size_bound", no_bound)
        capsys.readouterr()
        if protocol != "run":
            assert execute(spec, tmp_path / "x") == 0
            assert capsys.readouterr().err == ""
            return
        # the warning reads the qvlms cell's bound, which its trials pass
        with pytest.raises(RuntimeError, match="all 3 trials diverged"):
            execute(spec, tmp_path / "x")
        assert capsys.readouterr().err.splitlines() == [
            "warning: mu=2.000e-02 exceeds twice the stability bound "
            "3.922e-03 for qvlms at q=50; divergence likely"]

    def test_huge_q_is_a_run_where_no_cell_reads_it(self, tmp_path):
        # q applies to q-VLMS only: a vlms run steps at the q = 1 bound
        assert main(["run", "--algorithm", "vlms", "--q", "1e308",
                     "--mu-frac", "0.1", "--trials", "2", "--iterations", "5",
                     "--out", str(tmp_path / "x")]) == 0

    def test_protocol1_at_a_step_too_small_to_move_is_a_runtime_error(
            self, tmp_path, capsys):
        # mu = 1e-31 moves neither the weights nor the mean recursion, so
        # the curves are constant and have no correlation
        rc = main(["protocol1", "--trials", "2", "--iterations", "3",
                   "--mu-fraction", "1e-30", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for part in ("q=1", "mu=1.000e-31", "mu_fraction=1e-30"):
            assert part in err

    def test_finite_noise_power_is_a_run(self, tmp_path, capsys):
        # 10^40 noise: every trial diverges, a runtime failure
        rc = main(["run", "--out", str(tmp_path / "x"), "--trials", "2",
                   "--iterations", "10", "--mu", "0.001", "--snr=-400"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: all 2 trials diverged")

    def test_infinite_snr_is_a_noiseless_run(self, tmp_path):
        rc = main(["run", "--out", str(tmp_path / "x"), "--trials", "2",
                   "--iterations", "10", "--mu", "0.001", "--snr", "inf"])
        assert rc == 0


class TestRerun:
    def test_rerun_reproduces_bytes(self, tmp_path):
        out_a = tmp_path / "orig"
        rc = main(["protocol2", "--out", str(out_a), "--seed", "11",
                   "--trials", "3", "--iterations", "40", "--q", "5",
                   "--snr", "10", "20"])
        assert rc == 0
        out_b = tmp_path / "redo"
        rc = main(["rerun", str(out_a / "manifest.json"), "--out", str(out_b)])
        assert rc == 0
        for name in ("protocol2_curves.csv", "protocol2_summary.csv",
                     "protocol2_gaps.csv"):
            assert _read(out_a / name) == _read(out_b / name)

    def test_rerun_keeps_algorithms(self, tmp_path):
        out_a = tmp_path / "orig"
        assert main(["run", "--out", str(out_a), "--seed", "6", "--trials", "3",
                     "--iterations", "40", "--mu", "0.002", "--snr", "20",
                     "--algorithm", "vlms", "whitened"]) == 0
        out_b = tmp_path / "redo"
        assert main(["rerun", str(out_a / "manifest.json"),
                     "--out", str(out_b)]) == 0
        for name in ("run_curves.csv", "run_summary.csv"):
            assert _read(out_a / name) == _read(out_b / name)
        assert "whitened" in (out_b / "run_summary.csv").read_text()

    def test_manifest_records_environment(self, tmp_path):
        import platform

        import numpy as np
        out = tmp_path / "run"
        assert main(["protocol1", "--out", str(out), "--trials", "2",
                     "--iterations", "10", "--q", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
        }
        assert "environment" not in manifest["checks"]

    def test_rerun_warns_when_versions_differ(self, tmp_path, capsys):
        out_a = tmp_path / "orig"
        assert main(["protocol1", "--out", str(out_a), "--trials", "2",
                     "--iterations", "10", "--q", "5"]) == 0
        path = out_a / "manifest.json"
        redo = ["rerun", str(path), "--out", str(tmp_path / "redo")]
        capsys.readouterr()
        assert main(redo) == 0
        assert "warning" not in capsys.readouterr().err
        original = json.loads(path.read_text())
        for name in original["outputs"]:
            assert _read(out_a / name) == _read(tmp_path / "redo" / name)
        manifest = json.loads(path.read_text())
        manifest["environment"]["numpy"] = "0.0.1"
        path.write_text(json.dumps(manifest))
        assert main(redo) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "numpy 0.0.1" in err
        assert "python" not in err and "qvlms" not in err
        # a manifest of another release of the tool, whose outputs may
        # differ; 0.3.0 summed protocol 1's theory curve otherwise, 0.4.0
        # the MAE
        for version in ("0.1.0", "0.3.0", "0.4.0"):
            original["version"] = version
            path.write_text(json.dumps(original))
            assert main(redo) == 0
            err = capsys.readouterr().err
            assert f"qvlms {version}, this is qvlms {__version__}" in err
            assert "numpy" not in err

    def test_rerun_protocol1(self, tmp_path):
        out_a = tmp_path / "orig"
        assert main(["protocol1", "--out", str(out_a), "--seed", "4",
                     "--trials", "3", "--iterations", "30", "--q", "1"]) == 0
        out_b = tmp_path / "redo"
        assert main(["rerun", str(out_a / "manifest.json"),
                     "--out", str(out_b)]) == 0
        assert _read(out_a / "protocol1_curves.csv") == \
            _read(out_b / "protocol1_curves.csv")


    @pytest.mark.parametrize("content, named", [
        ("protocol = run\n", "manifest {path}"),
        ('{"protocol": "run", "config": null}', "'config'"),
        ("[1, 2]", "manifest {path}"),
        ('{"protocol": ["run"], "config": {}}', "'protocol'"),
        ('{"protocol": "run", "config": {"mu": 0.1}, "environment": [1]}',
         "'environment'"),
    ], ids=["not-json", "config-null", "list", "protocol-list", "environment-list"])
    def test_malformed_manifest_is_config_error(self, tmp_path, capsys,
                                                content, named):
        path = tmp_path / "manifest.json"
        path.write_text(content)
        capsys.readouterr()
        assert main(["rerun", str(path), "--out", str(tmp_path / "redo")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error")
        assert named.format(path=path) in err
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("protocol, key, value", [
        ("run", "mu", True),
        ("run", "q_values", [True]),
        ("run", "snr_db", [False]),
        ("protocol1", "mu_fraction", True),
    ])
    def test_manifest_boolean_for_number_is_config_error(
            self, tmp_path, capsys, protocol, key, value):
        # float(True) is 1.0: read as a number, the run would go ahead
        path = _tiny_manifest(tmp_path, protocol)
        manifest = json.loads(path.read_text())
        manifest["config"][key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path), "--out", str(tmp_path / "redo")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and f"'{key}'" in err
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("protocol, key", [
        ("protocol1", "q_values"),
        ("protocol2", "snr_db"),
        ("run", "algorithms"),
        ("run", "mu_fraction"),   # null in a mu run, but a setting all the same
    ])
    def test_manifest_missing_key_is_config_error(self, tmp_path, capsys,
                                                  protocol, key):
        path = _tiny_manifest(tmp_path, protocol)
        manifest = json.loads(path.read_text())
        del manifest["config"][key]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path), "--out", str(tmp_path / "redo")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and f"'{key}'" in err
        assert "missing" in err
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("protocol, key, value", [
        ("protocol1", "mu", 0.5),
        ("protocol2", "algorithms", ["vlms"]),
        ("run", "stepsize", 0.1),
    ])
    def test_manifest_key_outside_protocol_is_config_error(
            self, tmp_path, capsys, protocol, key, value):
        path = _tiny_manifest(tmp_path, protocol)
        manifest = json.loads(path.read_text())
        manifest["config"][key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", str(path), "--out", str(tmp_path / "redo")]) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "redo").exists()


_FLAGS = {"seed": "--seed", "trials": "--trials", "iterations": "--iterations",
          "memory_length": "--memory-length", "regressor_mode": "--mode",
          "q_values": "--q", "snr_db": "--snr", "mu": "--mu",
          "algorithms": "--algorithm"}


@st.composite
def run_specs(draw):
    """A valid run of any protocol at toy size: (protocol, settings).

    No list repeats a value. Step sizes stay within a fifth of the
    stability bound, where no trial diverges, so every run exits 0.
    """
    protocol = draw(st.sampled_from(["protocol1", "protocol2", "run"]))
    snr = st.sampled_from([-5.0, 0.0, 12.5, 20.0, 30.0, math.inf])
    s = {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "trials": draw(st.integers(1, 3)),
        "iterations": draw(st.integers(2, 30)),
        "memory_length": draw(st.integers(1, 3)),
        "regressor_mode": draw(st.sampled_from(["raw", "orthonormalized"])),
        "q_values": draw(st.lists(st.floats(0.5, 10.0), min_size=1, max_size=3,
                                  unique=True)),
        "snr_db": draw(st.lists(snr, min_size=1, unique=True,
                                max_size=1 if protocol == "protocol1" else 3)),
    }
    if protocol == "protocol1":
        s["mu_fraction"] = draw(st.floats(0.01, 0.2))
    elif protocol == "protocol2":
        s["mu"] = draw(st.floats(1e-4, 2e-3))
        s["include_whitened"] = draw(st.booleans())
    else:
        s["algorithms"] = draw(st.lists(st.sampled_from(ALGORITHMS),
                                        min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            s["mu"] = draw(st.floats(1e-4, 2e-3))
        else:
            s["mu_fraction"] = draw(st.floats(0.01, 0.2))
    return protocol, s


def _argv(protocol, s, via_file: bool, tmp: Path) -> list:
    """Command line giving settings ``s``: as flags, or in a config file."""
    def text(value):
        if isinstance(value, list):
            return " ".join(text(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    if via_file:
        cfg = tmp / "run.cfg"
        cfg.write_text("".join(f"{k} = {text(v)}\n" for k, v in s.items()))
        return [protocol, "--config", str(cfg)]
    argv = [protocol]
    for key, value in s.items():
        if key == "include_whitened":
            argv += ["--whitened"] if value else []
        elif key == "mu_fraction":
            argv += ["--mu-frac" if protocol == "run" else "--mu-fraction", text(value)]
        else:
            argv += [_FLAGS[key]] + text(value).split()
    return argv


@settings(max_examples=20, deadline=None)
@given(spec=run_specs(), via_file=st.booleans())
def test_rerun_reproduces_every_output_of_any_valid_spec(spec, via_file):
    protocol, s = spec
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert main(_argv(protocol, s, via_file, tmp) + ["--out", str(tmp / "a")]) == 0
        manifest = json.loads((tmp / "a" / "manifest.json").read_text())
        assert json.loads(json.dumps(RunSpec.from_manifest(manifest).config())) \
            == manifest["config"]
        assert main(["rerun", str(tmp / "a" / "manifest.json"),
                     "--out", str(tmp / "b")]) == 0
        first = _outputs(tmp / "a")
        assert first and first == _outputs(tmp / "b")


class TestEnvDefaultOutDir:
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("QVLMS_OUT_DIR", str(target))
        rc = main(["protocol1", "--seed", "2", "--trials", "2",
                   "--iterations", "20", "--q", "1"])
        assert rc == 0
        assert (target / "protocol1_curves.csv").exists()


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools: beta table
def test_package_metadata_reads_the_manifest_version():
    # pyproject.toml takes its version from the string the manifest records
    pyproject = pytest.importorskip("setuptools.config.pyprojecttoml")
    project = pyproject.read_configuration(
        Path(__file__).parents[1] / "pyproject.toml")["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == __version__
