import json

import pytest

from qvlms.cli import ConfigError, main, parse_config_file


def _read(path):
    return path.read_bytes()


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
    ])
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys,
                                                argv, key):
        rc = main(argv + ["--trials", "2", "--iterations", "10",
                          "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"'{key}'" in capsys.readouterr().err

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
        manifest = json.loads(path.read_text())
        manifest["environment"]["numpy"] = "0.0.1"
        path.write_text(json.dumps(manifest))
        assert main(redo) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "numpy 0.0.1" in err
        assert "python" not in err

    def test_rerun_protocol1(self, tmp_path):
        out_a = tmp_path / "orig"
        assert main(["protocol1", "--out", str(out_a), "--seed", "4",
                     "--trials", "3", "--iterations", "30", "--q", "1"]) == 0
        out_b = tmp_path / "redo"
        assert main(["rerun", str(out_a / "manifest.json"),
                     "--out", str(out_b)]) == 0
        assert _read(out_a / "protocol1_curves.csv") == \
            _read(out_b / "protocol1_curves.csv")


class TestEnvDefaultOutDir:
    def test_env_var_used_when_no_flag(self, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("QVLMS_OUT_DIR", str(target))
        rc = main(["protocol1", "--seed", "2", "--trials", "2",
                   "--iterations", "20", "--q", "1"])
        assert rc == 0
        assert (target / "protocol1_curves.csv").exists()
