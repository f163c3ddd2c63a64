import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from funcldp.cli import ConfigError, main, run, validate_config
from funcldp.funcdata import Curve, Grid, write_curve_csv


_BUMP_CLASS = {"scale": {"base_csv": "bump.csv", "a_lo": 1.0, "a_hi": 2.0, "count": 8}}
_COVER_LADDER = {"n_values": [200, 1000], "a": 2.0, "alpha": 2.0}


def _cover_config(**overrides):
    cfg = {"command": "cover", "class": _BUMP_CLASS, "nu_values": [0.1]}
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _sim_config(**overrides):
    cfg = {
        "command": "simulate",
        "model": {"default": True},
        "x0": {"constant": 0.0},
        "n_values": [200, 500],
        "a": 2.0,
        "alpha": 1.5,
        "lambda": 1.0,
        "replicates": 1500,
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            validate_config({"command": "frobnicate"})

    def test_missing_lambda_names_field(self):
        cfg = _sim_config()
        del cfg["lambda"]
        with pytest.raises(ConfigError, match="missing field 'lambda'"):
            validate_config(cfg)

    def test_seed_required_for_stochastic_commands(self):
        cfg = _sim_config()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            validate_config(cfg)

    def test_rate_needs_no_seed(self):
        assert validate_config({"command": "rate"}) == "rate"


class TestExitCodes:
    def test_missing_field_exits_two(self, tmp_path, capsys):
        cfg = _sim_config()
        del cfg["lambda"]
        code = main(["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "missing.json")])
        assert code == 2

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["--config", str(path)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, field",
        [
            (_sim_config(command="uniform", centers=[]), "centers"),
            (_sim_config(replicates="many"), "replicates"),
            ({"command": "cover", "nu_values": [0.1],
              "class": {"scale": {"base_csv": "bump.csv", "a_lo": 1.0, "count": 8}}}, "a_hi"),
            ({"command": "rate", "weight": "gaussian"}, "weight"),
            (_cover_config(nu_values=[0.1, 0.1], ladder=_COVER_LADDER), "nu_values"),
            (_cover_config(nu_values=[0.0]), "nu_values"),
            (_cover_config(nu_values=[-0.1]), "nu_values"),
            (_cover_config(nu_values=["x"]), "nu_values"),
            (_cover_config(nu_values=0.1), "nu_values"),
            (_cover_config(ladder={"n_values": [200], "alpha": 2.0}), "a"),
            (_cover_config(ladder={**_COVER_LADDER, "n_values": ["many"]}), "n_values"),
            (_cover_config(**{"class": {"scale": {**_BUMP_CLASS["scale"], "count": 1}}}),
             "count"),
            (_cover_config(ladder=[200, 1000]), "ladder"),
            (_cover_config(ladder=_COVER_LADDER, A="x"), "A"),
        ],
        ids=["empty-centers", "replicates-not-int", "cover-without-a_hi", "weight-string",
             "duplicate-radii", "zero-radius", "negative-radius", "radius-not-float",
             "radii-not-list", "ladder-without-a", "ladder-n-not-int", "class-count-one",
             "ladder-not-object", "A-not-float"],
    )
    def test_malformed_field_exits_two(self, tmp_path, monkeypatch, capsys, cfg, field):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bump.csv").write_text("t,value\n0.0,0.0\n0.5,1.0\n1.0,0.0\n")
        code = main(["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_console_entry_point(self, tmp_path):
        cfg_path = _write_config(tmp_path, {"command": "rate", "lambda_values": [1.0]})
        out = tmp_path / "rate_out"
        proc = subprocess.run(
            [sys.executable, "-m", "funcldp.cli", "--config", cfg_path, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (out / "rate_sweep.csv").exists()


class TestRateCommand:
    def test_default_model_ratio_rate_at_one(self, tmp_path):
        cfg = {"command": "rate", "lambda_values": [0.5, 1.0]}
        outputs = run(cfg, str(tmp_path / "out"))
        sweep = next(p for p in outputs if p.endswith("rate_sweep.csv"))
        lines = open(sweep).read().splitlines()
        gamma = float(lines[2].split(",")[1])
        assert gamma == pytest.approx(1.0 - math.exp(-0.5), abs=1e-6)

    def test_conjugate_sweep_columns(self, tmp_path):
        cfg = {"command": "rate", "lambda1_values": [1.0], "ratio_values": [0.0, 1.0]}
        outputs = run(cfg, str(tmp_path / "out"))
        conj = next(p for p in outputs if p.endswith("rate_conjugate.csv"))
        lines = open(conj).read().splitlines()
        assert lines[0] == "lambda1,lambda2,gamma_legendre,gamma_closed,abs_diff"
        assert all(float(line.split(",")[4]) < 1e-6 for line in lines[1:])


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        cfg = _sim_config()
        out1, out2 = tmp_path / "one", tmp_path / "two"
        run(dict(cfg), str(out1))
        run(dict(cfg), str(out2))
        assert (out1 / "ladder.csv").read_bytes() == (out2 / "ladder.csv").read_bytes()

    def test_manifest_reproducibility_fields(self, tmp_path):
        cfg = _sim_config(n_values=[200], replicates=1000)
        run(cfg, str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 11
        assert manifest["config"]["lambda"] == 1.0
        assert "package_version" in manifest and "numpy_version" in manifest
        assert manifest["outputs"] == ["ladder.csv"]

    def test_outputs_stay_inside_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "declared"
        paths = run(_sim_config(n_values=[200], replicates=1000), str(out))
        for path in paths:
            assert os.path.realpath(path).startswith(os.path.realpath(str(out)))
        assert list(workdir.iterdir()) == []

    def test_seed_override(self, tmp_path):
        cfg = _sim_config(n_values=[200], replicates=1000)
        path = _write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", path, "--out", str(out1), "--seed", "99"]) == 0
        assert main(["--config", path, "--out", str(out2), "--seed", "11"]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert (out1 / "ladder.csv").read_bytes() != (out2 / "ladder.csv").read_bytes()


class TestEstimateCommand:
    def test_rows_per_bandwidth(self, tmp_path):
        cfg = {
            "command": "estimate",
            "model": {"default": True},
            "x0": {"constant": 0.0},
            "n": 300,
            "h_values": [0.05, 0.1],
            "seed": 5,
        }
        run(cfg, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()
        assert lines[0] == "h,phi_h,r_n1,r_n2,r_hat,active_count"
        assert len(lines) == 3


class TestUniformCommand:
    def test_runs_with_centers(self, tmp_path):
        cfg = _sim_config(
            command="uniform",
            centers=[{"constant": -0.5}, {"constant": 0.0}, {"constant": 0.5}],
            n_values=[200],
            replicates=1000,
        )
        run(cfg, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "uniform_ladder.csv").read_text().splitlines()
        assert len(lines) == 2


class TestCoverCommand:
    def test_cover_with_entropy_ladder(self, tmp_path):
        grid = Grid(0.0, 1.0, 201)
        t = grid.nodes()
        bump_path = tmp_path / "bump.csv"
        write_curve_csv(Curve(grid, np.exp(-0.5 * ((t - 0.5) / 0.08) ** 2)), bump_path)
        cfg = {
            "command": "cover",
            "class": {
                "scale": {"base_csv": str(bump_path), "a_lo": 1.0, "a_hi": 2.0, "count": 32}
            },
            "nu_values": [0.1, 0.05],
            "metric": {"lp": 1},
            "ladder": {"n_values": [200, 1000], "a": 2.0, "alpha": 2.0},
            "A": 1.0,
        }
        run(cfg, str(tmp_path / "out"))
        cover_lines = (tmp_path / "out" / "cover_report.csv").read_text().splitlines()
        assert cover_lines[0] == "nu,n_cover,nu_log_n,admissible_flag"
        assert len(cover_lines) == 3
        entropy_lines = (tmp_path / "out" / "entropy_diagnostics.csv").read_text().splitlines()
        assert len(entropy_lines) == 1 + 2 * 2

    def test_default_radius_from_ladder(self, tmp_path):
        grid = Grid(0.0, 1.0, 201)
        t = grid.nodes()
        bump_path = tmp_path / "bump.csv"
        write_curve_csv(Curve(grid, np.exp(-0.5 * ((t - 0.5) / 0.08) ** 2)), bump_path)
        cfg = {
            "command": "cover",
            "class": {
                "scale": {"base_csv": str(bump_path), "a_lo": 1.0, "a_hi": 2.0, "count": 16}
            },
            "ladder": {"n_values": [200, 1000], "a": 2.0, "alpha": 2.0},
        }
        run(cfg, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "cover_report.csv").read_text().splitlines()
        assert len(lines) == 3  # one radius per ladder rung
        assert all(line.endswith("true") for line in lines[1:])

    def test_cover_requires_radii_or_ladder(self, tmp_path):
        cfg = {"command": "cover", "class": {"explicit": []}}
        with pytest.raises(ConfigError, match="nu_values"):
            validate_config(cfg)
