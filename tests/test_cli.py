import contextlib
import copy
import csv
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from funcldp import ratefn, simulate
from funcldp.cli import ConfigError, main, run
from funcldp.estimator import IdentityIndex
from funcldp.funcdata import Curve, Grid, LpDistance, write_curve_csv


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


def _estimate_config(**overrides):
    cfg = {"command": "estimate", "model": {"default": True}, "x0": {"constant": 0.0},
           "n": 300, "h_values": [0.1], "seed": 5}
    cfg.update(overrides)
    return cfg


_CSV_MODEL = {"signal_csv": "bump.csv", "noise_csv": "bump.csv"}


def _sim_config(**overrides):
    cfg = {
        "command": "simulate",
        "model": {"default": True},
        "x0": {"constant": 0.0},
        "n_values": [200, 500],
        "alpha": 1.5,
        "lambda": 1.0,
        "replicates": 1500,
        "seed": 11,
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_unknown_command(self, tmp_path):
        with pytest.raises(ConfigError, match="command"):
            run({"command": "frobnicate"}, str(tmp_path))

    def test_missing_lambda_names_field(self, tmp_path):
        cfg = _sim_config()
        del cfg["lambda"]
        with pytest.raises(ConfigError, match="missing field 'lambda'"):
            run(cfg, str(tmp_path))

    def test_seed_required_for_stochastic_commands(self, tmp_path):
        cfg = _sim_config()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            run(cfg, str(tmp_path))

    def test_rate_needs_no_seed(self, tmp_path):
        assert run({"command": "rate"}, str(tmp_path))


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
            (_sim_config(n_values=[8, 200]), "n_values"),
            (_cover_config(ladder={**_COVER_LADDER, "n_values": [8, 200]}), "n_values"),
            (_cover_config(metric={"lp": 0.5}), "metric"),
            (_cover_config(metric={"lp": "x"}), "metric"),
            (_sim_config(replicates=10), "replicates"),
            (_estimate_config(h_values="abc"), "h_values"),
            ({"command": "rate", "weight": {"gaussian": {"sd": -1}}}, "weight"),
            ({"command": "rate", "lambda_values": ["a"]}, "lambda_values"),
            ({"command": "rate", "index": {"indicator": [[0, "x"]]}}, "index"),
            ({"command": "rate", "index": {"indicator": [[1, 1]]}}, "index"),
            ({"command": "rate", "index": {"indicator": 5}}, "index"),
            ({"command": "rate", "index": {"indicator": [[0]]}}, "index"),
            ({"command": "rate", "index": {"indicator": [0, 1]}}, "index"),
            (_estimate_config(x0={"constant": "zero"}), "x0"),
            (_estimate_config(model={"default": True, "points": "x"}), "points"),
            (_estimate_config(model={"default": True, "points": 1}), "model"),
            (_estimate_config(model={**_CSV_MODEL, "y_law": {"normal": {"sd": -1}}}), "y_law"),
            (_estimate_config(model={**_CSV_MODEL, "y_law": {"uniform": {"lo": 0}}}), "hi"),
            (_sim_config(**{"lambda": math.nan}), "lambda"),
            (_estimate_config(h_values=[math.nan]), "h_values"),
            (_cover_config(ladder=_COVER_LADDER, A=math.nan), "A"),
            ({"command": "rate", "ratio_values": [math.nan]}, "ratio_values"),
            (_sim_config(seed=1.5), "seed"),
            (_estimate_config(n=300.7), "n"),
            (_sim_config(seed=True), "seed"),
            (_sim_config(seed=-1), "seed"),
            (_estimate_config(seed=-1), "seed"),
            (_sim_config(replicates=1500.5), "replicates"),
            (_sim_config(replicates=[1500, 0]), "replicates"),
            (_cover_config(**{"class": {"explicit": 5}}), "explicit"),
            (_estimate_config(model={"signal_csv": 5, "noise_csv": 5}), "signal_csv"),
            (_cover_config(**{"class": {"explicit": []}}), "explicit"),
            (_cover_config(**{"class": {"scale": {**_BUMP_CLASS["scale"], "a_lo": -1.0,
                                                  "a_hi": 1.0, "count": 3}}}), "class"),
            (_cover_config(**{"class": {"scale": {**_BUMP_CLASS["scale"],
                                                  "base_csv": "missing.csv"}}}), "base_csv"),
            (_cover_config(**{"class": {"scale": {**_BUMP_CLASS["scale"],
                                                  "base_csv": "nan.csv"}}}), "base_csv"),
            ({"command": "rate", "index": "foo"}, "index"),
            (_estimate_config(metric="foo"), "metric"),
            (_estimate_config(model={**_CSV_MODEL, "y_law": [1]}), "y_law"),
            (_sim_config(command="uniform", centers=[5]), "centers"),
            (_cover_config(**{"class": {"explicit": ["bump.csv", "fine.csv"]}}), "class"),
            (_estimate_config(h_values=[]), "h_values"),
            (_cover_config(nu_values=[]), "nu_values"),
            ({"command": "rate", "lambda_values": []}, "lambda_values"),
            ({"command": "rate", "lambda1_values": []}, "lambda1_values"),
            ({"command": "rate", "ratio_values": []}, "ratio_values"),
            (_cover_config(ladder={**_COVER_LADDER, "n_values": []}), "n_values"),
            (_sim_config(alpha=1.0), "alpha"),
            (_estimate_config(x0={"csv": "bump.csv"}), "x0"),
            (_sim_config(command="uniform", centers=[{"csv": "bump.csv"}]), "centers"),
            (_estimate_config(model={"signal_csv": "bump.csv", "noise_csv": "fine.csv"}),
             "model"),
            (_cover_config(**{"class": {"shift": {"base_csv": "zero.csv", "t_lo": -0.1,
                                                  "t_hi": 0.1, "count": 8}}}), "class"),
            (_cover_config(**{"class": {"scale": {**_BUMP_CLASS["scale"],
                                                  "base_csv": "decreasing.csv"}}}), "base_csv"),
            (_cover_config(**{"class": {"scale": {**_BUMP_CLASS["scale"],
                                                  "base_csv": "one-row.csv"}}}), "base_csv"),
            ({"command": "rate", "weight": {"gaussian": {}, "half_width": 10.0}}, "weight"),
            ({"command": "rate", "weight": {"gaussian": {"mean": 0, "sdd": 2}}}, "gaussian"),
            (_estimate_config(model={"default": True, "pionts": 51}), "model"),
            (_estimate_config(model={**_CSV_MODEL, "ylaw": {"normal": {}}}), "model"),
            (_estimate_config(model={**_CSV_MODEL, "y_law": {"normal": {}, "uniform": {
                "lo": 0, "hi": 1}}}), "y_law"),
            (_estimate_config(model={**_CSV_MODEL, "y_law": {"normal": {"sdd": 2}}}), "normal"),
            (_estimate_config(model={**_CSV_MODEL, "y_law": {"uniform": {
                "lo": 0, "hi": 1, "mid": 0.5}}}), "uniform"),
            (_estimate_config(x0={"constant": 0.0, "csv": "bump.csv"}), "x0"),
            (_sim_config(command="uniform", centers=[{"constant": 0.0, "scale": 2}]), "centers"),
            ({"command": "rate", "index": {"indicator": [[0, None]], "negate": True}}, "index"),
            (_estimate_config(metric={"lp": 2, "p": 1}), "metric"),
            (_cover_config(**{"class": {"scale": {**_BUMP_CLASS["scale"], "cuont": 4}}}),
             "scale"),
            (_cover_config(**{"class": {"shift": {"base_csv": "bump.csv", "t_lo": -1e-4,
                                                  "t_hi": 1e-4, "count": 2, "a_lo": 1}}}),
             "shift"),
            (_cover_config(**{"class": {"explicit": ["bump.csv"], "count": 8}}), "class"),
            (_cover_config(ladder={**_COVER_LADDER, "lambda": 1.0}), "ladder"),
        ],
        ids=["empty-centers", "replicates-not-int", "cover-without-a_hi", "weight-string",
             "duplicate-radii", "zero-radius", "negative-radius", "radius-not-float",
             "radii-not-list", "ladder-without-a", "ladder-n-not-int", "class-count-one",
             "ladder-not-object", "A-not-float", "ladder-n-below-16", "cover-ladder-n-below-16",
             "lp-below-one", "lp-not-float", "replicates-below-1000", "h-values-not-list",
             "weight-negative-sd", "lambda-not-float", "indicator-not-float",
             "indicator-degenerate", "indicator-not-list", "indicator-short-pair",
             "indicator-flat-list", "x0-not-float", "points-not-int", "points-one",
             "normal-law-negative-sd", "uniform-law-without-hi", "lambda-nan", "h-values-nan",
             "A-nan", "ratio-values-nan", "seed-fraction", "n-fraction",
             "seed-bool", "simulate-seed-negative", "estimate-seed-negative",
             "replicates-fraction", "replicates-zero-rung", "explicit-not-list",
             "csv-path-not-string", "explicit-empty", "scale-range-through-zero",
             "base-csv-missing", "base-csv-nan-node", "index-unrecognized", "metric-unrecognized",
             "y-law-unrecognized", "centers-unrecognized", "explicit-two-grids",
             "empty-h-values", "empty-radii", "empty-lambda-values", "empty-lambda1-values",
             "empty-ratio-values", "empty-cover-ladder", "alpha-one", "x0-csv-off-grid",
             "centers-csv-off-grid", "model-csvs-two-grids", "shift-base-all-zero",
             "base-csv-decreasing-nodes", "base-csv-one-row", "weight-half-width",
             "gaussian-misspelt", "default-model-misspelt", "csv-model-misspelt",
             "y-law-two-laws", "normal-law-misspelt", "uniform-law-misspelt",
             "x0-two-kinds", "centers-misspelt", "index-misspelt", "metric-misspelt",
             "scale-misspelt", "shift-misspelt", "explicit-misspelt", "cover-ladder-misspelt"],
    )
    def test_malformed_field_exits_two(self, tmp_path, monkeypatch, capsys, cfg, field):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bump.csv").write_text("t,value\n0.0,0.0\n0.5,1.0\n1.0,0.0\n")
        (tmp_path / "nan.csv").write_text("t,value\n0.0,0.0\nnan,1.0\n1.0,0.0\n")
        (tmp_path / "fine.csv").write_text(
            "t,value\n0.0,0.0\n0.25,0.5\n0.5,1.0\n0.75,0.5\n1.0,0.0\n")
        (tmp_path / "zero.csv").write_text("t,value\n0.0,0.0\n0.5,0.0\n1.0,0.0\n")
        (tmp_path / "decreasing.csv").write_text("t,value\n1.0,0.0\n0.5,1.0\n0.0,0.0\n")
        (tmp_path / "one-row.csv").write_text("t,value\n0.0,1.0\n")
        code = main(["--config", _write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{field}'" in err
        assert f"(command '{cfg['command']}')" in err

    def test_out_not_a_path_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["--config", _write_config(tmp_path, {"command": "rate", "out": 5})])
        assert code == 2
        assert "'out'" in capsys.readouterr().err

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("a file, not a directory")
        cfg_path = _write_config(tmp_path, {"command": "rate", "lambda_values": [1.0]})
        code = main(["--config", cfg_path, "--out", str(tmp_path / "taken")])
        assert code == 1
        assert "run error" in capsys.readouterr().err

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
        cfg = {"command": "rate", "lambda_values": [0.5, 1.0, 9.0]}
        outputs = run(cfg, str(tmp_path / "out"))
        sweep = next(p for p in outputs if p.endswith("rate_sweep.csv"))
        lines = open(sweep).read().splitlines()
        assert lines[0] == "lambda,gamma,gamma_prime,gamma_second,beta"
        gamma = float(lines[2].split(",")[1])
        assert gamma == pytest.approx(1.0 - math.exp(-0.5), abs=1e-6)
        # beyond the reachable range: an infinite rate and no derivatives
        assert lines[3].split(",")[1:3] == ["inf", "nan"]

    def test_conjugate_sweep_columns(self, tmp_path):
        cfg = {"command": "rate", "lambda1_values": [1.0, 2.0], "ratio_values": [0.0, 1.0]}
        outputs = run(cfg, str(tmp_path / "out"))
        conj = next(p for p in outputs if p.endswith("rate_conjugate.csv"))
        lines = open(conj).read().splitlines()
        assert lines[0] == "lambda1,lambda2,gamma_legendre,gamma_closed,abs_diff"
        assert all(float(line.split(",")[4]) < 1e-6 for line in lines[1:])
        assert lines[3].split(",")[:2] == ["2.0", "0.0"]
        assert float(lines[3].split(",")[3]) == pytest.approx(2 * math.log(2.0) - 1.0, abs=1e-9)

    def test_manifest_lists_phases(self, tmp_path):
        cfg = {"command": "rate", "lambda_values": [0.5, 1.0, 9.0],
               "lambda1_values": [1.0, 2.0], "ratio_values": [-1.0, 0.0, 1.0]}
        outputs = run(cfg, str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        phases = manifest["phases"]
        assert set(phases) == {"sweep", "conjugate"}
        # one row per CSV line after the header, and the two loops inside the run's time
        for name, csv_name in (("sweep", "rate_sweep.csv"), ("conjugate", "rate_conjugate.csv")):
            path = next(p for p in outputs if p.endswith(csv_name))
            assert phases[name]["rows"] == len(open(path).read().splitlines()) - 1
            assert phases[name]["seconds"] > 0.0
        assert set(phases["sweep"]) == {"rows", "seconds"}
        assert set(phases["conjugate"]) == {"rows", "levels", "seconds"}
        assert (phases["sweep"]["rows"], phases["conjugate"]["rows"]) == (3, 6)
        assert phases["conjugate"]["levels"] == 3  # y = -1, 0 and 1, each at both lambda1
        assert sum(p["seconds"] for p in phases.values()) <= manifest["wall_time_s"] + 1e-3
        assert "rungs" not in manifest and "covers" not in manifest

    @pytest.mark.parametrize("grid", [
        {},
        {"lambda1_values": [0.0, -1.0, 1.0, 2.0], "ratio_values": [-2 / 3, 0.0, 1.0, 9.0]},
    ], ids=["default", "edges"])
    def test_conjugate_cells_are_the_per_pair_routes(self, tmp_path, grid):
        # the level-grouped grid writes exactly what each route gives for its own pair
        run({"command": "rate", "lambda_values": [1.0], **grid}, str(tmp_path / "out"))
        model = ratefn.gaussian_identity_model()
        for row in csv.DictReader(open(tmp_path / "out" / "rate_conjugate.csv")):
            lam1, lam2 = float(row["lambda1"]), float(row["lambda2"])
            assert float(row["gamma_legendre"]) == ratefn.legendre_rate(model, lam1, lam2)
            assert float(row["gamma_closed"]) == ratefn.closed_rate_uniform(model, lam1, lam2)

    def test_even_nodes_keep_the_indicator_jump_off_the_grid(self, tmp_path):
        # with 4000 nodes the jump at 0 falls midway between two nodes, so each half of the
        # weight carries mass 1/2 and gamma is the two-atom closed form
        cfg = {"command": "rate", "weight": {"gaussian": {}, "nodes": 4000},
               "index": {"indicator": [[0, None]]}, "lambda_values": [0.7]}
        run(cfg, str(tmp_path / "out"))
        row = next(csv.DictReader(open(tmp_path / "out" / "rate_sweep.csv")))
        closed = 1.0 - (0.5 / 0.3) ** 0.3 * (0.5 / 0.7) ** 0.7
        assert float(row["gamma"]) == pytest.approx(closed, rel=1e-12)

    def test_conjugate_phase_solves_one_dual_per_level(self, tmp_path, monkeypatch):
        # a sweep level beyond the reachable range solves no dual, so every count is the grid's
        levels = []
        dual = ratefn._tilt_dual
        monkeypatch.setattr(ratefn, "_tilt_dual", lambda model, y, **kw: (
            levels.append(y), dual(model, y, **kw))[1])
        run({"command": "rate", "lambda_values": [9.0]}, str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["phases"]["conjugate"]["levels"] == 13  # 49 rows, 7 ratios
        assert len(levels) == len(set(levels)) == 13

    def test_default_run_builds_one_tilt_table(self, tmp_path, monkeypatch):
        # the sweep's closed forms need no log-MGF table; the conjugate grid shares one
        built = []
        init = ratefn._TiltOps.__init__
        monkeypatch.setattr(ratefn._TiltOps, "__init__",
                            lambda ops, model: (built.append(model), init(ops, model))[1])
        run({"command": "rate"}, str(tmp_path / "out"))
        assert len(built) == 1

    @pytest.mark.parametrize("error", [ratefn.NumericError, ratefn.RateDomainError])
    @pytest.mark.parametrize("failing", ["_tilt_dual", "_legendre_ascent"])
    def test_failed_level_reads_nan(self, tmp_path, monkeypatch, error, failing):
        # a failed dual blanks both routes at the level y = 1, a failed ascent only its
        # own column; the run and the other rows go on
        cfg = {"command": "rate", "lambda_values": [9.0], "lambda1_values": [1.0, 2.0],
               "ratio_values": [-1.0, 0.0, 1.0]}
        config = _write_config(tmp_path, cfg)
        main(["--config", config, "--out", str(tmp_path / "plain")])
        route = getattr(ratefn, failing)

        def fail_at_one(model, *args, **kw):
            if (args[0] if failing == "_tilt_dual" else args[1] / args[0]) == 1.0:
                raise error("injected")
            return route(model, *args, **kw)

        monkeypatch.setattr(ratefn, failing, fail_at_one)
        assert main(["--config", config, "--out", str(tmp_path / "failed")]) == 0
        plain, failed = (open(tmp_path / d / "rate_conjugate.csv").read().splitlines()
                         for d in ("plain", "failed"))
        for i, (before, after) in enumerate(zip(plain, failed)):
            if i in (3, 6):  # the rows (1, 1) and (2, 2)
                kept = before.split(",")
                closed = kept[3] if failing == "_legendre_ascent" else "nan"
                assert after.split(",") == kept[:2] + ["nan", closed, "nan"]
            else:
                assert after == before
        assert len(failed) == len(plain) == 7

    def test_wall_time_ignores_clock_jumps(self, tmp_path, monkeypatch):
        # the system clock set back an hour during the run does not reach the manifest
        clock = iter([1e9])
        monkeypatch.setattr(time, "time", lambda: next(clock, 1e9 - 3600.0))
        cfg = {"command": "rate", "lambda_values": [0.5], "lambda1_values": [1.0],
               "ratio_values": [0.0]}
        run(cfg, str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 0.0 <= manifest["wall_time_s"] < 60.0


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        cfg = _sim_config()
        out1, out2 = tmp_path / "one", tmp_path / "two"
        run(dict(cfg), str(out1))
        run(dict(cfg), str(out2))
        assert (out1 / "ladder.csv").read_bytes() == (out2 / "ladder.csv").read_bytes()
        assert (out1 / "ladder.csv").read_text().splitlines()[0] == (
            "n,h,phi_h,replicates,hits,p_hat,wilson_low,wilson_high,empirical_rate,"
            "theoretical_rate,flag"
        )

    def test_manifest_reproducibility_fields(self, tmp_path):
        cfg = _sim_config(n_values=[200], replicates=1000)
        run(cfg, str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 11
        assert manifest["config"]["lambda"] == 1.0
        assert "package_version" in manifest and "numpy_version" in manifest
        assert manifest["scipy_version"] == scipy.__version__
        assert manifest["python_version"] == platform.python_version()
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["outputs"] == ["ladder.csv"]
        assert "covers" not in manifest

    @pytest.mark.parametrize("command", ["simulate", "uniform"])
    def test_manifest_lists_rungs(self, tmp_path, command):
        cfg = _sim_config(command=command, n_values=[200, 500], replicates=[1000, 500],
                          centers=[{"constant": -0.5}, {"constant": 0.5}])
        run(cfg, str(tmp_path / "out"))
        rungs = json.loads((tmp_path / "out" / "manifest.json").read_text())["rungs"]
        assert [(r["n"], r["replicates"]) for r in rungs] == [(200, 1000), (500, 500)]
        for r in rungs:
            assert set(r) == {"n", "replicates", "in_window_draws", "seconds",
                              "replicates_per_s"}
            assert isinstance(r["in_window_draws"], int) and r["in_window_draws"] > 0
            assert r["seconds"] > 0.0
            assert r["replicates_per_s"] == pytest.approx(r["replicates"] / r["seconds"])
        # the draws are the ones the library counts on the same stream
        model = simulate.default_model()
        ladder_cfg = simulate.LadderConfig((200, 500), 1.5, 1.0, (1000, 500), seed=11)
        library = []
        if command == "simulate":
            simulate.pointwise_ladder(model, Curve.constant(model.grid, 0.0), IdentityIndex(),
                                      ladder_cfg, library)
        else:
            centers = [Curve.constant(model.grid, c) for c in (-0.5, 0.5)]
            simulate.uniform_ladder(model, centers, IdentityIndex(), ladder_cfg, library)
        assert [r["in_window_draws"] for r in rungs] == [r.in_window_draws for r in library]

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


    def test_command_override(self, tmp_path):
        path = _write_config(tmp_path, _sim_config())
        out = tmp_path / "o"
        assert main(["--config", path, "--command", "rate", "--out", str(out)]) == 0
        assert (out / "rate_sweep.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["command"] == "rate"

    @pytest.mark.parametrize("command", ["simulate", "uniform"])
    def test_schedule_constant_is_not_read(self, tmp_path, command):
        # the ladders take phi(h) = 2h from the model; an "a" key, as the cover's, is ignored
        name = "ladder.csv" if command == "simulate" else "uniform_ladder.csv"
        cfg = _sim_config(command=command, n_values=[200], replicates=1000,
                          centers=[{"constant": 0.0}, {"constant": 0.5}])
        run(cfg, str(tmp_path / "bare"))
        expected = (tmp_path / "bare" / name).read_bytes()
        for a in (0.01, 2.0, 7.5):
            run({**cfg, "a": a}, str(tmp_path / str(a)))
            assert (tmp_path / str(a) / name).read_bytes() == expected


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


    def test_x0_from_csv(self, tmp_path):
        zero = tmp_path / "zero.csv"
        write_curve_csv(Curve.constant(simulate.default_model().grid, 0.0), zero)
        run(_estimate_config(), str(tmp_path / "constant"))
        run(_estimate_config(x0={"csv": str(zero)}), str(tmp_path / "csv"))
        assert ((tmp_path / "csv" / "estimate.csv").read_bytes()
                == (tmp_path / "constant" / "estimate.csv").read_bytes())


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
        assert entropy_lines[0] == "nu,n_cover,nu_log_n,n,h,phi_h,log_n_over_speed,admissible"
        assert len(entropy_lines) == 1 + 2 * 2
        # without a ladder there is no entropy table and the flag is empty
        del cfg["ladder"]
        outputs = run(cfg, str(tmp_path / "bare"))
        assert not any(p.endswith("entropy_diagnostics.csv") for p in outputs)
        bare_lines = (tmp_path / "bare" / "cover_report.csv").read_text().splitlines()
        assert len(bare_lines) == 3
        assert all(line.endswith(",") for line in bare_lines[1:])

    def test_manifest_lists_cover_counters(self, tmp_path, monkeypatch):
        grid = Grid(0.0, 1.0, 201)
        t = grid.nodes()
        bump_path = tmp_path / "bump.csv"
        write_curve_csv(Curve(grid, np.exp(-0.5 * ((t - 0.5) / 0.08) ** 2)), bump_path)
        cfg = {"command": "cover",
               "class": {"scale": {"base_csv": str(bump_path), "a_lo": 1.0, "a_hi": 2.0,
                                   "count": 64}},
               "nu_values": [0.01, 0.1], "metric": {"lp": 1}}
        rows = []
        distance_to_rows = LpDistance.distance_to_rows

        def counting(self, x_values, members, grid):
            rows.append(members.shape[0])
            return distance_to_rows(self, x_values, members, grid)

        monkeypatch.setattr(LpDistance, "distance_to_rows", counting)
        run(cfg, str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        csv_rows = [line.split(",") for line in
                    (tmp_path / "out" / "cover_report.csv").read_text().splitlines()]
        assert csv_rows[0] == ["nu", "n_cover", "nu_log_n", "admissible_flag"]
        covers = manifest["covers"]
        assert [(c["nu"], c["n_cover"]) for c in covers] == [
            (float(nu), int(count)) for nu, count, *_ in csv_rows[1:]]
        # one greedy call per radius, each a distance call per center
        assert len(rows) == sum(c["n_cover"] for c in covers)
        assert sum(c["distance_rows"] for c in covers) == sum(rows)
        assert all(64 <= c["distance_rows"] <= 64 * c["n_cover"] for c in covers)
        assert manifest["undersampled"] is False

    def test_manifest_records_undersampled(self, tmp_path):
        grid = Grid(0.0, 1.0, 201)
        bump_path = tmp_path / "bump.csv"
        write_curve_csv(Curve(grid, np.exp(-0.5 * ((grid.nodes() - 0.5) / 0.08) ** 2)),
                        bump_path)
        cfg = {"command": "cover",
               "class": {"scale": {"base_csv": str(bump_path), "a_lo": 1.0, "a_hi": 5.0,
                                   "count": 8}},
               "nu_values": [0.1], "metric": {"lp": 1}}
        with pytest.warns(RuntimeWarning, match="undersampled"):
            run(cfg, str(tmp_path / "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["undersampled"] is True

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

    def test_explicit_class(self, tmp_path):
        grid = Grid(0.0, 1.0, 101)
        paths = []
        for k in (1, 2, 3):
            paths.append(str(tmp_path / f"sine{k}.csv"))
            write_curve_csv(Curve(grid, k * np.sin(math.pi * grid.nodes())), paths[-1])
        # neighbours lie 2/pi apart in L1, so no radius below that merges two curves
        cfg = {"command": "cover", "class": {"explicit": paths}, "nu_values": [0.5, 0.1]}
        run(cfg, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "cover_report.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["0.5", "3"], ["0.1", "3"]]

    def test_cover_requires_radii_or_ladder(self, tmp_path):
        cfg = {"command": "cover", "class": {"explicit": []}}
        with pytest.raises(ConfigError, match="nu_values"):
            run(cfg, str(tmp_path))


_JUNK = st.sampled_from([None, "x", [], {}, -1, 0, 1.5, True, math.nan, [[0]], {"x": 1}])


def _fuzz_bases(bump_path: str) -> dict:
    """Small configs of all five commands, each a successful run."""
    return {
        "rate": {"command": "rate", "lambda_values": [1.0], "lambda1_values": [1.0],
                 "ratio_values": [0.0, 1.0]},
        "estimate": _estimate_config(),
        "simulate": _sim_config(n_values=[200], replicates=1000),
        "uniform": _sim_config(command="uniform", centers=[{"constant": 0.0}],
                               replicates=[1000, 1000]),
        "cover": _cover_config(**{"class": {"scale": {**_BUMP_CLASS["scale"],
                                                      "base_csv": bump_path}}},
                               ladder=_COVER_LADDER),
    }


def _paths(value, prefix=()):
    """Paths to every entry of a config, down to the third level."""
    if isinstance(value, dict):
        entries = value.items()
    elif isinstance(value, list):
        entries = enumerate(value)
    else:
        return
    for slot, inner in entries:
        yield prefix + (slot,)
        if len(prefix) < 2:
            yield from _paths(inner, prefix + (slot,))


@st.composite
def _mutants(draw, bases: dict) -> dict:
    """A base config with one entry, up to three levels down, dropped or replaced by junk.

    Third-level entries are, for example, ``class.scale.count``,
    ``centers[0].constant`` and ``ladder.n_values[0]``.
    """
    name, path = draw(st.sampled_from([(name, path) for name in sorted(bases)
                                       for path in _paths(bases[name])]))
    cfg = copy.deepcopy(bases[name])
    parent = cfg
    for slot in path[:-1]:
        parent = parent[slot]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JUNK)
    return cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "bump.csv").write_text("t,value\n0.0,0.0\n0.5,1.0\n1.0,0.0\n")
    return path


class TestConfigFuzz:
    def test_mutated_configs_exit_zero_or_two(self, fuzz_dir):
        bases = _fuzz_bases(str(fuzz_dir / "bump.csv"))

        @settings(deadline=None, derandomize=True, database=None, max_examples=250)
        @given(_mutants(bases))
        def check(cfg):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(["--config", _write_config(fuzz_dir, cfg),
                             "--out", str(fuzz_dir / "out")])
            assert code in (0, 2), (cfg, code, stderr.getvalue())
            if code == 2:
                assert re.search(r"fields? '\w+'", stderr.getvalue()), (cfg, stderr.getvalue())

        check()


def test_readme_configs_run(tmp_path, monkeypatch):
    # every JSON config in the README is a run that the CLI accepts
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", fh.read(), re.S)]
    assert sorted(cfg["command"] for cfg in blocks) == ["cover", "estimate", "rate", "simulate"]
    monkeypatch.chdir(tmp_path)
    grid = Grid(0.0, 1.0, 201)
    write_curve_csv(Curve(grid, np.exp(-0.5 * ((grid.nodes() - 0.5) / 0.08) ** 2)), "bump.csv")
    for i, cfg in enumerate(blocks):
        assert run(cfg, str(tmp_path / f"out{i}"))
