"""Config-driven command line front end.

One JSON config file describes a run; the command dispatches to the
library and writes plot-ready CSV artifacts plus a ``manifest.json``
that echoes the config, seed and versions so the run can be reproduced
exactly.  All outputs stay inside the declared output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, covering, ratefn, simulate
from .estimator import (
    EstimatorConfig,
    IdentityIndex,
    IntervalIndicator,
    z_n,
)
from .funcdata import (
    Curve,
    Grid,
    IntegralDifference,
    LpDistance,
    UniformKernel,
    IdentityScaling,
    read_curve_csv,
)

COMMANDS = ("rate", "estimate", "simulate", "uniform", "cover")
_STOCHASTIC = ("estimate", "simulate", "uniform")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _require(cfg: dict, field: str, command: str, kind=None):
    if field not in cfg:
        raise ConfigError(f"missing field '{field}' (command '{command}')")
    return cfg[field] if kind is None else _convert(kind, cfg[field], field, command)


def _convert(kind, value, field: str, command: str):
    """``kind(value)``, or a ConfigError naming ``field`` when the value does not fit."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"field '{field}' must be {kind.__name__}, got {value!r} (command '{command}')"
        ) from None


def _checked(fields: tuple[str, ...], command: str, build, *args):
    """``build(*args)``, or a ConfigError naming ``fields`` when the library rejects a value.

    ``fields`` are the config fields that ``build`` reads; the library's
    message says which value is out of its domain.
    """
    try:
        return build(*args)
    except ValueError as exc:
        names = ", ".join(f"'{f}'" for f in fields)
        label = "field" if len(fields) == 1 else "fields"
        raise ConfigError(f"{label} {names}: {exc} (command '{command}')") from None


def _list_of(kind, cfg: dict, field: str, command: str, default=None) -> list:
    """The list in ``cfg[field]`` (required unless a default is given), each entry converted."""
    values = _require(cfg, field, command) if default is None else cfg.get(field, default)
    if not isinstance(values, list):
        raise ConfigError(f"field '{field}' must be a list (command '{command}')")
    return [_convert(kind, v, field, command) for v in values]


def _build_index(spec, command: str) -> IdentityIndex | IntervalIndicator:
    if spec in (None, "identity"):
        return IdentityIndex()
    if isinstance(spec, dict) and "indicator" in spec:
        pairs = spec["indicator"]
        if not (isinstance(pairs, list)
                and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise ConfigError(f"field 'index': 'indicator' must be a list of [lo, hi] pairs, "
                              f"got {pairs!r} (command '{command}')")
        intervals = tuple(
            (_convert(float, lo, "index", command) if lo is not None else -math.inf,
             _convert(float, hi, "index", command) if hi is not None else math.inf)
            for lo, hi in pairs
        )
        return _checked(("index",), command, IntervalIndicator, intervals)
    raise ConfigError(f"unrecognized index spec {spec!r}")


def _build_metric(spec, command: str):
    if spec in (None, "integral_diff"):
        return IntegralDifference()
    if isinstance(spec, dict) and "lp" in spec:
        return _checked(("metric",), command, LpDistance,
                        _convert(float, spec["lp"], "metric", command))
    raise ConfigError(f"unrecognized metric spec {spec!r}")


def _build_model(spec, command: str) -> simulate.LinearFactorModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"field 'model' must be an object (command '{command}')")
    if spec.get("default"):
        return _checked(("model",), command, simulate.default_model,
                        _convert(int, spec.get("points", 101), "points", command))
    signal = read_curve_csv(_require(spec, "signal_csv", command))
    noise = read_curve_csv(_require(spec, "noise_csv", command))
    law_spec = spec.get("y_law", {"normal": {"mean": 0.0, "sd": 1.0}})
    law_params = law_spec if isinstance(law_spec, dict) else {}
    if isinstance(law_params.get("normal"), dict):
        params = law_params["normal"]
        law = _checked(("y_law",), command, simulate.NormalLaw,
                       _convert(float, params.get("mean", 0.0), "y_law", command),
                       _convert(float, params.get("sd", 1.0), "y_law", command))
    elif isinstance(law_params.get("uniform"), dict):
        params = law_params["uniform"]
        law = _checked(("y_law",), command, simulate.UniformLaw,
                       _require(params, "lo", command, float),
                       _require(params, "hi", command, float))
    else:
        raise ConfigError(f"unrecognized y_law spec {law_spec!r}")
    return simulate.LinearFactorModel(signal, noise, law)


def _build_curve(spec, grid: Grid, field: str, command: str) -> Curve:
    if isinstance(spec, dict) and "constant" in spec:
        return Curve.constant(grid, _convert(float, spec["constant"], field, command))
    if isinstance(spec, dict) and "csv" in spec:
        curve = read_curve_csv(spec["csv"])
        if curve.grid != grid:
            raise ConfigError(f"curve in '{field}' does not share the model grid")
        return curve
    raise ConfigError(f"unrecognized curve spec in '{field}': {spec!r}")


def _build_weight(spec) -> ratefn.WeightDensity:
    if spec is None:
        spec = {"gaussian": {"mean": 0.0, "sd": 1.0}}
    if isinstance(spec, dict) and isinstance(spec.get("gaussian"), dict):
        params = spec["gaussian"]
        return _checked(
            ("weight",), "rate", ratefn.WeightDensity.gaussian,
            _convert(float, params.get("mean", 0.0), "weight.gaussian.mean", "rate"),
            _convert(float, params.get("sd", 1.0), "weight.gaussian.sd", "rate"),
            _convert(float, spec.get("half_width", 8.0), "weight.half_width", "rate"),
            _convert(int, spec.get("nodes", 4001), "weight.nodes", "rate"),
        )
    raise ConfigError(f"unrecognized spec in field 'weight': {spec!r} (command 'rate')")


def _rate_model_at(model: simulate.LinearFactorModel, x: Curve, index) -> ratefn.RateModel:
    return ratefn.RateModel(
        simulate.induced_weight(model, x), index, UniformKernel(), IdentityScaling()
    )


def _run_rate(cfg: dict, out: str) -> list[str]:
    weight = _build_weight(cfg.get("weight"))
    index = _build_index(cfg.get("index"), "rate")
    model = ratefn.RateModel(weight, index, UniformKernel(), IdentityScaling())
    lam_values = _list_of(float, cfg, "lambda_values", "rate",
                          [0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0])
    lam1_values = _list_of(float, cfg, "lambda1_values", "rate", list(np.linspace(0.25, 4.0, 7)))
    ratio_values = _list_of(float, cfg, "ratio_values", "rate", list(np.linspace(-2.0, 2.0, 7)))
    pairs = [(l1, l1 * r) for l1 in lam1_values for r in ratio_values]
    r_true = ratefn.tilted_mean(model, 0.0)
    sweep_path = os.path.join(out, "rate_sweep.csv")
    conj_path = os.path.join(out, "rate_conjugate.csv")
    ratefn.write_ratio_sweep_csv(model, r_true, lam_values, sweep_path)
    ratefn.write_conjugate_sweep_csv(model, pairs, conj_path)
    return [sweep_path, conj_path]


def _run_estimate(cfg: dict, out: str, seed: int) -> list[str]:
    model = _build_model(_require(cfg, "model", "estimate"), "estimate")
    x0 = _build_curve(_require(cfg, "x0", "estimate"), model.grid, "x0", "estimate")
    index = _build_index(cfg.get("index"), "estimate")
    metric = _build_metric(cfg.get("metric"), "estimate")
    n = _require(cfg, "n", "estimate", int)
    configs = [
        _checked(("h_values",), "estimate", EstimatorConfig,
                 UniformKernel(), metric, h, model.small_ball_scale(h))
        for h in _list_of(float, cfg, "h_values", "estimate")
    ]
    data = _checked(("n",), "estimate", simulate.sample_dataset, model, n, seed)
    path = os.path.join(out, "estimate.csv")
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["h", "phi_h", "r_n1", "r_n2", "r_hat", "active_count"])
        for est_cfg in configs:
            z = z_n(x0, data, index, est_cfg)
            writer.writerow([
                repr(est_cfg.bandwidth), repr(est_cfg.phi_of_h), repr(z.r_n1), repr(z.r_n2),
                repr(z.r_hat), z.active_count,
            ])
    return [path]


def _schedule(params: dict, command: str) -> tuple[list[int], float, float]:
    """The ladder's ``n_values``, ``a`` and ``alpha``, checked by ``bandwidth_schedule``."""
    n_values = _list_of(int, params, "n_values", command)
    a = _require(params, "a", command, float)
    alpha = _require(params, "alpha", command, float)
    for n in n_values:
        _checked(("n_values", "a", "alpha"), command, simulate.bandwidth_schedule, n, a, alpha)
    return n_values, a, alpha


def _ladder_config(cfg: dict, x0: Curve, seed: int, command: str) -> simulate.LadderConfig:
    if isinstance(cfg.get("replicates"), list):
        replicates = tuple(_list_of(int, cfg, "replicates", command))
    else:
        replicates = _require(cfg, "replicates", command, int)
    n_values, a, alpha = _schedule(cfg, command)
    return _checked(
        ("n_values", "lambda", "replicates"), command, simulate.LadderConfig,
        tuple(n_values), a, alpha, _require(cfg, "lambda", command, float), x0, replicates, seed,
    )


def _run_simulate(cfg: dict, out: str, seed: int) -> list[str]:
    model = _build_model(_require(cfg, "model", "simulate"), "simulate")
    x0 = _build_curve(_require(cfg, "x0", "simulate"), model.grid, "x0", "simulate")
    index = _build_index(cfg.get("index"), "simulate")
    ladder_cfg = _ladder_config(cfg, x0, seed, "simulate")
    rate_model = _rate_model_at(model, x0, index)
    records = simulate.pointwise_ladder(model, rate_model, ladder_cfg)
    path = os.path.join(out, "ladder.csv")
    simulate.write_ladder_csv(records, path)
    return [path]


def _run_uniform(cfg: dict, out: str, seed: int) -> list[str]:
    model = _build_model(_require(cfg, "model", "uniform"), "uniform")
    center_specs = _require(cfg, "centers", "uniform")
    if not isinstance(center_specs, list) or not center_specs:
        raise ConfigError("field 'centers' must be a nonempty list (command 'uniform')")
    centers = [_build_curve(s, model.grid, "centers", "uniform") for s in center_specs]
    index = _build_index(cfg.get("index"), "uniform")
    ladder_cfg = _ladder_config(cfg, centers[0], seed, "uniform")
    rate_models = [_rate_model_at(model, x, index) for x in centers]
    records = simulate.uniform_ladder(model, centers, rate_models, ladder_cfg)
    path = os.path.join(out, "uniform_ladder.csv")
    simulate.write_ladder_csv(records, path)
    return [path]


def _build_class(spec, command: str) -> covering.FunctionClass:
    if not isinstance(spec, dict):
        raise ConfigError(f"field 'class' must be an object (command '{command}')")
    families = {"scale": (covering.scale_class, "a_lo", "a_hi"),
                "shift": (covering.shift_class, "t_lo", "t_hi")}
    for tag, (build, lo, hi) in families.items():
        if tag not in spec:
            continue
        params = spec[tag]
        if not isinstance(params, dict):
            raise ConfigError(f"field '{tag}' must be an object (command '{command}')")
        base = read_curve_csv(_require(params, "base_csv", command))
        count = _require(params, "count", command, int)
        if count < 2:
            raise ConfigError(f"field 'count' must be at least 2, got {count} "
                              f"(command '{command}')")
        return build(base, _require(params, lo, command, float),
                     _require(params, hi, command, float), count)
    if "explicit" in spec:
        members = [read_curve_csv(path) for path in spec["explicit"]]
        return covering.FunctionClass(tuple(members))
    raise ConfigError(f"unrecognized class spec {spec!r}")


def _cover_ladder(cfg: dict) -> list[tuple[int, float, float]]:
    """(n, h, phi_h) rows of the optional entropy ladder of a cover run."""
    if "ladder" not in cfg:
        return []
    params = cfg["ladder"]
    if not isinstance(params, dict):
        raise ConfigError("field 'ladder' must be an object (command 'cover')")
    n_values, a, alpha = _schedule(params, "cover")
    return [(n, *simulate.bandwidth_schedule(n, a, alpha)) for n in n_values]


def _cover_radii(cfg: dict) -> list[float]:
    """The configured radii, largest first; distinct, finite and positive."""
    nu_values = _list_of(float, cfg, "nu_values", "cover")
    if len(set(nu_values)) != len(nu_values) or not all(0 < nu < math.inf for nu in nu_values):
        raise ConfigError(f"field 'nu_values' must hold distinct finite positive radii, "
                          f"got {nu_values} (command 'cover')")
    return sorted(nu_values, reverse=True)


def _run_cover(cfg: dict, out: str) -> list[str]:
    cls = _build_class(_require(cfg, "class", "cover"), "cover")
    metric = _build_metric(cfg.get("metric", {"lp": 1.0}), "cover")
    ladder = _cover_ladder(cfg)
    if "nu_values" in cfg:
        nu_values = _cover_radii(cfg)
    else:
        # default coupling of the cover radius to the bandwidth schedule
        nu_values = sorted({covering.default_radius(h) for _, h, _ in ladder}, reverse=True)
    reports = [covering.greedy_cover(cls, nu, metric) for nu in nu_values]
    paths = []
    cover_path = os.path.join(out, "cover_report.csv")
    admissible = None
    if ladder:
        a_const = _convert(float, cfg.get("A", 1.0), "A", "cover")
        rows = covering.entropy_diagnostics(reports, ladder, a_const)
        entropy_path = os.path.join(out, "entropy_diagnostics.csv")
        covering.write_entropy_csv(rows, entropy_path)
        paths.append(entropy_path)
        by_nu = {}
        for row in rows:
            by_nu.setdefault(row["nu"], []).append(row["admissible"])
        admissible = [all(by_nu[r.nu]) for r in reports]
    covering.write_cover_csv(reports, cover_path, admissible)
    paths.insert(0, cover_path)
    return paths


def validate_config(cfg: dict) -> str:
    """Return the command name; raise ConfigError naming any bad field."""
    command = cfg.get("command")
    if command not in COMMANDS:
        raise ConfigError(
            f"missing or unrecognized field 'command' (must be one of {', '.join(COMMANDS)})"
        )
    if command in _STOCHASTIC and "seed" not in cfg:
        raise ConfigError(f"missing field 'seed' (command '{command}')")
    if command in ("simulate", "uniform"):
        for fieldname in ("model", "n_values", "a", "alpha", "lambda", "replicates"):
            if fieldname not in cfg:
                raise ConfigError(f"missing field '{fieldname}' (command '{command}')")
    if command == "simulate" and "x0" not in cfg:
        raise ConfigError("missing field 'x0' (command 'simulate')")
    if command == "uniform" and "centers" not in cfg:
        raise ConfigError("missing field 'centers' (command 'uniform')")
    if command == "estimate":
        for fieldname in ("model", "x0", "n", "h_values"):
            if fieldname not in cfg:
                raise ConfigError(f"missing field '{fieldname}' (command 'estimate')")
    if command == "cover":
        if "class" not in cfg:
            raise ConfigError("missing field 'class' (command 'cover')")
        if "nu_values" not in cfg and "ladder" not in cfg:
            raise ConfigError(
                "missing field 'nu_values' (command 'cover'; omit it only when a "
                "'ladder' supplies the default radius coupling)"
            )
    return command


def run(cfg: dict, out: str) -> list[str]:
    """Dispatch a validated config; returns the artifact paths written."""
    command = validate_config(cfg)
    os.makedirs(out, exist_ok=True)
    seed = _convert(int, cfg.get("seed", 0), "seed", command)
    started = time.time()
    if command == "rate":
        outputs = _run_rate(cfg, out)
    elif command == "estimate":
        outputs = _run_estimate(cfg, out, seed)
    elif command == "simulate":
        outputs = _run_simulate(cfg, out, seed)
    elif command == "uniform":
        outputs = _run_uniform(cfg, out, seed)
    else:
        outputs = _run_cover(cfg, out)
    manifest = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": round(time.time() - started, 3),
        "outputs": [os.path.basename(p) for p in outputs],
    }
    manifest_path = os.path.join(out, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return outputs + [manifest_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="funcldp",
        description="Rate-function sweeps, estimator runs, Monte-Carlo ladders "
        "and covering diagnostics from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--command", choices=COMMANDS, help="override the config command")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output directory (default: config 'out' or '.')")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config} line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return 2

    if args.command:
        cfg["command"] = args.command
    if args.seed is not None:
        cfg["seed"] = args.seed
    out = args.out or cfg.get("out", ".")

    try:
        outputs = run(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
