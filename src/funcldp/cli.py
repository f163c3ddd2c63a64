"""Config-driven command line front end.

One JSON config file describes a run; the command dispatches to the
library, which returns records, and writes them as plot-ready CSV
artifacts through ``_write_csv``, plus a ``manifest.json`` that echoes
the config, seed, versions and CPU count so the run can be reproduced
exactly, for a ladder run each rung's draws and time, for a cover run
the member distances each radius evaluated and whether the class is
undersampled, and for a rate run the rows and time of its level sweep
and its conjugate grid, and the grid's distinct levels.  All outputs
stay inside the declared output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__, covering, ratefn, simulate
from .estimator import EstimatorConfig, IdentityIndex, IntervalIndicator, z_n
from .funcdata import (Curve, Grid, IdentityScaling, IntegralDifference, LpDistance,
                       UniformKernel, integer, read_curve_csv, real)

_STOCHASTIC = ("estimate", "simulate", "uniform")
_REQUIRED = object()  # default of a field that the config must give
_ENTROPY_FIELDS = ("nu", "n_cover", "nu_log_n", "n", "h", "phi_h", "log_n_over_speed",
                   "admissible")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _field(spec: dict, name: str, convert, default=_REQUIRED):
    """``convert(spec[name])``, with ``default`` in place of an absent field.

    A missing required field, and a ValueError, TypeError, OverflowError or
    OSError (an unreadable input file) raised by ``convert``, become a
    ConfigError naming ``name``; a ConfigError from a nested field passes
    through unchanged.
    """
    if name not in spec and default is _REQUIRED:
        raise ConfigError(f"missing field '{name}'")
    try:
        return convert(spec.get(name, default))
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        raise ConfigError(f"field '{name}': {exc}") from None


def _checked(fields: tuple[str, ...], build, *args):
    """``build(*args)`` for values that ``fields`` decide together; a ValueError names them."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"fields {', '.join(repr(f) for f in fields)}: {exc}") from None


def _cell(value):
    """One CSV cell: floats (NumPy ones too) by ``repr``, bools in lower case."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, bool):
        return str(value).lower()
    return value


def _write_csv(out: str, name: str, header, rows) -> str:
    """Write ``header`` and ``rows`` to ``out/name``; the only artifact writer."""
    path = os.path.join(out, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    return path


def _number(value) -> float:
    """A JSON number that passes ``funcdata.real``; bools and strings are not numbers."""
    return real(value, "the value")


def _integer(value, least: int = 0) -> int:
    """A JSON integer, or an integral float such as 500.0, that passes ``funcdata.integer``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return integer(value, "the value", least)


def _object(value, keys: tuple[str, ...] | None = None) -> dict:
    """A JSON object; given ``keys``, one that holds no other key."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    if keys is not None and not value.keys() <= set(keys):
        raise ValueError(f"unrecognized keys {sorted(set(value) - set(keys))}; reads {list(keys)}")
    return value


def _object_of(*keys: str):
    """Converter of an object that holds no key outside ``keys``."""
    return lambda value: _object(value, keys)


def _list_of(convert):
    """Converter of a nonempty list whose entries each pass ``convert``."""
    def convert_list(values) -> list:
        if not (isinstance(values, list) and values):
            raise TypeError(f"expected a nonempty list, got {values!r}")
        return [convert(v) for v in values]
    return convert_list


def _curve_csv(path) -> Curve:
    return read_curve_csv(os.fspath(path))


def _read_json(path) -> dict:
    with open(path) as fh:
        return _object(json.load(fh))


def _interval(pair) -> tuple[float, float]:
    """A [lo, hi] pair of an indicator index; null stands for an infinite end."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"'indicator' must be a list of [lo, hi] pairs, got {pair!r}")
    lo, hi = pair
    return (-math.inf if lo is None else _number(lo), math.inf if hi is None else _number(hi))


def _index(spec) -> IdentityIndex | IntervalIndicator:
    if spec in (None, "identity"):
        return IdentityIndex()
    if isinstance(spec, dict) and spec.keys() == {"indicator"}:
        return IntervalIndicator(tuple(_list_of(_interval)(spec["indicator"])))
    raise ValueError(f"unrecognized spec {spec!r}")


def _metric(spec):
    if spec in (None, "integral_diff"):
        return IntegralDifference()
    if isinstance(spec, dict) and spec.keys() == {"lp"}:
        return LpDistance(_number(spec["lp"]))
    raise ValueError(f"unrecognized spec {spec!r}")


def _law(spec):
    if "uniform" in _object(spec):
        params = _field(_object(spec, ("uniform",)), "uniform", _object_of("lo", "hi"))
        return simulate.UniformLaw(_field(params, "lo", _number), _field(params, "hi", _number))
    params = _field(_object(spec, ("normal",)), "normal", _object_of("mean", "sd"))
    return simulate.NormalLaw(_field(params, "mean", _number, 0.0),
                              _field(params, "sd", _number, 1.0))


def _model(spec) -> simulate.LinearFactorModel:
    if _object(spec).get("default"):
        _object(spec, ("default", "points"))
        return simulate.default_model(_field(spec, "points", _integer, 101))
    _object(spec, ("default", "signal_csv", "noise_csv", "y_law"))
    return simulate.LinearFactorModel(_field(spec, "signal_csv", _curve_csv),
                                      _field(spec, "noise_csv", _curve_csv),
                                      _field(spec, "y_law", _law, {"normal": {}}))


def _curve_on(grid: Grid):
    """Converter of a ``constant`` or ``csv`` curve spec on ``grid``."""
    def convert(spec) -> Curve:
        if isinstance(spec, dict) and spec.keys() == {"constant"}:
            return Curve.constant(grid, spec["constant"])
        if isinstance(spec, dict) and spec.keys() == {"csv"}:
            curve = _curve_csv(spec["csv"])
            if curve.grid != grid:
                raise ValueError("curve does not share the model grid")
            return curve
        raise ValueError(f"unrecognized curve spec {spec!r}")
    return convert


def _weight(spec) -> ratefn.WeightDensity:
    params = _field(_object(spec, ("gaussian", "nodes")), "gaussian", _object_of("mean", "sd"))
    return ratefn.WeightDensity.gaussian(
        _field(params, "mean", _number, 0.0), _field(params, "sd", _number, 1.0),
        nodes=_field(spec, "nodes", _integer, ratefn.WEIGHT_NODES))


def _run_rate(cfg: dict, out: str, seed: int) -> tuple[list[str], dict]:
    weight = _field(cfg, "weight", _weight, {"gaussian": {}})
    index = _field(cfg, "index", _index, None)
    model = _checked(("weight", "index"), ratefn.RateModel, weight, index, UniformKernel(),
                     IdentityScaling())
    numbers = _list_of(_number)
    lam_values = _field(cfg, "lambda_values", numbers,
                        [0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0])
    lam1_values = _field(cfg, "lambda1_values", numbers, np.linspace(0.25, 4.0, 7).tolist())
    ratio_values = _field(cfg, "ratio_values", numbers, np.linspace(-2.0, 2.0, 7).tolist())
    started = time.perf_counter()
    sweep = []
    for lam in lam_values:
        gamma = g1 = g2 = beta = math.nan  # a cell that fails numerically reads nan
        with contextlib.suppress(ratefn.NumericError, ratefn.RateDomainError):
            g1, g2 = ratefn.ratio_rate_derivatives(model, lam)
        with contextlib.suppress(ratefn.NumericError):
            beta = ratefn.two_sided_rate(model, lam) if lam > 0 else math.nan
        with contextlib.suppress(ratefn.NumericError):
            gamma = ratefn.ratio_rate_closed(model, lam)
        sweep.append((lam, gamma, g1, g2, beta))
    swept = time.perf_counter()
    pairs = [(l1, l1 * r) for l1 in lam1_values for r in ratio_values]
    rates, levels = ratefn.conjugate_rates(model, pairs)
    conjugate = []
    for (lam1, lam2), (num, closed) in zip(pairs, rates):
        both_finite = math.isfinite(num) and math.isfinite(closed)
        diff = abs(num - closed) if both_finite else 0.0 if num == closed else math.nan
        conjugate.append((lam1, lam2, num, closed, diff))
    phases = {"sweep": {"rows": len(sweep), "seconds": swept - started},
              "conjugate": {"rows": len(conjugate), "levels": levels,
                            "seconds": time.perf_counter() - swept}}
    return [
        _write_csv(out, "rate_sweep.csv",
                   ["lambda", "gamma", "gamma_prime", "gamma_second", "beta"], sweep),
        _write_csv(out, "rate_conjugate.csv",
                   ["lambda1", "lambda2", "gamma_legendre", "gamma_closed", "abs_diff"],
                   conjugate),
    ], {"phases": phases}


def _run_estimate(cfg: dict, out: str, seed: int) -> tuple[list[str], dict]:
    model = _field(cfg, "model", _model)
    x0 = _field(cfg, "x0", _curve_on(model.grid))
    index = _field(cfg, "index", _index, None)
    metric = _field(cfg, "metric", _metric, None)
    n = _field(cfg, "n", lambda n: _integer(n, 1))

    def estimator_config(h) -> EstimatorConfig:
        h = _number(h)
        return EstimatorConfig(UniformKernel(), metric, h, model.small_ball_scale(h))

    configs = _field(cfg, "h_values", _list_of(estimator_config))
    data = _checked(("n",), simulate.sample_dataset, model, n, seed)
    rows = [(c.bandwidth, c.phi_of_h, z.r_n1, z.r_n2, z.r_hat, z.active_count)
            for c, z in zip(configs, z_n(x0, data, index, configs))]
    return [_write_csv(out, "estimate.csv",
                       ["h", "phi_h", "r_n1", "r_n2", "r_hat", "active_count"], rows)], {}


def _replicates(value) -> int | tuple[int, ...]:
    """One replicate count for every rung, or a list of one per rung; each at least 1."""
    return tuple(_integer(r, 1) for r in value) if isinstance(value, list) else _integer(value, 1)


def _ladder_config(cfg: dict, seed: int) -> simulate.LadderConfig:
    return _checked(
        ("n_values", "alpha", "lambda", "replicates"), simulate.LadderConfig,
        tuple(_field(cfg, "n_values", _list_of(_integer))), _field(cfg, "alpha", _number),
        _field(cfg, "lambda", _number), _field(cfg, "replicates", _replicates), seed,
    )


def _ladder_outputs(out: str, name: str, records) -> tuple[list[str], dict]:
    """The ladder CSV, and the manifest's ``rungs``: each record's draws, time and throughput."""
    columns = [f.name for f in dataclasses.fields(simulate.ExperimentRecord)
               if f.name not in ("in_window_draws", "seconds")]
    path = _write_csv(out, name, columns, [[getattr(r, c) for c in columns] for r in records])
    rungs = [{"n": r.n, "replicates": r.replicates, "in_window_draws": r.in_window_draws,
              "seconds": r.seconds, "replicates_per_s": r.replicates / r.seconds} for r in records]
    return [path], {"rungs": rungs}


def _run_simulate(cfg: dict, out: str, seed: int) -> tuple[list[str], dict]:
    model = _field(cfg, "model", _model)
    x0 = _field(cfg, "x0", _curve_on(model.grid))
    index = _field(cfg, "index", _index, None)
    records = _checked(("model", "x0", "index"), simulate.pointwise_ladder, model, x0, index,
                       _ladder_config(cfg, seed))
    return _ladder_outputs(out, "ladder.csv", records)


def _run_uniform(cfg: dict, out: str, seed: int) -> tuple[list[str], dict]:
    model = _field(cfg, "model", _model)
    centers = _field(cfg, "centers", _list_of(_curve_on(model.grid)))
    index = _field(cfg, "index", _index, None)
    records = _checked(("model", "centers", "index"), simulate.uniform_ladder, model, centers,
                       index, _ladder_config(cfg, seed))
    return _ladder_outputs(out, "uniform_ladder.csv", records)


def _class(spec) -> covering.FunctionClass:
    families = {"scale": (covering.scale_class, "a_lo", "a_hi"),
                "shift": (covering.shift_class, "t_lo", "t_hi")}
    for tag, (build, lo, hi) in families.items():
        if tag in _object(spec):
            params = _field(_object(spec, (tag,)), tag, _object_of("base_csv", lo, hi, "count"))
            return build(_field(params, "base_csv", _curve_csv), _field(params, lo, _number),
                         _field(params, hi, _number),
                         _field(params, "count", lambda count: _integer(count, 2)))
    if "explicit" in spec:
        curves = _field(_object(spec, ("explicit",)), "explicit", _list_of(_curve_csv))
        if len({curve.grid for curve in curves}) > 1:
            raise ValueError("an explicit class needs all its curves on one grid")
        return covering.FunctionClass(curves[0].grid, [curve.values for curve in curves])
    raise ValueError(f"unrecognized spec {spec!r}")


def _cover_ladder(params) -> list[tuple[int, float, float]]:
    """(n, h, phi_h) rows of the optional entropy ladder of a cover run."""
    n_values = _field(_object(params, ("n_values", "a", "alpha")), "n_values", _list_of(_integer))
    a, alpha = _field(params, "a", _number), _field(params, "alpha", _number)
    return _checked(("n_values", "a", "alpha"),
                    lambda: [(n, *simulate.bandwidth_schedule(n, a, alpha)) for n in n_values])


def _radii(values) -> list[float]:
    """The configured radii, largest first; distinct and positive."""
    nu_values = _list_of(_number)(values)
    if len(set(nu_values)) != len(nu_values) or not all(nu > 0 for nu in nu_values):
        raise ValueError(f"must hold distinct finite positive radii, got {nu_values}")
    return sorted(nu_values, reverse=True)


def _run_cover(cfg: dict, out: str, seed: int) -> tuple[list[str], dict]:
    ladder = _field(cfg, "ladder", _cover_ladder) if "ladder" in cfg else []
    if "nu_values" in cfg or not ladder:
        nu_values = _field(cfg, "nu_values", _radii)
    else:
        # default coupling of the cover radius to the bandwidth schedule
        nu_values = sorted({covering.default_radius(h) for _, h, _ in ladder}, reverse=True)
    cls = _field(cfg, "class", _class)
    metric = _field(cfg, "metric", _metric, {"lp": 1.0})
    a_const = _field(cfg, "A", _number, 1.0)
    reports = [covering.greedy_cover(cls, nu, metric) for nu in nu_values]
    entropy = covering.entropy_diagnostics(reports, ladder, a_const)
    # a radius is admissible when it is so at every rung; no ladder, no flag
    rows = [(r.nu, r.n_cover, r.nu_log_n,
             all(row["admissible"] for row in entropy if row["nu"] == r.nu) if ladder else "")
            for r in reports]
    paths = [_write_csv(out, "cover_report.csv",
                        ["nu", "n_cover", "nu_log_n", "admissible_flag"], rows)]
    if ladder:
        paths.append(_write_csv(out, "entropy_diagnostics.csv", _ENTROPY_FIELDS,
                                [[row[f] for f in _ENTROPY_FIELDS] for row in entropy]))
    covers = [{"nu": r.nu, "n_cover": r.n_cover, "distance_rows": r.distance_rows}
              for r in reports]
    return paths, {"covers": covers, "undersampled": cls.undersampled}


# Each runner returns the artifact paths it wrote and the fields it adds
# to the manifest (the ladders' per-rung stats, the cover command's
# per-radius counters, the rate command's per-phase counters and times).
_RUNNERS = {"rate": _run_rate, "estimate": _run_estimate, "simulate": _run_simulate,
            "uniform": _run_uniform, "cover": _run_cover}
COMMANDS = tuple(_RUNNERS)


def run(cfg: dict, out: str) -> list[str]:
    """Run the config's command and return the artifact paths it wrote."""
    command = cfg.get("command")
    if command not in COMMANDS:
        raise ConfigError(
            f"missing or unrecognized field 'command' (must be one of {', '.join(COMMANDS)})"
        )
    os.makedirs(out, exist_ok=True)
    started = time.perf_counter()
    try:
        seed = _field(cfg, "seed", _integer, _REQUIRED if command in _STOCHASTIC else 0)
        outputs, record = _RUNNERS[command](cfg, out, seed)
    except ConfigError as exc:
        raise ConfigError(f"{exc} (command '{command}')") from None
    manifest = {
        "command": command,
        "config": cfg,
        "seed": seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "wall_time_s": round(time.perf_counter() - started, 3),
        "outputs": [os.path.basename(p) for p in outputs],
        **record,
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
        cfg = _field(vars(args), "config", _read_json)
        if args.command:
            cfg["command"] = args.command
        if args.seed is not None:
            cfg["seed"] = args.seed
        outputs = run(cfg, args.out or _field(cfg, "out", os.fspath, "."))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ratefn.NumericError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
