"""Positivity and lower-bound guards reject NaN like any other out-of-range value,
a NaN level raises in the rate layer instead of reading as a rate, every count the
library takes passes the one rule of ``funcdata.integer`` and every real parameter
the one rule of ``funcdata.real``, and malformed library input that no CLI config
reaches raises a ValueError that names the fault."""

import math
import re

import numpy as np
import pytest

from funcldp import cli, covering, estimator, funcdata, ratefn, simulate
from funcldp.funcdata import (Curve, Grid, IdentityScaling, IntegralDifference, LpDistance,
                              UniformKernel)

NAN = math.nan
GRID = Grid(0.0, 1.0, 11)
MODEL = ratefn.RateModel(ratefn.WeightDensity.gaussian(nodes=401), estimator.IdentityIndex(),
                         UniformKernel(), IdentityScaling())


def _cover_nan():
    cls = covering.FunctionClass(GRID, np.outer([0.0, 1.0], np.ones(GRID.points)))
    covering.greedy_cover(cls, NAN, LpDistance(1.0))


def _ladder_lam_nan():
    simulate.LadderConfig((200,), 1.5, NAN, 1000, 0)


def _log_mgf_replicates_nan():
    cfg = estimator.EstimatorConfig(UniformKernel(), IntegralDifference(), 0.1, 0.2)
    estimator.finite_n_log_mgf(Curve.constant(GRID, 0.0), None, estimator.IdentityIndex(),
                               cfg, 0.0, 0.0, NAN, 0)


ENTRY_POINTS = {
    "Grid.points": lambda: Grid(0.0, 1.0, NAN),
    "LpDistance.p": lambda: LpDistance(NAN),
    "kernel.scale": lambda: UniformKernel(scale=NAN),
    "PowerScaling.alpha": lambda: funcdata.PowerScaling(NAN),
    "EstimatorConfig.bandwidth": lambda: estimator.EstimatorConfig(
        UniformKernel(), IntegralDifference(), NAN, 1.0),
    "EstimatorConfig.phi_of_h": lambda: estimator.EstimatorConfig(
        UniformKernel(), IntegralDifference(), 0.1, NAN),
    "finite_n_log_mgf.replicates": _log_mgf_replicates_nan,
    "WeightDensity.gaussian.sd": lambda: ratefn.WeightDensity.gaussian(0.0, NAN),
    "two_sided_rate.lam": lambda: ratefn.two_sided_rate(MODEL, NAN),
    "NormalLaw.sd": lambda: simulate.NormalLaw(0.0, NAN),
    "sample_dataset.n": lambda: simulate.sample_dataset(simulate.default_model(11), NAN, 0),
    "small_ball_probe.radius": lambda: simulate.small_ball_probe(
        simulate.default_model(11), Curve.constant(GRID, 0.0), 0.0, NAN, 10, 0),
    "small_ball_probe.replicates": lambda: simulate.small_ball_probe(
        simulate.default_model(11), Curve.constant(GRID, 0.0), 0.0, 0.1, NAN, 0),
    "bandwidth_schedule.n": lambda: simulate.bandwidth_schedule(NAN, 1.0, 1.5),
    "bandwidth_schedule.a": lambda: simulate.bandwidth_schedule(200, NAN, 1.5),
    "bandwidth_schedule.alpha": lambda: simulate.bandwidth_schedule(200, 1.0, NAN),
    "LadderConfig.lam": _ladder_lam_nan,
    "LadderConfig.alpha": lambda: simulate.LadderConfig((200,), NAN, 1.0, 1000, 0),
    "wilson_interval.trials": lambda: simulate.wilson_interval(0, NAN),
    "scale_class.count": lambda: covering.scale_class(Curve.constant(GRID, 1.0), 1.0, 2.0, NAN),
    "greedy_cover.nu": _cover_nan,
    "FunctionClass.rows": lambda: covering.FunctionClass(
        GRID, np.append(np.zeros(GRID.points - 1), NAN)[np.newaxis]),
    "Dataset.factors": lambda: estimator.Dataset(
        GRID, funcdata.FactorRows(np.array([[NAN, 1.0]]), np.ones((2, GRID.points))), [0.0]),
    "FunctionClass.width": lambda: covering.FunctionClass(GRID, np.zeros((2, GRID.points + 1))),
    "ratio_rate.lam": lambda: ratefn.ratio_rate(MODEL, NAN),
    "ratio_rate_closed.lam": lambda: ratefn.ratio_rate_closed(MODEL, NAN),
    "legendre_rate.lam2": lambda: ratefn.legendre_rate(MODEL, 1.0, NAN),
    "closed_rate_uniform.lam1": lambda: ratefn.closed_rate_uniform(MODEL, NAN, 0.0),
    "indicator_rate.lam2": lambda: ratefn.indicator_rate(ratefn.RateModel(
        MODEL.weight, estimator.IntervalIndicator(((0.0, math.inf),)), UniformKernel(),
        funcdata.IdentityScaling()), 1.0, NAN),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_nan_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def _log_mgf(replicates, seed=0):
    cfg = estimator.EstimatorConfig(UniformKernel(), IntegralDifference(), 0.1, 0.2)
    model = simulate.default_model(GRID.points)
    return estimator.finite_n_log_mgf(
        Curve.constant(GRID, 0.0), lambda rng: simulate.sample_dataset(model, 20, rng),
        estimator.IdentityIndex(), cfg, 0.1, 0.1, replicates, seed)


def _probe(seed):
    return simulate.small_ball_probe(simulate.default_model(11), Curve.constant(GRID, 0.0),
                                     0.0, 0.1, 10, seed)


BUMP = Curve(GRID, np.maximum(0.0, 1.0 - np.abs(GRID.nodes() - 0.5) / 0.2))
# Every count the library takes: (call with the count, parameter name, least value, a
# value that passes).
COUNTS = {
    "Grid.points": (lambda v: Grid(0.0, 1.0, v), "points", 2, 2),
    "sample_dataset.n": (lambda v: simulate.sample_dataset(simulate.default_model(11), v, 0),
                         "n", 1, 3),
    "small_ball_probe.replicates": (lambda v: simulate.small_ball_probe(
        simulate.default_model(11), Curve.constant(GRID, 0.0), 0.0, 0.1, v, 0),
        "replicates", 1, 10),
    "LadderConfig.n_values": (lambda v: simulate.LadderConfig((v, 500), 1.5, 1.0, 1000, 0),
                              "n_values", 1, 200),
    "LadderConfig.replicates": (lambda v: simulate.LadderConfig(
        (200, 500), 1.5, 1.0, (1000, v), 0), "replicates", 1, 1),
    "wilson_interval.trials": (lambda v: simulate.wilson_interval(1, v), "trials", 1, 2),
    "wilson_interval.hits": (lambda v: simulate.wilson_interval(v, 10), "hits", 0, 3),
    "scale_class.count": (lambda v: covering.scale_class(BUMP, 1.0, 2.0, v), "count", 2, 2),
    "shift_class.count": (lambda v: covering.shift_class(BUMP, 0.0, 0.1, v), "count", 2, 3),
    "finite_n_log_mgf.replicates": (_log_mgf, "replicates", 1, 2),
    "bandwidth_schedule.n": (lambda v: simulate.bandwidth_schedule(v, 1.0, 1.5), "n", 16, 200),
    "LadderConfig.seed": (lambda v: simulate.LadderConfig((200,), 1.5, 1.0, 1000, v),
                          "seed", 0, 7),
    "finite_n_log_mgf.seed": (lambda v: _log_mgf(2, v), "seed", 0, 3),
    "small_ball_probe.seed": (_probe, "seed", 0, 7),
}
# Only Python and NumPy integers, bools excepted, pass; an integral float does not.
NOT_COUNTS = {"fraction": lambda least: 2.5, "bool": lambda least: True,
              "string": lambda least: "3", "nan": lambda least: NAN,
              "none": lambda least: None, "below-least": lambda least: least - 1,
              "integral-float": lambda least: float(least)}


@pytest.mark.parametrize("bad", NOT_COUNTS.values(), ids=NOT_COUNTS.keys())
@pytest.mark.parametrize("call, name, least, _", COUNTS.values(), ids=COUNTS.keys())
def test_count_rule_rejects_non_integers(call, name, least, _, bad):
    value = bad(least)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {least}, got ") as exc:
        call(value)
    assert str(exc.value).endswith(repr(value))


@pytest.mark.parametrize("call, _, __, valid", COUNTS.values(), ids=COUNTS.keys())
def test_count_rule_accepts_numpy_integers(call, _, __, valid):
    call(np.int64(valid))


@pytest.mark.parametrize("call", [lambda v: _log_mgf(2, v), _probe], ids=["log_mgf", "probe"])
def test_numpy_seed_keeps_the_stream(call):
    assert call(np.int64(3)) == call(3)


def test_counts_are_stored_as_ints():
    assert type(Grid(0.0, 1.0, np.int64(5)).points) is int
    cfg = simulate.LadderConfig((np.int64(200), np.int32(500)), 1.5, 1.0, np.int64(1000),
                                np.int64(0))
    assert [type(v) for v in cfg.n_values + cfg.replicates + (cfg.seed,)] == [int] * 5


TWO_MEMBERS = covering.FunctionClass(GRID, np.outer([0.0, 1.0], np.ones(GRID.points)))
# Every real parameter the library takes: (call with the value, parameter name, the
# bound it must exceed or None, a value that passes).
REALS = {
    "Grid.t_min": (lambda v: Grid(v, 1.0, 3), "t_min", None, 0.0),
    "Grid.t_max": (lambda v: Grid(0.0, v, 3), "t_max", None, 1.0),
    "Curve.constant.value": (lambda v: Curve.constant(GRID, v), "value", None, 1.0),
    "LpDistance.p": (LpDistance, "p", None, 2.0),
    "kernel.scale": (lambda v: UniformKernel(scale=v), "scale", 0, 1.0),
    "PowerScaling.alpha": (funcdata.PowerScaling, "alpha", 0, 1.5),
    "EstimatorConfig.bandwidth": (lambda v: estimator.EstimatorConfig(
        UniformKernel(), IntegralDifference(), v, 1.0), "bandwidth", 0, 0.1),
    "EstimatorConfig.phi_of_h": (lambda v: estimator.EstimatorConfig(
        UniformKernel(), IntegralDifference(), 0.1, v), "phi_of_h", 0, 0.2),
    "WeightDensity.gaussian.mean": (lambda v: ratefn.WeightDensity.gaussian(v, 1.0, nodes=41),
                                    "mean", None, 0.0),
    "WeightDensity.gaussian.sd": (lambda v: ratefn.WeightDensity.gaussian(0.0, v, nodes=41),
                                  "sd", 0, 1.0),
    "two_sided_rate.lam": (lambda v: ratefn.two_sided_rate(MODEL, v), "lam", 0, 0.5),
    "NormalLaw.mean": (lambda v: simulate.NormalLaw(v, 1.0), "mean", None, 0.0),
    "NormalLaw.sd": (lambda v: simulate.NormalLaw(0.0, v), "sd", 0, 1.0),
    "UniformLaw.lo": (lambda v: simulate.UniformLaw(v, 1.0), "lo", None, 0.0),
    "UniformLaw.hi": (lambda v: simulate.UniformLaw(0.0, v), "hi", None, 1.0),
    "small_ball_probe.v": (lambda v: simulate.small_ball_probe(
        simulate.default_model(11), Curve.constant(GRID, 0.0), v, 0.1, 10, 0), "v", None, 0.0),
    "small_ball_probe.radius": (lambda v: simulate.small_ball_probe(
        simulate.default_model(11), Curve.constant(GRID, 0.0), 0.0, v, 10, 0), "radius", 0, 0.1),
    "bandwidth_schedule.a": (lambda v: simulate.bandwidth_schedule(200, v, 1.5), "a", 0, 1.0),
    "bandwidth_schedule.alpha": (lambda v: simulate.bandwidth_schedule(200, 1.0, v),
                                 "alpha", 1, 1.5),
    "LadderConfig.alpha": (lambda v: simulate.LadderConfig((200,), v, 1.0, 1000, 0),
                           "alpha", 1, 1.5),
    "LadderConfig.lam": (lambda v: simulate.LadderConfig((200,), 1.5, v, 1000, 0), "lam", 0, 1.0),
    "greedy_cover.nu": (lambda v: covering.greedy_cover(TWO_MEMBERS, v, LpDistance(1.0)),
                        "nu", 0, 0.5),
    "scale_class.a_lo": (lambda v: covering.scale_class(BUMP, v, 2.0, 3), "a_lo", None, 1.0),
    "scale_class.a_hi": (lambda v: covering.scale_class(BUMP, 1.0, v, 3), "a_hi", None, 2.0),
    "shift_class.t_lo": (lambda v: covering.shift_class(BUMP, v, 0.1, 3), "t_lo", None, 0.0),
    "shift_class.t_hi": (lambda v: covering.shift_class(BUMP, 0.0, v, 3), "t_hi", None, 0.1),
    "entropy_diagnostics.a_const": (lambda v: covering.entropy_diagnostics([], [], v),
                                    "a_const", None, 1.0),
    "cli._number": (cli._number, "the value", None, 1.0),
}
# Only finite Python and NumPy reals, bools excepted, pass.
NOT_REALS = {"string": "1", "none": None, "bool": True, "nan": NAN, "inf": math.inf,
             "-inf": -math.inf, "int-past-float": 10**400}


def _rejects(call, name, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a finite real") as exc:
        call(value)
    assert str(exc.value).endswith(repr(value))


@pytest.mark.parametrize("bad", NOT_REALS.values(), ids=NOT_REALS.keys())
@pytest.mark.parametrize("call, name, _, __", REALS.values(), ids=REALS.keys())
def test_real_rule_rejects_non_finite_reals(call, name, _, __, bad):
    _rejects(call, name, bad)


BOUNDED = {key: entry for key, entry in REALS.items() if entry[2] is not None}


@pytest.mark.parametrize("call, name, above, _", BOUNDED.values(), ids=BOUNDED.keys())
def test_real_rule_rejects_the_bound(call, name, above, _):
    _rejects(call, name, above)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("call, _, __, valid", REALS.values(), ids=REALS.keys())
def test_real_rule_accepts_numpy_floats(call, _, __, valid, dtype):
    call(dtype(valid))


OTHER_GRID = Grid(0.0, 1.0, 5)
WIDE_GRID = Grid(0.0, 10.0, 3)
STEP_DATA = estimator.Dataset(GRID, np.zeros((2, GRID.points)), [0.0, 1.0])
STEP_CFG = estimator.EstimatorConfig(UniformKernel(), IntegralDifference(), 0.1, 0.2)
GRID_ENDS = "grid needs t_min < t_max, finite and a finite width apart"
MALFORMED = {
    "Grid.t_max.inf": (lambda: Grid(0.0, math.inf, 3), "^t_max must be a finite real, got inf$"),
    "Grid.t_min.inf": (lambda: Grid(-math.inf, 0.0, 3), "^t_min must be a finite real, got -inf$"),
    # an integer end past the float range, which float() cannot convert
    "Grid.t_max.past_float": (lambda: Grid(0, 10**400, 3), "^t_max must be a finite real, got 1"),
    # finite ends whose width overflows the float range
    "Grid.width": (lambda: Grid(-1e308, 1e308, 3), GRID_ENDS),
    "Curve.integral.inf_grid": (lambda: Curve.constant(Grid(0.0, math.inf, 3), 1.0).integral(),
                                "^t_max must be a finite real, got inf$"),
    "WeightDensity.width": (lambda: ratefn.WeightDensity(-1e308, 1e308, [0.0, 1.0, 0.0]),
                            GRID_ENDS),
    "wilson_interval.hits_above_trials": (lambda: simulate.wilson_interval(12, 10),
                                          "hits must not exceed trials, got hits=12, trials=10"),
    # counts past NumPy's 64-bit limit fail at the count rule, not inside float() or NumPy
    "wilson_interval.trials.past_int64": (lambda: simulate.wilson_interval(0, 10**400),
                                          "^trials must fit in a 64-bit integer, got 1"),
    "sample_dataset.n.past_int64": (lambda: simulate.sample_dataset(
        simulate.default_model(11), 10**30, 0), "^n must fit in a 64-bit integer, got 1"),
    # a NaN tilt is not an overflow; an infinite tilt still reaches the overflow sentinel
    "finite_n_log_mgf.t1.nan": (lambda: estimator.finite_n_log_mgf(
        Curve.constant(GRID, 0.0), lambda rng: simulate.sample_dataset(
            simulate.default_model(GRID.points), 20, rng), estimator.IdentityIndex(), STEP_CFG,
        NAN, 0.1, 2, 0), "^tilts t1 and t2 must not be NaN, got t1=nan, t2=0.1$"),
    "shift_class.count": (lambda: covering.shift_class(Curve.constant(GRID, 1.0), 0.0, 0.1, 1),
                          "count must be an integer >= 2"),
    "Dataset.y": (lambda: estimator.Dataset(GRID, np.zeros((2, GRID.points)), [0.0]),
                  "y must have length 2"),
    "z_n.x": (lambda: estimator.z_n(Curve.constant(OTHER_GRID, 0.0), STEP_DATA,
                                    estimator.IdentityIndex(), [STEP_CFG]), "different grids"),
    "WeightDensity.mass": (lambda: ratefn.WeightDensity(0.0, 1.0, np.zeros(5)),
                           "positive mass"),
    "RateModel.index.inf": (lambda: ratefn.RateModel(
        MODEL.weight, lambda v: np.full(v.shape, math.inf), UniformKernel(),
        funcdata.IdentityScaling()), "finite values"),
    "RateModel.index.shape": (lambda: ratefn.RateModel(
        MODEL.weight, lambda v: v[1:], UniformKernel(), funcdata.IdentityScaling()),
        "finite values"),
    # an sd of 1e200 squares l past the float range in the third moment row
    "RateModel.moment_rows": (lambda: ratefn.RateModel(
        ratefn.WeightDensity.gaussian(0.0, 1e200), estimator.IdentityIndex(), UniformKernel(),
        IdentityScaling()), "finite sums"),
    # every entry of q l^2 is finite, but their sum over a mass-2 weight is not
    "RateModel.moment_row_sum": (lambda: ratefn.RateModel(
        ratefn.WeightDensity.from_function(lambda v: 2.0 * ratefn.normal_pdf(v, 0.0, 1.0),
                                           -8.0, 8.0),
        estimator.LipschitzIndex(lambda v: np.full_like(v, 1.3e154)), UniformKernel(),
        IdentityScaling()), "finite sums"),
    # finite values whose trapezoid integral over a width-10 window overflows
    "LinearFactorModel.signal_integral": (lambda: simulate.LinearFactorModel(
        Curve(WIDE_GRID, np.full(3, 1e308)), Curve.constant(WIDE_GRID, 1.0),
        simulate.NormalLaw(0.0, 1.0)), "signal curve integral"),
    "uniform_ladder.class_grid": (lambda: simulate.uniform_ladder(
        simulate.default_model(11), [], estimator.IdentityIndex(),
        simulate.LadderConfig((200,), 1.5, 1.0, 1000, 0)), "nonempty class grid"),
}


@pytest.mark.parametrize("call, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
