"""Positivity and lower-bound guards reject NaN like any other out-of-range value,
a NaN level raises in the rate layer instead of reading as a rate, every count the
library takes passes the one rule of ``funcdata.integer``, and malformed library
input that no CLI config reaches raises a ValueError that names the fault."""

import math

import numpy as np
import pytest

from funcldp import covering, estimator, funcdata, ratefn, simulate
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


def _log_mgf(replicates):
    cfg = estimator.EstimatorConfig(UniformKernel(), IntegralDifference(), 0.1, 0.2)
    model = simulate.default_model(GRID.points)
    return estimator.finite_n_log_mgf(
        Curve.constant(GRID, 0.0), lambda rng: simulate.sample_dataset(model, 20, rng),
        estimator.IdentityIndex(), cfg, 0.1, 0.1, replicates, 0)


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


def test_counts_are_stored_as_ints():
    assert type(Grid(0.0, 1.0, np.int64(5)).points) is int
    cfg = simulate.LadderConfig((np.int64(200), np.int32(500)), 1.5, 1.0, np.int64(1000), 0)
    assert [type(v) for v in cfg.n_values + cfg.replicates] == [int] * 4


OTHER_GRID = Grid(0.0, 1.0, 5)
WIDE_GRID = Grid(0.0, 10.0, 3)
STEP_DATA = estimator.Dataset(GRID, np.zeros((2, GRID.points)), [0.0, 1.0])
STEP_CFG = estimator.EstimatorConfig(UniformKernel(), IntegralDifference(), 0.1, 0.2)
GRID_ENDS = "grid needs t_min < t_max, finite and a finite width apart"
MALFORMED = {
    "Grid.t_max.inf": (lambda: Grid(0.0, math.inf, 3), GRID_ENDS),
    "Grid.t_min.inf": (lambda: Grid(-math.inf, 0.0, 3), GRID_ENDS),
    # finite ends whose width overflows the float range
    "Grid.width": (lambda: Grid(-1e308, 1e308, 3), GRID_ENDS),
    "Curve.integral.inf_grid": (lambda: Curve.constant(Grid(0.0, math.inf, 3), 1.0).integral(),
                                GRID_ENDS),
    "WeightDensity.width": (lambda: ratefn.WeightDensity(-1e308, 1e308, [0.0, 1.0, 0.0]),
                            GRID_ENDS),
    "wilson_interval.hits_above_trials": (lambda: simulate.wilson_interval(12, 10),
                                          "hits must not exceed trials, got hits=12, trials=10"),
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
