"""Positivity and lower-bound guards reject NaN like any other out-of-range value,
a NaN level raises in the rate layer instead of reading as a rate, and malformed
library input that no CLI config reaches raises a ValueError that names the fault."""

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


OTHER_GRID = Grid(0.0, 1.0, 5)
WIDE_GRID = Grid(0.0, 10.0, 3)
STEP_DATA = estimator.Dataset(GRID, np.zeros((2, GRID.points)), [0.0, 1.0])
STEP_CFG = estimator.EstimatorConfig(UniformKernel(), IntegralDifference(), 0.1, 0.2)
MALFORMED = {
    "shift_class.count": (lambda: covering.shift_class(Curve.constant(GRID, 1.0), 0.0, 0.1, 1),
                          "at least 2 members"),
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
