import math

import pytest

from funcldp import ratefn, simulate
from funcldp.estimator import IdentityIndex, IntervalIndicator
from funcldp.funcdata import Curve, IdentityScaling, UniformKernel


@pytest.fixture(scope="session")
def gaussian_model() -> ratefn.RateModel:
    """Standard normal weight, identity index, unit uniform kernel."""
    return ratefn.gaussian_identity_model()


@pytest.fixture(scope="session")
def halfline_indicator_model() -> ratefn.RateModel:
    """Standard normal weight with the half-line indicator index.

    The node count is even so the indicator boundary at zero falls exactly
    midway between two grid nodes; the trapezoid mass of each half is then
    accurate to a few 1e-10, which the tight closed-form checks need.
    """
    weight = ratefn.WeightDensity.gaussian(0.0, 1.0, nodes=4000)
    return ratefn.RateModel(
        weight, IntervalIndicator(((0.0, math.inf),)), UniformKernel(), IdentityScaling()
    )


@pytest.fixture(scope="session")
def factor_model() -> simulate.LinearFactorModel:
    return simulate.default_model()


@pytest.fixture(scope="session")
def zero_curve(factor_model) -> Curve:
    return Curve.constant(factor_model.grid, 0.0)


@pytest.fixture(scope="session")
def induced_rate_model(factor_model, zero_curve) -> ratefn.RateModel:
    weight = simulate.induced_weight(factor_model, zero_curve)
    return ratefn.RateModel(weight, IdentityIndex(), UniformKernel(), IdentityScaling())
