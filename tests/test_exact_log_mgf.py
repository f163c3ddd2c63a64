"""Both finite-n log-MGF routes against the exact finite-n value.

On the default model at x0 = 0 the finite-n scaled log-MGF has the exact
value log(1 + q_t) / phi(h), and ``perfbench/oracle.py`` scores an
estimate against it with the error from the exact second moment.  The
oracle module calls nothing from funcldp and is loaded by path.  The
|z| <= 5 bound was set after the scores of these seeds were seen (all
within 0.7).
"""

import importlib.util
import pathlib

import pytest

from funcldp import simulate
from funcldp.estimator import EstimatorConfig, IdentityIndex, finite_n_log_mgf
from funcldp.funcdata import Curve, IntegralDifference, UniformKernel
from log_mgf_routes import window_log_mgf

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_T = (0.2, 0.1)


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def model():
    return simulate.default_model(51)


def test_generic_route_at_the_first_rung(oracle, model):
    n, replicates = 500, 500
    h, _ = simulate.bandwidth_schedule(n, 2.0, 1.5)
    cfg = EstimatorConfig(UniformKernel(), IntegralDifference(), h, model.small_ball_scale(h))
    out = finite_n_log_mgf(
        Curve.constant(model.grid, 0.0),
        lambda rng: simulate.sample_dataset(model, n, int(rng.integers(2**62))),
        IdentityIndex(), cfg, *_T, replicates, seed=3,
    )
    assert not out.overflow
    assert abs(oracle.log_mgf_z(out.value, n, h, *_T, 0.0, replicates)) <= 5.0


@pytest.mark.parametrize("n, replicates", [(500, 500), (2000, 3000), (8000, 16000)])
def test_window_sums_at_each_rung(oracle, model, n, replicates):
    h, _ = simulate.bandwidth_schedule(n, 2.0, 1.5)
    value = window_log_mgf(model, Curve.constant(model.grid, 0.0), n, h, *_T, replicates, seed=3)
    assert abs(oracle.log_mgf_z(value, n, h, *_T, 0.0, replicates)) <= 5.0
