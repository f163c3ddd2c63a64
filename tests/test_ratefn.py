import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from funcldp import ratefn
from funcldp.cli import run
from funcldp.estimator import IdentityIndex, IntervalIndicator, LipschitzIndex
from funcldp.funcdata import (
    AffineKernel,
    ExpDecayKernel,
    IdentityScaling,
    PowerScaling,
    UniformKernel,
    quadrature,
)
from funcldp.ratefn import (
    NumericError,
    RateDomainError,
    RateModel,
    WeightDensity,
    class_rate,
    closed_rate_uniform,
    conjugate_rates,
    gaussian_identity_model,
    indicator_rate,
    legendre_rate,
    log_mgf_gradient,
    log_mgf_limit,
    ratio_rate,
    ratio_rate_closed,
    ratio_rate_derivatives,
    ratio_rate_quadratic,
    tilted_mean,
    tilted_mean_inverse,
    tilted_mean_range,
    two_sided_rate,
)
from kernel_calculus import (conjugate_stationary_point, kernel_prime, tau, tau_inverse,
                             tilted_kernel_moment)


def gaussian_pair_rate(lam1: float, lam2: float) -> float:
    """Conjugate of exp(t1 + t2^2/2) - 1: from Gaussian moment identities."""
    return lam1 * math.log(lam1) - lam1 + lam2 * lam2 / (2 * lam1) + 1.0


def gaussian_ratio_rate(lam: float) -> float:
    return 1.0 - math.exp(-0.5 * lam * lam)


def contraction_ratio_rate(model: RateModel, lam: float) -> float:
    """Ratio rate by contraction: bounded Brent over log a of the pair rate along (a, lam a).

    The minimizing a is the tilted amplitude, below the weight mass; at
    |lam| <= 5 on a standard Gaussian weight it lies inside the log scan.
    """
    hi = math.log(model.weight.mass) + 1.0
    result = optimize.minimize_scalar(
        lambda z: legendre_rate(model, math.exp(z), lam * math.exp(z)),
        bounds=(-30.0, hi), method="bounded", options={"xatol": 1e-9},
    )
    assert -30.0 + 1e-3 < result.x < hi - 1e-3, f"minimizer at the scan edge, log a = {result.x}"
    return float(result.fun)


def _g_exp_decay(theta):
    """integral_0^1 (exp(theta e^-u) - 1) du = Ei(theta) - Ei(theta / e) - 1."""
    with np.errstate(invalid="ignore"):
        g = special.expi(theta) - special.expi(theta / math.e) - 1.0
    return np.where(theta == 0.0, 0.0, g)


def _g_affine(theta):
    """integral_0^1 (exp(theta (2 - u)) - 1) du = (e^{2 theta} - e^theta) / theta - 1."""
    with np.errstate(over="ignore"):
        return np.exp(theta) * special.exprel(theta) - 1.0


def _g_uniform(theta):
    with np.errstate(over="ignore"):
        return np.expm1(theta)


INNER_INTEGRAL = {ExpDecayKernel: _g_exp_decay, AffineKernel: _g_affine, UniformKernel: _g_uniform}


def closed_inner_ratio_rate(model: RateModel, lam: float, g=None) -> float:
    """-min_s Phi(-lam s, s) with the kernel integral ``g`` given apart, minimized by Brent.

    ``g`` defaults to the closed form of the model's kernel under tau(u) = u.
    """
    g = g or INNER_INTEGRAL[type(model.kernel)]
    w = model.weight

    def line(s):
        return quadrature(w.w * g(s * (model.index(model.weight.nodes) - lam)), w.grid)

    start = 0.1 if lam >= 0 else -0.1
    return -float(optimize.minimize_scalar(line, bracket=(0.0, start), tol=1e-12).fun)


def cold_start_ratio_rate(model: RateModel, lam: float) -> float:
    """-min_s Phi(-lam s, s) by damped Newton from s = 0 on ``ratio_rate``'s line function.

    The same descent as ``ratio_rate`` without the uniform-kernel start, so
    the two differ only by where the descent begins.
    """
    ops = ratefn._TiltOps(model)
    d = np.array([-lam, 1.0])

    def local(s):
        value, grad, hess = ops.local(s[0] * d)
        return value, np.array([grad @ d]), np.array([[d @ hess @ d]])

    return 0.0 - ratefn._newton_minimize(local, np.zeros(1), f"the cold ratio rate at {lam}")[1]


def cold_start_legendre_rate(model: RateModel, lam1: float, lam2: float) -> float:
    """sup_t [lam . t - Phi(t)] by damped Newton from t = 0 on ``legendre_rate``'s objective.

    The same ascent as ``legendre_rate`` without the uniform-kernel start,
    so the two differ only by where the ascent begins.
    """
    ops = ratefn._TiltOps(model)
    lam = np.array([lam1, lam2])

    def local(t):
        value, grad, hess = ops.local(t)
        return value - float(lam @ t), grad - lam, hess

    return 0.0 - ratefn._newton_minimize(
        local, np.zeros(2), f"the cold conjugate at lam=({lam1}, {lam2})")[1]


def _trapezoid_log_mgf(model: RateModel, t1: float, t2: float, inner_values, u_nodes: int):
    """Weight integral of G(theta(v)), G by a trapezoid rule on [0, 1] in blocks of rows.

    ``inner_values(theta_column, x)`` gives the kernel-axis integrand at the
    grid x; overflow gives +inf and NaN raises ``NumericError``.
    """
    theta = t1 + t2 * model.index(model.weight.nodes)
    x = np.linspace(0.0, 1.0, u_nodes)
    w = model.weight.w
    g = np.empty_like(theta)
    chunk = max(1, (1 << 21) // u_nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, theta.shape[0], chunk):
            block = theta[start : start + chunk, np.newaxis]
            g[start : start + chunk] = integrate.trapezoid(inner_values(block, x), dx=x[1], axis=1)
        value = quadrature(np.where(w > 0, g * w, 0.0), model.weight.grid)
    if math.isnan(value):
        raise NumericError(f"NaN in log-MGF quadrature at t=({t1}, {t2})")
    return value


def kprime_log_mgf(model: RateModel, t1: float, t2: float, u_nodes: int = 2001) -> float:
    """Limit log-MGF in the K' form, by trapezoid rules on both axes:

        integral [exp(theta K(1)) - 1 - integral_0^1 theta K'(u) exp(theta K(u)) tau(u) du] w dv.

    Nodes where K' = 0 contribute 0, so a flat kernel never forms 0 * inf.
    """
    kernel, k1 = model.kernel, float(model.kernel.k(1.0))

    def values(theta, u):
        kp_u = kernel_prime(kernel, u)
        moving = np.where(kp_u != 0.0, theta * kp_u * np.exp(theta * kernel.k(u)), 0.0)
        return np.exp(theta * k1) - 1.0 - moving * tau(model.scaling, u)

    return _trapezoid_log_mgf(model, t1, t2, values, u_nodes)


def by_parts_log_mgf(model: RateModel, t1: float, t2: float, u_nodes: int = 2001) -> float:
    """Limit log-MGF in omega = tau(u), by trapezoid rules on both axes:

        integral integral_0^1 (exp(theta K(tau^-1(omega))) - 1) d omega w dv.
    """
    def values(theta, omega):
        return np.expm1(theta * model.kernel.k(tau_inverse(model.scaling, omega)))

    return _trapezoid_log_mgf(model, t1, t2, values, u_nodes)


def quad_kernel_integral(model: RateModel, fn) -> float:
    """integral_0^1 fn(K(u)) dtau(u) by adaptive quadrature with the algebraic weight of dtau."""
    alpha = getattr(model.scaling, "alpha", 1.0)
    value, _ = integrate.quad(lambda u: fn(float(model.kernel.k(u))), 0.0, 1.0, weight="alg",
                              wvar=(alpha - 1.0, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)
    return alpha * value


def quad_inner_integral(model: RateModel):
    """theta -> integral_0^1 (exp(theta K(u)) - 1) dtau(u), elementwise, by adaptive quadrature."""
    def g(theta):
        return np.array([quad_kernel_integral(model, lambda k, th=th: math.expm1(th * k))
                         for th in np.ravel(theta)]).reshape(np.shape(theta))

    return g


def quad_log_mgf(model: RateModel, t1: float, t2: float) -> float:
    """Limit log-MGF with each kernel-side integral by adaptive quadrature."""
    g = quad_inner_integral(model)(t1 + t2 * model.index(model.weight.nodes))
    return quadrature(g * model.weight.w, model.weight.grid)


def bisection_inverse(fn, y: float, tol: float = 1e-10) -> float:
    """Leftmost point where the nondecreasing ``fn`` reaches ``y``, by bisection.

    Brackets by doubling from [-1, 1], then bisects keeping the invariant
    fn(lo) < y <= fn(hi) until hi - lo <= tol; returns ``hi``.
    """
    lo, hi = -1.0, 1.0
    while fn(lo) >= y:
        lo, hi = 2.0 * lo, lo
    while fn(hi) < y:
        lo, hi = hi, 2.0 * hi if hi > 0 else 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) >= y:
            hi = mid
        else:
            lo = mid
    return hi


def integral_moments(model: RateModel, s: float) -> tuple[float, float, float]:
    """(log mass, mean, variance) of the tilted weight by ``WeightDensity.integral``.

    Runs over every node; a zero-weight node gets the exponent -inf, so it
    contributes 0 whatever s l is there.
    """
    w, l = model.weight.w, model.index(model.weight.nodes)
    e = np.where(w > 0, s * l, -np.inf)
    shift = float(np.max(e))
    tilted = np.exp(e - shift) * w
    t0, t1, t2 = (quadrature(tilted * l**j, model.weight.grid) for j in range(3))
    mean = t1 / t0
    return shift + math.log(t0), mean, max(t2 / t0 - mean**2, 0.0)


def integral_log_mgf(model: RateModel, t1: float, t2: float) -> float:
    """Limit log-MGF with the response side by ``WeightDensity.integral`` over every node.

    Zero-weight nodes are masked after the kernel side, so their overflow
    never reaches the sum; overflow elsewhere gives +inf.
    """
    k, weights = model._k, model._k_weights
    theta = t1 + t2 * model.index(model.weight.nodes)
    w = model.weight.w
    with np.errstate(over="ignore", invalid="ignore"):
        g = (np.exp(theta[:, np.newaxis] * k) - 1.0).dot(weights)
        return quadrature(np.where(w > 0, g * w, 0.0), model.weight.grid)


# Gaussian weights on 801 nodes: the contraction oracle runs a Newton
# ascent per Brent step, so the property tests keep the grid small.  The
# shifted weight breaks the symmetry Gamma(lam) = Gamma(-lam), which would
# hide a sign error in the line direction.
PROPERTY_MODELS = {
    name: RateModel(WeightDensity.gaussian(mean, 1.0, nodes=801), IdentityIndex(), kernel,
                    IdentityScaling())
    for name, mean, kernel in (
        ("exp_decay", 0.0, ExpDecayKernel()),
        ("affine", 0.0, AffineKernel()),
        ("uniform", 0.0, UniformKernel()),
        ("affine_shifted", 0.5, AffineKernel()),
    )
}
# The start-point sweep: the property models other than the unit uniform
# kernel, a power scaling, a scaled flat and a scaled decaying kernel, and
# the half-line indicator (800 nodes: its boundary falls midway between two nodes).
START_MODELS = {
    **{name: PROPERTY_MODELS[name] for name in ("exp_decay", "affine", "affine_shifted")},
    **{name: RateModel(WeightDensity.gaussian(nodes=801), IdentityIndex(), kernel, scaling)
       for name, kernel, scaling in (
           ("exp_decay_power2", ExpDecayKernel(), PowerScaling(2.0)),
           ("uniform_scale3", UniformKernel(3.0), IdentityScaling()),
           ("exp_decay_scale5", ExpDecayKernel(5.0), IdentityScaling()),
       )},
    "halfline_exp_decay": RateModel(WeightDensity.gaussian(0.0, 1.0, nodes=800),
                                    IntervalIndicator(((0.0, math.inf),)), ExpDecayKernel(),
                                    IdentityScaling()),
}


def start_sweep(model: RateModel) -> list[float]:
    """161 levels across the reachable range, 2e-6 clear of its ends."""
    rng = tilted_mean_range(model)
    return [float(y) for y in np.linspace(rng.v0 + 2e-6, rng.v1 - 2e-6, 161)]


def conjugate_sweep(model: RateModel) -> list[tuple[float, float]]:
    """(lam1, lam2) pairs: four masses lam1 times every eighth level of ``start_sweep``."""
    return [(lam1, lam1 * y) for lam1 in (0.05, 0.5, 2.0, 4.0) for y in start_sweep(model)[::8]]


@pytest.fixture
def local_calls(monkeypatch):
    """A counter of ``_TiltOps.local`` calls, so a cost guard cannot be flaky."""
    count = [0]
    inner = ratefn._TiltOps.local

    def counting(ops, t):
        count[0] += 1
        return inner(ops, t)

    monkeypatch.setattr(ratefn._TiltOps, "local", counting)
    return count


PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)
# The session fixtures' models; hypothesis tests take no function-scoped fixtures.
GAUSSIAN_MODEL = gaussian_identity_model()
HALFLINE_MODEL = RateModel(WeightDensity.gaussian(0.0, 1.0, nodes=4000),
                           IntervalIndicator(((0.0, math.inf),)), UniformKernel(),
                           IdentityScaling())
DUAL_MODELS = {"gaussian": GAUSSIAN_MODEL, "halfline": HALFLINE_MODEL}
# (1 - v^2)^3 on [-2, 2]: every node with |v| >= 1 has weight exactly 0, and
# at any tilt s != 0 a zero-weight end node carries the largest exponent s v.
ZERO_NODE_WEIGHT = WeightDensity.from_function(
    lambda v: np.clip(1.0 - v * v, 0.0, None) ** 3, -2.0, 2.0, nodes=801)


class TestWeightDensity:
    def test_gaussian_mass(self):
        assert WeightDensity.gaussian().mass == pytest.approx(1.0, abs=1e-12)

    def test_tail_validation(self):
        with pytest.raises(ValueError, match="tails"):
            WeightDensity.from_function(lambda v: ratefn.normal_pdf(v, 0.0, 1.0), -3.0, 3.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightDensity(-1.0, 1.0, np.array([0.0, -0.5, 0.0]))


class TestTiltedMean:
    def test_untilted_is_plain_mean(self, gaussian_model):
        assert tilted_mean(gaussian_model, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_mean_is_the_untilted_mean(self, gaussian_model, halfline_indicator_model):
        # the limit m that the model keeps is the tilted mean at tilt 0, bitwise, and read-only
        shifted = RateModel(WeightDensity.gaussian(0.3, 1.3, nodes=801), IdentityIndex(),
                            ExpDecayKernel(), IdentityScaling())
        for model in (gaussian_model, halfline_indicator_model, shifted):
            assert model.mean == tilted_mean(model, 0.0)
        with pytest.raises(AttributeError):
            gaussian_model.mean = 1.0

    def test_gaussian_tilt_identity(self, gaussian_model):
        # for a standard normal weight the tilted mean equals the tilt
        assert tilted_mean(gaussian_model, 0.5) == pytest.approx(0.5, abs=1e-8)

    def test_constant_index_collapses(self):
        weight = WeightDensity.gaussian()
        const = LipschitzIndex(lambda v: np.full_like(v, 2.5))
        model = RateModel(weight, const, UniformKernel(), IdentityScaling())
        for t in (-3.0, 0.0, 4.0):
            assert tilted_mean(model, t) == pytest.approx(2.5, abs=1e-12)
        rng = tilted_mean_range(model)
        assert rng.v0 == pytest.approx(2.5) and rng.v1 == pytest.approx(2.5)

    def test_monotone(self, gaussian_model):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t, s = sorted(rng.uniform(-10.0, 10.0, size=2))
            assert tilted_mean(gaussian_model, t) <= tilted_mean(gaussian_model, s) + 1e-12


class TestTiltedMeanInverse:
    def test_inverse_at_center(self, gaussian_model):
        assert tilted_mean_inverse(gaussian_model, tilted_mean(gaussian_model, 0.0)) == (
            pytest.approx(0.0, abs=1e-9)
        )

    def test_gaussian_identity(self, gaussian_model):
        assert tilted_mean_inverse(gaussian_model, 0.7) == pytest.approx(0.7, abs=1e-8)

    def test_roundtrip(self, gaussian_model):
        rng = tilted_mean_range(gaussian_model)
        for y in np.linspace(rng.v0 + 0.2, rng.v1 - 0.2, 25):
            s = tilted_mean_inverse(gaussian_model, float(y))
            assert abs(tilted_mean(gaussian_model, s) - y) < 1e-8

    def test_indicator_out_of_range(self, halfline_indicator_model):
        with pytest.raises(RateDomainError) as err:
            tilted_mean_inverse(halfline_indicator_model, 1.5)
        rng = tilted_mean_range(halfline_indicator_model)
        assert rng.v1 <= 1.0 and f"range ({rng.v0}, {rng.v1})" in str(err.value)


class TestNewtonDuals:
    """Every inverse is a Newton minimiser of a convex dual; bisection is the oracle."""

    @settings(PROPERTY_SETTINGS, max_examples=120)
    @given(name=st.sampled_from(sorted(DUAL_MODELS)), u=st.floats(0.0, 1.0))
    @example(name="halfline", u=0.0)
    @example(name="halfline", u=1.0)
    @example(name="gaussian", u=0.0)
    @example(name="gaussian", u=1.0)
    def test_tilted_mean_inverse_matches_bisection(self, name, u):
        model = DUAL_MODELS[name]
        rng = tilted_mean_range(model)
        y = rng.v0 + 1e-9 + u * (rng.v1 - rng.v0 - 2e-9)
        oracle = bisection_inverse(lambda t: integral_moments(model, t)[1], y)
        # no route resolves the tilt past the rounding level of the mean
        # divided by its slope, the tilted variance: 9e-7 at 1 - 1e-9 on the
        # half-line indicator, at most 1.3e-11 on the Gaussian
        floor = 4 * np.finfo(float).eps * abs(y) / integral_moments(model, oracle)[2]
        assert abs(tilted_mean_inverse(model, y) - oracle) <= 2e-10 + floor

    @settings(PROPERTY_SETTINGS, max_examples=80)
    @given(kernel=st.sampled_from(["exp_decay", "affine"]), alpha=st.sampled_from([1.0, 2.0]),
           log_y=st.floats(-25.0, 25.0))
    def test_kernel_moment_inverse_matches_bisection(self, kernel, alpha, log_y):
        model = RateModel(HALFLINE_MODEL.weight, HALFLINE_MODEL.index,
                          PROPERTY_MODELS[kernel].kernel, PowerScaling(alpha))
        y = math.exp(log_y)
        t, value = ratefn._kernel_dual(model, y)
        oracle = bisection_inverse(lambda r: tilted_kernel_moment(model, r), y)
        assert t == pytest.approx(oracle, abs=2e-10)
        mgf = quad_kernel_integral(model, lambda k: math.exp(oracle * k))
        assert value == pytest.approx(mgf - y * oracle, rel=1e-12)

    @settings(PROPERTY_SETTINGS, max_examples=40)
    @given(kernel=st.sampled_from(["exp_decay", "affine"]), lam1=st.floats(0.05, 5.0),
           u=st.floats(0.01, 0.99))
    def test_indicator_rate_matches_bisection_closed_form(self, kernel, lam1, u):
        # the displayed closed form with both inverses by bisection and the
        # kernel-side integrals by adaptive quadrature
        model = RateModel(HALFLINE_MODEL.weight, HALFLINE_MODEL.index,
                          PROPERTY_MODELS[kernel].kernel, IdentityScaling())
        lam2 = u * lam1
        w = model.weight
        mass_on = quadrature(model.index(model.weight.nodes) * w.w, w.grid)
        mass_off = w.mass - mass_on
        t_on = bisection_inverse(lambda t: tilted_kernel_moment(model, t), lam2 / mass_on)
        t_off = bisection_inverse(lambda t: tilted_kernel_moment(model, t),
                                  (lam1 - lam2) / mass_off)
        correction = sum(mass * quad_kernel_integral(model, lambda k, t=t: math.exp(t * k))
                         for mass, t in ((mass_on, t_on), (mass_off, t_off)))
        expected = (lam1 - lam2) * t_off + lam2 * t_on + w.mass - correction
        assert indicator_rate(model, lam1, lam2) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @settings(PROPERTY_SETTINGS, max_examples=120)
    @given(name=st.sampled_from(sorted(DUAL_MODELS)), u=st.floats(0.0, 1.0),
           lam1=st.floats(-5.0, 3.0).map(math.exp))
    def test_closed_rates_match_bisection_formulas(self, name, u, lam1):
        model = DUAL_MODELS[name]
        rng = tilted_mean_range(model)
        lam = rng.v0 + 2e-6 + u * (rng.v1 - rng.v0 - 4e-6)
        s = bisection_inverse(lambda t: integral_moments(model, t)[1], lam)
        log_mass = integral_moments(model, s)[0]
        mass = model.weight.mass
        assert ratio_rate_closed(model, lam) == pytest.approx(
            mass - math.exp(-lam * s + log_mass), rel=1e-12, abs=1e-14)
        assert closed_rate_uniform(model, lam1, lam1 * lam) == pytest.approx(
            lam1 * (math.log(lam1) - 1.0) + lam1 * lam * s - lam1 * log_mass + mass,
            rel=1e-12, abs=1e-14)


class TestNewtonStep:
    """The closed-form Newton step against a linear solve, and its failures."""

    def test_one_unknown_is_the_division(self):
        rng = np.random.default_rng(31)
        for g, h in zip(rng.standard_normal(50) * 1e3, rng.uniform(1e-6, 1e3, 50)):
            step, decrement = ratefn._newton_step(np.array([g]), np.array([[h]]))
            assert step[0] == -np.linalg.solve([[h]], [g])[0]
            assert decrement == -g * step[0] >= 0.0

    def test_two_unknowns_match_linear_solve(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            a = rng.standard_normal((2, 2))
            hess, grad = a @ a.T + 0.1 * np.eye(2), rng.standard_normal(2)
            step, decrement = ratefn._newton_step(grad, hess)
            expected = -np.linalg.solve(hess, grad)
            np.testing.assert_allclose(step, expected, rtol=1e-12, atol=1e-14)
            assert decrement == pytest.approx(-grad @ expected, rel=1e-12)

    @pytest.mark.parametrize("grad, hess", [
        ([1.0, 1.0], [[1.0, 2.0], [2.0, 4.0]]),  # singular: det = 0
        ([math.nan, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([1.0], [[0.0]]),
        ([math.nan], [[1.0]]),
    ])
    def test_no_step_raises(self, grad, hess):
        def local(x):
            return float(x @ x), np.array(grad), np.array(hess)

        with pytest.raises(NumericError, match="no Newton step"):
            ratefn._newton_minimize(local, np.zeros(len(grad)), "a test function")


class TestSolverCost:
    """``_tilted_moments`` calls per solve, counted, so the guard cannot be flaky.

    The bisection that the Newton dual replaced made 38 calls per inverse.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        inner = ratefn._tilted_moments

        def counting(model, s):
            count[0] += 1
            return inner(model, s)

        monkeypatch.setattr(ratefn, "_tilted_moments", counting)
        return count

    def test_inverse_at_seven_tenths(self, gaussian_model, calls):
        # one Newton step, one polish step and the check that ends it: a
        # polish that runs on below the rounding level of the tilt takes 5
        tilted_mean_inverse(gaussian_model, 0.7)
        assert calls[0] <= 4

    def test_inverse_over_reachable_range(self, gaussian_model, calls):
        rng = tilted_mean_range(gaussian_model)
        for y in np.linspace(rng.v0 + 1e-9, rng.v1 - 1e-9, 81):
            calls[0] = 0
            tilted_mean_inverse(gaussian_model, float(y))
            assert calls[0] <= 24, y

    def test_indicator_inverse_starts_at_closed_form(self, halfline_indicator_model, calls):
        # from s = 0 the descent took 32 / 18 / 9 / 5 calls at y = 1e-12 /
        # 1e-6 / 0.01 / 0.3 and as many at the mirrored levels
        rng = tilted_mean_range(halfline_indicator_model)
        tails = np.geomspace(1e-12, 0.5, 25)
        levels = [*tails, *(1.0 - tails), *np.linspace(rng.v0 + 1e-9, rng.v1 - 1e-9, 81)]
        for y in levels:
            calls[0] = 0
            s = tilted_mean_inverse(halfline_indicator_model, float(y))
            assert calls[0] <= 2, y
            assert tilted_mean(halfline_indicator_model, s) == pytest.approx(y, rel=1e-14)

    @pytest.mark.parametrize("lam, bound", [(-7.9, 24), (1.0, 6), (7.9, 24)])
    def test_ratio_rate_closed(self, gaussian_model, calls, lam, bound):
        ratio_rate_closed(gaussian_model, lam)
        assert calls[0] <= bound


class TestRatioRateCost:
    """``_TiltOps.local`` calls per ratio rate, counted, so the guard cannot be flaky.

    From s = 0 the descent makes 34 calls at +-7.9 on the exp-decay and
    affine kernels, where the line function grows like an exponential.
    """

    @pytest.mark.parametrize("kernel", [ExpDecayKernel(), AffineKernel()])
    @pytest.mark.parametrize("lam", [-7.9, 7.9])
    def test_range_edge(self, local_calls, kernel, lam):
        model = RateModel(WeightDensity.gaussian(), IdentityIndex(), kernel, IdentityScaling())
        ratio_rate(model, lam)
        assert local_calls[0] <= 3

    @pytest.mark.parametrize("name", sorted(START_MODELS))
    def test_over_reachable_range(self, local_calls, name):
        # on a flat kernel the start is the minimiser: one call to confirm it
        model = START_MODELS[name]
        bound = 1 if isinstance(model.kernel, UniformKernel) else 12
        for lam in start_sweep(model):
            local_calls[0] = 0
            ratio_rate(model, lam)
            assert local_calls[0] <= bound, lam


class TestLegendreRateCost:
    """``_TiltOps.local`` calls per conjugate rate, counted, so the guard cannot be flaky.

    From t = 0 the ascent makes 4-25 calls per rate over ``conjugate_sweep``
    (688-1020 per model).  A bound of "never more than the cold start" per
    rate does not hold: on exp_decay_power2 the warm start needs more calls
    on 9 of the 84 rates, and on three other models on one rate each.
    """

    def test_flat_kernel_confirms_start(self, gaussian_model, local_calls):
        for lam1, lam2 in conjugate_sweep(gaussian_model):
            local_calls[0] = 0
            legendre_rate(gaussian_model, lam1, lam2)
            assert local_calls[0] == 1, (lam1, lam2)

    @pytest.mark.parametrize("name", sorted(START_MODELS))
    def test_over_reachable_range(self, local_calls, name):
        # on a flat kernel the start is the maximiser: one call to confirm it
        model = START_MODELS[name]
        flat = isinstance(model.kernel, UniformKernel)
        warm = cold = 0
        for lam1, lam2 in conjugate_sweep(model):
            local_calls[0] = 0
            legendre_rate(model, lam1, lam2)
            assert local_calls[0] <= (1 if flat else 17), (lam1, lam2)
            warm += local_calls[0]
            local_calls[0] = 0
            cold_start_legendre_rate(model, lam1, lam2)
            cold += local_calls[0]
        assert warm < cold


class TestZeroWeightNodes:
    """The moment rows run over the support of the weight only.

    Over all nodes, exp(s v - shift) overflows on a zero-weight node once
    s (2 - 1) passes 709 and 0 * inf turns the sums into NaN.
    """

    @pytest.mark.parametrize("s", [-800.0, -30.0, -0.5, 0.0, 0.5, 30.0, 710.0, 800.0])
    def test_tilted_moments_match_integral_route(self, s):
        model = RateModel(ZERO_NODE_WEIGHT, IdentityIndex(), UniformKernel(), IdentityScaling())
        log_mass, mean, var = ratefn._tilted_moments(model, s)
        want = integral_moments(model, s)
        assert log_mass == pytest.approx(want[0], rel=1e-12, abs=1e-13)
        assert mean == pytest.approx(want[1], rel=1e-12, abs=1e-13)
        assert var == pytest.approx(want[2], rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("kernel", [UniformKernel(), ExpDecayKernel(), AffineKernel()])
    def test_log_mgf_matches_integral_route(self, kernel):
        model = RateModel(ZERO_NODE_WEIGHT, IdentityIndex(), kernel, IdentityScaling())
        ops = ratefn._TiltOps(model)
        # (0, 400) overflows only on zero-weight nodes except under the
        # affine kernel, where K = 2; (-100, -450) only on zero-weight nodes
        for t in ((0.3, 0.2), (2.0, -1.0), (0.0, 400.0), (-100.0, -450.0), (0.0, 800.0),
                  (800.0, 0.0), (-800.0, 0.0)):
            want = integral_log_mgf(model, *t)
            got = log_mgf_limit(model, *t)
            assert math.isinf(got) == math.isinf(want) and not math.isnan(got)
            if math.isfinite(want):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
                _, grad, hess = ops.local(np.array(t))
                assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))


class TestTiltedMeanRange:
    def test_gaussian_probes(self, gaussian_model):
        rng = tilted_mean_range(gaussian_model)
        assert rng.v0 < -7.5 and rng.v1 > 7.5

    def test_indicator_probes(self, halfline_indicator_model):
        rng = tilted_mean_range(halfline_indicator_model)
        assert 0.0 < rng.v0 < 1e-6
        assert 1.0 - 1e-6 < rng.v1 <= 1.0

    def test_probed_once_per_model(self, gaussian_model):
        rng = tilted_mean_range(gaussian_model)
        assert rng is tilted_mean_range(gaussian_model)
        assert rng.v0 == tilted_mean(gaussian_model, -ratefn.PROBE_T)
        assert rng.v1 == tilted_mean(gaussian_model, ratefn.PROBE_T)


LOG_MGF_ROUTES = [log_mgf_limit, kprime_log_mgf, by_parts_log_mgf]


class TestLogMgfLimit:
    def test_zero_at_origin(self, gaussian_model):
        for route in LOG_MGF_ROUTES:
            assert route(gaussian_model, 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_kernel_matches_plain_exponential_form(self, gaussian_model):
        # with a flat kernel the double integral collapses to a single one
        w = gaussian_model.weight
        lvals = gaussian_model.index(w.nodes)
        for t1, t2 in ((0.2, 0.1), (-0.4, 0.3), (1.0, -0.5)):
            direct = quadrature((np.exp(t1 + t2 * lvals) - 1.0) * w.w, w.grid)
            for route in LOG_MGF_ROUTES:
                assert route(gaussian_model, t1, t2) == pytest.approx(direct, abs=1e-10)

    def test_by_parts_equivalence_expdecay(self):
        # the K' and by-parts oracles agree with each other and with the
        # Gauss rule for dtau, which is far more accurate than either
        model = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(), IdentityScaling()
        )
        a = kprime_log_mgf(model, 0.3, 0.2, u_nodes=4001)
        b = by_parts_log_mgf(model, 0.3, 0.2, u_nodes=4001)
        assert a == pytest.approx(b, abs=1e-8)
        assert log_mgf_limit(model, 0.3, 0.2) == pytest.approx(b, abs=1e-8)

    def test_overflow_is_inf_not_nan(self, gaussian_model):
        # exp(800) overflows; the flat kernel's K' = 0 must not turn it into 0 * inf
        for route in LOG_MGF_ROUTES:
            assert route(gaussian_model, 800.0, 0.0) == math.inf

    def test_overflow_is_inf_on_decaying_kernels(self):
        for kernel in (ExpDecayKernel(), AffineKernel()):
            model = RateModel(WeightDensity.gaussian(nodes=201), IdentityIndex(), kernel,
                              PowerScaling(2.0))
            assert log_mgf_limit(model, 800.0, 0.0) == math.inf

    @pytest.mark.parametrize("kernel", [ExpDecayKernel(), AffineKernel()])
    @pytest.mark.parametrize("alpha", [None, 0.5, 1.7, 2.0, 3.0])
    def test_gauss_rule_matches_adaptive_quadrature(self, kernel, alpha):
        # the rule for dtau against quad with the algebraic weight u^(alpha-1);
        # a Gauss-Legendre rule in omega = tau(u) is off by up to 4e-4 for
        # alpha > 1, where k(omega^(1/alpha)) is not smooth at 0
        scaling = IdentityScaling() if alpha is None else PowerScaling(alpha)
        model = RateModel(WeightDensity.gaussian(nodes=201), IdentityIndex(), kernel, scaling)
        for t in ((0.3, 0.2), (2.0, -1.0)):
            assert log_mgf_limit(model, *t) == pytest.approx(quad_log_mgf(model, *t), rel=1e-12)
        for t in (-3.0, 0.0, 0.7, 4.0):
            oracle = quad_kernel_integral(model, lambda k, t=t: k * math.exp(t * k))
            assert tilted_kernel_moment(model, t) == pytest.approx(oracle, rel=1e-12)
        if alpha == 2.0:
            # the ratio rate under a power profile, against the contraction
            # and against a line minimum whose inner integrals come from quad
            for lam in (-1.0, 0.5, 2.0):
                value = ratio_rate(model, lam)
                assert value == pytest.approx(contraction_ratio_rate(model, lam), abs=1e-8)
                assert value == pytest.approx(
                    closed_inner_ratio_rate(model, lam, quad_inner_integral(model)), abs=1e-10
                )

    def test_nan_quadrature_raises(self):
        # a kernel that yields NaN must surface as NumericError, never as a
        # +inf that the Newton line search would read as overflow
        class NanKernel(ExpDecayKernel):
            def k(self, u):
                return np.full_like(np.asarray(u, dtype=float), math.nan)

        model = RateModel(WeightDensity.gaussian(nodes=201), IdentityIndex(), NanKernel(),
                          IdentityScaling())
        for route in LOG_MGF_ROUTES:
            with pytest.raises(NumericError, match="NaN"):
                route(model, 0.1, 0.2)
        with pytest.raises(NumericError, match="NaN"):
            ratio_rate(model, 0.5)
        with pytest.raises(NumericError, match="NaN"):
            legendre_rate(model, 1.0, 0.5)

    def test_scaled_flat_kernel(self, gaussian_model):
        # K = 2 on [0, 1]: the double integral is integral (exp(2 theta) - 1) w dv
        model = RateModel(gaussian_model.weight, IdentityIndex(), UniformKernel(scale=2.0),
                          PowerScaling(3.0))
        w = model.weight
        direct = quadrature((np.exp(2.0 * (0.2 - 0.3 * model.index(w.nodes))) - 1.0) * w.w, w.grid)
        for route in LOG_MGF_ROUTES:
            assert route(model, 0.2, -0.3) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("kernel", [UniformKernel(scale=2.0), ExpDecayKernel(),
                                        AffineKernel()])
    def test_derivatives_match_central_differences(self, kernel):
        model = RateModel(WeightDensity.gaussian(nodes=401), IdentityIndex(), kernel,
                          PowerScaling(2.0))
        ops = ratefn._TiltOps(model)
        t, step = np.array([0.3, -0.2]), 1e-4
        _, grad, hess = ops.local(t)
        for i, e in enumerate(np.eye(2) * step):
            (phi_up, up, _), (phi_down, down, _) = ops.local(t + e), ops.local(t - e)
            fd = (phi_up - phi_down) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-7)
            np.testing.assert_allclose(hess[:, i], (up - down) / (2 * step), rtol=1e-7)

    def test_gradient_at_origin_is_mean_vector(self, gaussian_model):
        g1, g2 = log_mgf_gradient(gaussian_model, 0.0, 0.0)
        assert g1 == pytest.approx(gaussian_model.weight.mass, abs=1e-12)
        assert g2 == pytest.approx(0.0, abs=1e-12)


class TestTiltOpsBuffers:
    """One ``_TiltOps`` reuses its theta vector and table across ``local`` calls."""

    @pytest.mark.parametrize("kernel", [ExpDecayKernel(), AffineKernel()])
    def test_reused_instance_matches_fresh_one_bitwise(self, kernel):
        model = RateModel(WeightDensity.gaussian(), IdentityIndex(), kernel, IdentityScaling())
        ops = ratefn._TiltOps(model)
        assert ops.local(np.array([0.0, 800.0]))[0] == math.inf
        for t in ((0.3, -0.2), (-1.0, 2.0)):
            reused = ops.local(np.array(t))
            fresh = ratefn._TiltOps(model).local(np.array(t))
            assert math.isfinite(reused[0])
            assert ([np.asarray(x).tobytes() for x in reused]
                    == [np.asarray(x).tobytes() for x in fresh]), t

    def test_second_call_makes_no_table_sized_allocation(self):
        model = RateModel(WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(),
                          IdentityScaling())
        ops = ratefn._TiltOps(model)
        t = np.array([0.3, -0.2])
        ops.local(t)
        table_bytes = model._k.size * model._l_support.size * np.dtype(float).itemsize
        # numpy reports its data buffers to tracemalloc
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ops.local(t)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 4, (peak, table_bytes)


class TestLegendreRate:
    def test_zero_at_mean_vector(self, gaussian_model):
        g = log_mgf_gradient(gaussian_model, 0.0, 0.0)
        assert legendre_rate(gaussian_model, *g) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "lam1,lam2", [(1.0, 0.0), (2.0, 0.0), (1.0, 1.0), (0.5, 0.7), (3.0, -2.0)]
    )
    def test_gaussian_closed_form_oracle(self, gaussian_model, lam1, lam2):
        assert legendre_rate(gaussian_model, lam1, lam2) == pytest.approx(
            gaussian_pair_rate(lam1, lam2), abs=1e-6
        )

    def test_two_log_two_minus_one(self, gaussian_model):
        assert legendre_rate(gaussian_model, 2.0, 0.0) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-6
        )

    def test_negative_mass_level_diverges(self, gaussian_model):
        # 1-D oracle: along t2 = 0 the objective lam1*t1 - Phi(t1, 0) keeps
        # growing as t1 -> -inf because Phi is bounded below.
        t1 = np.linspace(-40.0, 0.0, 81)
        w = gaussian_model.weight
        phi = np.array([quadrature((np.exp(t) - 1.0) * w.w, w.grid) for t in t1])
        q = -0.5 * t1 - phi
        assert np.all(np.diff(q) < 0)
        assert legendre_rate(gaussian_model, -0.5, 0.0) == math.inf

    def test_tiny_mass_level(self, gaussian_model):
        # the ascent runs t1 down to log(1e-20); a gradient-norm stop quits
        # with a gap near 6e-9
        assert legendre_rate(gaussian_model, 1e-20, 0.0) == pytest.approx(
            closed_rate_uniform(gaussian_model, 1e-20, 0.0), abs=1e-12
        )

    @pytest.mark.parametrize("lam1", np.geomspace(0.05, 4.0, 4).tolist())
    @pytest.mark.parametrize("ratio", [-7.9, 7.9])
    def test_range_edge_is_finite(self, gaussian_model, lam1, ratio):
        # the maximizer lies beyond norm 50 here, yet the supremum is finite
        closed = closed_rate_uniform(gaussian_model, lam1, lam1 * ratio)
        assert math.isfinite(closed)
        assert legendre_rate(gaussian_model, lam1, lam1 * ratio) == pytest.approx(
            closed, abs=1e-9
        )

    def test_ratio_beyond_range_is_infinite(self, gaussian_model):
        v1 = tilted_mean_range(gaussian_model).v1
        assert legendre_rate(gaussian_model, 1.0, v1 + 0.1) == math.inf

    def test_matches_closed_route_on_grid(self, gaussian_model):
        for lam1 in np.linspace(0.25, 4.0, 7):
            for ratio in np.linspace(-2.0, 2.0, 7):
                num = legendre_rate(gaussian_model, float(lam1), float(lam1 * ratio))
                closed = closed_rate_uniform(gaussian_model, float(lam1), float(lam1 * ratio))
                assert num == pytest.approx(closed, abs=1e-6)

    @settings(PROPERTY_SETTINGS, max_examples=150)
    @given(
        lam1=st.one_of(st.floats(-1.0, 0.0), st.floats(-25.0, 3.5).map(math.exp)),
        u=st.floats(-0.1, 1.1),
    )
    def test_matches_closed_route_over_reachable_range(self, lam1, u):
        # (lam1, lam2 / lam1) over the whole reachable range and a little
        # beyond it, not only the grid: same value, and +inf at the same points
        rng = tilted_mean_range(GAUSSIAN_MODEL)
        lam2 = lam1 * (rng.v0 + u * (rng.v1 - rng.v0))
        closed = closed_rate_uniform(GAUSSIAN_MODEL, lam1, lam2)
        numeric = legendre_rate(GAUSSIAN_MODEL, lam1, lam2)
        assert math.isinf(numeric) == math.isinf(closed)
        if math.isfinite(closed):
            assert numeric == pytest.approx(closed, abs=1e-8)
        else:
            assert numeric == closed == math.inf

    @pytest.mark.parametrize("name", sorted(START_MODELS))
    def test_uniform_start_matches_cold_start(self, name):
        # pyproject turns a RuntimeWarning from ratefn into an error here
        model = START_MODELS[name]
        for lam1, lam2 in conjugate_sweep(model):
            cold = cold_start_legendre_rate(model, lam1, lam2)
            assert abs(legendre_rate(model, lam1, lam2) - cold) <= 1e-11 * abs(cold), (lam1, lam2)

    def test_midpoint_convexity(self, gaussian_model):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p = np.array([rng.uniform(0.3, 3.0), 0.0])
            p[1] = p[0] * rng.uniform(-2.0, 2.0)
            q = np.array([rng.uniform(0.3, 3.0), 0.0])
            q[1] = q[0] * rng.uniform(-2.0, 2.0)
            mid = 0.5 * (p + q)
            g_mid = closed_rate_uniform(gaussian_model, *mid)
            g_avg = 0.5 * (
                closed_rate_uniform(gaussian_model, *p) + closed_rate_uniform(gaussian_model, *q)
            )
            assert g_mid <= g_avg + 1e-8

    def test_nonnegative(self, gaussian_model):
        rng = np.random.default_rng(29)
        for _ in range(20):
            lam1 = rng.uniform(0.2, 3.0)
            lam2 = lam1 * rng.uniform(-2.0, 2.0)
            assert legendre_rate(gaussian_model, lam1, lam2) >= -1e-10


class TestClosedRateUniform:
    def test_lln_point(self, gaussian_model):
        assert closed_rate_uniform(gaussian_model, 1.0, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_unit_tilt(self, gaussian_model):
        assert closed_rate_uniform(gaussian_model, 1.0, 1.0) == pytest.approx(0.5, abs=1e-8)

    def test_zero_mass_level_is_infinite(self, gaussian_model):
        assert closed_rate_uniform(gaussian_model, 0.0, 0.5) == math.inf

    def test_ratio_beyond_range_is_infinite(self, gaussian_model):
        v1 = tilted_mean_range(gaussian_model).v1
        assert closed_rate_uniform(gaussian_model, 1.0, v1 + 0.1) == math.inf

    def test_requires_uniform_kernel(self):
        model = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(), IdentityScaling()
        )
        with pytest.raises(ValueError, match="uniform"):
            closed_rate_uniform(model, 1.0, 0.0)


class TestConjugateRates:
    def test_per_pair_routes_and_levels(self, gaussian_model):
        # the pairs share each level's dual, yet read the per-pair routes' bits
        pairs = [(l1, l1 * r) for l1 in (0.0, -1.0, 1.0, 2.0, 3.0)
                 for r in (-2 / 3, 0.0, 1.0, 9.0)]
        rates, levels = conjugate_rates(gaussian_model, pairs)
        assert rates == [[legendre_rate(gaussian_model, *p), closed_rate_uniform(gaussian_model, *p)]
                         for p in pairs]
        rng = tilted_mean_range(gaussian_model)
        assert levels == len({l2 / l1 for l1, l2 in pairs if l1 > 0 and rng.v0 < l2 / l1 < rng.v1})
        assert levels >= 3 and rates[0] == [math.inf, math.inf]

    def test_requires_uniform_kernel(self):
        model = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(), IdentityScaling()
        )
        with pytest.raises(ValueError, match="uniform"):
            conjugate_rates(model, [(1.0, 0.0)])


class TestStationaryPoint:
    def test_lln_inputs(self, gaussian_model):
        t1, t2 = conjugate_stationary_point(gaussian_model, 1.0, 0.0)
        assert t1 == pytest.approx(0.0, abs=1e-9)
        assert t2 == pytest.approx(0.0, abs=1e-9)

    def test_unit_tilt_point(self, gaussian_model):
        t1, t2 = conjugate_stationary_point(gaussian_model, 1.0, 1.0)
        assert t1 == pytest.approx(-0.5, abs=1e-8)
        assert t2 == pytest.approx(1.0, abs=1e-8)

    def test_mean_vector_maps_to_origin(self, gaussian_model):
        w = gaussian_model.weight
        mean = quadrature(gaussian_model.index(w.nodes) * w.w, w.grid)
        t1, t2 = conjugate_stationary_point(gaussian_model, w.mass, mean)
        assert abs(t1) < 1e-9 and abs(t2) < 1e-9

    @pytest.mark.parametrize("lam1,lam2", [(1.0, 0.5), (2.0, -1.0), (0.7, 0.7)])
    def test_gradient_vanishes(self, gaussian_model, lam1, lam2):
        t1, t2 = conjugate_stationary_point(gaussian_model, lam1, lam2)
        g1, g2 = log_mgf_gradient(gaussian_model, t1, t2)
        assert math.hypot(lam1 - g1, lam2 - g2) < 1e-6


class TestIndicatorRate:
    def test_kernel_moment_is_exponential_for_flat_kernel(self, halfline_indicator_model):
        for t in (-1.0, 0.0, 2.0):
            assert tilted_kernel_moment(halfline_indicator_model, t) == pytest.approx(
                math.exp(t), rel=1e-12
            )

    def test_balanced_split_is_zero_at_half(self, halfline_indicator_model):
        assert indicator_rate(halfline_indicator_model, 1.0, 0.5) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_bernoulli_relative_entropy(self, halfline_indicator_model):
        expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert indicator_rate(halfline_indicator_model, 1.0, 0.75) == pytest.approx(
            expected, abs=1e-8
        )

    def test_agreement_with_other_routes(self, halfline_indicator_model):
        rng = np.random.default_rng(31)
        bounds = tilted_mean_range(halfline_indicator_model)
        for _ in range(20):
            lam1 = rng.uniform(0.3, 3.0)
            ratio = rng.uniform(max(0.05, bounds.v0 + 0.01), min(0.95, bounds.v1 - 0.01))
            lam2 = lam1 * ratio
            by_indicator = indicator_rate(halfline_indicator_model, lam1, lam2)
            by_closed = closed_rate_uniform(halfline_indicator_model, lam1, lam2)
            by_newton = legendre_rate(halfline_indicator_model, lam1, lam2)
            assert by_indicator == pytest.approx(by_closed, abs=1e-6)
            assert by_indicator == pytest.approx(by_newton, abs=1e-6)

    @pytest.mark.parametrize("kernel", [ExpDecayKernel(), AffineKernel()])
    @pytest.mark.parametrize("scaling", [PowerScaling(0.5), PowerScaling(2.0)])
    def test_decaying_kernels_match_legendre(self, halfline_indicator_model, kernel, scaling):
        # the kernel moment inversions and the correction term share the
        # Gauss rule for dtau with the Newton route's log-MGF
        model = RateModel(halfline_indicator_model.weight, halfline_indicator_model.index,
                          kernel, scaling)
        for lam1, lam2 in ((1.0, 0.75), (2.0, 0.3)):
            assert indicator_rate(model, lam1, lam2) == pytest.approx(
                legendre_rate(model, lam1, lam2), abs=1e-10
            )

    def test_domain_convention(self, halfline_indicator_model):
        assert indicator_rate(halfline_indicator_model, 1.0, 0.0) == math.inf
        assert indicator_rate(halfline_indicator_model, 1.0, 1.0) == math.inf
        assert indicator_rate(halfline_indicator_model, 1.0, -0.5) == math.inf

    def test_empty_side_rejected(self):
        weight = WeightDensity.gaussian()
        model = RateModel(
            weight, IntervalIndicator(((10.0, 20.0),)), UniformKernel(), IdentityScaling()
        )
        with pytest.raises(RateDomainError):
            indicator_rate(model, 1.0, 0.5)

    def test_requires_indicator_index(self, gaussian_model):
        with pytest.raises(ValueError):
            indicator_rate(gaussian_model, 1.0, 0.5)


class TestRatioRate:
    def test_zero_at_plain_mean(self, gaussian_model):
        assert ratio_rate(gaussian_model, tilted_mean(gaussian_model, 0.0)) == (
            pytest.approx(0.0, abs=1e-9)
        )

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_gaussian_oracle(self, gaussian_model, lam):
        assert ratio_rate_closed(gaussian_model, lam) == pytest.approx(
            gaussian_ratio_rate(lam), abs=1e-6
        )
        assert ratio_rate(gaussian_model, lam) == pytest.approx(
            gaussian_ratio_rate(lam), abs=1e-6
        )

    def test_closed_matches_contraction_on_grid(self, gaussian_model):
        for lam in np.linspace(-2.0, 2.0, 21):
            closed = ratio_rate_closed(gaussian_model, float(lam))
            numeric = ratio_rate(gaussian_model, float(lam))
            assert numeric == pytest.approx(closed, abs=1e-6)

    def test_beyond_range_infinite(self, gaussian_model):
        v1 = tilted_mean_range(gaussian_model).v1
        assert ratio_rate(gaussian_model, v1 + 1.0) == math.inf
        assert ratio_rate_closed(gaussian_model, v1 + 1.0) == math.inf

    @pytest.mark.parametrize("kernel", [ExpDecayKernel(), AffineKernel()])
    def test_range_edge_is_mass_not_overflow(self, kernel):
        # at 7.9 the rate is 1 - O(1e-14); the nested contraction returned
        # inf on the exp-decay kernel and 336 039 on the affine one
        model = RateModel(WeightDensity.gaussian(), IdentityIndex(), kernel, IdentityScaling())
        for lam in (-7.9, 7.9):
            value = ratio_rate(model, lam)
            assert value == pytest.approx(closed_inner_ratio_rate(model, lam), abs=1e-10)
            assert value <= model.weight.mass + 1e-12

    @settings(PROPERTY_SETTINGS, max_examples=60)
    @given(kernel=st.sampled_from(sorted(PROPERTY_MODELS)), u=st.floats(0.0, 1.0))
    def test_matches_closed_inner_oracle(self, kernel, u):
        model = PROPERTY_MODELS[kernel]
        rng = tilted_mean_range(model)
        lam = rng.v0 + 2e-6 + u * (rng.v1 - rng.v0 - 4e-6)
        value = ratio_rate(model, lam)
        assert value == pytest.approx(closed_inner_ratio_rate(model, lam), abs=1e-8)
        assert 0.0 <= value <= model.weight.mass + 1e-12

    @settings(PROPERTY_SETTINGS, max_examples=15)
    @given(kernel=st.sampled_from(sorted(PROPERTY_MODELS)), lam=st.floats(-5.0, 5.0))
    def test_matches_contraction_oracle(self, kernel, lam):
        model = PROPERTY_MODELS[kernel]
        assert ratio_rate(model, lam) == pytest.approx(
            contraction_ratio_rate(model, lam), abs=1e-8
        )

    @pytest.mark.parametrize("name", sorted(START_MODELS))
    def test_uniform_start_matches_cold_start(self, name):
        # pyproject turns a RuntimeWarning from ratefn into an error here
        model = START_MODELS[name]
        for lam in start_sweep(model):
            value = ratio_rate(model, lam)
            assert abs(value - cold_start_ratio_rate(model, lam)) <= 1e-12, lam
            assert 0.0 <= value <= model.weight.mass + 1e-12, lam

    def test_one_sided_monotone_structure(self, gaussian_model):
        left = [ratio_rate_closed(gaussian_model, x) for x in np.linspace(-3.0, -0.05, 15)]
        right = [ratio_rate_closed(gaussian_model, x) for x in np.linspace(0.05, 3.0, 15)]
        assert all(b <= a + 1e-12 for a, b in zip(left, left[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(right, right[1:]))


class TestRatioRateDerivatives:
    def test_first_derivative_vanishes_at_mean(self, gaussian_model):
        g1, _ = ratio_rate_derivatives(gaussian_model, 1e-12)
        assert g1 == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_values(self, gaussian_model):
        g1, g2 = ratio_rate_derivatives(gaussian_model, 1.0)
        assert g1 == pytest.approx(math.exp(-0.5), abs=1e-8)
        assert g2 == pytest.approx(0.0, abs=1e-8)

    def test_curvature_one_at_zero(self, gaussian_model):
        _, g2 = ratio_rate_derivatives(gaussian_model, 1e-12)
        assert g2 == pytest.approx(1.0, abs=1e-8)

    def test_against_central_differences(self, gaussian_model):
        step = 1e-4
        for lam in np.linspace(-1.5, 1.5, 11):
            lam = float(lam)
            g1, g2 = ratio_rate_derivatives(gaussian_model, lam)
            up = ratio_rate_closed(gaussian_model, lam + step)
            down = ratio_rate_closed(gaussian_model, lam - step)
            mid = ratio_rate_closed(gaussian_model, lam)
            assert g1 == pytest.approx((up - down) / (2 * step), abs=1e-5)
            assert g2 == pytest.approx((up - 2 * mid + down) / step**2, abs=1e-5)

    def test_domain_error(self, gaussian_model):
        with pytest.raises(RateDomainError):
            ratio_rate_derivatives(gaussian_model, 100.0)


class TestRatioRateQuadratic:
    def test_zero(self, gaussian_model):
        assert ratio_rate_quadratic(gaussian_model, 0.0) == 0.0

    def test_gaussian_value(self, gaussian_model):
        assert ratio_rate_quadratic(gaussian_model, 0.1) == pytest.approx(0.005, rel=1e-10)

    def test_ratio_tends_to_one(self, gaussian_model):
        gaps = []
        for lam in (0.2, 0.1, 0.05, 0.025):
            ratio = ratio_rate_closed(gaussian_model, lam) / ratio_rate_quadratic(
                gaussian_model, lam
            )
            gaps.append(abs(ratio - 1.0))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01

    def test_centered_model_band(self):
        model = RateModel(
            WeightDensity.gaussian(0.0, 1.3), IdentityIndex(), UniformKernel(),
            IdentityScaling(),
        )
        w = model.weight
        second = quadrature(model.index(w.nodes) ** 2 * w.w, w.grid) / w.mass
        lam = 0.05 * math.sqrt(second)
        ratio = ratio_rate_closed(model, lam) / ratio_rate_quadratic(model, lam)
        assert 0.9 <= ratio <= 1.1

    def test_uncentered_rejected(self):
        model = RateModel(
            WeightDensity.gaussian(0.7, 1.0), IdentityIndex(), UniformKernel(),
            IdentityScaling(),
        )
        with pytest.raises(ValueError, match="centered"):
            ratio_rate_quadratic(model, 0.1)


class TestTwoSidedRate:
    def test_symmetric_gaussian(self, gaussian_model):
        assert two_sided_rate(gaussian_model, 1.0) == pytest.approx(
            gaussian_ratio_rate(1.0), abs=1e-8
        )

    def test_vanishes_with_width(self, gaussian_model):
        assert two_sided_rate(gaussian_model, 1e-4) < 1e-6

    def test_width_beyond_both_rays(self, gaussian_model):
        assert two_sided_rate(gaussian_model, 9.0) == math.inf

    @pytest.mark.parametrize("lam", [1e-9, 0.1, 0.5, 1.0, 1.5, 9.0])
    def test_centred_at_the_untilted_mean(self, gaussian_model, lam):
        m = tilted_mean(gaussian_model, 0.0)
        expected = min(ratio_rate_closed(gaussian_model, m - lam),
                       ratio_rate_closed(gaussian_model, m + lam))
        assert two_sided_rate(gaussian_model, lam) == expected

    def test_asymmetric_center_picks_smaller_side(self):
        # on the half-line indicator m is near 1/2 and the weight is shifted
        # off the set, so the two sides of m have different rates
        model = RateModel(WeightDensity.gaussian(0.3, 1.0, nodes=801),
                          IntervalIndicator(((0.0, math.inf),)), UniformKernel(),
                          IdentityScaling())
        m = tilted_mean(model, 0.0)
        for lam in (0.1, 0.3):
            below, above = ratio_rate_closed(model, m - lam), ratio_rate_closed(model, m + lam)
            assert abs(below - above) > 1e-3
            assert two_sided_rate(model, lam) == min(below, above)

    def test_positive_width_required(self, gaussian_model):
        with pytest.raises(ValueError):
            two_sided_rate(gaussian_model, 0.0)

    def test_general_kernel_scan_matches_endpoint_route(self):
        # no closed route off the uniform kernel; scanning the ratio rate
        # along both rays must find nothing below the endpoints nearest the
        # zero, since the rate is quasi-convex around it
        for kernel in (ExpDecayKernel(), AffineKernel()):
            model = RateModel(
                WeightDensity.gaussian(0.0, 1.0, nodes=301), IdentityIndex(), kernel,
                IdentityScaling(),
            )
            rng = tilted_mean_range(model)
            m = tilted_mean(model, 0.0)
            for lam in (0.8, 1.0, 0.7):
                left = np.linspace(rng.v0 + 2e-6, m - lam, 25)
                right = np.linspace(m + lam, rng.v1 - 2e-6, 25)
                scan = [ratio_rate(model, float(y)) for y in np.concatenate([left, right])]
                assert two_sided_rate(model, lam) == min(scan)

    def test_found_case_is_fast_and_quiet(self):
        # exp-decay kernel, 101-node weight: the two ray scans took 114 s
        # and raised 304 RuntimeWarnings
        model = RateModel(
            WeightDensity.gaussian(nodes=101), IdentityIndex(), ExpDecayKernel(),
            IdentityScaling(),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            started = time.perf_counter()
            value = two_sided_rate(model, 1.0)
            elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        assert value == pytest.approx(
            min(closed_inner_ratio_rate(model, -1.0), closed_inner_ratio_rate(model, 1.0)),
            abs=1e-10,
        )

    def test_no_negative_rates(self, gaussian_model):
        # at the untilted mean the trapezoid mass and the moment-row dual
        # round apart by a few 1e-16; no route may report that as a rate
        m = tilted_mean(gaussian_model, 0.0)
        for lam in np.append(np.linspace(-2.0, 2.0, 41), [m, 1e-9, -1e-9]):
            lam = float(lam)
            assert ratio_rate_closed(gaussian_model, lam) >= 0.0
            assert ratio_rate(gaussian_model, lam) >= 0.0
            assert closed_rate_uniform(gaussian_model, 1.0, lam) >= 0.0
        for lam in (1e-300, 1e-17, 1e-9):
            assert two_sided_rate(gaussian_model, lam) >= 0.0


class TestClassRate:
    def test_singleton(self, gaussian_model):
        assert class_rate([gaussian_model], 1.0) == two_sided_rate(gaussian_model, 1.0)

    def test_duplicates_match_singleton(self, gaussian_model):
        assert class_rate([gaussian_model] * 2, 1.0) == class_rate([gaussian_model], 1.0)

    def test_nine_center_enumeration(self):
        models = [RateModel(WeightDensity.gaussian(c, 1.0), IdentityIndex(), UniformKernel(),
                            IdentityScaling()) for c in np.linspace(-2.0, 2.0, 9)]
        betas = [two_sided_rate(m, 1.0) for m in models]
        assert class_rate(models, 1.0) == min(betas)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_rate([], 1.0)


class TestScalingVariants:
    def test_power_scaling_changes_nonuniform_rate_only(self):
        # the flat kernel's limit log-MGF is scaling-free; a decaying kernel's
        # is not
        args = (0.4, 0.3)
        flat_a = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), UniformKernel(), IdentityScaling()
        )
        flat_b = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), UniformKernel(), PowerScaling(2.0)
        )
        dec_a = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(), IdentityScaling()
        )
        dec_b = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(), PowerScaling(2.0)
        )
        for route in LOG_MGF_ROUTES:
            assert route(flat_a, *args) == pytest.approx(route(flat_b, *args), abs=1e-10)
            assert abs(route(dec_a, *args) - route(dec_b, *args)) > 1e-4
        # the trapezoid oracles carry a few 1e-6 of error under a power profile
        assert log_mgf_limit(dec_b, *args) == pytest.approx(
            by_parts_log_mgf(dec_b, *args, u_nodes=4001), rel=1e-5
        )


class TestCsvExport:
    """The rate sweeps as the CLI writes them to rate_sweep.csv and rate_conjugate.csv."""

    def test_ratio_sweep(self, tmp_path):
        outputs = run({"command": "rate", "lambda_values": [0.5, 1.0, 9.0]}, str(tmp_path))
        path = next(p for p in outputs if p.endswith("rate_sweep.csv"))
        lines = open(path).read().splitlines()
        assert lines[0] == "lambda,gamma,gamma_prime,gamma_second,beta"
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert float(row["gamma"]) == pytest.approx(gaussian_ratio_rate(1.0), abs=1e-8)
        out_of_domain = lines[3].split(",")
        assert out_of_domain[1] == "inf" and out_of_domain[2] == "nan"

    def test_conjugate_sweep(self, tmp_path):
        cfg = {"command": "rate", "lambda1_values": [1.0, 2.0], "ratio_values": [0.0]}
        outputs = run(cfg, str(tmp_path))
        path = next(p for p in outputs if p.endswith("rate_conjugate.csv"))
        lines = open(path).read().splitlines()
        assert lines[0] == "lambda1,lambda2,gamma_legendre,gamma_closed,abs_diff"
        assert float(lines[2].split(",")[3]) == pytest.approx(
            2 * math.log(2.0) - 1.0, abs=1e-9
        )
