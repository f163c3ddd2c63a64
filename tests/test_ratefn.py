import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from funcldp import ratefn
from funcldp.estimator import IdentityIndex, IntervalIndicator, LipschitzIndex
from funcldp.funcdata import (
    AffineKernel,
    ExpDecayKernel,
    IdentityScaling,
    PowerScaling,
    UniformKernel,
)
from funcldp.ratefn import (
    NumericError,
    RateDomainError,
    RateModel,
    WeightDensity,
    class_rate,
    closed_rate_uniform,
    conjugate_stationary_point,
    gaussian_identity_model,
    indicator_rate,
    legendre_rate,
    log_mgf_gradient,
    log_mgf_limit,
    log_mgf_limit_by_parts,
    ratio_rate,
    ratio_rate_closed,
    ratio_rate_derivatives,
    ratio_rate_quadratic,
    tilted_kernel_moment,
    tilted_mean,
    tilted_mean_inverse,
    tilted_mean_range,
    two_sided_rate,
    write_conjugate_sweep_csv,
    write_ratio_sweep_csv,
)


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


def closed_inner_ratio_rate(model: RateModel, lam: float) -> float:
    """-min_s Phi(-lam s, s) with the kernel integral in closed form, minimized by Brent."""
    g = INNER_INTEGRAL[type(model.kernel)]
    w = model.weight

    def line(s):
        return w.integral(w.w * g(s * (model.lvals - lam)))

    start = 0.1 if lam >= 0 else -0.1
    return -float(optimize.minimize_scalar(line, bracket=(0.0, start), tol=1e-12).fun)


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
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)


class TestWeightDensity:
    def test_gaussian_mass(self):
        assert WeightDensity.gaussian().mass == pytest.approx(1.0, abs=1e-12)

    def test_tail_validation(self):
        with pytest.raises(ValueError, match="tails"):
            WeightDensity.gaussian(half_width=3.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WeightDensity(-1.0, 1.0, np.array([0.0, -0.5, 0.0]))


class TestTiltedMean:
    def test_untilted_is_plain_mean(self, gaussian_model):
        assert tilted_mean(gaussian_model, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_tilt_identity(self, gaussian_model):
        # for a standard normal weight the tilted mean equals the tilt
        assert tilted_mean(gaussian_model, 0.5) == pytest.approx(0.5, abs=1e-8)

    def test_constant_index_collapses(self):
        weight = WeightDensity.gaussian()
        const = LipschitzIndex(lambda v: np.full_like(v, 2.5), sup_bound=2.5, tag="const")
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
        assert err.value.tilt_range.v1 <= 1.0


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
        assert rng is gaussian_model.tilt_range
        assert rng.v0 == tilted_mean(gaussian_model, -ratefn.PROBE_T)
        assert rng.v1 == tilted_mean(gaussian_model, ratefn.PROBE_T)


class TestLogMgfLimit:
    def test_zero_at_origin(self, gaussian_model):
        assert log_mgf_limit(gaussian_model, 0.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_kernel_matches_plain_exponential_form(self, gaussian_model):
        # with a flat kernel the double integral collapses to a single one
        w = gaussian_model.weight
        for t1, t2 in ((0.2, 0.1), (-0.4, 0.3), (1.0, -0.5)):
            direct = w.integral((np.exp(t1 + t2 * gaussian_model.lvals) - 1.0) * w.w)
            assert log_mgf_limit(gaussian_model, t1, t2) == pytest.approx(direct, abs=1e-10)

    def test_by_parts_equivalence_expdecay(self):
        model = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(), IdentityScaling()
        )
        a = log_mgf_limit(model, 0.3, 0.2, u_nodes=4001)
        b = log_mgf_limit_by_parts(model, 0.3, 0.2, u_nodes=4001)
        assert a == pytest.approx(b, abs=1e-8)

    def test_overflow_is_inf_not_nan(self, gaussian_model):
        # exp(800) overflows; the flat kernel's K' = 0 must not turn it into 0 * inf
        assert log_mgf_limit(gaussian_model, 800.0, 0.0) == math.inf
        assert log_mgf_limit_by_parts(gaussian_model, 800.0, 0.0) == math.inf

    def test_nan_quadrature_raises(self):
        # a kernel that yields NaN must surface as NumericError, never as a
        # +inf that the Newton line search would read as overflow
        class NanKernel(ExpDecayKernel):
            def k(self, u):
                return np.full_like(np.asarray(u, dtype=float), math.nan)

        model = RateModel(WeightDensity.gaussian(nodes=201), IdentityIndex(), NanKernel(),
                          IdentityScaling())
        with pytest.raises(NumericError, match="NaN"):
            ratefn._TiltOps(model).phi(np.array([0.1, 0.2]))
        with pytest.raises(NumericError, match="NaN"):
            ratio_rate(model, 0.5)
        with pytest.raises(NumericError, match="NaN"):
            legendre_rate(model, 1.0, 0.5)

    def test_gradient_at_origin_is_mean_vector(self, gaussian_model):
        g1, g2 = log_mgf_gradient(gaussian_model, 0.0, 0.0)
        assert g1 == pytest.approx(gaussian_model.weight.mass, abs=1e-12)
        assert g2 == pytest.approx(0.0, abs=1e-12)


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
        phi = np.array([w.integral((np.exp(t) - 1.0) * w.w) for t in t1])
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
        mass = gaussian_model.weight.mass
        mean = gaussian_model.weight.integral(gaussian_model.lvals * gaussian_model.weight.w)
        t1, t2 = conjugate_stationary_point(gaussian_model, mass, mean)
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
        rng = model.tilt_range
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
        second = model.weight.integral(model.lvals**2 * model.weight.w) / model.weight.mass
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
        assert two_sided_rate(gaussian_model, 0.0, 1.0) == pytest.approx(
            gaussian_ratio_rate(1.0), abs=1e-8
        )

    def test_vanishes_with_width(self, gaussian_model):
        assert two_sided_rate(gaussian_model, 0.0, 1e-4) < 1e-6

    def test_width_beyond_both_rays(self, gaussian_model):
        assert two_sided_rate(gaussian_model, 0.0, 9.0) == math.inf

    def test_asymmetric_center_picks_smaller_side(self, gaussian_model):
        r = 0.4
        expected = min(
            ratio_rate_closed(gaussian_model, r - 1.0),
            ratio_rate_closed(gaussian_model, r + 1.0),
        )
        assert two_sided_rate(gaussian_model, r, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_positive_width_required(self, gaussian_model):
        with pytest.raises(ValueError):
            two_sided_rate(gaussian_model, 0.0, 0.0)

    def test_general_kernel_scan_matches_endpoint_route(self):
        # no closed route off the uniform kernel; scanning the ratio rate
        # along both rays must find nothing below the endpoints nearest the
        # zero, since the rate is quasi-convex around it
        for kernel in (ExpDecayKernel(), AffineKernel()):
            model = RateModel(
                WeightDensity.gaussian(0.0, 1.0, 8.0, 301), IdentityIndex(), kernel,
                IdentityScaling(),
            )
            rng = tilted_mean_range(model)
            m = tilted_mean(model, 0.0)
            for r, lam in ((0.0, 0.8), (0.6, 1.0), (-1.5, 0.7)):
                left = np.linspace(rng.v0 + 2e-6, min(r - lam, m), 25)
                right = np.linspace(max(r + lam, m), rng.v1 - 2e-6, 25)
                scan = [ratio_rate(model, float(y)) for y in np.concatenate([left, right])]
                assert two_sided_rate(model, r, lam) == min(scan)

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
            value = two_sided_rate(model, 0.0, 1.0)
            elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        assert value == pytest.approx(
            min(closed_inner_ratio_rate(model, -1.0), closed_inner_ratio_rate(model, 1.0)),
            abs=1e-10,
        )

    def test_zero_when_mean_lies_on_a_ray(self, gaussian_model):
        assert two_sided_rate(gaussian_model, 3.0, 1.0) == pytest.approx(0.0, abs=1e-12)


class TestClassRate:
    def _entry(self, center):
        model = RateModel(
            WeightDensity.gaussian(center, 1.0), IdentityIndex(), UniformKernel(),
            IdentityScaling(),
        )
        return model, tilted_mean(model, 0.0)

    def test_singleton(self, gaussian_model):
        entry = (gaussian_model, tilted_mean(gaussian_model, 0.0))
        assert class_rate([entry], 1.0) == two_sided_rate(gaussian_model, entry[1], 1.0)

    def test_duplicates_match_singleton(self, gaussian_model):
        entry = (gaussian_model, tilted_mean(gaussian_model, 0.0))
        assert class_rate([entry, entry], 1.0) == class_rate([entry], 1.0)

    def test_nine_center_enumeration(self):
        entries = [self._entry(c) for c in np.linspace(-2.0, 2.0, 9)]
        betas = [two_sided_rate(m, r, 1.0) for m, r in entries]
        assert class_rate(entries, 1.0) == min(betas)

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
        assert log_mgf_limit(flat_a, *args) == pytest.approx(
            log_mgf_limit(flat_b, *args), abs=1e-10
        )
        dec_a = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(), IdentityScaling()
        )
        dec_b = RateModel(
            WeightDensity.gaussian(), IdentityIndex(), ExpDecayKernel(), PowerScaling(2.0)
        )
        assert abs(log_mgf_limit(dec_a, *args) - log_mgf_limit(dec_b, *args)) > 1e-4


class TestCsvExport:
    def test_ratio_sweep(self, gaussian_model, tmp_path):
        path = tmp_path / "sweep.csv"
        write_ratio_sweep_csv(gaussian_model, 0.0, [0.5, 1.0, 9.0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,gamma,gamma_prime,gamma_second,beta"
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert float(row["gamma"]) == pytest.approx(gaussian_ratio_rate(1.0), abs=1e-8)
        out_of_domain = lines[3].split(",")
        assert out_of_domain[1] == "inf" and out_of_domain[2] == "nan"

    def test_conjugate_sweep(self, gaussian_model, tmp_path):
        path = tmp_path / "conj.csv"
        write_conjugate_sweep_csv(gaussian_model, [(1.0, 0.0), (2.0, 0.0)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda1,lambda2,gamma_legendre,gamma_closed,abs_diff"
        assert float(lines[2].split(",")[3]) == pytest.approx(
            2 * math.log(2.0) - 1.0, abs=1e-9
        )
