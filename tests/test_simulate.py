import math
import re
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import binomtest, ks_2samp, kstest, norm

from funcldp import funcdata, ratefn, simulate
from funcldp.cli import _weight, run
from funcldp.estimator import Dataset, EstimatorConfig, IdentityIndex, IntervalIndicator, z_n
from funcldp.funcdata import (Curve, Grid, GridMismatchError, IdentityScaling,
                              IntegralDifference, UniformKernel)
from funcldp.simulate import (
    LadderConfig,
    LinearFactorModel,
    NormalLaw,
    UniformLaw,
    bandwidth_schedule,
    conditional_density,
    default_model,
    induced_weight,
    pointwise_ladder,
    sample_dataset,
    small_ball_probe,
    uniform_ladder,
    wilson_interval,
)


def _rate_model(model, x, index=IdentityIndex()):
    """The uniform-kernel rate model of ``index`` at the curve ``x``, built by hand."""
    return ratefn.RateModel(induced_weight(model, x), index, UniformKernel(), IdentityScaling())


# ---------------------------------------------------------------------------
# Reference sampler for the ladders
# ---------------------------------------------------------------------------


def _oracle_draws(model, n, seed, rep):
    """All n responses and noise coefficients of one replicate, from its own stream."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, rep)))
    y = model.y_law.sample(rng, n)
    return y, rng.standard_normal(n)


def oracle_rung(model, index, centers, r_true, n, h, seed, reps):
    """Per-replicate reference for one ladder rung: draws every one of the n pairs.

    Returns each replicate's worst deviation over the centers and its
    in-window count at each center; an empty window estimates 0.
    """
    worst = np.empty(reps)
    counts = np.empty((reps, len(centers)), dtype=int)
    for rep in range(reps):
        y, eps = _oracle_draws(model, n, seed, rep)
        proj = y * model.signal_integral + eps * model.noise_integral
        ly = index(y)
        deviation = 0.0
        for k, (c, r) in enumerate(zip(centers, r_true)):
            active = np.abs(c - proj) <= h
            counts[rep, k] = np.count_nonzero(active)
            r_hat = float(np.mean(ly[active])) if counts[rep, k] else 0.0
            deviation = max(deviation, abs(r_hat - r))
        worst[rep] = deviation
    return worst, counts


def sampler_rung(model, index, centers, r_true, n, h, seed, reps):
    """The same two outputs, from the window sums of the ladders' exact sampler."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    blocks = list(simulate._window_sums(
        model, index, np.asarray(centers, dtype=float), n, h, reps, rng
    ))
    counts = np.vstack([s1 for s1, _, _ in blocks])
    sums = np.vstack([s2 for _, s2, _ in blocks])
    r_hat = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return np.max(np.abs(r_hat - np.asarray(r_true)), axis=1), counts


def window_probability(model, c, h):
    """P(|P - c| <= h), by a route apart from the sampler's cell masses."""
    a, b = model.signal_integral, model.noise_integral
    law = model.y_law
    if isinstance(law, NormalLaw):
        sd = math.hypot(a * law.sd, b)
        return float(norm.sf((c - h - a * law.mean) / sd) - norm.sf((c + h - a * law.mean) / sd))

    def given_y(y):
        return norm.cdf((c + h - a * y) / b) - norm.cdf((c - h - a * y) / b)

    mass, _ = integrate.quad(given_y, law.lo, law.hi, epsabs=0.0, epsrel=1e-12)
    return mass / (law.hi - law.lo)


# Each agreement check below is a test at this two-sided tail; the seeds are
# fixed, so the suite's outcome does not vary from run to run.
_TAIL = 1e-6


def assert_sampler_agrees(model, index, centers, n, seed, reps=10_000):
    """KS on the worst deviations against the oracle, and every center's
    in-window total against Binomial(n * reps, q), for sampler and oracle."""
    h, _ = bandwidth_schedule(n, 2.0, 1.5)
    r_true = [
        ratefn.tilted_mean(ratefn.RateModel(
            induced_weight(model, Curve.constant(model.grid, c)), index, UniformKernel(),
            IdentityScaling()), 0.0)
        for c in centers
    ]
    worst_s, counts_s = sampler_rung(model, index, centers, r_true, n, h, seed, reps)
    worst_o, counts_o = oracle_rung(model, index, centers, r_true, n, h, seed, reps)
    assert counts_s.shape == counts_o.shape == (reps, len(centers))
    assert ks_2samp(worst_s, worst_o).pvalue > _TAIL
    for k, c in enumerate(centers):
        q = window_probability(model, c, h)
        for counts in (counts_s, counts_o):
            assert binomtest(int(counts[:, k].sum()), n * reps, q).pvalue > _TAIL
    return worst_s, counts_s


class TestLaws:
    def test_normal_validation(self):
        with pytest.raises(ValueError):
            NormalLaw(0.0, 0.0)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformLaw(1.0, 1.0)

    def test_uniform_pdf(self):
        law = UniformLaw(-1.0, 3.0)
        np.testing.assert_allclose(law.pdf(np.array([-2.0, 0.0, 3.0, 4.0])),
                                   [0.0, 0.25, 0.25, 0.0])


class TestLinearFactorModel:
    @pytest.mark.parametrize("points", [51, 101, 201, 401])
    def test_default_integrals_are_one_to_rounding(self, points):
        model = default_model(points)
        for integral in (model.signal_integral, model.noise_integral):
            assert abs(integral - 1.0) <= 4 * np.spacing(1.0)

    def test_positive_noise_integral_required(self):
        grid = Grid(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="positive"):
            LinearFactorModel(
                Curve.constant(grid, 1.0), Curve.constant(grid, -1.0), NormalLaw()
            )

    def test_small_ball_scale(self, factor_model):
        assert factor_model.small_ball_scale(0.01) == pytest.approx(0.02)


class TestSampleDataset:
    def test_deterministic(self, factor_model):
        a = sample_dataset(factor_model, 50, seed=123)
        b = sample_dataset(factor_model, 50, seed=123)
        np.testing.assert_array_equal(a.x_values, b.x_values)
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("points", [51, 101])
    def test_blocks_match_broadcast_formula(self, points):
        # the blocked build is the same multiply-then-add as the broadcast
        # formula, kept here as the oracle: bitwise equal at every block edge
        model = default_model(points)
        step = funcdata._BLOCK_VALUES // points
        for n in (1, step - 1, step, 3 * step + 7):
            data = sample_dataset(model, n, seed=n)
            rng = np.random.default_rng(n)
            y = model.y_law.sample(rng, n)
            eps = rng.standard_normal(n)
            expected = (y[:, np.newaxis] * model.signal_curve.values[np.newaxis, :]
                        + eps[:, np.newaxis] * model.noise_curve.values[np.newaxis, :])
            assert data.x_values.shape == (n, points)
            assert np.array_equal(data.x_values, expected)
            assert np.array_equal(data.y, y)

    @pytest.mark.parametrize("n", [0, -3, 2.5, 3.0, True, "4", None], ids=repr)
    def test_n_must_be_a_positive_integer(self, factor_model, n):
        with pytest.raises(ValueError, match="n must be"):
            sample_dataset(factor_model, n, seed=0)

    def test_numpy_integer_n(self, factor_model):
        a = sample_dataset(factor_model, np.int64(5), seed=4)
        np.testing.assert_array_equal(a.x_values, sample_dataset(factor_model, 5, seed=4).x_values)

    @pytest.mark.parametrize("points", [51, 101])
    def test_factor_distances_match_matrix_route(self, points):
        # distances from the factor rows against the same rows as an explicit
        # matrix: L_p bitwise at every block edge, the integral difference
        # (sum of coefficient times basis integral) to rounding
        model = default_model(points)
        step = funcdata._BLOCK_VALUES // points
        t = model.grid.nodes()
        for n in (1, step - 1, step, step + 1, 3 * step + 7):
            data = sample_dataset(model, n, seed=n)
            assert isinstance(data.rows, funcdata.FactorRows)
            matrix = np.array(data.x_values)
            for x in (np.sin(7.0 * t), 40.0 + np.cos(3.0 * t)):
                for p in (1.0, 2.0, 3.0):
                    metric = funcdata.LpDistance(p)
                    assert np.array_equal(metric.distance_to_rows(x, data.rows, model.grid),
                                          metric.distance_to_rows(x, matrix, model.grid))
                metric = IntegralDifference()
                got = metric.distance_to_rows(x, data.rows, model.grid)
                expected = metric.distance_to_rows(x, matrix, model.grid)
                scale = 1.0 + abs(funcdata.quadrature(x, model.grid))
                assert np.max(np.abs(got - expected)) <= 1e-14 * scale

    def test_signal_overflow_names_finiteness(self, factor_model):
        # 1e300 * y stays finite for a standard normal y, so that dataset is
        # accepted; at 1e308 some row overflows, which the factor bound sees
        # without building the matrix or raising a floating-point warning
        grid = factor_model.grid
        for value, finite in ((1e300, True), (1e308, False)):
            model = LinearFactorModel(Curve(grid, np.full(grid.points, value)),
                                      factor_model.noise_curve, factor_model.y_law)
            if finite:
                assert np.all(np.isfinite(sample_dataset(model, 200, seed=0).x_values))
            else:
                with pytest.raises(ValueError, match="finite"):
                    sample_dataset(model, 200, seed=0)

    def test_projection_mean_clt_bound(self, factor_model):
        # E integral(X) = E Y = 0; sd of the mean is sqrt(Ih^2 + Il^2)/sqrt(n)
        n = 100_000
        data = sample_dataset(factor_model, n, seed=11)
        projections = integrate.trapezoid(data.x_values, dx=factor_model.grid.spacing, axis=1)
        bound = 3.0 * math.sqrt(2.0) / math.sqrt(n)
        assert abs(float(np.mean(projections))) < bound


class TestConditionalDensity:
    def test_peak_value(self, factor_model):
        # curve projection equal to v * signal integral puts us at the peak
        x = Curve.constant(factor_model.grid, 0.7)
        assert conditional_density(factor_model, x, 0.7) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-12
        )

    def test_standard_normal_value(self, factor_model, zero_curve):
        assert conditional_density(factor_model, zero_curve, 1.0) == pytest.approx(
            float(norm.pdf(1.0)), rel=1e-12
        )

    def test_peak_scales_inversely_with_noise_integral(self, factor_model, zero_curve):
        doubled = LinearFactorModel(
            factor_model.signal_curve,
            Curve(factor_model.grid, 2.0 * factor_model.noise_curve.values),
            factor_model.y_law,
        )
        assert conditional_density(doubled, zero_curve, 0.0) == pytest.approx(
            0.5 * conditional_density(factor_model, zero_curve, 0.0), rel=1e-12
        )


class TestInducedWeight:
    def test_matches_pointwise_product(self, factor_model, zero_curve):
        weight = induced_weight(factor_model, zero_curve)
        v = weight.nodes
        expected = conditional_density(factor_model, zero_curve, v) * factor_model.y_law.pdf(v)
        np.testing.assert_allclose(weight.w, expected, rtol=0, atol=0)

    def test_uniform_law_window(self, factor_model):
        model = LinearFactorModel(
            factor_model.signal_curve, factor_model.noise_curve, UniformLaw(-2.0, 2.0)
        )
        weight = induced_weight(model, Curve.constant(model.grid, 0.0))
        assert weight.w[0] == 0.0 and weight.w[-1] == 0.0
        assert weight.mass > 0

    def test_one_response_grid(self, factor_model, zero_curve):
        # the library's Gaussian weight, the rate model's and the CLI's default
        # are one weight on the ratefn grid, and every induced weight uses it
        weights = [ratefn.WeightDensity.gaussian(), ratefn.gaussian_identity_model().weight,
                   _weight({"gaussian": {}})]
        for weight in weights:
            assert weight.w.size == ratefn.WEIGHT_NODES
            assert (weight.v_lo, weight.v_hi) == (-ratefn.WEIGHT_HALF_WIDTH,
                                                  ratefn.WEIGHT_HALF_WIDTH)
            assert weight.w.tobytes() == weights[0].w.tobytes()
        uniform = LinearFactorModel(factor_model.signal_curve, factor_model.noise_curve,
                                    UniformLaw(-1.0, 2.0))
        for model in (factor_model, uniform):
            assert induced_weight(model, zero_curve).w.size == ratefn.WEIGHT_NODES


class TestSmallBallProbe:
    def test_interval_probability_oracle(self, factor_model, zero_curve):
        # exact value: P(|eps| <= u) for a standard normal projection
        probe = small_ball_probe(factor_model, zero_curve, v=0.0, radius=0.01,
                                 replicates=1_000_000, seed=99)
        exact = float(norm.cdf(0.01) - norm.cdf(-0.01))
        noise = 3.0 * math.sqrt(exact * (1 - exact) / 1_000_000)
        assert abs(probe.mc - exact) < noise
        assert probe.analytic == pytest.approx(0.02 * float(norm.pdf(0.0)), rel=1e-12)

    def test_far_point_flags_zero_hits(self, factor_model):
        x = Curve.constant(factor_model.grid, 50.0)
        probe = small_ball_probe(factor_model, x, v=0.0, radius=0.01,
                                 replicates=10_000, seed=1)
        assert probe.hits == 0 and probe.mc == 0.0 and probe.analytic < 1e-100

    def test_ratio_near_one(self, factor_model, zero_curve):
        for v in (-1.0, 0.0, 1.0):
            probe = small_ball_probe(factor_model, zero_curve, v=v, radius=0.01,
                                     replicates=200_000, seed=int(10 + v))
            assert 0.9 <= probe.mc / probe.analytic <= 1.1

    def test_zero_replicates_rejected(self, factor_model, zero_curve):
        with pytest.raises(ValueError, match="replicates"):
            small_ball_probe(factor_model, zero_curve, v=0.0, radius=0.01, replicates=0, seed=1)


class TestBandwidthSchedule:
    def test_hand_values_at_sixteen(self):
        h, phi_h = bandwidth_schedule(16, a=2.0, alpha=2.0)
        ratio = math.log(math.log(16.0)) / 16.0
        assert h == pytest.approx(math.sqrt(ratio), rel=1e-14)
        assert phi_h == pytest.approx(2.0 * ratio, rel=1e-14)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_schedule(15, 2.0, 2.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bandwidth_schedule(100, 0.0, 2.0)
        with pytest.raises(ValueError):
            bandwidth_schedule(100, 2.0, 1.0)

    def test_speed_grows_slowly(self):
        speeds = [n * bandwidth_schedule(n, 2.0, 2.0)[1] for n in (16, 100, 1000, 10000)]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] == pytest.approx(2.0 * math.log(math.log(10000)), rel=1e-12)

    def test_growth_condition_diagnostic(self):
        # exp(A n phi) / (n phi * n h) must fall along the ladder for A = 1
        values = []
        for n in (16, 100, 1000, 10000):
            h, phi_h = bandwidth_schedule(n, 2.0, 2.0)
            speed = n * phi_h
            values.append(math.exp(speed) / (speed * n * h))
        assert all(b < a for a, b in zip(values, values[1:]))


class TestWilsonInterval:
    def test_contains_proportion(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi

    def test_width_shrinks_like_root_two(self):
        lo1, hi1 = wilson_interval(50, 1000)
        lo2, hi2 = wilson_interval(100, 2000)
        ratio = (hi2 - lo2) / (hi1 - lo1)
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=0.01)

    def test_zero_hits_upper_positive(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0.0 < hi < 0.01


class TestLadderConfig:
    def test_increasing_n_required(self):
        with pytest.raises(ValueError):
            LadderConfig((200, 200), 1.5, 1.0, 1000, 0)

    def test_minimum_replicates(self):
        with pytest.raises(ValueError, match="1000"):
            LadderConfig((200,), 1.5, 1.0, 10, 0)

    @pytest.mark.parametrize("later", [0, -5])
    def test_every_rung_needs_a_replicate(self, later):
        with pytest.raises(ValueError, match="replicate"):
            LadderConfig((200, 500), 1.5, 1.0, (1000, later), 0)

    @pytest.mark.parametrize("n_values,replicates,bad", [
        ((200.7, 500), 1000, "200.7"),
        ((200, 500), (1000.9, 7.5), "1000.9"),
        ((200, 500), (1000, 7.5), "7.5"),
        ((200, 500), 1000.5, "1000.5"),
        ((200, math.nan), 1000, "nan"),
    ])
    def test_non_integral_sizes_rejected(self, n_values, replicates, bad):
        with pytest.raises(ValueError, match=re.escape(bad)):
            LadderConfig(n_values, 1.5, 1.0, replicates, 0)

    @pytest.mark.parametrize("n_values,alpha,message", [
        ((8, 200), 1.5, "^n must be an integer >= 16, got 8$"),
        ((200,), 1.0, "^alpha must be a finite real > 1, got 1.0$"),
    ], ids=["n_values0-1.5", "n_values1-1.0"])
    def test_schedule_checked_at_construction(self, n_values, alpha, message):
        with pytest.raises(ValueError, match=message):
            LadderConfig(n_values, alpha, 1.0, 1000, 0)

    def test_replicates_broadcast(self):
        cfg = LadderConfig((200, 500), 1.5, 1.0, 1000, 0)
        assert cfg.replicates == (1000, 1000)


@pytest.fixture(scope="module")
def ladder(factor_model, zero_curve):
    cfg = LadderConfig((200, 500), 1.5, 1.0, (4000, 4000), seed=314)
    return pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)


class TestPointwiseLadder:

    def test_rates_positive(self, ladder):
        for record in ladder:
            assert 0.0 < record.p_hat < 1.0
            assert record.empirical_rate > 0.0
            assert record.flag == "ok"

    def test_theoretical_rate_matches_closed_form(self, ladder):
        expected = (1.0 - math.exp(-1.0)) / math.sqrt(4.0 * math.pi)
        assert ladder[0].theoretical_rate == pytest.approx(expected, abs=1e-9)

    def test_csv_deterministic(self, tmp_path):
        cfg = {"command": "simulate", "model": {"default": True}, "x0": {"constant": 0.0},
               "n_values": [200], "alpha": 1.5, "lambda": 1.0,
               "replicates": 1000, "seed": 2718}
        paths = []
        for name in ("a", "b"):
            run(dict(cfg), str(tmp_path / name))
            paths.append(tmp_path / name / "ladder.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_impossible_width_flags_zero_hits(self, factor_model, zero_curve):
        cfg = LadderConfig((200,), 1.5, 50.0, 1000, seed=161)
        records = pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)
        assert records[0].flag == "zero_hits"
        assert records[0].hits == 0
        # the reported rate is the Wilson lower bound on the decay
        assert records[0].empirical_rate > 0.0

    def test_hit_probability_monotone_in_width(self, factor_model, zero_curve):
        p_hats, intervals = [], []
        for lam in (0.5, 1.0, 1.5):
            cfg = LadderConfig((200,), 1.5, lam, 4000, seed=777)
            record = pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)[0]
            p_hats.append(record.p_hat)
            intervals.append((record.wilson_low, record.wilson_high))
        for (lo_wide, _), (_, hi_narrow) in zip(intervals, intervals[1:]):
            assert hi_narrow >= lo_wide * 0.0  # intervals exist
        assert p_hats[0] >= p_hats[1] >= p_hats[2]

    def test_matches_full_estimator_path(self, factor_model, induced_rate_model, zero_curve):
        # replay the reference sampler's replicate streams through the generic
        # curve-based estimator and reproduce its hit count exactly
        n, reps, lam, seed = 200, 1000, 0.8, 424242
        h, _ = bandwidth_schedule(n, 2.0, 1.5)
        est_cfg = EstimatorConfig(
            UniformKernel(), IntegralDifference(), h, factor_model.small_ball_scale(h)
        )
        r_true = ratefn.tilted_mean(induced_rate_model, 0.0)
        worst, _ = oracle_rung(factor_model, IdentityIndex(), [0.0], [r_true], n, h, seed,
                               reps)
        hits = 0
        for rep in range(reps):
            y, eps = _oracle_draws(factor_model, n, seed, rep)
            x_values = (
                y[:, None] * factor_model.signal_curve.values[None, :]
                + eps[:, None] * factor_model.noise_curve.values[None, :]
            )
            data = Dataset(factor_model.grid, x_values, y)
            z = z_n(zero_curve, data, IdentityIndex(), [est_cfg])[0]
            if abs(z.r_hat - r_true) > lam:
                hits += 1
        assert hits == int(np.count_nonzero(worst > lam)) > 0


class TestUniformLadder:
    def test_singleton_matches_pointwise(self, factor_model, zero_curve):
        cfg = LadderConfig((200,), 1.5, 1.0, 2000, seed=909)
        single = uniform_ladder(factor_model, [zero_curve], IdentityIndex(), cfg)
        point = pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)
        assert single == point

    def test_union_event_dominates_centers(self, factor_model):
        centers = [Curve.constant(factor_model.grid, c) for c in (-0.5, 0.0, 0.5)]
        cfg = LadderConfig((200,), 1.5, 1.0, 4000, seed=31415)
        union = uniform_ladder(factor_model, centers, IdentityIndex(), cfg)[0]
        for x in centers:
            single = pointwise_ladder(factor_model, x, IdentityIndex(), cfg)[0]
            assert union.p_hat >= single.p_hat - (single.wilson_high - single.wilson_low)

    def test_theoretical_rate_is_class_minimum(self, factor_model):
        centers = [Curve.constant(factor_model.grid, c) for c in (-1.0, 0.0, 1.0)]
        models = [_rate_model(factor_model, x) for x in centers]
        cfg = LadderConfig((200,), 1.5, 1.0, 1000, seed=1)
        records = uniform_ladder(factor_model, centers, IdentityIndex(), cfg)
        betas = [ratefn.two_sided_rate(m, 1.0) for m in models]
        assert records[0].theoretical_rate == pytest.approx(min(betas), abs=1e-12)

    def test_ladder_reads_each_model_limit(self, factor_model, monkeypatch):
        # each rate model probes three tilted means when it is built; the ladder adds none
        calls = []
        tilted_mean = ratefn.tilted_mean
        monkeypatch.setattr(ratefn, "tilted_mean",
                            lambda model, t: (calls.append(t), tilted_mean(model, t))[1])
        centers = [Curve.constant(factor_model.grid, c) for c in (-1.0, 0.0, 1.0)]
        uniform_ladder(factor_model, centers, IdentityIndex(),
                       LadderConfig((200,), 1.5, 1.0, 1000, seed=1))
        assert len(calls) == 9

    def test_indicator_index_pairs_theory_and_sampler(self, factor_model):
        # both halves of the ladder see the half-line indicator at every center
        index = IntervalIndicator(((0.0, math.inf),))
        centers = [Curve.constant(factor_model.grid, c) for c in (-0.5, 0.5)]
        n, reps, lam, seed = 500, 3000, 0.3, 8112
        cfg = LadderConfig((n,), 1.5, lam, reps, seed=seed)
        record = uniform_ladder(factor_model, centers, index, cfg)[0]
        models = [_rate_model(factor_model, x, index) for x in centers]
        assert record.theoretical_rate == ratefn.class_rate(models, lam)
        worst, _ = sampler_rung(factor_model, index, [x.integral() for x in centers],
                                [ratefn.tilted_mean(m, 0.0) for m in models], n, record.h,
                                seed, reps)
        assert record.hits == int(np.count_nonzero(worst > lam)) > 0


class TestLadderCenterGrid:
    """A ladder center must lie on the model's grid, as ``z_n`` requires of its curve."""

    CFG = LadderConfig((200,), 1.5, 1.0, 1000, seed=1)

    def test_pointwise_rejects_center_off_grid(self, factor_model):
        # a curve on [0, 2], not the model's [0, 1]: its projection is 2, not 1
        x0 = Curve.constant(Grid(0.0, 2.0, 101), 1.0)
        with pytest.raises(GridMismatchError):
            pointwise_ladder(factor_model, x0, IdentityIndex(), self.CFG)

    def test_uniform_rejects_any_center_off_grid(self, factor_model, zero_curve):
        for off in (Grid(0.0, 2.0, 101), Grid(0.0, 1.0, 51)):
            centers = [zero_curve, Curve.constant(off, 0.0)]
            with pytest.raises(GridMismatchError):
                uniform_ladder(factor_model, centers, IdentityIndex(), self.CFG)
        # centers sharing a grid other than the model's are rejected too
        shared = Grid(0.0, 2.0, 101)
        with pytest.raises(GridMismatchError):
            uniform_ladder(factor_model, [Curve.constant(shared, c) for c in (0.0, 1.0)],
                           IdentityIndex(), self.CFG)


def _uniform_response_model(factor_model, signal_scale):
    return LinearFactorModel(
        Curve(factor_model.grid, signal_scale * factor_model.signal_curve.values),
        factor_model.noise_curve,
        UniformLaw(-1.0, 2.0),
    )


class TestSufficientStatisticSampler:
    """The ladders' sampler against the per-replicate reference, law by law."""

    def test_normal_law(self, factor_model):
        assert_sampler_agrees(factor_model, IdentityIndex(), [0.0], 200, seed=8101)

    def test_uniform_law(self, factor_model):
        model = _uniform_response_model(factor_model, 1.0)
        assert_sampler_agrees(model, IdentityIndex(), [0.3], 200, seed=8102)

    def test_uniform_law_without_signal(self, factor_model):
        # a = 0: the response is independent of the projection
        model = _uniform_response_model(factor_model, 0.0)
        assert model.signal_integral == 0.0
        assert_sampler_agrees(model, IdentityIndex(), [0.0], 200, seed=8103)

    def test_negative_signal_uniform_law(self, factor_model):
        model = _uniform_response_model(factor_model, -0.7)
        assert_sampler_agrees(model, IdentityIndex(), [-0.4, 0.4], 200, seed=8104)

    def test_overlapping_windows(self, factor_model):
        centers = [-0.02, 0.0, 0.03]
        h, _ = bandwidth_schedule(200, 2.0, 1.5)
        assert max(np.diff(centers)) < 2.0 * h
        assert_sampler_agrees(factor_model, IdentityIndex(), centers, 200, seed=8105)

    def test_interval_indicator_index(self, factor_model):
        index = IntervalIndicator(((0.0, math.inf),))
        assert_sampler_agrees(factor_model, index, [0.0, 0.5], 200, seed=8106)

    def test_center_far_in_the_tail(self, factor_model):
        # 12 is 8.5 sd of the projection out: its window is empty in every
        # replicate of both samplers, so the worst deviation is its r_true there
        sd_p = math.hypot(factor_model.signal_integral, factor_model.noise_integral)
        assert 12.0 >= 8.0 * sd_p
        worst, counts = assert_sampler_agrees(factor_model, IdentityIndex(), [0.0, 12.0],
                                              200, seed=8107, reps=2000)
        assert np.all(counts[:, 1] == 0) and np.all(np.isfinite(worst))

    def test_tail_cells_are_exact(self, factor_model):
        # in-cell draws 8 and 25 sd of P out follow the truncated normal law
        # computed from survival functions, and the cell masses match them
        law = factor_model.y_law
        a, b = factor_model.signal_integral, factor_model.noise_integral
        sd_p = math.hypot(a, b)
        for z_lo, z_hi in ((8.0, 8.3), (25.0, 25.05), (-8.3, -8.0)):
            lo, hi = z_lo * sd_p, z_hi * sd_p
            masses, draw = law.cells(a, b, np.array([lo]), np.array([hi]))
            expected = norm.sf(z_lo) - norm.sf(z_hi) if z_lo > 0 else norm.cdf(z_hi) - norm.cdf(z_lo)
            assert masses[0] == pytest.approx(expected, rel=1e-10)
            p, y = draw(np.random.default_rng(8108), np.zeros(20_000, dtype=int))
            assert np.all((p >= lo) & (p <= hi)) and np.all(np.isfinite(y))
            # the tail side of each cell keeps its precision: sf above 0, cdf below
            f = (lambda z: -norm.sf(z)) if z_lo > 0 else norm.cdf
            assert kstest(p, lambda v: (f(v / sd_p) - f(z_lo)) / (f(z_hi) - f(z_lo))).pvalue > _TAIL
            # Y given P is N(a s^2 P / sd_p^2, s^2 b^2 / sd_p^2) for this law
            residual = y - (a * law.sd**2 / sd_p**2) * p
            assert kstest(residual, norm(0.0, law.sd * b / sd_p).cdf).pvalue > _TAIL

    def test_uniform_law_tail_mass(self, factor_model):
        model = _uniform_response_model(factor_model, 1.0)
        a, b = model.signal_integral, model.noise_integral
        for lo, hi in ((6.0, 6.1), (-5.0, -4.9), (0.2, 0.25)):
            masses, _ = model.y_law.cells(a, b, np.array([lo]), np.array([hi]))
            center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            assert masses[0] == pytest.approx(window_probability(model, center, half), rel=1e-9)

    @pytest.mark.parametrize("signal_scale", [1.0, -0.7])
    def test_uniform_law_wide_cell_draws(self, factor_model, signal_scale):
        # (P, Y) drawn in wide cells, against plain draws kept when P lands inside
        model = _uniform_response_model(factor_model, signal_scale)
        a, b = model.signal_integral, model.noise_integral
        rng = np.random.default_rng(8110)
        y_all = model.y_law.sample(rng, 400_000)
        p_all = a * y_all + b * rng.standard_normal(400_000)
        for lo, hi in ((-0.6, 0.2), (1.0, 3.5)):
            inside = (p_all >= lo) & (p_all <= hi)
            _, draw = model.y_law.cells(a, b, np.array([lo]), np.array([hi]))
            p, y = draw(rng, np.zeros(20_000, dtype=int))
            assert ks_2samp(p, p_all[inside]).pvalue > _TAIL
            assert ks_2samp(y, y_all[inside]).pvalue > _TAIL

    @pytest.mark.parametrize("law, signal_scale", [
        (NormalLaw(0.0, 1.0), 1.0),
        (NormalLaw(0.4, 1.7), -0.6),
        (UniformLaw(-1.0, 2.0), 1.0),
        (UniformLaw(-1.0, 2.0), -0.7),
        (UniformLaw(-1.0, 2.0), 0.0),
    ])
    def test_compact_cells_draw_as_expanded(self, factor_model, law, signal_scale):
        # per-cell bounds read through a cell index draw, bit for bit, what the
        # same bounds expanded to one cell per draw do: 25 sd tail cells on both
        # sides, a cell across the law's centre and two cells in between
        a, b = signal_scale * factor_model.signal_integral, factor_model.noise_integral
        if isinstance(law, NormalLaw):
            center, sd_p = a * law.mean, math.hypot(a * law.sd, b)
        else:
            center = 0.5 * a * (law.lo + law.hi)
            sd_p = math.hypot(a * (law.hi - law.lo) / math.sqrt(12.0), b)
        z = np.array([[-25.05, -25.0], [-2.0, -1.0], [-0.3, 0.2], [3.0, 4.0], [25.0, 25.05]])
        lo, hi = center + sd_p * z[:, 0], center + sd_p * z[:, 1]
        cell = np.random.default_rng(8112).integers(0, lo.size, 3000)
        masses, draw = law.cells(a, b, lo, hi)
        expanded_masses, draw_expanded = law.cells(a, b, lo[cell], hi[cell])
        assert np.array_equal(masses[cell], expanded_masses)
        compact = draw(np.random.default_rng(8113), cell)
        expanded = draw_expanded(np.random.default_rng(8113), np.arange(cell.size))
        assert np.array_equal(compact[0], expanded[0])
        assert np.array_equal(compact[1], expanded[1])
        assert np.all((compact[0] >= lo[cell]) & (compact[0] <= hi[cell]))
        assert np.all(np.isfinite(compact[1]))

    def test_pinned_hit_counts(self, factor_model, zero_curve):
        # three small ladders whose hits were recorded when the truncation
        # constants were computed per draw; any change to a draw moves them
        pointwise = LadderConfig((200, 500, 1000), 1.5, 0.8, (4000, 3000, 2000), seed=1801)
        records = pointwise_ladder(factor_model, zero_curve, IdentityIndex(), pointwise)
        assert [r.hits for r in records] == [157, 47, 10]
        centers = [Curve.constant(factor_model.grid, c) for c in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        uniform = LadderConfig((200, 500, 1000), 1.5, 0.8, (3000, 2000, 1000), seed=1802)
        records = uniform_ladder(factor_model, centers, IdentityIndex(), uniform)
        assert [r.hits for r in records] == [679, 214, 40]
        model = _uniform_response_model(factor_model, 1.0)
        centers = [Curve.constant(model.grid, c) for c in (-0.5, 0.3, 1.2)]
        uniform = LadderConfig((200, 500, 1000), 1.5, 0.6, (3000, 2000, 1000), seed=1803)
        records = uniform_ladder(model, centers, IdentityIndex(), uniform)
        assert [r.hits for r in records] == [895, 325, 84]

    def test_cells_built_once_per_rung(self, factor_model, zero_curve):
        # the law derives each rung's cell constants once, however many blocks
        # the rung draws in, and the counting law draws what NormalLaw draws
        blocks = []  # one list per cells call, one entry per draw call

        class CountingLaw(NormalLaw):
            def cells(self, a, b, lo, hi):
                masses, draw = super().cells(a, b, lo, hi)
                rung = []
                blocks.append(rung)

                def counting_draw(rng, cell):
                    rung.append(cell.size)
                    return draw(rng, cell)

                return masses, counting_draw

        model = LinearFactorModel(factor_model.signal_curve, factor_model.noise_curve,
                                  CountingLaw(0.0, 1.0))
        cfg = LadderConfig((200, 1000, 20000), 1.5, 1.0, (2000, 1000, 6000), seed=8115)
        records = pointwise_ladder(model, zero_curve, IdentityIndex(), cfg)
        assert len(blocks) == 3
        assert len(blocks[0]) == 1 and len(blocks[2]) > 1
        assert records == pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)

    def test_rung_stats_count_the_rung_draws(self, factor_model, zero_curve):
        # one center: every in-window draw lies in its window, so the draws are
        # the window counts of the rung's stream
        n_values, reps, seed = (200, 500), (2000, 1000), 8114
        cfg = LadderConfig(n_values, 1.5, 1.0, reps, seed=seed)
        records = pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)
        assert records == pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)
        assert [(r.n, r.replicates) for r in records] == list(zip(n_values, reps))
        for record in records:
            _, counts = sampler_rung(factor_model, IdentityIndex(), [0.0], [0.0], record.n,
                                     record.h, seed, record.replicates)
            assert record.in_window_draws == int(counts.sum()) > 0
            assert record.seconds > 0.0

    def test_million_observation_rung(self, factor_model, zero_curve):
        n, reps = 10**6, 2000
        started = time.perf_counter()
        cfg = LadderConfig((n,), 1.5, 1.0, reps, seed=8109)
        record = pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)[0]
        assert time.perf_counter() - started < 20.0
        assert record.replicates == reps and record.n == n
        h, _ = bandwidth_schedule(n, 2.0, 1.5)
        _, counts = sampler_rung(factor_model, IdentityIndex(), [0.0], [0.0], n, h, 8109, reps)
        q = window_probability(factor_model, 0.0, h)
        assert binomtest(int(counts.sum()), n * reps, q).pvalue > _TAIL

    def test_ladder_hits_come_from_the_rung_stream(self, factor_model, induced_rate_model,
                                                   zero_curve):
        n, reps, lam, seed = 500, 3000, 0.8, 8111
        cfg = LadderConfig((n,), 1.5, lam, reps, seed=seed)
        record = pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)[0]
        r_true = ratefn.tilted_mean(induced_rate_model, 0.0)
        worst, _ = sampler_rung(factor_model, IdentityIndex(), [0.0], [r_true], n, record.h,
                                seed, reps)
        assert record.hits == int(np.count_nonzero(worst > lam)) > 0
