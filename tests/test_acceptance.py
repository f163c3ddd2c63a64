"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Each test prints a single ``[criterion N] PASS`` line with the measured
numbers; a failing criterion shows up as the test's failure line.  The
Monte-Carlo criteria run with frozen seeds and replicate counts chosen so
the asserted margins sit well clear of the residual sampling noise.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from funcldp import covering, ratefn, simulate
from funcldp.estimator import EstimatorConfig, IdentityIndex, finite_n_log_mgf, z_n
from funcldp.funcdata import (
    Curve,
    Grid,
    IdentityScaling,
    IntegralDifference,
    LpDistance,
    UniformKernel,
)


def test_criterion_01_conjugate_oracle_equivalence(gaussian_model):
    """Closed-form and Legendre-ascent pair rates agree to 1e-6 on a 7x7 grid."""
    started = time.time()
    worst = 0.0
    for lam1 in np.linspace(0.25, 4.0, 7):
        for ratio in np.linspace(-2.0, 2.0, 7):
            lam1_f, lam2_f = float(lam1), float(lam1 * ratio)
            closed = ratefn.closed_rate_uniform(gaussian_model, lam1_f, lam2_f)
            numeric = ratefn.legendre_rate(gaussian_model, lam1_f, lam2_f)
            worst = max(worst, abs(closed - numeric))
    elapsed = time.time() - started
    assert worst < 1e-6
    assert elapsed < 60.0
    print(f"[criterion 1] PASS: max |closed - legendre| = {worst:.2e} on 7x7 grid "
          f"({elapsed:.1f}s)")


def test_criterion_02_analytic_ratio_rate(gaussian_model):
    """Closed ratio rate equals 1 - exp(-lam^2/2); contraction route agrees."""
    worst_closed = worst_pair = 0.0
    for lam in (0.25, 0.5, 1.0, 1.5, 2.0):
        closed = ratefn.ratio_rate_closed(gaussian_model, lam)
        analytic = 1.0 - math.exp(-0.5 * lam * lam)
        contraction = ratefn.ratio_rate(gaussian_model, lam)
        worst_closed = max(worst_closed, abs(closed - analytic))
        worst_pair = max(worst_pair, abs(closed - contraction))
    assert worst_closed < 1e-6
    assert worst_pair < 1e-6
    print(f"[criterion 2] PASS: |closed - analytic| <= {worst_closed:.2e}, "
          f"|closed - contraction| <= {worst_pair:.2e}")


def test_criterion_03_derivative_formulas(gaussian_model):
    """Derivative displays match finite differences; quadratic ratio within 1%."""
    step = 1e-4
    worst = 0.0
    for lam in np.linspace(-1.5, 1.5, 11):
        lam = float(lam)
        g1, g2 = ratefn.ratio_rate_derivatives(gaussian_model, lam)
        up = ratefn.ratio_rate_closed(gaussian_model, lam + step)
        down = ratefn.ratio_rate_closed(gaussian_model, lam - step)
        mid = ratefn.ratio_rate_closed(gaussian_model, lam)
        worst = max(worst, abs(g1 - (up - down) / (2 * step)))
        worst = max(worst, abs(g2 - (up - 2 * mid + down) / step**2))
    assert worst < 1e-5
    ratio = ratefn.ratio_rate_closed(gaussian_model, 0.025) / ratefn.ratio_rate_quadratic(
        gaussian_model, 0.025
    )
    assert abs(ratio - 1.0) < 0.01
    print(f"[criterion 3] PASS: max derivative gap {worst:.2e}; quadratic ratio "
          f"{ratio:.6f} at width 0.025")


def test_criterion_04_indicator_rate(halfline_indicator_model):
    """Half-line indicator rate equals the Bernoulli relative entropy."""
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    by_display = ratefn.indicator_rate(halfline_indicator_model, 1.0, 0.75)
    by_newton = ratefn.legendre_rate(halfline_indicator_model, 1.0, 0.75)
    assert abs(by_display - expected) < 1e-6
    assert abs(by_display - by_newton) < 1e-6
    print(f"[criterion 4] PASS: indicator rate {by_display:.9f} vs entropy "
          f"{expected:.9f}, legendre gap {abs(by_display - by_newton):.2e}")


def test_criterion_05_small_ball_decomposition(factor_model, zero_curve):
    """Monte-Carlo small-ball probabilities track the analytic approximation."""
    started = time.time()
    ratios = []
    for k, v in enumerate((-1.0, 0.0, 1.0)):
        probe = simulate.small_ball_probe(
            factor_model, zero_curve, v=v, radius=0.01, replicates=1_000_000,
            seed=501 + k,
        )
        ratios.append(probe.mc / probe.analytic)
        assert 0.9 <= ratios[-1] <= 1.1
    elapsed = time.time() - started
    assert elapsed < 120.0
    print(f"[criterion 5] PASS: mc/analytic ratios "
          f"{[f'{r:.4f}' for r in ratios]} ({elapsed:.1f}s)")


def test_criterion_06_finite_n_log_mgf_convergence():
    """The finite-n scaled log-MGF approaches its limit along the ladder.

    The deterministic finite-n gap at these bandwidths is already inside
    0.2% of the limit, so the replicate counts grow along the ladder to
    keep the sampling noise shrinking as well; the seed is frozen.
    """
    model = simulate.default_model(51)
    x0 = Curve.constant(model.grid, 0.0)
    rate_model = ratefn.RateModel(
        simulate.induced_weight(model, x0), IdentityIndex(), UniformKernel(),
        IdentityScaling(),
    )
    target = ratefn.log_mgf_limit(rate_model, 0.2, 0.1)
    errors = []
    for n, replicates in ((500, 500), (2000, 3000), (8000, 16000)):
        h, _ = simulate.bandwidth_schedule(n, 2.0, 1.5)
        cfg = EstimatorConfig(
            UniformKernel(), IntegralDifference(), h, model.small_ball_scale(h)
        )
        out = finite_n_log_mgf(
            x0,
            lambda rng, n=n: simulate.sample_dataset(model, n, int(rng.integers(2**62))),
            IdentityIndex(), cfg, 0.2, 0.1, replicates, seed=3,
        )
        assert not out.overflow
        errors.append(abs(out.value - target) / target)
    assert errors[-1] < 0.10
    assert all(b < a for a, b in zip(errors, errors[1:]))
    print(f"[criterion 6] PASS: relative errors "
          f"{[f'{e:.4f}' for e in errors]} vs limit {target:.5f}")


def test_criterion_07_pointwise_ladder(factor_model, zero_curve):
    """Empirical decay rates fall monotonically toward the two-sided rate."""
    started = time.time()
    cfg = simulate.LadderConfig(
        (200, 500, 1000, 2000), 1.5, 1.0,
        (50_000, 200_000, 400_000, 800_000), seed=20260809,
    )
    records = simulate.pointwise_ladder(factor_model, zero_curve, IdentityIndex(), cfg)
    elapsed = time.time() - started
    rates = [r.empirical_rate for r in records]
    beta = records[0].theoretical_rate
    assert all(r.hits > 0 for r in records)
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert abs(rates[-1] - beta) / beta <= 0.25
    assert elapsed < 900.0
    print(f"[criterion 7] PASS: rates {[f'{r:.4f}' for r in rates]} -> beta "
          f"{beta:.4f}; final gap {abs(rates[-1]-beta)/beta:.1%} ({elapsed:.0f}s)")


def test_criterion_08_uniform_ladder(factor_model):
    """Worst-deviation rates track the class rate and sit below every center's."""
    centers = [Curve.constant(factor_model.grid, c) for c in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    cfg = simulate.LadderConfig(
        (200, 500, 1000, 2000), 1.5, 1.0,
        (20_000, 20_000, 40_000, 60_000), seed=5150,
    )
    records = simulate.uniform_ladder(factor_model, centers, IdentityIndex(), cfg)
    rho = records[0].theoretical_rate
    gaps = [abs(r.empirical_rate - rho) / rho for r in records]
    assert all(gap <= 0.30 for gap in gaps)
    final = records[-1]
    for j, x in enumerate(centers):
        comparator_cfg = simulate.LadderConfig((2000,), 1.5, 1.0, 50_000, seed=6000 + j)
        pointwise = simulate.pointwise_ladder(factor_model, x, IdentityIndex(),
                                              comparator_cfg)[0]
        noise = (
            math.log(pointwise.wilson_high) - math.log(max(pointwise.wilson_low, 1e-300))
        ) / (2 * pointwise.n * pointwise.phi_h)
        assert final.empirical_rate <= pointwise.empirical_rate + noise
    print(f"[criterion 8] PASS: uniform gaps to rho {[f'{g:.3f}' for g in gaps]}; "
          f"final rate {final.empirical_rate:.4f} below all 5 pointwise rates")


def test_criterion_09_entropy_diagnostics():
    """Scale-class covering entropy falls with the radius; covers are sound."""
    grid = Grid(0.0, 1.0, 201)
    t = grid.nodes()
    bump = Curve(grid, np.exp(-0.5 * ((t - 0.5) / 0.08) ** 2))
    cls = covering.scale_class(bump, 1.0, 2.0, 64)
    metric = LpDistance(1.0)
    entropies = []
    for nu in (0.2, 0.1, 0.05, 0.025):
        report = covering.greedy_cover(cls, nu, metric)
        radii = covering.coverage_radii(cls, report, metric)
        assert float(np.max(radii)) <= nu
        entropies.append(report.nu_log_n)
    assert all(b < a for a, b in zip(entropies, entropies[1:]))
    print(f"[criterion 9] PASS: nu*log(N) = {[f'{e:.4f}' for e in entropies]}, "
          "coverage post-checks exact")


def test_criterion_10_invariant_suites(gaussian_model, factor_model, zero_curve):
    """Compact rerun of the structural property suites."""
    started = time.time()
    rng = np.random.default_rng(2718)

    # tilted mean is nondecreasing
    for _ in range(200):
        t, s = sorted(rng.uniform(-10.0, 10.0, size=2))
        assert ratefn.tilted_mean(gaussian_model, t) <= (
            ratefn.tilted_mean(gaussian_model, s) + 1e-12
        )

    # generalized inverse round trip
    bounds = ratefn.tilted_mean_range(gaussian_model)
    for y in np.linspace(bounds.v0 + 0.2, bounds.v1 - 0.2, 15):
        s = ratefn.tilted_mean_inverse(gaussian_model, float(y))
        assert abs(ratefn.tilted_mean(gaussian_model, s) - y) < 1e-8

    # pair rate: midpoint convexity and zero at the mean vector
    mean_vector = ratefn.log_mgf_gradient(gaussian_model, 0.0, 0.0)
    assert abs(ratefn.legendre_rate(gaussian_model, *mean_vector)) < 1e-10
    for _ in range(20):
        p1 = rng.uniform(0.3, 3.0)
        p = (p1, p1 * rng.uniform(-2.0, 2.0))
        q1 = rng.uniform(0.3, 3.0)
        q = (q1, q1 * rng.uniform(-2.0, 2.0))
        mid = (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))
        assert ratefn.closed_rate_uniform(gaussian_model, *mid) <= 0.5 * (
            ratefn.closed_rate_uniform(gaussian_model, *p)
            + ratefn.closed_rate_uniform(gaussian_model, *q)
        ) + 1e-8

    # ratio rate: one-sided monotone structure around its zero
    left = [ratefn.ratio_rate_closed(gaussian_model, x) for x in np.linspace(-3, -0.05, 12)]
    right = [ratefn.ratio_rate_closed(gaussian_model, x) for x in np.linspace(0.05, 3, 12)]
    assert all(b <= a + 1e-12 for a, b in zip(left, left[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(right, right[1:]))

    # estimator: kernel-scale invariance and the range bound
    grid = factor_model.grid
    data = simulate.sample_dataset(factor_model, 200, seed=99)
    for scale in (1.0, 3.0):
        cfg = EstimatorConfig(
            UniformKernel(scale=scale), IntegralDifference(), 0.05, 0.1
        )
        z = z_n(zero_curve, data, IdentityIndex(), [cfg])[0]
        if scale == 1.0:
            base = z
        else:
            assert z.r_hat == pytest.approx(base.r_hat, abs=1e-13)
            assert z.r_n1 == pytest.approx(scale * base.r_n1, rel=1e-13)
    projections = integrate.trapezoid(data.x_values, dx=grid.spacing, axis=1)
    active = np.abs(projections) <= 0.05
    if np.any(active):
        assert data.y[active].min() - 1e-12 <= base.r_hat <= data.y[active].max() + 1e-12

    # determinism under a fixed seed
    again = simulate.sample_dataset(factor_model, 200, seed=99)
    np.testing.assert_array_equal(data.x_values, again.x_values)

    elapsed = time.time() - started
    assert elapsed < 300.0
    print(f"[criterion 10] PASS: invariant suites green ({elapsed:.1f}s)")
