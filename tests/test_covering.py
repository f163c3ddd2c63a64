import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from funcldp import covering
from funcldp.covering import (
    CoverReport,
    FunctionClass,
    coverage_radii,
    default_radius,
    entropy_diagnostics,
    greedy_cover,
    scale_class,
    shift_class,
)
from funcldp.cli import run
from funcldp.funcdata import (
    Curve,
    Grid,
    IntegralDifference,
    LpDistance,
    distance,
    write_curve_csv,
)
from funcldp.simulate import bandwidth_schedule

GRID = Grid(0.0, 1.0, 201)
L1 = LpDistance(1.0)


def gaussian_bump(center=0.5, width=0.08, grid=GRID) -> Curve:
    t = grid.nodes()
    return Curve(grid, np.exp(-0.5 * ((t - center) / width) ** 2))


def triangle_bump(center=0.3, half_width=0.15, grid=GRID) -> Curve:
    t = grid.nodes()
    return Curve(grid, np.maximum(0.0, 1.0 - np.abs(t - center) / half_width))


def distance_matrix(cls: FunctionClass, metric) -> np.ndarray:
    """All pairwise member distances, each pair computed once and mirrored."""
    rows = cls.rows
    k = rows.shape[0]
    dist = np.zeros((k, k))
    for i in range(k):
        d = metric.distance_to_rows(rows[i], rows[i + 1 :], cls.grid)
        dist[i, i + 1 :] = d
        dist[i + 1 :, i] = d
    return dist


def matrix_greedy_centers(cls: FunctionClass, nu: float, metric) -> tuple[int, ...]:
    """Farthest-point greedy over the full k x k distance matrix (oracle)."""
    dist = distance_matrix(cls, metric)
    centers = [0]
    min_dist = dist[0].copy()
    while float(np.max(min_dist)) > nu:
        nxt = int(np.argmax(min_dist))
        centers.append(nxt)
        np.minimum(min_dist, dist[nxt], out=min_dist)
    return tuple(centers)


def brute_force_cover_size(cls: FunctionClass, nu: float, metric) -> int:
    """Smallest number of members covering every member within nu."""
    dist = distance_matrix(cls, metric)
    k = dist.shape[0]
    for size in range(1, k + 1):
        for centers in itertools.combinations(range(k), size):
            if np.all(np.min(dist[:, centers], axis=1) <= nu):
                return size
    return k


@pytest.fixture(scope="module")
def bump_scale_class():
    return scale_class(gaussian_bump(), 1.0, 2.0, 64)


class TestScaleClass:
    def test_unit_parameter_reproduces_base(self):
        base = gaussian_bump()
        cls = scale_class(base, 1.0, 2.0, 64)
        np.testing.assert_allclose(cls.rows[0], base.values, atol=1e-12)

    def test_degenerate_interval(self):
        cls = scale_class(gaussian_bump(), 1.5, 1.5, 2)
        np.testing.assert_array_equal(cls.rows[0], cls.rows[1])

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            scale_class(gaussian_bump(), -1.0, 1.0, 3)

    def test_undersampling_warns(self):
        with pytest.warns(RuntimeWarning, match="undersampled"):
            cls = scale_class(gaussian_bump(), 1.0, 8.0, 4)
        assert cls.undersampled

    def test_inverse_law_constant_is_stable(self, bump_scale_class):
        # n_cover(nu) ~ C0 / nu: the fitted constant stays within +-20%
        constants = [
            nu * greedy_cover(bump_scale_class, nu, L1).n_cover
            for nu in (0.1, 0.05, 0.025)
        ]
        center = float(np.mean(constants))
        assert all(abs(c - center) <= 0.2 * center for c in constants)


class TestShiftClass:
    def test_zero_shift_reproduces_base(self):
        base = triangle_bump()
        cls = shift_class(base, 0.0, 0.4, 16)
        np.testing.assert_allclose(cls.rows[0], base.values, atol=1e-12)

    def test_support_escape_rejected(self):
        with pytest.raises(ValueError, match="support"):
            shift_class(triangle_bump(center=0.3, half_width=0.15), 0.0, 0.7, 4)

    def test_gaussian_tails_do_not_block_a_shift(self):
        # the bump is 3.3e-9 at the grid ends, yet a shift of 0.01 clips only
        # about 5e-11 of its L1 mass
        base = gaussian_bump()
        cls = shift_class(base, -0.01, 0.01, 5)
        np.testing.assert_array_equal(cls.rows[2], base.values)
        assert np.max(cls.rows[4]) == pytest.approx(1.0, abs=1e-3)

    def test_gaussian_shift_clipping_real_mass_rejected(self):
        # a shift of 0.2 pushes the bump's tail beyond 3.75 widths off the grid
        with pytest.raises(ValueError, match="support"):
            shift_class(gaussian_bump(), -0.2, 0.0, 3)

    @pytest.mark.parametrize("t_lo, t_hi", [(0.0, 0.46), (-0.46, 0.0)])
    def test_compact_bump_past_its_margin_rejected(self, t_lo, t_hi):
        # support [0.3, 0.7]: a shift of 0.3 fits, 0.46 clips 0.16 of the support
        base = triangle_bump(center=0.5, half_width=0.2)
        shift_class(base, -0.3, 0.3, 3)
        with pytest.raises(ValueError, match="support"):
            shift_class(base, t_lo, t_hi, 3)

    @pytest.mark.parametrize("shift", [0.0, 0.003, 0.0125, 0.37, -0.37, -0.9999, 1.5, -1.5])
    def test_clipped_mass_exact_on_affine_curve(self, shift):
        # |base| = 1 + 2t is piecewise linear, so the clipped mass is exact:
        # the integral of 1 + 2t over the part of [0, 1] the shift pushes out
        magnitude = 1.0 + 2.0 * GRID.nodes()
        lo, hi = (max(1.0 - shift, 0.0), 1.0) if shift >= 0 else (0.0, min(-shift, 1.0))
        expected = (hi + hi * hi) - (lo + lo * lo)
        assert covering._clipped_mass(magnitude, GRID, shift) == pytest.approx(expected, abs=1e-14)

    def test_lipschitz_in_shift(self):
        # L1 distance between shifted copies is at most
        # |s - t| * Lip * support-length for the triangle bump
        half_width = 0.15
        base = triangle_bump(center=0.3, half_width=half_width)
        cls = shift_class(base, 0.0, 0.4, 32)
        shifts = np.linspace(0.0, 0.4, 32)
        lip = 1.0 / half_width
        support = 2.0 * half_width
        dist = distance_matrix(cls, L1)
        rng = np.random.default_rng(8)
        for _ in range(60):
            i, j = rng.integers(0, 32, size=2)
            d = dist[i, j]
            assert d <= abs(shifts[i] - shifts[j]) * lip * support + 1e-9

    def test_cover_scales_inversely_with_radius(self):
        cls = shift_class(triangle_bump(), 0.0, 0.4, 128)
        counts = [greedy_cover(cls, nu, L1).n_cover for nu in (0.08, 0.04, 0.02)]
        assert counts[0] < counts[1] < counts[2]
        # n_cover stays within a constant multiple of |T| * Lip-factor / nu
        for nu, count in zip((0.08, 0.04, 0.02), counts):
            assert count <= 2.0 * (0.4 * 2.0 / nu + 1.0)


class TestGreedyCover:
    def test_radius_beyond_diameter(self, bump_scale_class):
        diameter = float(np.max(distance_matrix(bump_scale_class, L1)))
        report = greedy_cover(bump_scale_class, diameter * 1.5, L1)
        assert report.n_cover == 1 and report.centers == (0,)

    def test_tiny_radius_needs_every_member(self, bump_scale_class):
        report = greedy_cover(bump_scale_class, 1e-9, L1)
        assert report.n_cover == bump_scale_class.rows.shape[0]

    def test_coverage_soundness(self, bump_scale_class):
        for nu in (0.2, 0.1, 0.05):
            report = greedy_cover(bump_scale_class, nu, L1)
            assert float(np.max(coverage_radii(bump_scale_class, report, L1))) <= nu

    def test_monotone_in_radius(self, bump_scale_class):
        counts = [
            greedy_cover(bump_scale_class, nu, L1).n_cover for nu in (0.2, 0.1, 0.05, 0.025)
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_deterministic(self, bump_scale_class):
        a = greedy_cover(bump_scale_class, 0.05, L1)
        b = greedy_cover(bump_scale_class, 0.05, L1)
        assert a.centers == b.centers

    def test_positive_radius_required(self, bump_scale_class):
        with pytest.raises(ValueError):
            greedy_cover(bump_scale_class, 0.0, L1)

    def test_integral_difference_metric_supported(self):
        cls = scale_class(gaussian_bump(), 1.0, 2.0, 12)
        report = greedy_cover(cls, 0.05, IntegralDifference())
        assert report.n_cover >= 1

    @pytest.mark.parametrize("count,nu", [(8, 0.12), (10, 0.08), (12, 0.05)])
    def test_within_twice_optimal_on_small_instances(self, count, nu):
        cls = scale_class(gaussian_bump(), 1.0, 2.0, count)
        greedy = greedy_cover(cls, nu, L1).n_cover
        optimal = brute_force_cover_size(cls, nu, L1)
        assert greedy <= 2 * optimal


_RNG = np.random.default_rng(14)
# Independent Gaussian curves: pairwise distances bunch together, so the
# pivot bound rarely exceeds a running minimum.
_RANDOM_ROWS = _RNG.standard_normal((300, GRID.points))
# Alternating +-1e6 curves (trapezoid integral 0) plus constants of order
# 1e-8: under the integral difference every distance is a sum of terms near
# 1e6 that cancels to within its rounding error, a few 1e-9, so a pivot
# bound without an absolute rounding allowance would skip members wrongly.
_CANCEL_ROWS = (1e6 * (1.0 + _RNG.random((300, 1))) * (-1.0) ** np.arange(GRID.points)
                + 1e-8 * _RNG.standard_normal((300, 1)))


def _family(tag: str, count: int) -> FunctionClass:
    if tag in ("random", "cancel"):
        rows = _RANDOM_ROWS if tag == "random" else _CANCEL_ROWS
        return FunctionClass(GRID, rows[:count])
    if count == 1:
        base = gaussian_bump() if tag == "scale" else triangle_bump()
        return FunctionClass(GRID, base.values[np.newaxis])
    if tag == "scale":
        return scale_class(gaussian_bump(), 1.0, 2.0, count)
    return shift_class(triangle_bump(), 0.0, 0.4, count)


class CountingMetric:
    """A metric that counts the calls of ``distance_to_rows`` and the rows passed.

    A greedy never makes more calls than the class has members, since it
    never repeats a center; one more raises, so a greedy that loops on a
    center fails instead of hanging.
    """

    def __init__(self, metric, members: int):
        self.metric = metric
        self.members = members
        self.calls = self.rows = 0

    def distance_to_rows(self, x_values, rows, grid):
        self.calls += 1
        assert self.calls <= self.members, "the greedy repeats a center"
        self.rows += rows.shape[0]
        return self.metric.distance_to_rows(x_values, rows, grid)


@pytest.fixture(scope="module")
def large_scale_class():
    grid = Grid(0.0, 1.0, 101)
    return scale_class(gaussian_bump(grid=grid), 1.0, 2.0, 2048)


class TestCenterByCenterGreedy:
    """The pivot-bounded greedy against the k x k matrix construction."""

    @pytest.mark.parametrize("metric", [L1, LpDistance(2.0), IntegralDifference()], ids=repr)
    @pytest.mark.parametrize("count", [1, 2, 300])
    @pytest.mark.parametrize("tag", ["scale", "shift", "random", "cancel"])
    def test_same_centers_as_matrix_oracle(self, tag, count, metric):
        cls = _family(tag, count)
        rows = cls.rows
        # a radius at 5 % of the spread from the first member; under the
        # integral difference the shift family's spread is rounding noise,
        # so ties at and near distance 0 decide the centers there
        spread = float(np.max(metric.distance_to_rows(rows[0], rows, cls.grid)))
        for nu in (0.05 * spread or 0.1, 0.5 * spread or 1.0):
            report = greedy_cover(cls, nu, metric)
            assert report.centers == matrix_greedy_centers(cls, nu, metric)
            assert report.n_cover == len(report.centers)
            assert float(np.max(coverage_radii(cls, report, metric))) <= nu

    @pytest.mark.parametrize("metric", [L1, LpDistance(2.0), IntegralDifference()], ids=repr)
    def test_coverage_radii_are_one_row_distances(self, large_scale_class, metric):
        # seven row blocks, each less the tiled center: bitwise the least one-row distance
        cls = large_scale_class
        report = greedy_cover(cls, 0.1, metric)
        members = [Curve(cls.grid, row) for row in cls.rows]
        expected = [min(distance(members[c], member, metric) for c in report.centers)
                    for member in members]
        np.testing.assert_array_equal(coverage_radii(cls, report, metric), expected)

    def test_overflowing_distances_never_skip_a_member(self):
        # |x - y|**2 overflows to inf between curves near 1e200, so a pivot
        # bound can read inf - inf = nan; such a member is evaluated, and
        # no RuntimeWarning leaves covering
        rows = np.vstack([_RANDOM_ROWS[:20], 1e200 * _RANDOM_ROWS[20:30]])
        cls = FunctionClass(GRID, rows)
        metric = LpDistance(2.0)
        with np.errstate(over="ignore"):
            report = greedy_cover(cls, 1.0, CountingMetric(metric, len(rows)))
            assert report.centers == matrix_greedy_centers(cls, 1.0, metric)

    def test_nan_distance_raises(self):
        # rows of +-1e308 alternating along the grid, each the negative of
        # the next: under the integral difference two neighbours' trapezoid
        # sum adds inf and -inf to NaN, which no radius covers and which the
        # stopping test would read as covered; a greedy that went on would
        # repeat that center, which the counting metric turns into a failure
        grid = Grid(0.0, 1.0, 5)
        cls = FunctionClass(grid, 1e308 * (-1.0) ** np.add.outer(np.arange(5), np.arange(5)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="member 1 "):
                greedy_cover(cls, 0.1, CountingMetric(IntegralDifference(), 5))

    def test_bound_skips_most_distances(self, large_scale_class):
        k = large_scale_class.rows.shape[0]
        metric = CountingMetric(L1, k)
        report = greedy_cover(large_scale_class, 0.001, metric)
        assert metric.rows == report.distance_rows
        assert report.distance_rows <= 0.03 * k * report.n_cover

    def test_bound_never_adds_distances(self):
        cls = _family("random", 300)
        metric = CountingMetric(L1, 300)
        report = greedy_cover(cls, 0.01, metric)
        assert metric.rows == report.distance_rows <= 300 * report.n_cover

    def test_large_class_memory_and_time(self, large_scale_class):
        tracemalloc.start()
        try:
            started = time.perf_counter()
            report = greedy_cover(large_scale_class, 0.001, L1)
            seconds = time.perf_counter() - started
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        # the k x k matrix alone would take 33.6 MB at k = 2048
        assert peak_mb < 8.0
        assert seconds < 10.0
        assert report.n_cover > 100


class TestEntropyDiagnostics:
    def _ladder(self):
        rows = []
        for n in (200, 500, 1000, 2000):
            h, phi_h = bandwidth_schedule(n, 2.0, 2.0)
            rows.append((n, h, phi_h))
        return rows

    def test_singleton_class_has_zero_entropy(self):
        cls = FunctionClass(GRID, gaussian_bump().values[np.newaxis])
        reports = [greedy_cover(cls, nu, L1) for nu in (0.2, 0.1)]
        rows = entropy_diagnostics(reports, self._ladder())
        assert all(row["nu_log_n"] == 0.0 for row in rows)

    def test_scale_class_entropy_decreases(self, bump_scale_class):
        reports = [
            greedy_cover(bump_scale_class, nu, L1) for nu in (0.2, 0.1, 0.05, 0.025)
        ]
        values = [r.nu_log_n for r in reports]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_default_radius_is_admissible(self, bump_scale_class):
        ladder = self._ladder()
        for n, h, phi_h in ladder:
            nu = default_radius(h)
            assert nu < n * h / math.exp(n * phi_h)

    def test_requires_decreasing_radii(self, bump_scale_class):
        reports = [greedy_cover(bump_scale_class, nu, L1) for nu in (0.05, 0.1)]
        with pytest.raises(ValueError, match="decreasing"):
            entropy_diagnostics(reports, self._ladder())

    def test_cross_table_fields(self, bump_scale_class):
        reports = [greedy_cover(bump_scale_class, nu, L1) for nu in (0.1, 0.05)]
        rows = entropy_diagnostics(reports, self._ladder(), a_const=1.0)
        assert len(rows) == 2 * 4
        for row in rows:
            assert row["log_n_over_speed"] > 0.0
            assert isinstance(row["admissible"], bool)


class TestCsv:
    """The cover tables as the CLI writes them to cover_report.csv and entropy_diagnostics.csv."""

    @staticmethod
    def _config(tmp_path, **overrides):
        write_curve_csv(gaussian_bump(), tmp_path / "bump.csv")
        cfg = {"command": "cover",
               "class": {"scale": {"base_csv": str(tmp_path / "bump.csv"),
                                   "a_lo": 1.0, "a_hi": 2.0, "count": 64}},
               "ladder": {"n_values": [200, 1000], "a": 2.0, "alpha": 2.0}}
        cfg.update(overrides)
        return cfg

    def test_cover_csv(self, tmp_path):
        # the default radii, one per rung, are admissible at every rung
        run(self._config(tmp_path), str(tmp_path / "out"))
        lines = (tmp_path / "out" / "cover_report.csv").read_text().splitlines()
        assert lines[0] == "nu,n_cover,nu_log_n,admissible_flag"
        assert lines[1].endswith("true")

    def test_entropy_csv(self, tmp_path):
        cfg = self._config(tmp_path, nu_values=[0.1, 0.05])
        run(cfg, str(tmp_path / "out"))
        header = (tmp_path / "out" / "entropy_diagnostics.csv").read_text().splitlines()[0]
        assert header.startswith("nu,n_cover,nu_log_n,n,h,phi_h")
