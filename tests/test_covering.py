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
    write_cover_csv,
    write_entropy_csv,
)
from funcldp.funcdata import Curve, Grid, IntegralDifference, LpDistance
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
    rows = cls.values_matrix()
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
        np.testing.assert_allclose(cls.members[0].values, base.values, atol=1e-12)

    def test_degenerate_interval(self):
        cls = scale_class(gaussian_bump(), 1.5, 1.5, 2)
        np.testing.assert_array_equal(cls.members[0].values, cls.members[1].values)

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
        np.testing.assert_allclose(cls.members[0].values, base.values, atol=1e-12)

    def test_support_escape_rejected(self):
        with pytest.raises(ValueError, match="support"):
            shift_class(triangle_bump(center=0.3, half_width=0.15), 0.0, 0.7, 4)

    def test_lipschitz_in_shift(self):
        # L1 distance between shifted copies is at most
        # |s - t| * Lip * support-length for the triangle bump
        half_width = 0.15
        base = triangle_bump(center=0.3, half_width=half_width)
        cls = shift_class(base, 0.0, 0.4, 32)
        shifts = np.linspace(0.0, 0.4, 32)
        lip = 1.0 / half_width
        support = 2.0 * half_width
        rng = np.random.default_rng(8)
        for _ in range(60):
            i, j = rng.integers(0, 32, size=2)
            d = L1.distance(cls.members[i], cls.members[j])
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
        rows = bump_scale_class.values_matrix()
        diameter = max(
            L1.distance(bump_scale_class.members[i], bump_scale_class.members[j])
            for i in range(0, 64, 7)
            for j in range(0, 64, 7)
        )
        report = greedy_cover(bump_scale_class, diameter * 1.5, L1)
        assert report.n_cover == 1 and report.centers == (0,)

    def test_tiny_radius_needs_every_member(self, bump_scale_class):
        report = greedy_cover(bump_scale_class, 1e-9, L1)
        assert report.n_cover == len(bump_scale_class.members)

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


def _family(tag: str, count: int) -> FunctionClass:
    if count == 1:
        base = gaussian_bump() if tag == "scale" else triangle_bump()
        return FunctionClass((base,), tag=tag)
    if tag == "scale":
        return scale_class(gaussian_bump(), 1.0, 2.0, count)
    return shift_class(triangle_bump(), 0.0, 0.4, count)


class TestCenterByCenterGreedy:
    """The running-minimum greedy against the k x k matrix construction."""

    @pytest.mark.parametrize("metric", [L1, LpDistance(2.0), IntegralDifference()], ids=repr)
    @pytest.mark.parametrize("count", [1, 2, 300])
    @pytest.mark.parametrize("tag", ["scale", "shift"])
    def test_same_centers_as_matrix_oracle(self, tag, count, metric):
        cls = _family(tag, count)
        rows = cls.values_matrix()
        # a radius at 5 % of the spread from the first member; under the
        # integral difference the shift family's spread is rounding noise,
        # so ties at and near distance 0 decide the centers there
        spread = float(np.max(metric.distance_to_rows(rows[0], rows, cls.grid)))
        for nu in (0.05 * spread or 0.1, 0.5 * spread or 1.0):
            report = greedy_cover(cls, nu, metric)
            assert report.centers == matrix_greedy_centers(cls, nu, metric)
            assert report.n_cover == len(report.centers)

    def test_post_check_fires(self, bump_scale_class, monkeypatch):
        nu = 0.05
        radii = covering.coverage_radii

        def one_member_out(cls, report, metric):
            out = radii(cls, report, metric)
            out[7] = 2.0 * nu
            return out

        monkeypatch.setattr(covering, "coverage_radii", one_member_out)
        with pytest.raises(AssertionError, match="post-check"):
            greedy_cover(bump_scale_class, nu, L1)

    def test_large_class_memory_and_time(self):
        grid = Grid(0.0, 1.0, 101)
        cls = scale_class(gaussian_bump(grid=grid), 1.0, 2.0, 2048)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            report = greedy_cover(cls, 0.001, L1)
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
        cls = FunctionClass((gaussian_bump(),))
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
    def test_cover_csv(self, bump_scale_class, tmp_path):
        reports = [greedy_cover(bump_scale_class, nu, L1) for nu in (0.1, 0.05)]
        path = tmp_path / "cover.csv"
        write_cover_csv(reports, path, admissible=[True, True])
        lines = path.read_text().splitlines()
        assert lines[0] == "nu,n_cover,nu_log_n,admissible_flag"
        assert lines[1].endswith("true")

    def test_entropy_csv(self, bump_scale_class, tmp_path):
        reports = [greedy_cover(bump_scale_class, nu, L1) for nu in (0.1, 0.05)]
        rows = entropy_diagnostics(reports, [(200, 0.09, 0.016)])
        path = tmp_path / "entropy.csv"
        write_entropy_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("nu,n_cover,nu_log_n,n,h,phi_h")
