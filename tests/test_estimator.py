import math
import tracemalloc

import numpy as np
import pytest

from funcldp import simulate
from funcldp.estimator import (
    Dataset,
    EstimatorConfig,
    IdentityIndex,
    IntervalIndicator,
    RegressionEstimate,
    delta,
    finite_n_log_mgf,
    z_n,
)
from funcldp.funcdata import (
    Curve,
    ExpDecayKernel,
    Grid,
    IntegralDifference,
    LpDistance,
    UniformKernel,
    distance,
)

GRID = Grid(0.0, 1.0, 101)


def _cfg(h=0.5, phi=1.0, kernel=None):
    return EstimatorConfig(kernel or UniformKernel(), IntegralDifference(), h, phi)


def _from_pairs(pairs) -> Dataset:
    """A dataset of (curve, response) pairs, on the grid of the first curve."""
    return Dataset(pairs[0][0].grid, np.vstack([x.values for x, _ in pairs]),
                   [y for _, y in pairs])


def _const_dataset(values, y):
    return _from_pairs([(Curve.constant(GRID, v), yi) for v, yi in zip(values, y)])


class TestIndexFunctions:
    def test_identity(self):
        idx = IdentityIndex()
        np.testing.assert_array_equal(idx(np.array([-1.0, 0.5])), [-1.0, 0.5])

    def test_indicator_membership(self):
        idx = IntervalIndicator(((0.0, 1.0), (2.0, math.inf)))
        np.testing.assert_array_equal(
            idx(np.array([-0.5, 0.0, 0.7, 1.5, 3.0])), [0.0, 1.0, 1.0, 0.0, 1.0]
        )

    def test_indicator_validation(self):
        with pytest.raises(ValueError):
            IntervalIndicator(())
        with pytest.raises(ValueError):
            IntervalIndicator(((1.0, 1.0),))


class TestDataset:
    def test_grid_consistency(self):
        # curve rows must have one value per grid node
        with pytest.raises(ValueError, match="x_values"):
            Dataset(GRID, np.zeros((2, 51)), [1.0, 2.0])

    def test_nonempty(self):
        with pytest.raises(ValueError, match="at least one pair"):
            Dataset(GRID, np.zeros((0, 101)), [])

    def test_values_finite(self):
        for x, y in ((np.full((2, 101), np.nan), [1.0, 2.0]), (np.zeros((2, 101)), [1.0, np.inf])):
            with pytest.raises(ValueError, match="dataset values must all be finite"):
                Dataset(GRID, x, y)

    def test_owns_its_arrays(self):
        # the caller's arrays stay writeable, and views taken before
        # construction cannot change the dataset
        x, y = np.zeros((3, 101)), np.array([1.0, 2.0, 3.0])
        row, y_view = x[0], y[:]
        data = Dataset(GRID, x, y)
        assert x.flags.writeable and y.flags.writeable
        row[:] = np.nan
        y_view[0] = np.nan
        assert np.all(data.rows == 0.0) and data.y.tolist() == [1.0, 2.0, 3.0]
        assert data.x_values is data.rows
        assert not (data.rows.flags.writeable or data.y.flags.writeable)


class TestSampledDataset:
    """A sampled dataset holds its rows as factors; ``x_values`` is built on demand."""

    def test_x_values_read_only_and_kept(self):
        data = simulate.sample_dataset(simulate.default_model(51), 700, 5)
        first = data.x_values
        assert data.x_values is first
        assert first.shape == (700, 51) and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_z_n_matches_matrix_dataset(self):
        # the estimate command's sweep, both metrics: the factor rows and the
        # explicit matrix they stand for give the same estimates
        model = simulate.default_model()
        data = simulate.sample_dataset(model, 40000, 7)
        matrix = Dataset(model.grid, data.x_values, data.y)
        configs = [EstimatorConfig(UniformKernel(), metric, h, model.small_ball_scale(h))
                   for metric in (IntegralDifference(), LpDistance(2.0))
                   for h in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)]
        for c in (0.0, 0.3):
            x = Curve.constant(model.grid, c)
            got = z_n(x, data, IdentityIndex(), configs)
            assert got == z_n(x, matrix, IdentityIndex(), configs)
            assert len({z.active_count for z in got}) > 8

    @staticmethod
    def _peak_bytes(call) -> int:
        call()  # warm up caches, so the traced call allocates only its own arrays
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_curve_matrix(self):
        # a log-MGF replicate and a sampled z_n run peak far below the
        # n x points float64 matrix that the rows stand for
        model, n = simulate.default_model(51), 8000
        h, _ = simulate.bandwidth_schedule(n, 2.0, 1.5)
        cfg = EstimatorConfig(UniformKernel(), IntegralDifference(), h,
                              model.small_ball_scale(h))
        x0 = Curve.constant(model.grid, 0.0)
        peak = self._peak_bytes(lambda: finite_n_log_mgf(
            x0, lambda rng: simulate.sample_dataset(model, n, int(rng.integers(2**62))),
            IdentityIndex(), cfg, 0.2, 0.1, 1, seed=3))
        assert peak < n * model.grid.points * 8 / 4
        model, n = simulate.default_model(), 40000
        configs = [EstimatorConfig(UniformKernel(), IntegralDifference(), h, 2.0 * h)
                   for h in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)]
        peak = self._peak_bytes(lambda: z_n(Curve.constant(model.grid, 0.0),
                                            simulate.sample_dataset(model, n, 7),
                                            IdentityIndex(), configs))
        assert peak < n * model.grid.points * 8 / 4


class TestDelta:
    def test_at_center(self):
        x = Curve.constant(GRID, 0.0)
        assert delta(x, x, _cfg()) == 1.0

    def test_at_bandwidth_edge(self):
        # the window is closed: a curve at distance exactly h counts in delta and z_n
        x = Curve.constant(GRID, 0.0)
        xi = Curve.constant(GRID, 0.5)
        cfg = _cfg(h=distance(x, xi, IntegralDifference()))
        assert delta(x, xi, cfg) == 1.0
        assert z_n(x, _from_pairs([(xi, 1.0)]), IdentityIndex(), [cfg])[0].active_count == 1

    @pytest.mark.parametrize("metric", [IntegralDifference(), LpDistance(1.0), LpDistance(2.0)],
                             ids=repr)
    @pytest.mark.parametrize("kernel", [UniformKernel(), ExpDecayKernel()], ids=repr)
    def test_delta_and_z_n_share_the_window(self, metric, kernel):
        # at h = d both count the pair with weight K(1); one float below d both drop it
        rng = np.random.default_rng(17)
        for _ in range(20):
            x, xi = (Curve(GRID, rng.normal(size=GRID.points)) for _ in range(2))
            data = _from_pairs([(xi, 1.0)])
            d = distance(x, xi, metric)
            for h, count in ((d, 1), (np.nextafter(d, 0.0), 0)):
                cfg = EstimatorConfig(kernel, metric, h, 1.0)
                z = z_n(x, data, IdentityIndex(), [cfg])[0]
                assert (z.active_count, z.r_n1) == (count, delta(x, xi, cfg))
                assert (delta(x, xi, cfg) > 0.0) == bool(count)

    def test_outside_support(self):
        x = Curve.constant(GRID, 0.0)
        xi = Curve.constant(GRID, 1.0)  # distance 2h
        assert delta(x, xi, _cfg(h=0.5)) == 0.0

    def test_hard_zero_beats_kernel_value(self):
        # even kernels positive at 1 are zeroed beyond the support edge
        x = Curve.constant(GRID, 0.0)
        xi = Curve.constant(GRID, 0.6)
        assert delta(x, xi, _cfg(h=0.5, kernel=ExpDecayKernel())) == 0.0


class TestZn:
    def test_hand_case(self):
        # two in-range points, responses 1 and 3, phi = 1
        data = _const_dataset([0.1, -0.2], [1.0, 3.0])
        z = z_n(Curve.constant(GRID, 0.0), data, IdentityIndex(), [_cfg(h=0.5, phi=1.0)])[0]
        assert z == RegressionEstimate(1.0, 2.0, 2.0, 2)

    def test_empty_neighborhood_convention(self):
        data = _const_dataset([2.0, -3.0], [1.0, 3.0])
        z = z_n(Curve.constant(GRID, 0.0), data, IdentityIndex(), [_cfg(h=0.5)])[0]
        assert z == RegressionEstimate(0.0, 0.0, 0.0, 0)

    def test_indicator_estimate_in_unit_interval(self):
        rng = np.random.default_rng(5)
        data = _const_dataset(rng.uniform(-0.4, 0.4, 30), rng.normal(size=30))
        idx = IntervalIndicator(((0.0, math.inf),))
        z = z_n(Curve.constant(GRID, 0.0), data, idx, [_cfg(h=0.5)])[0]
        assert 0.0 <= z.r_hat <= 1.0

    def test_kernel_scale_invariance(self):
        rng = np.random.default_rng(9)
        data = _const_dataset(rng.uniform(-0.6, 0.6, 40), rng.normal(size=40))
        x = Curve.constant(GRID, 0.0)
        base = z_n(x, data, IdentityIndex(), [_cfg(h=0.5, kernel=ExpDecayKernel())])[0]
        scaled = z_n(
            x, data, IdentityIndex(), [_cfg(h=0.5, kernel=ExpDecayKernel(scale=3.0))]
        )[0]
        assert scaled.r_hat == pytest.approx(base.r_hat, abs=1e-14)
        assert scaled.r_n1 == pytest.approx(3.0 * base.r_n1, rel=1e-14)
        assert scaled.r_n2 == pytest.approx(3.0 * base.r_n2, rel=1e-14)

    def test_range_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            data = _const_dataset(rng.uniform(-1, 1, n), rng.normal(size=n))
            z = z_n(Curve.constant(GRID, 0.0), data, IdentityIndex(), [_cfg(h=0.5)])[0]
            if z.active_count:
                active = np.abs(data.x_values[:, 0]) <= 0.5
                lo, hi = data.y[active].min(), data.y[active].max()
                assert lo - 1e-12 <= z.r_hat <= hi + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(33)
        values, y = rng.uniform(-1, 1, 25), rng.normal(size=25)
        data = _const_dataset(values, y)
        perm = rng.permutation(25)
        shuffled = _const_dataset(values[perm], y[perm])
        x = Curve.constant(GRID, 0.0)
        a = z_n(x, data, IdentityIndex(), [_cfg(h=0.4)])[0]
        b = z_n(x, shuffled, IdentityIndex(), [_cfg(h=0.4)])[0]
        assert a.r_n1 == pytest.approx(b.r_n1, abs=1e-15)
        assert a.r_n2 == pytest.approx(b.r_n2, abs=1e-15)

    def test_consistency_under_shrinking_bandwidth(self):
        # median absolute estimation error drops from n=200 to n=2000
        model = simulate.default_model()
        x0 = Curve.constant(model.grid, 0.0)
        medians = []
        for n in (200, 2000):
            h, _ = simulate.bandwidth_schedule(n, 2.0, 1.5)
            cfg = EstimatorConfig(
                UniformKernel(), IntegralDifference(), h, model.small_ball_scale(h)
            )
            errors = []
            for seed in range(50):
                data = simulate.sample_dataset(model, n, seed)
                z = z_n(x0, data, IdentityIndex(), [cfg])[0]
                errors.append(abs(z.r_hat - 0.0))
            medians.append(float(np.median(errors)))
        assert medians[1] < medians[0]


class TestZnOverConfigs:
    """One ``z_n`` call over many configs against one call per config."""

    CONFIGS = [
        EstimatorConfig(kernel, metric, h, 2.0 * h)
        for h in (0.3, 0.05, 0.3, 0.8, 0.12)
        for metric in (IntegralDifference(), LpDistance(2.0))
        for kernel in (UniformKernel(), ExpDecayKernel())
    ]

    def _data(self):
        rng = np.random.default_rng(44)
        return Dataset(GRID, rng.normal(scale=0.3, size=(300, GRID.points)),
                       rng.normal(size=300))

    def test_same_values_as_one_config_calls(self):
        data, x = self._data(), Curve.constant(GRID, 0.0)
        together = z_n(x, data, IdentityIndex(), self.CONFIGS)
        alone = [z_n(x, data, IdentityIndex(), [cfg])[0] for cfg in self.CONFIGS]
        assert together == alone
        assert len({z.active_count for z in together}) > 2

    def test_one_distance_pass_per_metric(self, monkeypatch):
        calls = []
        for metric in (IntegralDifference, LpDistance):
            original = metric.distance_to_rows

            def counted(self, *args, original=original):
                calls.append(self)
                return original(self, *args)

            monkeypatch.setattr(metric, "distance_to_rows", counted)
        z_n(Curve.constant(GRID, 0.0), self._data(), IdentityIndex(), self.CONFIGS)
        assert sorted(map(repr, calls)) == ["IntegralDifference()", "LpDistance(p=2.0)"]

    def test_empty_sequence(self):
        assert z_n(Curve.constant(GRID, 0.0), self._data(), IdentityIndex(), []) == []


class TestFiniteNLogMgf:
    def test_zero_tilt_is_zero(self):
        data = _const_dataset([0.1], [2.0])
        out = finite_n_log_mgf(
            Curve.constant(GRID, 0.0), lambda rng: data, IdentityIndex(),
            _cfg(h=0.5, phi=0.7), 0.0, 0.0, replicates=8, seed=0,
        )
        assert out.value == 0.0 and not out.overflow

    def test_degenerate_single_pair(self):
        # deterministic dataset: the estimate is (t1 + t2 y) K / phi
        data = _const_dataset([0.1], [2.0])
        cfg = _cfg(h=0.5, phi=0.7)
        out = finite_n_log_mgf(
            Curve.constant(GRID, 0.0), lambda rng: data, IdentityIndex(),
            cfg, 0.3, 0.2, replicates=4, seed=0,
        )
        assert out.value == pytest.approx((0.3 + 0.2 * 2.0) * 1.0 / 0.7, rel=1e-12)

    def test_overflow_flag(self):
        data = _const_dataset([0.1], [2.0])
        out = finite_n_log_mgf(
            Curve.constant(GRID, 0.0), lambda rng: data, IdentityIndex(),
            _cfg(h=0.5), math.inf, 0.0, replicates=2, seed=0,
        )
        assert out.overflow and out.value == math.inf

    def test_variable_size_rejected(self):
        sizes = iter([1, 2])

        def law(rng):
            k = next(sizes)
            return _const_dataset([0.0] * k, [0.0] * k)

        with pytest.raises(ValueError):
            finite_n_log_mgf(
                Curve.constant(GRID, 0.0), law, IdentityIndex(), _cfg(),
                0.1, 0.1, replicates=2, seed=0,
            )
