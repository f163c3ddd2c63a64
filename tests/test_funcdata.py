import math

import numpy as np
import pytest
from scipy import integrate

from funcldp import funcdata
from funcldp.funcdata import (
    AffineKernel,
    Curve,
    ExpDecayKernel,
    Grid,
    GridMismatchError,
    IdentityScaling,
    IntegralDifference,
    LpDistance,
    PowerScaling,
    UniformKernel,
    distance,
    quadrature,
    read_curve_csv,
    write_curve_csv,
)
from kernel_calculus import kernel_eval, tau, tau_inverse

UNIT = Grid(0.0, 1.0, 1001)


def _random_curve(rng, grid=UNIT):
    return Curve(grid, rng.normal(size=grid.points))


class TestGrid:
    def test_spacing(self):
        assert Grid(0.0, 1.0, 11).spacing == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 10)

    def test_nodes_endpoints(self):
        nodes = Grid(-2.0, 3.0, 51).nodes()
        assert nodes[0] == -2.0 and nodes[-1] == 3.0


class TestCurve:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Curve(UNIT, np.zeros(7))

    def test_nonfinite_rejected(self):
        values = np.zeros(UNIT.points)
        values[3] = np.nan
        with pytest.raises(ValueError):
            Curve(UNIT, values)

    def test_values_immutable(self):
        c = Curve.constant(UNIT, 1.0)
        with pytest.raises(ValueError):
            c.values[0] = 2.0


class TestQuadrature:
    def test_trapezoid_weights(self):
        grid = Grid(-1.0, 2.0, 7)
        weights = grid.trapezoid_weights()
        assert weights[0] == weights[-1] == 0.5 * grid.spacing
        np.testing.assert_array_equal(weights[1:-1], grid.spacing)
        assert weights.sum() == pytest.approx(3.0, abs=1e-15)

    def test_trapezoid_weights_built_once_and_read_only(self):
        grid = Grid(0.0, 1.0, 101)
        weights = grid.trapezoid_weights()
        assert grid.trapezoid_weights() is weights
        assert weights[0] == weights[-1] == 0.5 * grid.spacing
        np.testing.assert_array_equal(weights[1:-1], grid.spacing)
        with pytest.raises(ValueError):
            weights[1] = 0.0
        assert Grid(0.0, 1.0, 101) == grid  # the cached weights are not a field

    @pytest.mark.parametrize("points", [2, 3, 101, 40_000])
    def test_matches_numpy_trapezoid(self, points):
        grid = Grid(-1.0, 2.0, points)
        values = np.random.default_rng(points).normal(size=points)
        expected = float(integrate.trapezoid(values, dx=grid.spacing))
        scale = float(integrate.trapezoid(np.abs(values), dx=grid.spacing))
        assert abs(quadrature(values, grid) - expected) <= 1e-14 * scale

    def test_constant(self):
        grid = Grid(0.0, 1.0, 11)
        assert quadrature(np.full(11, 3.0), grid) == pytest.approx(3.0)

    def test_affine_exact(self):
        grid = Grid(0.0, 1.0, 11)
        assert quadrature(grid.nodes(), grid) == pytest.approx(0.5, abs=1e-15)

    def test_square_symbolic_oracle(self):
        # integral of t^2 over [0, 1] is exactly 1/3
        assert quadrature(UNIT.nodes() ** 2, UNIT) == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_second_order_convergence(self):
        # halving the spacing cuts the t^2 error by ~4x
        errors = []
        for points in (101, 201):
            grid = Grid(0.0, 1.0, points)
            errors.append(abs(quadrature(grid.nodes() ** 2, grid) - 1.0 / 3.0))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5

    def test_length_check(self):
        with pytest.raises(ValueError):
            quadrature(np.zeros(5), UNIT)

    @pytest.mark.parametrize("points", [2, 101, 4001])
    def test_one_row_of_the_batched_integral(self, points):
        # quadrature, Curve.integral and the blocked row integrals share one summation order
        grid = Grid(-1.0, 2.0, points)
        rows = np.random.default_rng(points).normal(size=(40, points))
        batched = funcdata._row_integrals(np.zeros(points), rows, grid, None)
        np.testing.assert_array_equal([quadrature(row, grid) for row in rows], batched)
        np.testing.assert_array_equal([Curve(grid, row).integral() for row in rows], batched)
        np.testing.assert_array_equal([quadrature(row, grid) for row in rows.T.copy().T],
                                      batched)

    @pytest.mark.parametrize("terms", [1, 2, 3])
    def test_factor_row_integrals_keep_the_sum_of_products(self, terms):
        # one product per basis integral, added in order of k: bitwise the sum formula
        grid = Grid(-1.0, 2.0, 51)
        rng = np.random.default_rng(terms)
        coeffs, basis = rng.normal(size=(300, terms)), rng.normal(size=(terms, grid.points))
        x_values = rng.normal(size=grid.points)
        basis_integrals = funcdata._integrate_rows(basis, grid.trapezoid_weights())
        expected = (sum(c * i for c, i in zip(coeffs.T, basis_integrals))
                    - quadrature(x_values, grid))
        got = funcdata._row_integrals(x_values, funcdata.FactorRows(coeffs, basis), grid, None)
        assert got.tobytes() == expected.tobytes()


class TestDistance:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        x = _random_curve(rng)
        for metric in (IntegralDifference(), LpDistance(1.0), LpDistance(2.0)):
            assert distance(x, x, metric) == 0.0

    def test_constant_curves(self):
        one = Curve.constant(UNIT, 1.0)
        zero = Curve.constant(UNIT, 0.0)
        assert distance(one, zero, IntegralDifference()) == pytest.approx(1.0)

    def test_linear_vs_symbolic_integral(self):
        x = Curve(UNIT, UNIT.nodes())
        zero = Curve.constant(UNIT, 0.0)
        assert distance(x, zero, IntegralDifference()) == pytest.approx(0.5, abs=1e-6)

    def test_grid_mismatch(self):
        x = Curve.constant(UNIT, 1.0)
        y = Curve.constant(Grid(0.0, 1.0, 7), 1.0)
        with pytest.raises(GridMismatchError):
            distance(x, y, IntegralDifference())

    def test_semimetric_axioms(self):
        rng = np.random.default_rng(7)
        grid = Grid(0.0, 1.0, 101)
        metrics = (IntegralDifference(), LpDistance(1.0), LpDistance(2.0))
        for _ in range(50):
            x, y = _random_curve(rng, grid), _random_curve(rng, grid)
            for metric in metrics:
                d = distance(x, y, metric)
                assert d >= 0.0
                assert d == pytest.approx(distance(y, x, metric), abs=1e-12)
                assert distance(x, x, metric) == 0.0

    def test_integral_diff_dominated_by_l1(self):
        # |integral of (x - y)| <= integral of |x - y|
        rng = np.random.default_rng(11)
        grid = Grid(0.0, 1.0, 101)
        for _ in range(100):
            x, y = _random_curve(rng, grid), _random_curve(rng, grid)
            assert distance(x, y, IntegralDifference()) <= distance(
                x, y, LpDistance(1.0)
            ) + 1e-12

    def test_lp_triangle_inequality(self):
        rng = np.random.default_rng(13)
        grid = Grid(0.0, 1.0, 101)
        for p in (1.0, 2.0):
            metric = LpDistance(p)
            for _ in range(50):
                x, y, z = (_random_curve(rng, grid) for _ in range(3))
                assert distance(x, z, metric) <= (
                    distance(x, y, metric) + distance(y, z, metric) + 1e-10
                )

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            LpDistance(0.5)


def trapezoid_distances(x_values, rows, grid, metric):
    """Distances from x to each row, straight from ``scipy.integrate.trapezoid``."""
    diff = rows - x_values
    if isinstance(metric, IntegralDifference):
        return np.abs(integrate.trapezoid(diff, dx=grid.spacing, axis=1))
    integral = integrate.trapezoid(np.abs(diff) ** metric.p, dx=grid.spacing, axis=1)
    return integral ** (1.0 / metric.p)


KERNEL_METRICS = [LpDistance(1.0), LpDistance(1.5), LpDistance(2.0), IntegralDifference()]


class TestDistanceToRows:
    """The blocked weight-vector kernel against a plain ``integrate.trapezoid`` reference."""

    def _check(self, x_values, rows, grid, metric):
        rows_before = rows.copy()
        x_before = x_values.copy()
        got = metric.distance_to_rows(x_values, rows, grid)
        np.testing.assert_array_equal(rows, rows_before)
        np.testing.assert_array_equal(x_values, x_before)
        expected = trapezoid_distances(x_values, rows, grid, metric)
        assert got.shape == (rows.shape[0],)
        # the scalar distance is the batched one, bitwise: every row within
        # two of a block edge or of either end
        step = max(1, funcdata._BLOCK_VALUES // grid.points)
        count = rows.shape[0]
        picked = [i for i in range(count)
                  if min(i % step, step - i % step, i + 1, count - i) <= 2]
        x = Curve(grid, x_values)
        scalar = [distance(x, Curve(grid, rows[i]), metric) for i in picked]
        np.testing.assert_array_equal(scalar, got[picked])
        if isinstance(metric, IntegralDifference):
            # |integral| cancels; bound the error by the integral of |row - x|
            scale = integrate.trapezoid(np.abs(rows - x_values), dx=grid.spacing, axis=1)
            assert np.all(np.abs(got - expected) <= 1e-14 * scale)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("metric", KERNEL_METRICS, ids=repr)
    @pytest.mark.parametrize("points", [2, 101, 40_000])
    def test_block_edges(self, points, metric):
        grid = Grid(0.0, 1.0, points)
        block = max(1, funcdata._BLOCK_VALUES // points)
        rng = np.random.default_rng(points)
        x_values = rng.normal(size=points)
        for count in sorted({0, 1, block - 1, block, block + 1}):
            rows = rng.normal(size=(count, points))
            self._check(x_values, rows, grid, metric)

    @pytest.mark.parametrize("metric", KERNEL_METRICS, ids=repr)
    def test_non_contiguous_rows(self, metric):
        grid = Grid(0.0, 1.0, 101)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(2 * 700 + 1, 101))
        x_values = rng.normal(size=101)
        self._check(x_values, rows[::2], grid, metric)
        self._check(x_values, np.asfortranarray(rows), grid, metric)
        self._check(rows[:, ::2][3], rows[:, ::2], Grid(0.0, 1.0, 51), metric)

    @pytest.mark.parametrize("metric", KERNEL_METRICS, ids=repr)
    @pytest.mark.parametrize("points", [2, 101, 201])
    def test_row_result_ignores_its_batch(self, points, metric):
        # greedy covering compares distances computed in different batches
        grid = Grid(0.0, 1.0, points)
        block = max(1, funcdata._BLOCK_VALUES // points)
        rng = np.random.default_rng(points + 1)
        rows = rng.normal(size=(block + 9, points))
        x_values = rows[0]
        full = metric.distance_to_rows(x_values, rows, grid)
        for offset in range(1, 9):
            np.testing.assert_array_equal(
                metric.distance_to_rows(x_values, rows[offset:], grid), full[offset:]
            )
        np.testing.assert_array_equal(
            [metric.distance_to_rows(x_values, rows[i : i + 1], grid)[0] for i in range(9)],
            full[:9],
        )

    @pytest.mark.parametrize("metric", KERNEL_METRICS, ids=repr)
    def test_read_only_rows(self, metric):
        rows = np.random.default_rng(9).normal(size=(400, 101))
        rows.flags.writeable = False
        self._check(rows[0].copy(), rows, Grid(0.0, 1.0, 101), metric)


class TestFactorRows:
    def test_rows_and_shape(self):
        coeffs, basis = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]]), np.eye(2, 4)
        rows = funcdata.FactorRows(coeffs, basis)
        assert rows.shape == (3, 4)
        np.testing.assert_array_equal(rows[0:3], coeffs @ basis)
        assert not (rows.coeffs.flags.writeable or rows.basis.flags.writeable)

    def test_factors_are_copied(self):
        # the caller's arrays stay writable, and no view of them reaches the rows
        coeffs, basis = np.ones((2, 2)), np.ones((2, 3))
        views = coeffs[0], basis[0]
        rows = funcdata.FactorRows(coeffs, basis)
        assert coeffs.flags.writeable and basis.flags.writeable
        for view in views:
            view[:] = 7.0
        np.testing.assert_array_equal(rows[0:2], np.full((2, 3), 2.0))
        assert rows.bound() == 2.0

    @pytest.mark.parametrize("coeffs, basis", [
        (np.ones((3, 2)), np.ones((3, 4))),
        (np.ones(3), np.ones((1, 4))),
        (np.ones((3, 1)), np.ones(4)),
    ], ids=["terms-differ", "coeffs-1d", "basis-1d"])
    def test_factors_must_multiply(self, coeffs, basis):
        with pytest.raises(ValueError, match="factors"):
            funcdata.FactorRows(coeffs, basis)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308])
    def test_bound_not_finite(self, bad):
        # a NaN or infinite factor, or an overflowing product, leaves no finite bound
        coeffs = np.array([[2.0, 1.0], [bad, 0.5]])
        assert not math.isfinite(funcdata.FactorRows(coeffs, np.full((2, 3), 10.0)).bound())


class TestKernels:
    def test_uniform_eval(self):
        assert kernel_eval(UniformKernel(), 0.3) == (1.0, 0.0)

    def test_expdecay_eval(self):
        k, kp = kernel_eval(ExpDecayKernel(), 1.0)
        assert k == pytest.approx(math.exp(-1.0))
        assert kp == pytest.approx(-math.exp(-1.0))

    def test_affine_eval(self):
        assert kernel_eval(AffineKernel(), 0.0) == (2.0, -1.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            kernel_eval(UniformKernel(), 1.5)
        with pytest.raises(ValueError):
            kernel_eval(UniformKernel(), -0.1)

    @pytest.mark.parametrize(
        "kernel, k0",
        [(UniformKernel(), 1.0), (ExpDecayKernel(), math.exp(-1.0)), (AffineKernel(), 1.0)],
    )
    def test_bounds(self, kernel, k0):
        # the kernel hypotheses: K >= k0 > 0 on [0, 1], so K(1) > 0 too
        u = np.linspace(0.0, 1.0, 101)
        values = kernel.k(u)
        assert np.all(values >= k0 - 1e-12)
        assert kernel.k(1.0) > 0.0

    @pytest.mark.parametrize(
        "kernel, lipschitz",
        [(UniformKernel(), 0.0), (ExpDecayKernel(), 1.0), (AffineKernel(), 1.0)],
    )
    def test_lipschitz_bound(self, kernel, lipschitz):
        rng = np.random.default_rng(42)
        u = rng.uniform(0.0, 1.0, size=10_000)
        v = rng.uniform(0.0, 1.0, size=10_000)
        gap = np.abs(kernel.k(u) - kernel.k(v))
        assert np.all(gap <= lipschitz * np.abs(u - v) + 1e-12)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            UniformKernel(scale=0.0)


class TestScalingProfiles:
    @pytest.mark.parametrize(
        "profile", [IdentityScaling(), PowerScaling(0.5), PowerScaling(2.0)]
    )
    def test_monotone_with_exact_endpoints(self, profile):
        u = np.linspace(0.0, 1.0, 1001)
        values = tau(profile, u)
        assert values[0] == 0.0 and values[-1] == 1.0
        assert np.all(np.diff(values) >= 0.0)

    @pytest.mark.parametrize("profile", [IdentityScaling(), PowerScaling(1.7)])
    def test_inverse_roundtrip(self, profile):
        w = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(tau(profile, tau_inverse(profile, w)), w, atol=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            PowerScaling(0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.7, 2.0, 3.0])
    def test_gauss_rule_integrates_monomials_against_dtau(self, alpha):
        # integral_0^1 u^j alpha u^(alpha-1) du = alpha / (j + alpha); a
        # 32-node Gauss rule is exact through degree 63
        profile = IdentityScaling() if alpha == 1.0 else PowerScaling(alpha)
        u, weights = profile.gauss_rule()
        assert u.shape == weights.shape == (32,)
        assert np.all((0.0 < u) & (u < 1.0)) and np.all(weights > 0.0)
        for j in (0, 1, 5, 20, 63):
            assert weights @ u**j == pytest.approx(alpha / (j + alpha), rel=1e-13)

    def test_gauss_rule_is_shared_and_read_only(self):
        u, weights = PowerScaling(2).gauss_rule()
        assert PowerScaling(2.0).gauss_rule()[0] is u
        assert not u.flags.writeable and not weights.flags.writeable


class TestCurveCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        curve = _random_curve(rng, Grid(-1.0, 2.0, 61))
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert back.grid == curve.grid
        np.testing.assert_allclose(back.values, curve.values, rtol=0, atol=0)

    def test_header(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(Curve.constant(Grid(0.0, 1.0, 5), 2.0), path)
        assert path.read_text().splitlines()[0] == "t,value"

    def test_nonuniform_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
        with pytest.raises(ValueError, match="uniform"):
            read_curve_csv(path)

    @pytest.mark.parametrize("nodes", [("0.0", "nan", "1.0"), ("0.0", "0.5", "inf")],
                             ids=["nan-node", "inf-end"])
    def test_non_finite_nodes_rejected(self, tmp_path, nodes):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n" + "".join(f"{t},1.0\n" for t in nodes))
        with pytest.raises(ValueError, match="non-finite"):
            read_curve_csv(path)
