"""Curves on shared uniform grids, semi-metrics, kernels and scaling profiles.

Everything here is immutable after construction and safe to share.  All
integrals over a uniform grid use the composite trapezoid rule, which is
exact for affine integrands: one ``einsum`` of the rows with the grid's
trapezoid weights, built once per grid and read-only (``_integrate_rows``);
``FactorRows`` integrate their basis.  A scalar integral or distance is the
one-row case of the batched one on a matrix, so the two agree bitwise.  Each
scaling profile carries one fixed Gauss rule for dtau on the support [0, 1].
"""

from __future__ import annotations

import csv
import functools
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class GridMismatchError(ValueError):
    """Two curves that must share a grid do not."""


@dataclass(frozen=True)
class Grid:
    """Uniformly spaced nodes on [t_min, t_max]."""

    t_min: float
    t_max: float
    points: int

    def __post_init__(self):
        object.__setattr__(self, "points", integer(self.points, "points", 2))
        if not 0 < real(self.t_max, "t_max") - real(self.t_min, "t_min") < np.inf:
            raise ValueError("grid needs t_min < t_max, finite and a finite width apart, "
                             f"got t_min={self.t_min}, t_max={self.t_max}")

    @property
    def spacing(self) -> float:
        return (self.t_max - self.t_min) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.points)

    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights: the spacing inside, half of it at both ends."""
        return self._trapezoid_weights

    @functools.cached_property
    def _trapezoid_weights(self) -> np.ndarray:  # built on the first call, then shared
        weights = np.full(self.points, self.spacing)
        weights[[0, -1]] *= 0.5
        weights.flags.writeable = False
        return weights


def integer(value, name: str, least: int) -> int:
    """``int(value)`` for a Python or NumPy integer, not a bool, of at least ``least``.

    The one rule for every count the library takes, up to NumPy's 64-bit limit: sizes,
    replicate counts, grid points and seeds.  Anything else raises a ValueError naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if value > 2**63 - 1:  # NumPy's int64 limit
        raise ValueError(f"{name} must fit in a 64-bit integer, got {value!r}")
    return int(value)


def real(value, name: str, above: float | None = None) -> float:
    """``float(value)`` for a finite Python or NumPy real, not a bool, above ``above`` if given.

    The one rule for every real parameter; anything else raises a ValueError naming ``name``.
    """
    finite = (isinstance(value, (float, np.floating)) and np.isfinite(value)  # casts no float32
              or isinstance(value, (int, np.integer)) and not isinstance(value, bool)
              and -sys.float_info.max <= value <= sys.float_info.max)  # exact, even for 10**400
    if not finite or above is not None and not value > above:
        bound = "" if above is None else f" > {above}"
        raise ValueError(f"{name} must be a finite real{bound}, got {value!r}")
    return float(value)


def frozen_array(values, ndim: int, points: int) -> np.ndarray:
    """Read-only copy of ``values``, a nonempty ``ndim``-D array of finite floats.

    Each row (the whole array when ``ndim`` is 1) holds ``points`` values.
    """
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0 or arr.shape[-1] != points:
        raise ValueError(f"expected a nonempty {ndim}-D array of {points} values per row, "
                         f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("values must all be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Curve:
    """A real function on [t_min, t_max] sampled on a shared uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_array(self.values, 1, self.grid.points))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Curve":
        return cls(grid, np.full(grid.points, real(value, "value")))

    def integral(self) -> float:
        """Trapezoid integral of the curve over its domain."""
        return quadrature(self.values, self.grid)


def _integrate_rows(block: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """Trapezoid integral of each row of a C-contiguous block.

    ``einsum`` sums each row in one fixed order, so a row's integral does
    not depend on the rows passed with it (BLAS ``matmul`` does not).
    """
    return np.einsum("ij,j->i", block, weights, out=out)


def quadrature(values, grid: Grid) -> float:
    """Composite trapezoid rule on the grid nodes; exact for affine integrands.

    The one-row case of ``_integrate_rows``.
    """
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.shape != (grid.points,):
        raise ValueError(f"got values of shape {arr.shape} for a {grid.points}-point grid")
    return float(_integrate_rows(arr[np.newaxis], grid.trapezoid_weights())[0])


# Values per block of rows in ``row_blocks``: 256 KB of float64, small
# enough to stay in cache, large enough to amortise the per-block overhead.
_BLOCK_VALUES = 32768


def row_blocks(rows: int, points: int) -> Iterator[tuple[slice, np.ndarray]]:
    """Walk ``rows`` rows of ``points`` values in cache-sized blocks.

    Yields each block's row slice with a view of one scratch buffer of the
    block's shape; the buffer is reused from block to block, so no
    temporary grows with the number of rows.
    """
    step = max(1, _BLOCK_VALUES // points)
    scratch = np.empty((min(step, rows), points))
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        yield slice(start, stop), scratch[: stop - start]


@dataclass(frozen=True)
class FactorRows:
    """Read-only rows sum_k coeffs[i, k] * basis[k], held as frozen copies of both factors."""

    coeffs: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        if (self.coeffs.ndim, self.basis.ndim) != (2, 2) or self.coeffs.shape[1] != len(self.basis):
            raise ValueError(f"factors of shapes {self.coeffs.shape}, {self.basis.shape} differ")
        for name, arr in (("coeffs", self.coeffs), ("basis", self.basis)):
            object.__setattr__(self, name, arr.copy(order="K"))
        self.coeffs.flags.writeable = self.basis.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs.shape[0], self.basis.shape[1]

    def __getitem__(self, rows: slice) -> np.ndarray:
        """The rows ``rows`` as a matrix: one product per term, added in order of k."""
        out = np.multiply.outer(self.coeffs[rows, 0], self.basis[0])
        for k in range(1, len(self.basis)):
            out += np.multiply.outer(self.coeffs[rows, k], self.basis[k])
        return out

    def bound(self) -> float:
        """sum_k max|coeffs[:, k]| * max|basis[k]|; when finite, every row is finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is the answer
            return float((abs(self.coeffs).max(axis=0) * abs(self.basis).max(axis=1)).sum())


Rows = np.ndarray | FactorRows  # an (n, points) matrix, or its factors


def _row_integrals(x_values: np.ndarray, rows: Rows, grid: Grid, p: float | None) -> np.ndarray:
    """Trapezoid integral of each ``row - x``, or of ``|row - x|**p`` when p is given.

    Walks the rows through ``row_blocks``, leaving a matrix unchanged and building
    factor rows block by block; their plain integrals need no block.  x is tiled
    once per call into the shape of a block, so each block subtracts a contiguous tile.
    """
    weights = grid.trapezoid_weights()
    if p is None and isinstance(rows, FactorRows):
        basis_integrals = _integrate_rows(rows.basis, weights)
        integrals = rows.coeffs[:, 0] * basis_integrals[0]
        for k in range(1, len(basis_integrals)):  # one product per term, added in order of k
            integrals += rows.coeffs[:, k] * basis_integrals[k]
        return integrals - quadrature(x_values, grid)
    out, tile = np.empty(rows.shape[0]), None
    for block_rows, block in row_blocks(rows.shape[0], grid.points):
        if tile is None:  # the first block is the largest
            tile = x_values[np.newaxis].repeat(len(block), axis=0)
        np.subtract(rows[block_rows], tile[: len(block)], out=block)
        if p is not None:
            np.abs(block, out=block)
            if p != 1:
                block **= p
        _integrate_rows(block, weights, out=out[block_rows])
    return out


@dataclass(frozen=True)
class IntegralDifference:
    """Semi-metric d(x, y) = |integral of (x - y)|.

    A genuine semi-metric: distinct curves with equal integrals are at
    distance zero.
    """

    def distance_to_rows(self, x_values: np.ndarray, rows: Rows, grid: Grid) -> np.ndarray:
        return np.abs(_row_integrals(x_values, rows, grid, None))


@dataclass(frozen=True)
class LpDistance:
    """L_p distance (integral of |x - y|^p)^(1/p) by trapezoid quadrature."""

    p: float = 2.0

    def __post_init__(self):
        if not real(self.p, "p") >= 1:
            raise ValueError(f"L_p distance needs p >= 1, got {self.p}")

    def distance_to_rows(self, x_values: np.ndarray, rows: Rows, grid: Grid) -> np.ndarray:
        return _row_integrals(x_values, rows, grid, self.p) ** (1.0 / self.p)


SemiMetric = IntegralDifference | LpDistance


def distance(x: Curve, y: Curve, metric: SemiMetric) -> float:
    """Distance between two curves on the same grid under the given semi-metric.

    The one-row case of ``metric.distance_to_rows``.
    """
    if x.grid != y.grid:
        raise GridMismatchError(f"curves live on different grids: {x.grid} vs {y.grid}")
    return float(metric.distance_to_rows(x.values, y.values[np.newaxis], x.grid)[0])


@dataclass(frozen=True)
class _KernelBase:
    """Common kernel interface on the support [0, 1].

    Every variant meets the paper's kernel hypotheses: it is
    differentiable and Lipschitz on [0, 1], bounded below there by some
    k0 > 0, and K(1) > 0.  These are assumptions of the theorems; no
    computation reads them as values.  ``scale`` multiplies the whole
    kernel (useful for scale-invariance checks).
    """

    scale: float = 1.0

    def __post_init__(self):
        real(self.scale, "scale", 0)


@dataclass(frozen=True)
class UniformKernel(_KernelBase):
    """K(u) = 1 on [0, 1]."""

    def k(self, u):
        return self.scale * np.ones_like(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class ExpDecayKernel(_KernelBase):
    """K(u) = exp(-u) on [0, 1]."""

    def k(self, u):
        return self.scale * np.exp(-np.asarray(u, dtype=float))


@dataclass(frozen=True)
class AffineKernel(_KernelBase):
    """K(u) = 2 - u on [0, 1]."""

    def k(self, u):
        return self.scale * (2.0 - np.asarray(u, dtype=float))


Kernel = UniformKernel | ExpDecayKernel | AffineKernel


# Nodes of the Gauss rule for a scaling measure dtau on [0, 1].  The kernels
# are smooth in u, so 32 nodes integrate their exponentials to rounding level.
_GAUSS_NODES = 32


@functools.lru_cache(maxsize=None)
def _power_gauss_rule(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for the measure alpha u**(alpha - 1) du on [0, 1].

    The weights of ``roots_sh_jacobi`` (Golub-Welsch) sum to the mass
    1 / alpha of u**(alpha - 1) du, so they are scaled by alpha.
    """
    from scipy.special import roots_sh_jacobi  # local: only a non-uniform kernel needs it

    u, weights = roots_sh_jacobi(_GAUSS_NODES, alpha, alpha)
    weights = weights * alpha
    u.flags.writeable = False
    weights.flags.writeable = False
    return u, weights


@dataclass(frozen=True)
class PowerScaling:
    """Small-ball scaling profile tau(u) = u**alpha, alpha > 0."""

    alpha: float

    def __post_init__(self):
        real(self.alpha, "alpha", 0)

    def gauss_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the Gauss rule for dtau = alpha u**(alpha - 1) du."""
        return _power_gauss_rule(float(self.alpha))


def IdentityScaling() -> PowerScaling:
    """Small-ball scaling profile tau(u) = u: the power profile at alpha = 1 (Gauss-Legendre)."""
    return PowerScaling(1.0)


def write_curve_csv(curve: Curve, path) -> None:
    """Write a curve as CSV with header ``t,value``, one row per node."""
    nodes = curve.grid.nodes()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in zip(nodes, curve.values):
            writer.writerow([repr(float(t)), repr(float(v))])


def read_curve_csv(path) -> Curve:
    """Read a ``t,value`` CSV and validate that the grid is uniform.

    The nodes must be finite, and the relative deviation of node spacings
    from their mean must stay below 1e-9.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ValueError(f"curve CSV {path} must have two columns and at least two rows")
    t, values = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(t)):
        raise ValueError(f"curve CSV {path} has non-finite nodes")
    steps = np.diff(t)
    mean_step = float(np.mean(steps))
    if not mean_step > 0:
        raise ValueError(f"curve CSV {path} has non-increasing nodes")
    if np.max(np.abs(steps - mean_step)) / mean_step >= 1e-9:
        raise ValueError(f"curve CSV {path} is not on a uniform grid")
    grid = Grid(float(t[0]), float(t[-1]), len(t))
    return Curve(grid, values)
