"""Curves on shared uniform grids, semi-metrics, kernels and scaling profiles.

Everything here is immutable after construction and safe to share.  All
integrals over the curve domain use the composite trapezoid rule, which is
exact for affine integrands, as a dot product with the grid's trapezoid
weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

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
        if self.points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.points}")
        if not self.t_min < self.t_max:
            raise ValueError(f"grid requires t_min < t_max, got [{self.t_min}, {self.t_max}]")

    @property
    def spacing(self) -> float:
        return (self.t_max - self.t_min) / (self.points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.points)

    def trapezoid_weights(self) -> np.ndarray:
        """Composite trapezoid weights: the spacing inside, half of it at both ends."""
        weights = np.full(self.points, self.spacing)
        weights[[0, -1]] *= 0.5
        return weights


def _frozen_array(values, length: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"expected {length} values, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must all be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Curve:
    """A real function on [t_min, t_max] sampled on a shared uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values, self.grid.points))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Curve":
        return cls(grid, fn(grid.nodes()))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Curve":
        return cls(grid, np.full(grid.points, float(value)))

    def integral(self) -> float:
        """Trapezoid integral of the curve over its domain."""
        return quadrature(self.values, self.grid)


def quadrature(values, grid: Grid) -> float:
    """Composite trapezoid rule on the grid nodes; exact for affine integrands."""
    arr = np.asarray(values, dtype=float)
    if arr.shape[-1] != grid.points:
        raise ValueError(f"got {arr.shape[-1]} values for a {grid.points}-point grid")
    return float(arr @ grid.trapezoid_weights())


# Values per block of rows in ``_row_integrals``: 256 KB of float64, small
# enough to stay in cache, large enough to amortise the per-block overhead.
_BLOCK_VALUES = 32768


def _row_integrals(x_values: np.ndarray, rows: np.ndarray, grid: Grid,
                   p: float | None) -> np.ndarray:
    """Trapezoid integral of each ``row - x``, or of ``|row - x|**p`` when p is given.

    Walks ``rows`` in cache-sized blocks through one scratch buffer, so no
    temporary grows with the number of rows; ``rows`` is left unchanged.
    ``einsum`` sums each row in one fixed order, so a pair's distance does
    not depend on the rows passed with it (BLAS ``matmul`` does not).
    """
    weights = grid.trapezoid_weights()
    out = np.empty(rows.shape[0])
    step = max(1, _BLOCK_VALUES // grid.points)
    buffer = np.empty((min(step, rows.shape[0]), grid.points))
    for start in range(0, rows.shape[0], step):
        stop = min(start + step, rows.shape[0])
        block = buffer[: stop - start]
        np.subtract(rows[start:stop], x_values, out=block)
        if p is not None:
            np.abs(block, out=block)
            if p != 1:
                block **= p
        np.einsum("ij,j->i", block, weights, out=out[start:stop])
    return out


def _require_same_grid(x: Curve, y: Curve) -> None:
    if x.grid != y.grid:
        raise GridMismatchError(f"curves live on different grids: {x.grid} vs {y.grid}")


@dataclass(frozen=True)
class IntegralDifference:
    """Semi-metric d(x, y) = |integral of (x - y)|.

    A genuine semi-metric: distinct curves with equal integrals are at
    distance zero.
    """

    def distance(self, x: Curve, y: Curve) -> float:
        _require_same_grid(x, y)
        return abs(quadrature(x.values - y.values, x.grid))

    def distance_to_rows(self, x_values: np.ndarray, rows: np.ndarray, grid: Grid) -> np.ndarray:
        return np.abs(_row_integrals(x_values, rows, grid, None))


@dataclass(frozen=True)
class LpDistance:
    """L_p distance (integral of |x - y|^p)^(1/p) by trapezoid quadrature."""

    p: float = 2.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"L_p distance needs p >= 1, got {self.p}")

    def distance(self, x: Curve, y: Curve) -> float:
        _require_same_grid(x, y)
        return quadrature(np.abs(x.values - y.values) ** self.p, x.grid) ** (1.0 / self.p)

    def distance_to_rows(self, x_values: np.ndarray, rows: np.ndarray, grid: Grid) -> np.ndarray:
        return _row_integrals(x_values, rows, grid, self.p) ** (1.0 / self.p)


SemiMetric = IntegralDifference | LpDistance


def distance(x: Curve, y: Curve, metric: SemiMetric) -> float:
    """Distance between two curves on the same grid under the given semi-metric."""
    return metric.distance(x, y)


@dataclass(frozen=True)
class _KernelBase:
    """Common kernel interface on the support [0, 1].

    Every variant is nonnegative, bounded, differentiable on [0, 1],
    bounded below by ``k0 > 0`` and has ``k_at_one > 0``.  ``scale``
    multiplies the whole kernel (useful for scale-invariance checks).
    """

    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError(f"kernel scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class UniformKernel(_KernelBase):
    """K(u) = 1 on [0, 1]."""

    def k(self, u):
        return self.scale * np.ones_like(np.asarray(u, dtype=float))

    def kprime(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    @property
    def k_at_one(self) -> float:
        return self.scale

    @property
    def k0(self) -> float:
        return self.scale

    @property
    def lipschitz(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ExpDecayKernel(_KernelBase):
    """K(u) = exp(-u) on [0, 1]."""

    def k(self, u):
        return self.scale * np.exp(-np.asarray(u, dtype=float))

    def kprime(self, u):
        return -self.scale * np.exp(-np.asarray(u, dtype=float))

    @property
    def k_at_one(self) -> float:
        return self.scale * math.exp(-1.0)

    @property
    def k0(self) -> float:
        return self.scale * math.exp(-1.0)

    @property
    def lipschitz(self) -> float:
        return self.scale


@dataclass(frozen=True)
class AffineKernel(_KernelBase):
    """K(u) = 2 - u on [0, 1]."""

    def k(self, u):
        return self.scale * (2.0 - np.asarray(u, dtype=float))

    def kprime(self, u):
        return np.full_like(np.asarray(u, dtype=float), -self.scale)

    @property
    def k_at_one(self) -> float:
        return self.scale

    @property
    def k0(self) -> float:
        return self.scale

    @property
    def lipschitz(self) -> float:
        return self.scale


Kernel = UniformKernel | ExpDecayKernel | AffineKernel


def kernel_eval(kernel: Kernel, u: float) -> tuple[float, float]:
    """Evaluate (K(u), K'(u)); u must lie in the support [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"kernel argument {u} outside the support [0, 1]")
    return float(kernel.k(u)), float(kernel.kprime(u))


@dataclass(frozen=True)
class IdentityScaling:
    """Small-ball scaling profile tau(u) = u."""

    def tau(self, u):
        return np.asarray(u, dtype=float)

    def tau_prime(self, u):
        return np.ones_like(np.asarray(u, dtype=float))

    def tau_inverse(self, w):
        return np.asarray(w, dtype=float)


@dataclass(frozen=True)
class PowerScaling:
    """Small-ball scaling profile tau(u) = u**alpha, alpha > 0."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"power scaling needs alpha > 0, got {self.alpha}")

    def tau(self, u):
        return np.asarray(u, dtype=float) ** self.alpha

    def tau_prime(self, u):
        u = np.asarray(u, dtype=float)
        return self.alpha * u ** (self.alpha - 1.0)

    def tau_inverse(self, w):
        return np.asarray(w, dtype=float) ** (1.0 / self.alpha)


ScalingProfile = IdentityScaling | PowerScaling


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

    The relative deviation of node spacings from their mean must stay
    below 1e-9.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise ValueError(f"curve CSV {path} must have two columns and at least two rows")
    t, values = data[:, 0], data[:, 1]
    steps = np.diff(t)
    mean_step = float(np.mean(steps))
    if mean_step <= 0:
        raise ValueError(f"curve CSV {path} has non-increasing nodes")
    if np.max(np.abs(steps - mean_step)) / mean_step >= 1e-9:
        raise ValueError(f"curve CSV {path} is not on a uniform grid")
    grid = Grid(float(t[0]), float(t[-1]), len(t))
    return Curve(grid, values)
