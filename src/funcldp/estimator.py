"""Index-weighted kernel regression for curve-valued covariates.

The estimator averages an index of the responses over the observations
whose curves fall within bandwidth ``h`` of the evaluation point.  The
component sums are normalized by ``n * phi(h)`` where ``phi`` is the
model's small-ball scale, so they sit directly on the scale used by the
rare-event experiments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .funcdata import (Curve, FactorRows, Grid, GridMismatchError, Kernel, Rows, SemiMetric,
                       frozen_array, integer, real, row_blocks)

_INTERVAL = tuple[float, float]


@dataclass(frozen=True)
class IdentityIndex:
    """Index l(v) = v; the plain regression case."""

    def __call__(self, v):
        return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class IntervalIndicator:
    """Index l(v) = 1 when v lies in a finite union of intervals.

    Intervals are closed; infinite endpoints are allowed.
    """

    intervals: tuple[_INTERVAL, ...]

    def __post_init__(self):
        if not self.intervals:
            raise ValueError("indicator index needs at least one interval")
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError(f"degenerate interval ({lo}, {hi})")

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        member = np.zeros_like(v, dtype=bool)
        for lo, hi in self.intervals:
            member |= (v >= lo) & (v <= hi)
        return member.astype(float)


@dataclass(frozen=True)
class LipschitzIndex:
    """Index supplied as a callable.

    The theorems assume it bounded and Lipschitz; nothing here reads or
    checks a bound.
    """

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, v):
        return np.asarray(self.fn(np.asarray(v, dtype=float)), dtype=float)


IndexFunction = IdentityIndex | IntervalIndicator | LipschitzIndex


class Dataset:
    """Pairs (X_i, Y_i) of curves and real responses on one shared grid.

    ``rows``, which the distances read, is a finite (n, points) matrix or
    ``FactorRows`` with a finite ``bound``; ``x_values`` is the read-only
    matrix, built from factor rows block by block on first read and kept.
    """

    def __init__(self, grid: Grid, x_values: Rows, y: np.ndarray):
        factored = isinstance(x_values, FactorRows)
        rows = x_values if factored else np.asarray(x_values, dtype=float)
        y, shape = np.asarray(y, dtype=float), rows.shape
        if len(shape) != 2 or shape[1] != grid.points:
            raise ValueError(f"x_values must be (n, {grid.points}), got {shape}")
        if y.shape != shape[:1]:
            raise ValueError(f"y must have length {shape[0]}, got {y.shape}")
        if shape[0] < 1:
            raise ValueError("dataset needs at least one pair")
        try:  # the shapes are checked, so frozen_array can reject only a value
            if not factored:
                self.x_values = rows = frozen_array(rows, 2, grid.points)  # its own x_values
            y = frozen_array(y, 1, shape[0])
        except ValueError:
            raise ValueError("dataset values must all be finite") from None
        if factored and not math.isfinite(rows.bound()):
            raise ValueError("dataset values must all be finite")
        self.grid, self.rows, self.y = grid, rows, y

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @functools.cached_property
    def x_values(self) -> np.ndarray:
        x_values = np.empty(self.rows.shape)
        for block_rows, _ in row_blocks(*x_values.shape):
            x_values[block_rows] = self.rows[block_rows]
        x_values.flags.writeable = False
        return x_values


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, semi-metric, bandwidth and the small-ball scale at that bandwidth."""

    kernel: Kernel
    metric: SemiMetric
    bandwidth: float
    phi_of_h: float

    def __post_init__(self):
        real(self.bandwidth, "bandwidth", 0), real(self.phi_of_h, "phi_of_h", 0)


@dataclass(frozen=True)
class RegressionEstimate:
    """Component sums and the ratio estimate at one evaluation curve.

    ``r_n1`` and ``r_n2`` are the kernel mass and index-weighted kernel
    mass, each normalized by ``n * phi_of_h``; ``r_hat`` is their ratio
    with the convention that an empty neighborhood yields 0.
    """

    r_n1: float
    r_n2: float
    r_hat: float
    active_count: int


def _distances(x: Curve, rows: Rows, grid: Grid, metric: SemiMetric) -> np.ndarray:
    """Distance d(x, row) of every row: one pass over the rows."""
    if x.grid != grid:
        raise GridMismatchError("evaluation curve and dataset live on different grids")
    return metric.distance_to_rows(x.values, rows, grid)


def _kernel_weights(distances: np.ndarray,
                    cfg: EstimatorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Kernel weights K(d/h) of the distances and the window u = d/h <= 1.

    The window is closed at u = 1; a row outside it gets weight 0.  Distances are
    >= 0 or NaN, so only the top of the support needs a clip.
    """
    u = distances / cfg.bandwidth
    active = u <= 1.0
    w = np.where(active, cfg.kernel.k(np.minimum(u, 1.0)), 0.0)
    return w, active


def delta(x: Curve, xi: Curve, cfg: EstimatorConfig) -> float:
    """Kernel weight K(d(x, X_i)/h), hard-zeroed outside d/h <= 1: the one-row case."""
    distances = _distances(x, xi.values[np.newaxis], xi.grid, cfg.metric)
    return float(_kernel_weights(distances, cfg)[0][0])


def z_n(x: Curve, data: Dataset, index: IndexFunction,
        configs: Sequence[EstimatorConfig]) -> list[RegressionEstimate]:
    """Evaluate the estimator components at ``x`` over the whole dataset, once per config.

    Configs that share a metric share one distance pass over the curves,
    so a bandwidth sequence reads the dataset's ``rows`` once per metric.
    """
    distances = {}
    indexed = index(data.y)
    estimates = []
    for cfg in configs:
        if cfg.metric not in distances:
            distances[cfg.metric] = _distances(x, data.rows, data.grid, cfg.metric)
        w, active = _kernel_weights(distances[cfg.metric], cfg)
        norm = data.n * cfg.phi_of_h
        r_n1 = float(np.sum(w)) / norm
        r_n2 = float(np.sum(indexed * w)) / norm
        r_hat = r_n2 / r_n1 if r_n1 != 0.0 else 0.0
        estimates.append(RegressionEstimate(r_n1, r_n2, r_hat, int(np.count_nonzero(active))))
    return estimates


@dataclass(frozen=True)
class LogMgfEstimate:
    """Monte-Carlo estimate of the scaled log moment generating function."""

    value: float
    overflow: bool


def finite_n_log_mgf(
    x: Curve,
    data_law: Callable[[np.random.Generator], Dataset],
    index: IndexFunction,
    cfg: EstimatorConfig,
    t1: float,
    t2: float,
    replicates: int,
    seed: int,
) -> LogMgfEstimate:
    """Estimate (1/(n phi(h))) log E exp{sum_i (t1 + t2 l(Y_i)) Delta_i(x)}.

    Each replicate draws an independent dataset from ``data_law`` with its own RNG stream, and
    its distances read the dataset's ``rows``: for a ``sample_dataset`` draw the factors, with
    no curve matrix.  The replicate exponents are combined by log-sum-exp, so the reduction is
    deterministic and overflow-safe.  A replicate whose exponent is itself non-finite flags the
    estimate and yields an infinite value; a tilt may be infinite, but not NaN.
    """
    from scipy.special import logsumexp  # local: scipy.special loads only for a log-MGF

    replicates, seed = integer(replicates, "replicates", 1), integer(seed, "seed", 0)
    if math.isnan(t1) or math.isnan(t2):
        raise ValueError(f"tilts t1 and t2 must not be NaN, got t1={t1!r}, t2={t2!r}")
    exponents = np.empty(replicates)
    n = None
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        data = data_law(rng)
        if n is None:
            n = data.n
        elif data.n != n:
            raise ValueError("data_law must produce datasets of a fixed size")
        w, _ = _kernel_weights(_distances(x, data.rows, data.grid, cfg.metric), cfg)
        exponents[rep] = np.sum((t1 + t2 * index(data.y)) * w)
    if not np.all(np.isfinite(exponents)):
        return LogMgfEstimate(math.inf, True)
    log_mean = float(logsumexp(exponents) - math.log(replicates))
    return LogMgfEstimate(log_mean / (n * cfg.phi_of_h), False)
