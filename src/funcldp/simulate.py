"""Generative curve model, small-ball probes, and rare-event ladders.

The generative model builds each covariate curve as a response-scaled
signal curve plus a standard-normal-scaled noise curve.  Under the
integral-difference semi-metric the distance from any fixed curve is a
scalar projection, so the conditional small-ball probability has the
explicit Gaussian local density used by all rate-function comparisons,
with small-ball scale phi(u) = 2u.

Ladder experiments estimate rare deviation probabilities of the kernel
regression estimate across a growing sample-size schedule and report
empirical decay rates next to the theoretical ones.

Under the integral-difference metric and the uniform kernel, the
estimate at a center c is the index average over the observations whose
projection P = Y * integral(signal) + eps * integral(noise) lands within
h of c's projection, and 0 when none does.  So a ladder rung samples
only those observations, exactly: the window endpoints c +- h cut the
P-line into cells; one multinomial draw over (cell masses, rest) gives
each replicate's cell counts; each in-cell P is drawn from its law
truncated to the cell and then Y from its law given P.  Per-center sums
and counts follow from a cell-by-center incidence matrix.  A rung draws
from one stream, ``SeedSequence((seed, n))``, in blocks of replicates
sized by a fixed budget of in-window draws, so its outcome depends only
on the seed and its memory follows the budget, not n or the replicate
count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from . import ratefn
from .estimator import Dataset, IndexFunction
from .funcdata import Curve, Grid, quadrature

_WILSON_Z = 1.959963984540054  # 95% normal quantile
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# In-window draws per block of ladder replicates; bounds a rung's memory.
_BLOCK_DRAWS = 1 << 16
# A uniform response whose projected spread is below this fraction of the
# noise scale is treated as independent of P; the closed-form cell masses
# would lose more to cancellation than that approximation costs.
_FLAT_SPREAD = 1.5e-8


def _reflect_low(lo, hi):
    """Mirror the intervals centered above 0 onto the lower half-line."""
    flip = lo + hi > 0
    return flip, np.where(flip, -hi, lo), np.where(flip, -lo, hi)


def _normal_mass(lo, hi) -> np.ndarray:
    """Standard normal mass of [lo, hi], taken where Phi keeps relative precision."""
    _, lo, hi = _reflect_low(lo, hi)
    return ndtr(hi) - ndtr(lo)


def _truncated_normal(u: np.ndarray, lo, hi) -> np.ndarray:
    """Standard normal truncated to [lo, hi] by inverting its CDF at the uniforms u.

    Intervals in the upper half are reflected into the lower tail first,
    so draws stay accurate far out.
    """
    flip, lo, hi = _reflect_low(lo, hi)
    f_lo = ndtr(lo)
    z = np.clip(ndtri(f_lo + u * (ndtr(hi) - f_lo)), lo, hi)
    return np.where(flip, -z, z)


def _phi_integral(x1, x2) -> np.ndarray:
    """Integral of Phi over [x1, x2] from G(x) = x Phi(x) + phi(x).

    Intervals centered above 0 use G(x) - x = G(-x), which avoids the
    cancellation of two large G values.
    """
    flip, lo, hi = _reflect_low(x1, x2)
    g_lo = lo * ndtr(lo) + _INV_SQRT_2PI * np.exp(-0.5 * lo * lo)
    g_hi = hi * ndtr(hi) + _INV_SQRT_2PI * np.exp(-0.5 * hi * hi)
    return np.where(flip, (x2 - x1) - (g_hi - g_lo), g_hi - g_lo)


@dataclass(frozen=True)
class NormalLaw:
    """Normal response law with density evaluations for weight construction."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError(f"normal law needs sd > 0, got {self.sd}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size=n)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        z = (v - self.mean) / self.sd
        return np.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))

    def cell_masses(self, a: float, b: float, lo, hi) -> np.ndarray:
        """P(lo <= a Y + b eps <= hi) for each cell, eps standard normal."""
        mu, sd = a * self.mean, math.hypot(a * self.sd, b)
        return _normal_mass((lo - mu) / sd, (hi - mu) / sd)

    def sample_in_cells(self, rng: np.random.Generator, a: float, b: float,
                        lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One (P, Y) per cell [lo_i, hi_i]: P = a Y + b eps given the cell, Y given P.

        P is normal, and Y given P is the bivariate-normal conditional
        N(m + a s^2 (P - a m) / sd^2, s^2 b^2 / sd^2) with sd^2 = a^2 s^2 + b^2.
        """
        mu, sd = a * self.mean, math.hypot(a * self.sd, b)
        z = _truncated_normal(rng.random(lo.shape), (lo - mu) / sd, (hi - mu) / sd)
        noise = rng.standard_normal(z.shape)
        y = self.mean + (a * self.sd**2 / sd) * z + (self.sd * b / sd) * noise
        return mu + sd * z, y


@dataclass(frozen=True)
class UniformLaw:
    """Uniform response law on a bounded interval."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"uniform law needs lo < hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        inside = (v >= self.lo) & (v <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def _projection(self, a: float) -> tuple[float, float]:
        """Center and half-width of the support of a Y."""
        return 0.5 * a * (self.lo + self.hi), 0.5 * abs(a) * (self.hi - self.lo)

    def cell_masses(self, a: float, b: float, lo, hi) -> np.ndarray:
        """P(lo <= a Y + b eps <= hi) for each cell, eps standard normal.

        The density of P is symmetric about its center m, so cells right of
        m are mirrored to the left, where the closed form
        (b / 2 half) [int Phi((x + half)/b) - int Phi((x - half)/b)] over
        the cell offsets x = P - m keeps its precision.
        """
        m, half = self._projection(a)
        if half < _FLAT_SPREAD * b:
            return _normal_mass((lo - m) / b, (hi - m) / b)
        _, x1, x2 = _reflect_low(lo - m, hi - m)
        inner = _phi_integral((x1 + half) / b, (x2 + half) / b)
        outer = _phi_integral((x1 - half) / b, (x2 - half) / b)
        # inner >= outer exactly; rounding can leave a far, thin cell a hair below 0
        return np.maximum((b / (2.0 * half)) * (inner - outer), 0.0)

    def sample_in_cells(self, rng: np.random.Generator, a: float, b: float,
                        lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One (P, Y) per cell [lo_i, hi_i]: P = a Y + b eps given the cell, Y given P.

        P is drawn by rejection from a uniform proposal on the cell; its
        density is symmetric and unimodal about m, so the envelope is the
        density at the cell point nearest m.  Y given P is
        N(P / a, (b / a)^2) truncated to [lo, hi]; when a Y does not spread,
        Y is independent of P.
        """
        m, half = self._projection(a)
        if half < _FLAT_SPREAD * b:
            p = m + b * _truncated_normal(rng.random(lo.shape), (lo - m) / b, (hi - m) / b)
            return p, self.sample(rng, p.shape[0])

        def shape(x):  # the density of P at offset x, up to a constant
            x = -np.abs(x)
            return ndtr((x + half) / b) - ndtr((x - half) / b)

        x_lo, x_hi = lo - m, hi - m
        envelope = shape(np.clip(0.0, x_lo, x_hi))
        x = np.empty(lo.shape)
        todo = np.arange(lo.shape[0])
        while todo.size:
            cand = x_lo[todo] + (x_hi[todo] - x_lo[todo]) * rng.random(todo.size)
            accept = rng.random(todo.size) * envelope[todo] <= shape(cand)
            x[todo[accept]] = cand[accept]
            todo = todo[~accept]
        p = m + x
        sign = math.copysign(1.0, a)
        z = _truncated_normal(rng.random(p.shape), sign * (a * self.lo - p) / b,
                              sign * (a * self.hi - p) / b)
        return p, np.clip((p + sign * b * z) / a, self.lo, self.hi)


YLaw = NormalLaw | UniformLaw


@dataclass(frozen=True, eq=False)
class LinearFactorModel:
    """Covariate curves X = Y * signal + eps * noise with eps standard normal.

    The noise curve must have a positive integral; that integral sets the
    scale of the Gaussian local density of the small-ball decomposition.
    """

    signal_curve: Curve
    noise_curve: Curve
    y_law: YLaw

    def __post_init__(self):
        if self.signal_curve.grid != self.noise_curve.grid:
            raise ValueError("signal and noise curves must share one grid")
        signal_integral = self.signal_curve.integral()
        noise_integral = self.noise_curve.integral()
        if not math.isfinite(signal_integral):
            raise ValueError("signal curve integral must be finite")
        if not noise_integral > 0:
            raise ValueError(
                f"noise curve integral must be positive, got {noise_integral}"
            )
        object.__setattr__(self, "signal_integral", signal_integral)
        object.__setattr__(self, "noise_integral", noise_integral)

    @property
    def grid(self) -> Grid:
        return self.signal_curve.grid

    def small_ball_scale(self, u: float) -> float:
        """The small-ball scale phi(u) = 2u of the integral-difference metric."""
        return 2.0 * u


def default_model(points: int = 101) -> LinearFactorModel:
    """Signal and noise curves with unit integrals and a standard normal response.

    The oscillating parts integrate to zero exactly under the trapezoid
    rule on a uniform closed grid, so both curve integrals are exactly 1.
    """
    grid = Grid(0.0, 1.0, points)
    t = grid.nodes()
    signal = Curve(grid, 1.0 + 0.3 * np.cos(2.0 * math.pi * t))
    noise = Curve(grid, 1.0 + 0.2 * np.sin(2.0 * math.pi * t))
    return LinearFactorModel(signal, noise, NormalLaw(0.0, 1.0))


def sample_dataset(
    model: LinearFactorModel, n: int, seed: int, zero_noise: bool = False
) -> Dataset:
    """Draw n covariate curves and responses; deterministic given the seed.

    ``zero_noise`` freezes the noise coefficients at zero, a degenerate
    mode for structural checks.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    y = model.y_law.sample(rng, n)
    eps = np.zeros(n) if zero_noise else rng.standard_normal(n)
    x_values = (
        y[:, np.newaxis] * model.signal_curve.values[np.newaxis, :]
        + eps[:, np.newaxis] * model.noise_curve.values[np.newaxis, :]
    )
    return Dataset(model.grid, x_values, y)


def conditional_density(model: LinearFactorModel, x: Curve, v):
    """Local density of the small-ball decomposition at response value v.

    This is the Gaussian density of the noise projection evaluated where
    the curve projection of ``x`` lands, scaled by the noise integral.
    """
    v = np.asarray(v, dtype=float)
    c = quadrature(x.values, x.grid)
    z = (c - v * model.signal_integral) / model.noise_integral
    out = np.exp(-0.5 * z * z) / (model.noise_integral * math.sqrt(2.0 * math.pi))
    return float(out) if out.ndim == 0 else out


def induced_weight(
    model: LinearFactorModel,
    x: Curve,
    nodes: int = 4001,
    tail_sigmas: float = 8.0,
) -> ratefn.WeightDensity:
    """Weight density w(v) = local density times response density at ``x``.

    For a normal response the product is Gaussian-shaped and the window is
    chosen wide enough that the truncation tails are negligible; for a
    uniform response the window pads the support so the weight vanishes
    at the edges.
    """
    c = quadrature(x.values, x.grid)
    if isinstance(model.y_law, NormalLaw):
        ih, il = model.signal_integral, model.noise_integral
        precision = (ih / il) ** 2 + 1.0 / model.y_law.sd**2
        var = 1.0 / precision
        center = var * (c * ih / il**2 + model.y_law.mean / model.y_law.sd**2)
        half = tail_sigmas * math.sqrt(var)
        v_lo, v_hi = center - half, center + half
    else:
        pad = 2.0 * (model.y_law.hi - model.y_law.lo) / (nodes - 1)
        v_lo, v_hi = model.y_law.lo - pad, model.y_law.hi + pad
    v = np.linspace(v_lo, v_hi, nodes)
    w = conditional_density(model, x, v) * model.y_law.pdf(v)
    return ratefn.WeightDensity(v_lo, v_hi, w)


@dataclass(frozen=True)
class SmallBallProbe:
    """Monte-Carlo and analytic small-ball probabilities at one point."""

    mc: float
    analytic: float
    hits: int

    @property
    def zero_hits(self) -> bool:
        return self.hits == 0


def small_ball_probe(
    model: LinearFactorModel,
    x: Curve,
    v: float,
    radius: float,
    replicates: int,
    seed: int,
) -> SmallBallProbe:
    """Compare P(d(x, X) <= radius | Y = v) against its small-ball approximation.

    The response is pinned at ``v`` and only the noise coefficient is
    resampled; the analytic value is the small-ball scale times the local
    density.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(seed)
    c = quadrature(x.values, x.grid) - v * model.signal_integral
    eps = rng.standard_normal(replicates)
    hits = int(np.count_nonzero(np.abs(c - eps * model.noise_integral) <= radius))
    analytic = model.small_ball_scale(radius) * conditional_density(model, x, v)
    return SmallBallProbe(hits / replicates, float(analytic), hits)


def bandwidth_schedule(n: int, a: float, alpha: float) -> tuple[float, float]:
    """Bandwidth and scheduled small-ball value at sample size n.

    h = (log log n / n)^(1/alpha) and phi_h = a * log log n / n; requires
    n >= 16 so the iterated logarithm is positive, a > 0 and alpha > 1.
    """
    if n < 16:
        raise ValueError(f"schedule needs n >= 16, got {n}")
    if a <= 0:
        raise ValueError(f"schedule needs a > 0, got {a}")
    if alpha <= 1:
        raise ValueError(f"schedule needs alpha > 1, got {alpha}")
    ratio = math.log(math.log(n)) / n
    return ratio ** (1.0 / alpha), a * ratio


@dataclass(frozen=True, eq=False)
class LadderConfig:
    """Sample sizes, bandwidth schedule, deviation width and Monte-Carlo sizes."""

    n_values: tuple[int, ...]
    a: float
    alpha: float
    lam: float
    x0: Curve
    replicates: tuple[int, ...]
    seed: int

    def __post_init__(self):
        n_values = tuple(int(n) for n in self.n_values)
        if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ValueError("n_values must be a nonempty strictly increasing sequence")
        reps = self.replicates
        if isinstance(reps, int):
            reps = (reps,) * len(n_values)
        else:
            reps = tuple(int(r) for r in reps)
        if len(reps) != len(n_values):
            raise ValueError("replicates must be a single int or one per sample size")
        if reps[0] < 1000:
            raise ValueError(
                f"need at least 1000 replicates at the smallest n, got {reps[0]}"
            )
        if self.lam <= 0:
            raise ValueError(f"deviation width must be positive, got {self.lam}")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "replicates", reps)


@dataclass(frozen=True)
class ExperimentRecord:
    """One rung of a rare-event ladder."""

    n: int
    h: float
    phi_h: float
    replicates: int
    hits: int
    p_hat: float
    wilson_low: float
    wilson_high: float
    empirical_rate: float
    theoretical_rate: float
    flag: str


def wilson_interval(hits: int, trials: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("wilson interval needs at least one trial")
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if hits == 0 else max(center - half, 0.0)
    hi = 1.0 if hits == trials else min(center + half, 1.0)
    return lo, hi


def _check_weight_consistency(
    model: LinearFactorModel, x: Curve, rate_model: ratefn.RateModel
) -> None:
    nodes = rate_model.weight.nodes
    expected = conditional_density(model, x, nodes) * model.y_law.pdf(nodes)
    scale = float(np.max(expected))
    if scale <= 0 or np.max(np.abs(expected - rate_model.weight.w)) > 1e-6 * scale:
        raise ValueError(
            "rate model weight is inconsistent with the generative model at the "
            "evaluation curve; build it with induced_weight()"
        )


def _projection_rates(model: LinearFactorModel, curves: Sequence[Curve]) -> np.ndarray:
    return np.array([quadrature(x.values, x.grid) for x in curves])


def _rung_estimates(
    model: LinearFactorModel,
    index: IndexFunction,
    centers: np.ndarray,
    n: int,
    h: float,
    reps: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """In-window counts and estimates at each center, one block of replicates at a time.

    Yields two (block, centers) arrays.  Only the observations whose
    projection lands within h of some center are drawn; an empty window
    gives the estimate 0.
    """
    a, b = model.signal_integral, model.noise_integral
    edges = np.unique(np.concatenate([centers - h, centers + h]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    incidence = np.abs(mids[:, np.newaxis] - centers[np.newaxis, :]) <= h
    covered = incidence.any(axis=1)
    lo, hi = edges[:-1][covered], edges[1:][covered]
    incidence = incidence[covered].astype(float)
    masses = model.y_law.cell_masses(a, b, lo, hi)
    cells, inside = masses.shape[0], float(np.sum(masses))
    pvals = np.append(masses, max(0.0, 1.0 - inside))
    block = max(1, int(_BLOCK_DRAWS / (n * inside + cells + 1)))
    for start in range(0, reps, block):
        size = min(block, reps - start)
        counts = rng.multinomial(n, pvals, size=size)[:, :cells]
        slot = np.repeat(np.arange(size * cells), counts.ravel())  # replicate * cells + cell
        cell = slot % cells
        _, y = model.y_law.sample_in_cells(rng, a, b, lo[cell], hi[cell])
        sums = np.bincount(slot, weights=index(y), minlength=size * cells)
        window_counts = counts @ incidence
        window_sums = sums.reshape(size, cells) @ incidence
        r_hat = np.divide(window_sums, window_counts, out=np.zeros_like(window_sums),
                          where=window_counts > 0)
        yield window_counts, r_hat


def _run_ladder(
    model: LinearFactorModel,
    class_grid: Sequence[Curve],
    rate_models: Sequence[ratefn.RateModel],
    cfg: LadderConfig,
    theoretical_rate: float,
    index: IndexFunction,
) -> list[ExperimentRecord]:
    centers = _projection_rates(model, class_grid)
    r_true = np.array([ratefn.tilted_mean(rm, 0.0) for rm in rate_models])
    records = []
    for n, reps in zip(cfg.n_values, cfg.replicates):
        h, _ = bandwidth_schedule(n, cfg.a, cfg.alpha)
        phi_h = model.small_ball_scale(h)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, n)))
        hits = 0
        for _, r_hat in _rung_estimates(model, index, centers, n, h, reps, rng):
            worst = np.max(np.abs(r_hat - r_true), axis=1)
            hits += int(np.count_nonzero(worst > cfg.lam))
        p_hat = hits / reps
        lo, hi = wilson_interval(hits, reps)
        if hits >= 1:
            rate = -math.log(p_hat) / (n * phi_h)
            flag = "ok"
        else:
            rate = -math.log(hi) / (n * phi_h)
            flag = "zero_hits"
        records.append(
            ExperimentRecord(n, h, phi_h, reps, hits, p_hat, lo, hi, rate,
                             theoretical_rate, flag)
        )
    return records


def pointwise_ladder(
    model: LinearFactorModel,
    rate_model: ratefn.RateModel,
    cfg: LadderConfig,
) -> list[ExperimentRecord]:
    """Rare-event ladder for the deviation of the estimate at one curve.

    At each sample size the bandwidth comes from the schedule, the
    estimate uses the uniform kernel, and the decay is normalized by the
    generative model's own small-ball scale at that bandwidth.  The
    theoretical column is the two-sided deviation rate of the rate model.
    """
    _check_weight_consistency(model, cfg.x0, rate_model)
    r_true = ratefn.tilted_mean(rate_model, 0.0)
    theory = ratefn.two_sided_rate(rate_model, r_true, cfg.lam)
    return _run_ladder(model, [cfg.x0], [rate_model], cfg, theory, rate_model.index)


def uniform_ladder(
    model: LinearFactorModel,
    class_grid: Sequence[Curve],
    rate_models: Sequence[ratefn.RateModel],
    cfg: LadderConfig,
) -> list[ExperimentRecord]:
    """Ladder for the worst deviation over a finite grid of centers.

    The hit event takes the maximum deviation across the class grid; the
    theoretical column is the smallest two-sided rate over the centers.
    """
    if not class_grid:
        raise ValueError("uniform ladder needs a nonempty class grid")
    if len(class_grid) != len(rate_models):
        raise ValueError("need one rate model per center")
    grid = class_grid[0].grid
    for x in class_grid:
        if x.grid != grid:
            raise ValueError("all class centers must share one grid")
    for x, rm in zip(class_grid, rate_models):
        _check_weight_consistency(model, x, rm)
    entries = [(rm, ratefn.tilted_mean(rm, 0.0)) for rm in rate_models]
    theory = ratefn.class_rate(entries, cfg.lam)
    return _run_ladder(model, class_grid, rate_models, cfg, theory, rate_models[0].index)


def write_ladder_csv(records: Sequence[ExperimentRecord], path) -> None:
    """Write ladder records with the fixed experiment schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "n", "h", "phi_h", "replicates", "hits", "p_hat", "wilson_low",
            "wilson_high", "empirical_rate", "theoretical_rate", "flag",
        ])
        for r in records:
            writer.writerow([
                r.n, repr(r.h), repr(r.phi_h), r.replicates, r.hits, repr(r.p_hat),
                repr(r.wilson_low), repr(r.wilson_high), repr(r.empirical_rate),
                repr(r.theoretical_rate), r.flag,
            ])
