"""Generative curve model, small-ball probes, and rare-event ladders.

The generative model builds each covariate curve as a response-scaled
signal curve plus a standard-normal-scaled noise curve; a sampled dataset
holds its curves as those factors and builds their matrix only when its
``x_values`` is first read.  Under the integral-difference semi-metric
the distance from any fixed curve is a scalar projection, so the
conditional small-ball probability has the explicit Gaussian local
density used by all rate-function comparisons, with small-ball scale
phi(u) = 2u.

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
truncated to the cell, and then Y from its law given P.  The law's
``cells`` returns the cell masses and that sampler, whose constants it
computes once per rung.  A cell-by-center incidence matrix sums the cells
into each center's window: S1 counts the in-window observations, S2 sums
their index values.  A ladder takes S2 / S1, and a finite-n log-MGF
replicate's exponent is t1 S1 + t2 S2.  A rung draws from one stream,
``SeedSequence((seed, n))``, in blocks of replicates sized by a fixed
budget of in-window draws, so its outcome depends only on the seed and
its memory follows the budget, not n or the replicate count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import ratefn
from .estimator import Dataset, IndexFunction
from .funcdata import (Curve, FactorRows, Grid, GridMismatchError, IdentityScaling, UniformKernel,
                       frozen_array, integer, real)

_WILSON_Z = 1.959963984540054  # 95% normal quantile
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


def _truncation(lo, hi) -> tuple[np.ndarray, ...]:
    """Sign, bounds, Phi(lo) and mass of the standard normal truncated to each [lo, hi].

    Intervals in the upper half are reflected into the lower tail, where Phi
    keeps relative precision, so masses and draws stay accurate far out.
    """
    from scipy.special import ndtr  # local: only the sampler loads scipy.special

    flip, lo, hi = _reflect_low(lo, hi)
    f_lo = ndtr(lo)
    return np.where(flip, -1.0, 1.0), lo, hi, f_lo, ndtr(hi) - f_lo


def _truncated_normal(u: np.ndarray, constants, cell=slice(None)) -> np.ndarray:
    """Inverse-CDF draws at the uniforms u; draw i lies in ``_truncation`` interval cell[i]."""
    from scipy.special import ndtri  # local: only the sampler loads scipy.special

    sign, lo, hi, f_lo, mass = (c[cell] for c in constants)
    return sign * np.minimum(np.maximum(ndtri(f_lo + u * mass), lo), hi)


def _phi_integral(x1, x2) -> np.ndarray:
    """Integral of Phi over [x1, x2] from G(x) = x Phi(x) + phi(x).

    Intervals centered above 0 use G(x) - x = G(-x), which avoids the
    cancellation of two large G values.
    """
    from scipy.special import ndtr  # local: only the sampler loads scipy.special

    flip, lo, hi = _reflect_low(x1, x2)
    g_lo = lo * ndtr(lo) + ratefn.normal_pdf(lo, 0.0, 1.0)
    g_hi = hi * ndtr(hi) + ratefn.normal_pdf(hi, 0.0, 1.0)
    return np.where(flip, (x2 - x1) - (g_hi - g_lo), g_hi - g_lo)


@dataclass(frozen=True)
class NormalLaw:
    """Normal response law with density evaluations for weight construction."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        real(self.mean, "mean"), real(self.sd, "sd", 0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size=n)

    def pdf(self, v):
        return ratefn.normal_pdf(v, self.mean, self.sd)

    def cells(self, a: float, b: float, lo: np.ndarray, hi: np.ndarray):
        """Masses P(lo <= a Y + b eps <= hi) of the cells, eps standard normal, and a sampler.

        ``draw(rng, cell)`` gives (P, Y) per draw: P = a Y + b eps given the
        cell [lo[cell_i], hi[cell_i]], then Y given P.  P is normal, and Y
        given P is the bivariate-normal conditional
        N(m + a s^2 (P - a m) / sd^2, s^2 b^2 / sd^2) with sd^2 = a^2 s^2 + b^2.
        P's truncation constants are computed here, once, and draws index them.
        """
        mu, sd = a * self.mean, math.hypot(a * self.sd, b)
        constants = _truncation((lo - mu) / sd, (hi - mu) / sd)

        def draw(rng: np.random.Generator, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            z = _truncated_normal(rng.random(cell.shape), constants, cell)
            noise = rng.standard_normal(z.shape)
            y = self.mean + (a * self.sd**2 / sd) * z + (self.sd * b / sd) * noise
            return mu + sd * z, y

        return constants[-1], draw


@dataclass(frozen=True)
class UniformLaw:
    """Uniform response law on a bounded interval."""

    lo: float
    hi: float

    def __post_init__(self):
        if not real(self.lo, "lo") < real(self.hi, "hi"):
            raise ValueError(f"uniform law needs lo < hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=n)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        inside = (v >= self.lo) & (v <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def cells(self, a: float, b: float, lo: np.ndarray, hi: np.ndarray):
        """Cell masses and their sampler, as ``NormalLaw.cells`` returns them.

        When a Y spreads over less than ``_FLAT_SPREAD`` of b, Y is independent
        of P.  Otherwise P's density is symmetric and unimodal about its center
        m.  Cells right of m are mirrored left, where the closed-form mass
        (b / 2 half) [int Phi((x + half)/b) - int Phi((x - half)/b)] over the
        offsets x = P - m keeps its precision, and P is drawn by rejection from
        a uniform proposal on its cell under the density at the cell point
        nearest m.  Y given P is N(P / a, (b / a)^2) truncated to [lo, hi].
        """
        m, half = 0.5 * a * (self.lo + self.hi), 0.5 * abs(a) * (self.hi - self.lo)
        x_lo, x_hi = lo - m, hi - m
        if half < _FLAT_SPREAD * b:
            constants = _truncation(x_lo / b, x_hi / b)

            def draw(rng: np.random.Generator, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                p = m + b * _truncated_normal(rng.random(cell.shape), constants, cell)
                return p, self.sample(rng, p.shape[0])

            return constants[-1], draw
        _, x1, x2 = _reflect_low(x_lo, x_hi)
        inner = _phi_integral((x1 + half) / b, (x2 + half) / b)
        outer = _phi_integral((x1 - half) / b, (x2 - half) / b)
        # inner >= outer exactly; rounding can leave a far, thin cell a hair below 0
        masses = np.maximum((b / (2.0 * half)) * (inner - outer), 0.0)

        def shape(x):  # the density of P at offset x, up to a constant
            from scipy.special import ndtr  # local: only the sampler loads scipy.special

            x = -np.abs(x)
            return ndtr((x + half) / b) - ndtr((x - half) / b)

        envelopes, widths = shape(np.clip(0.0, x_lo, x_hi)), x_hi - x_lo
        sign = math.copysign(1.0, a)

        def draw(rng: np.random.Generator, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            envelope, offset, width = envelopes[cell], x_lo[cell], widths[cell]
            x = np.empty(cell.shape)
            todo = np.arange(cell.shape[0])
            while todo.size:
                cand = offset[todo] + width[todo] * rng.random(todo.size)
                accept = rng.random(todo.size) * envelope[todo] <= shape(cand)
                x[todo[accept]] = cand[accept]
                todo = todo[~accept]
            p = m + x
            z = _truncated_normal(rng.random(p.shape), _truncation(sign * (a * self.lo - p) / b,
                                                                   sign * (a * self.hi - p) / b))
            return p, np.clip((p + sign * b * z) / a, self.lo, self.hi)

        return masses, draw


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
        object.__setattr__(self, "basis", frozen_array(  # the two curves of the factor rows
            [self.signal_curve.values, self.noise_curve.values], 2, self.grid.points))

    @property
    def grid(self) -> Grid:
        return self.signal_curve.grid

    def small_ball_scale(self, u: float) -> float:
        """The small-ball scale phi(u) = 2u of the integral-difference metric."""
        return 2.0 * u


def default_model(points: int = 101) -> LinearFactorModel:
    """Signal and noise curves with unit integrals and a standard normal response.

    The oscillating parts integrate to zero under the trapezoid rule on a
    uniform closed grid, so both curve integrals equal 1 to rounding (a
    few ulp; ``default_model(201).signal_integral`` is 1 - 2**-53).
    """
    grid = Grid(0.0, 1.0, points)
    t = grid.nodes()
    signal = Curve(grid, 1.0 + 0.3 * np.cos(2.0 * math.pi * t))
    noise = Curve(grid, 1.0 + 0.2 * np.sin(2.0 * math.pi * t))
    return LinearFactorModel(signal, noise, NormalLaw(0.0, 1.0))


def sample_dataset(model: LinearFactorModel, n: int, seed: int) -> Dataset:
    """Draw n covariate curves and responses; deterministic given the seed.

    Row i of the curve matrix is ``y_i * signal + eps_i * noise``.  The
    rows are held as ``FactorRows``: the coefficients (y_i, eps_i), column
    by column in memory, and the two curves.  No n x points matrix is made;
    the distances read the factors, and ``x_values`` builds it on first read.
    """
    n = integer(n, "n", 1)
    rng = np.random.default_rng(seed)
    y = model.y_law.sample(rng, n)
    eps = rng.standard_normal(n)
    return Dataset(model.grid, FactorRows(np.array([y, eps]).T, model.basis), y)


def conditional_density(model: LinearFactorModel, x: Curve, v):
    """Local density of the small-ball decomposition at response value v.

    This is the Gaussian density of the noise projection evaluated where
    the curve projection of ``x`` lands, scaled by the noise integral.
    """
    out = ratefn.normal_pdf(x.integral(), np.asarray(v, dtype=float) * model.signal_integral,
                            model.noise_integral)
    return float(out) if out.ndim == 0 else out


def induced_weight(model: LinearFactorModel, x: Curve) -> ratefn.WeightDensity:
    """Weight density w(v) = local density times response density at ``x``.

    For a normal response the product is Gaussian-shaped and its window
    spans ``ratefn.WEIGHT_HALF_WIDTH`` standard deviations either side; for
    a uniform response the window pads the support by two of its
    ``ratefn.WEIGHT_NODES`` nodes so the weight vanishes at the edges.
    """
    c = x.integral()
    if isinstance(model.y_law, NormalLaw):
        ih, il = model.signal_integral, model.noise_integral
        precision = (ih / il) ** 2 + 1.0 / model.y_law.sd**2
        var = 1.0 / precision
        center = var * (c * ih / il**2 + model.y_law.mean / model.y_law.sd**2)
        half = ratefn.WEIGHT_HALF_WIDTH * math.sqrt(var)
        v_lo, v_hi = center - half, center + half
    else:
        pad = 2.0 * (model.y_law.hi - model.y_law.lo) / (ratefn.WEIGHT_NODES - 1)
        v_lo, v_hi = model.y_law.lo - pad, model.y_law.hi + pad
    return ratefn.WeightDensity.from_function(
        lambda v: conditional_density(model, x, v) * model.y_law.pdf(v), v_lo, v_hi)


@dataclass(frozen=True)
class SmallBallProbe:
    """Monte-Carlo and analytic small-ball probabilities at one point."""

    mc: float
    analytic: float
    hits: int


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
    v, radius = real(v, "v"), real(radius, "radius", 0)
    replicates, seed = integer(replicates, "replicates", 1), integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    c = x.integral() - v * model.signal_integral
    eps = rng.standard_normal(replicates)
    hits = int(np.count_nonzero(np.abs(c - eps * model.noise_integral) <= radius))
    analytic = model.small_ball_scale(radius) * conditional_density(model, x, v)
    return SmallBallProbe(hits / replicates, float(analytic), hits)


def bandwidth_schedule(n: int, a: float, alpha: float) -> tuple[float, float]:
    """Bandwidth and scheduled small-ball value at sample size n.

    h = (log log n / n)^(1/alpha) and phi_h = a * log log n / n; requires
    n >= 16 so the iterated logarithm is positive, a > 0 and alpha > 1.
    The ladders read only h and take phi(h) from the model; phi_h is the
    ``cover`` command's entropy speed.
    """
    n, a, alpha = integer(n, "n", 16), real(a, "a", 0), real(alpha, "alpha", 1)
    ratio = math.log(math.log(n)) / n
    return ratio ** (1.0 / alpha), a * ratio


@dataclass(frozen=True, eq=False)
class LadderConfig:
    """Sample sizes, bandwidth exponent, deviation width and Monte-Carlo sizes.

    Every n must pass ``bandwidth_schedule`` with this alpha.
    """

    n_values: tuple[int, ...]
    alpha: float
    lam: float
    replicates: tuple[int, ...]
    seed: int

    def __post_init__(self):
        n_values = tuple(integer(n, "n_values", 1) for n in self.n_values)
        if not n_values or any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ValueError("n_values must be a nonempty strictly increasing sequence")
        for n in n_values:
            bandwidth_schedule(n, 1.0, self.alpha)
        reps = self.replicates if np.ndim(self.replicates) else (self.replicates,) * len(n_values)
        reps = tuple(integer(r, "replicates", 1) for r in reps)
        if len(reps) != len(n_values):
            raise ValueError("replicates must be a single int or one per sample size")
        if reps[0] < 1000:
            raise ValueError(f"need at least 1000 replicates at the smallest n, got {reps[0]}")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "replicates", reps)
        real(self.lam, "lam", 0)
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0))


@dataclass(frozen=True)
class ExperimentRecord:
    """One rung of a rare-event ladder; its wall time ``seconds`` is left out of ``==``."""

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
    in_window_draws: int
    seconds: float = field(compare=False)


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    trials, hits = integer(trials, "trials", 1), integer(hits, "hits", 0)
    if hits > trials:
        raise ValueError(f"hits must not exceed trials, got hits={hits}, trials={trials}")
    z = _WILSON_Z
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if hits == 0 else max(center - half, 0.0)
    hi = 1.0 if hits == trials else min(center + half, 1.0)
    return lo, hi


def _window_sums(
    model: LinearFactorModel,
    index: IndexFunction,
    centers: np.ndarray,
    n: int,
    h: float,
    reps: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """In-window sums at each center, one block of replicates at a time.

    Yields two (block, centers) arrays, S1 the count and S2 the index sum of the
    observations within h of the center, and the block's number of draws.
    """
    a, b = model.signal_integral, model.noise_integral
    edges = np.unique(np.concatenate([centers - h, centers + h]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    incidence = np.abs(mids[:, np.newaxis] - centers[np.newaxis, :]) <= h
    covered = incidence.any(axis=1)
    lo, hi = edges[:-1][covered], edges[1:][covered]
    incidence = incidence[covered].astype(float)
    masses, draw = model.y_law.cells(a, b, lo, hi)
    cells, inside = masses.shape[0], float(np.sum(masses))
    pvals = np.append(masses, max(0.0, 1.0 - inside))
    block = max(1, int(_BLOCK_DRAWS / (n * inside + cells + 1)))
    for start in range(0, reps, block):
        size = min(block, reps - start)
        counts = rng.multinomial(n, pvals, size=size)[:, :cells]
        slot = np.repeat(np.arange(size * cells), counts.ravel())  # replicate * cells + cell
        _, y = draw(rng, slot % cells)
        sums = np.bincount(slot, weights=index(y), minlength=size * cells)
        yield counts @ incidence, sums.reshape(size, cells) @ incidence, slot.size


def _run_ladder(
    model: LinearFactorModel,
    class_grid: Sequence[Curve],
    index: IndexFunction,
    cfg: LadderConfig,
) -> list[ExperimentRecord]:
    """Ladder records for the worst deviation over the centers in ``class_grid``.

    The theory column is the class rate of the estimator that the rungs
    simulate: at each center the rate model pairs the induced weight with
    ``index``, the uniform kernel and the identity small-ball scaling.
    A center off the model's grid raises ``GridMismatchError``.
    """
    for x in class_grid:
        if x.grid != model.grid:
            raise GridMismatchError(f"ladder center on {x.grid}, model on {model.grid}")
    rate_models = [
        ratefn.RateModel(induced_weight(model, x), index, UniformKernel(), IdentityScaling())
        for x in class_grid
    ]
    theoretical_rate = ratefn.class_rate(rate_models, cfg.lam)
    centers = np.array([x.integral() for x in class_grid])
    r_true = np.array([rm.mean for rm in rate_models])
    records = []
    for n, reps in zip(cfg.n_values, cfg.replicates):
        started = time.perf_counter()
        # only h is read; perfbench's tracer times each rung from this call
        h, _ = bandwidth_schedule(n, 1.0, cfg.alpha)
        phi_h = model.small_ball_scale(h)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, n)))
        hits = draws = 0
        for s1, s2, block_draws in _window_sums(model, index, centers, n, h, reps, rng):
            r_hat = np.divide(s2, s1, out=np.zeros_like(s2), where=s1 > 0)
            worst = np.max(np.abs(r_hat - r_true), axis=1)
            hits += int(np.count_nonzero(worst > cfg.lam))
            draws += block_draws
        seconds = time.perf_counter() - started
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
                             theoretical_rate, flag, draws, seconds)
        )
    return records


def pointwise_ladder(
    model: LinearFactorModel,
    x0: Curve,
    index: IndexFunction,
    cfg: LadderConfig,
) -> list[ExperimentRecord]:
    """Rare-event ladder for the deviation of the estimate at the curve ``x0``.

    At each sample size the bandwidth comes from the schedule, the
    estimate uses the uniform kernel, and the decay is normalized by the
    generative model's own small-ball scale at that bandwidth.  The
    theoretical column is the two-sided deviation rate of that estimator
    at ``x0``.
    """
    return _run_ladder(model, [x0], index, cfg)


def uniform_ladder(
    model: LinearFactorModel,
    class_grid: Sequence[Curve],
    index: IndexFunction,
    cfg: LadderConfig,
) -> list[ExperimentRecord]:
    """Ladder for the worst deviation over a finite grid of centers.

    The hit event takes the maximum deviation across the class grid; the
    theoretical column is the smallest two-sided rate over the centers.
    """
    if not class_grid:
        raise ValueError("uniform ladder needs a nonempty class grid")
    return _run_ladder(model, class_grid, index, cfg)
