"""Large-deviation rate functions for the kernel regression estimator.

The limiting scaled log moment generating function of the estimator's
component pair is a weighted double integral over the response variable
and the kernel support.  Its Fenchel-Legendre conjugate is the rate
function of the pair; a 1-D convex minimax over the ratio map's cone
gives the rate of the regression estimate itself, and two one-sided
evaluations give the rate of a deviation event of fixed width.

All response-side integrals are dot products with the model's moment
rows: the trapezoid weights of a truncated weight density times 1, l and
l^2 over the nodes where the weight is positive.  Exponential tilts are
stabilized by shifting the largest exponent.  All kernel-side integrals
use one fixed Gauss rule for the scaling measure dtau on [0, 1], built
with the model.  Every minimiser and inverse is a damped Newton
descent on a convex function (``_newton_minimize``): the inverse of the
tilted mean is the minimiser of the dual log M(s) - y s, where M is the
tilted mass.  A NaN level raises ``RateDomainError`` rather than reading
as a rate of 0 or +inf.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .estimator import IdentityIndex, IndexFunction, IntervalIndicator
from .funcdata import (Grid, IdentityScaling, Kernel, PowerScaling, UniformKernel, frozen_array,
                       quadrature, real)

PROBE_T = 50.0
DOMAIN_MARGIN = 1e-6
_TAIL_FACTOR = 1e-12
# Response grid of a weight density: its default node count, and the window
# half-width in sd of every Gaussian weight.  At 8 sd the density is exp(-32),
# about 1.3e-14 of its peak, so the window's edge values pass _TAIL_FACTOR.
WEIGHT_NODES = 4001
WEIGHT_HALF_WIDTH = 8.0
_NEWTON_ITERATIONS = 200
# Relative change below which a Newton descent counts as settled: a little
# above the rounding level of the values and points that the callers compute.
_SETTLE_TOL = 1e-13


class NumericError(RuntimeError):
    """A quadrature or optimization failed without a domain explanation."""


@dataclass(frozen=True)
class TiltRange:
    """Finite probes of the essential range of the index under the weight.

    ``v0`` and ``v1`` approximate the infimum and supremum of the tilted
    mean over all tilts, evaluated at tilt parameters -PROBE_T and
    +PROBE_T.
    """

    v0: float
    v1: float


class RateDomainError(ValueError):
    """Argument outside the finiteness domain of a rate-function formula."""


def normal_pdf(v, mean: float, sd: float):
    """The normal density of mean ``mean`` and standard deviation ``sd`` at ``v``."""
    z = (np.asarray(v, dtype=float) - mean) / sd
    return np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True, eq=False)
class WeightDensity:
    """Nonnegative weight on a truncated uniform response grid.

    The weight plays the role of a joint local factor: conditional
    small-ball density times response density.  Truncation tails must be
    negligible against the peak so quadratures against exponential tilts
    stay meaningful.  Its nodes and integrals are those of the grid
    ``Grid(v_lo, v_hi, len(w))``.
    """

    v_lo: float
    v_hi: float
    w: np.ndarray
    grid: Grid = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    mass: float = field(init=False, repr=False)

    def __post_init__(self):
        w = frozen_array(self.w, 1, np.size(self.w))
        grid = Grid(self.v_lo, self.v_hi, w.size)  # checks v_lo < v_hi and 2+ nodes
        if np.any(w < 0):
            raise ValueError("weight values must be nonnegative")
        peak = float(np.max(w))
        if w[0] > _TAIL_FACTOR * peak or w[-1] > _TAIL_FACTOR * peak:
            raise ValueError(
                "weight density tails are not negligible; widen the window "
                f"(edge values {w[0]:.3e}, {w[-1]:.3e} vs peak {peak:.3e})"
            )
        object.__setattr__(self, "w", w)
        nodes = grid.nodes()
        nodes.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "nodes", nodes)
        mass = quadrature(w, grid)
        if not mass > 0:
            raise ValueError("weight density must have positive mass")
        object.__setattr__(self, "mass", mass)

    @classmethod
    def from_function(cls, fn, v_lo: float, v_hi: float,
                      nodes: int = WEIGHT_NODES) -> "WeightDensity":
        return cls(v_lo, v_hi, fn(Grid(v_lo, v_hi, nodes).nodes()))

    @classmethod
    def gaussian(cls, mean: float = 0.0, sd: float = 1.0, *,
                 nodes: int = WEIGHT_NODES) -> "WeightDensity":
        """Gaussian-shaped weight truncated at mean +- WEIGHT_HALF_WIDTH * sd."""
        mean, sd = real(mean, "mean"), real(sd, "sd", 0)
        lo, hi = mean - WEIGHT_HALF_WIDTH * sd, mean + WEIGHT_HALF_WIDTH * sd
        return cls.from_function(lambda v: normal_pdf(v, mean, sd), lo, hi, nodes)


@dataclass(frozen=True, eq=False)
class RateModel:
    """Weight density, index function, kernel and small-ball scaling profile.

    Construction builds the read-only moment rows [q, q l, q l^2], where q
    is the trapezoid weight times w over the nodes with w > 0, and the Gauss
    rule for dtau: kernel values k, weights w_k (one node of weight 1 for a
    flat kernel, else the scaling profile's 32) and rows [w_k k, w_k k^2].
    It certifies that the rows' sums, and the exponential moments used by
    every formula over the probe tilt range [-20, 20], are finite; it
    probes once the reachable tilted-mean range and the untilted mean m,
    the estimator's limit, kept as the read-only ``mean``.
    """

    weight: WeightDensity
    index: IndexFunction
    kernel: Kernel
    scaling: PowerScaling
    mean: float = field(init=False, repr=False)

    def __post_init__(self):
        lvals = np.asarray(self.index(self.weight.nodes), dtype=float)
        if lvals.shape != self.weight.nodes.shape or not np.all(np.isfinite(lvals)):
            raise ValueError("index function must map the weight nodes to finite values")
        # Only nodes with w > 0 enter a response-side integral, so an
        # exponent that overflows on a zero-weight node never meets 0 * inf.
        w = self.weight
        support = w.w > 0
        q = (w.grid.trapezoid_weights() * w.w)[support]
        l_support = lvals[support]
        with np.errstate(over="ignore", invalid="ignore"):  # finite sums imply finite rows
            rows = np.vstack([q, q * l_support, q * l_support**2])
            if not np.all(np.isfinite(rows.sum(axis=1))):
                raise ValueError("moment rows [q, q l, q l^2] must have finite sums; the index "
                                 "values on the weight's window are too large")
        if isinstance(self.kernel, UniformKernel):
            k, k_weights = np.array([self.kernel.scale]), np.array([1.0])
        else:
            u, k_weights = self.scaling.gauss_rule()
            k = np.asarray(self.kernel.k(u), dtype=float)
        k_rows = np.vstack([k_weights * k, k_weights * k**2])
        for arr, name in ((l_support, "_l_support"), (rows, "_rows"), (k, "_k"),
                          (k_weights, "_k_weights"), (k_rows, "_k_rows")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for t in (-20.0, 20.0):
            if not math.isfinite(_tilted_moments(self, t)[0]):
                raise ValueError(f"exponential moment at tilt {t} is not finite")
        v0 = tilted_mean(self, -PROBE_T)
        mid = tilted_mean(self, 0.0)
        v1 = tilted_mean(self, PROBE_T)
        if not (v0 <= mid + 1e-12 and mid <= v1 + 1e-12):
            raise NumericError(f"tilted mean probes are not monotone: {v0}, {mid}, {v1}")
        object.__setattr__(self, "_tilt_range", TiltRange(v0, v1))
        object.__setattr__(self, "mean", mid)


def gaussian_identity_model() -> RateModel:
    """Standard-normal weight with the identity index and the uniform kernel."""
    return RateModel(WeightDensity.gaussian(), IdentityIndex(), UniformKernel(), IdentityScaling())


# ---------------------------------------------------------------------------
# Tilted integrals
# ---------------------------------------------------------------------------


def _tilted_moments(model: RateModel, s: float) -> tuple[float, float, float]:
    """(log mass, mean, variance) of the index under the tilted weight.

    One dot of the moment rows with exp(s l - shift) over the support,
    the shift being the largest exponent there.
    """
    e = s * model._l_support
    shift = float(np.max(e))
    t0, t1, t2 = model._rows.dot(np.exp(e - shift)).tolist()
    mean = t1 / t0
    var = max(t2 / t0 - mean**2, 0.0)
    return shift + math.log(t0), mean, var


def tilted_mean(model: RateModel, t: float) -> float:
    """Mean of the index under the exponentially tilted weight.

    Nondecreasing in the tilt; its range over all tilts is the
    finiteness interval of the ratio-rate formulas.
    """
    return _tilted_moments(model, t)[1]


def tilted_mean_range(model: RateModel) -> TiltRange:
    """Reachable range of the tilted mean, probed at tilts -+PROBE_T when the model is built."""
    return model._tilt_range


def _level(x: float) -> float:
    """``x`` itself; ``RateDomainError`` when it is NaN, a level that no rate takes."""
    if math.isnan(x):
        raise RateDomainError(f"level {x} is not a number")
    return x


def _inside_range(model: RateModel, level: float) -> bool:
    """Whether ``level`` lies in the reachable range, DOMAIN_MARGIN clear of its ends."""
    rng = model._tilt_range
    return rng.v0 + DOMAIN_MARGIN < _level(level) < rng.v1 - DOMAIN_MARGIN


def _tilt_dual(model: RateModel, y: float, polish: bool = False) -> tuple[float, float]:
    """Minimiser and minimum of the convex dual log M(s) - y s, by Newton descent.

    Its gradient is the tilted mean less y and its Hessian the tilted
    variance; all three come from one ``_tilted_moments`` call.
    ``polish`` refines the minimiser past the rounding level of the value.
    The descent starts at s = 0, except on an indicator index: there l
    takes only the values 0 and 1, M(s) = m0 + m1 exp(s) with m0 and m1
    the moment-row masses where l = 0 and l = 1, and the descent starts at
    the closed-form minimiser log(y m0 / ((1 - y) m1)).  Every caller
    keeps y inside the reachable range (0 < y < 1, m0 > 0 and m1 > 0).
    """
    def local(s):
        log_mass, mean, var = _tilted_moments(model, s[0])
        return log_mass - y * s[0], np.array([mean - y]), np.array([[var]])

    start = 0.0
    if isinstance(model.index, IntervalIndicator):
        q, ql = model._rows[0], model._rows[1]
        start = math.log(y * float(np.sum(q - ql)) / ((1.0 - y) * float(np.sum(ql))))
    s, value = _newton_minimize(local, np.array([start]), f"the tilted-mean inverse at {y}",
                                polish)
    return float(s[0]), value


def tilted_mean_inverse(model: RateModel, y: float) -> float:
    """Tilt whose tilted mean is y.

    The minimiser of the convex dual log M(s) - y s by damped Newton
    descent (``_tilt_dual``), polished until the tilted mean meets y to its
    rounding level.  ``RateDomainError`` outside the reachable range.
    """
    rng = model._tilt_range
    if not rng.v0 < y < rng.v1:
        raise RateDomainError(
            f"level {y} outside the reachable tilted-mean range ({rng.v0}, {rng.v1})")
    return _tilt_dual(model, y, polish=True)[0]


# ---------------------------------------------------------------------------
# Limiting scaled log-MGF
# ---------------------------------------------------------------------------


class _TiltOps:
    """The limit log-MGF and its derivatives from one kernel-major table per instance.

    Phi(t) = integral G(theta(v)) w(v) dv with theta = t1 + t2 l(v) and
    G(theta) = integral_0^1 (exp(theta K(u)) - 1) dtau(u).  Each instance
    owns one theta vector and one table exp(K(u_j) theta(v_i)), a row per
    node of the model's Gauss rule and a column per node where w > 0 (so an
    overflow on a zero-weight node never meets 0 * inf), and refills both
    in place at every ``local`` call.  G, G' and G'' are the table's dot
    products with the rule's weights; on the response side Phi is one dot
    with the first moment row, the gradient one with the first two and the
    Hessian one with all three.  An instance is one call's scratch, shared by
    its solves and never between threads.  The rule's nodes lie in u, where
    the kernels are smooth; a 32-node Gauss-Legendre rule in omega = tau(u)
    is off by up to 4e-4 relative for alpha > 1, since k(omega**(1/alpha))
    is not smooth at 0.  On the exp-decay and affine kernels, for alpha in
    {0.5, 1, 1.7, 2, 3}, Phi agrees with adaptive quadrature of the kernel
    side to 1e-13 relative; the response side carries the weight density's
    trapezoid error.
    """

    def __init__(self, model: RateModel):
        self.model, self.theta = model, np.empty(model._l_support.size)
        self.table = np.empty((model._k.size, model._l_support.size))

    def local(self, t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Phi, its gradient and its Hessian at ``t``, all from one table.

        Overflow gives the +inf sentinel; a NaN raises ``NumericError``.
        """
        model = self.model
        theta = np.multiply(model._l_support, t[1], out=self.theta)
        theta += t[0]
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.multiply(model._k[:, np.newaxis], theta, out=self.table)
            np.exp(table, out=table)
            g = model._k_rows.dot(table)
            grad = model._rows[:2].dot(g[0])
            h00, h01, h11 = model._rows.dot(g[1])
            table -= 1.0
            value = float(model._rows[0].dot(model._k_weights.dot(table)))
        if math.isnan(value):
            raise NumericError(f"NaN in log-MGF quadrature at t=({t[0]}, {t[1]})")
        return value, grad, np.array([[h00, h01], [h01, h11]])


def log_mgf_limit(model: RateModel, t1: float, t2: float) -> float:
    """Limiting scaled log-MGF of the estimator component pair.

        Phi(t) = integral integral_0^1 (exp(theta(v) K(u)) - 1) dtau(u) w(v) dv

    with theta(v) = t1 + t2 l(v): the Gauss rule for dtau on the kernel
    side, the weight density's trapezoid rule on the response side.
    Overflow of the exponentials yields the +inf sentinel; NaN raises
    ``NumericError``.
    """
    return _TiltOps(model).local(np.array([t1, t2], dtype=float))[0]


def log_mgf_gradient(model: RateModel, t1: float, t2: float) -> tuple[float, float]:
    """Gradient of the limiting scaled log-MGF; at the origin it is the mean vector."""
    grad = _TiltOps(model).local(np.array([t1, t2], dtype=float))[1]
    return float(grad[0]), float(grad[1])


# ---------------------------------------------------------------------------
# Conjugate rate of the component pair
# ---------------------------------------------------------------------------


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> tuple[np.ndarray, float]:
    """The Newton step -H^-1 g for one or two unknowns, and the decrement g' H^-1 g.

    In closed form on Python floats: one unknown divides, two take Cramer's
    rule.  A zero pivot or determinant gives a NaN decrement.
    """
    g, h = grad.tolist(), hess.tolist()
    try:
        if len(g) == 1:
            step = [-g[0] / h[0][0]]
        else:
            (a, b), (c, d) = h
            det = a * d - b * c
            step = [(b * g[1] - d * g[0]) / det, (c * g[0] - a * g[1]) / det]
    except ZeroDivisionError:
        return np.full(len(g), math.nan), math.nan
    return np.array(step), -sum(gi * si for gi, si in zip(g, step))


def _newton_minimize(
    local: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    x: np.ndarray,
    what: str,
    polish: bool = False,
) -> tuple[np.ndarray, float]:
    """Minimiser and minimum of a smooth convex function by damped Newton descent from ``x``.

    ``local(x)`` returns the value, gradient and Hessian at ``x``, a point
    of one or two unknowns (``_newton_step``).  Each Newton step is
    halved until the value decreases.  The descent settles
    when the Newton decrement g' H^-1 g, twice the predicted decrease, is
    below _SETTLE_TOL of the value (at least 1): there the value can no
    longer confirm a step, and the descent returns the iterate and its
    value.  With ``polish``, settled steps are taken in full while each
    one moves the point by more than _SETTLE_TOL relative and at least
    quarters the decrement, so the point is as accurate as the gradient,
    not the value, allows.  A step that is not finite, or one that cannot
    decrease the value before the descent settles, raises ``NumericError``.
    """
    f_x, grad, hess = local(x)
    settled = math.inf
    for _ in range(_NEWTON_ITERATIONS):
        step, decrement = _newton_step(grad, hess)
        if not 0.0 <= decrement < math.inf:
            raise NumericError(f"no Newton step at {x} for {what}; Hessian {hess.tolist()}")
        if decrement <= _SETTLE_TOL * max(1.0, abs(f_x)):
            moves = np.any(np.abs(step) > _SETTLE_TOL * np.maximum(1.0, np.abs(x)))
            if not (polish and moves and decrement < 0.25 * settled):
                return x, f_x
            settled, x = decrement, x + step
            f_x, grad, hess = local(x)
            continue
        scale = 1.0
        for _ in range(80):
            cand = x + scale * step
            f_cand, g_cand, h_cand = local(cand)
            if f_cand < f_x:
                break
            scale *= 0.5
        else:
            raise NumericError(
                f"no descent step at {x} for {what}; Newton decrement {decrement:.3e}"
            )
        x, f_x, grad, hess = cand, f_cand, g_cand, h_cand
    raise NumericError(
        f"Newton descent did not converge in {_NEWTON_ITERATIONS} iterations for {what}")


def _conjugate_level(model: RateModel, lam1: float, lam2: float) -> float | None:
    """The level y = lam2 / lam1 of the conjugate routes' dual; None where the rate is +inf."""
    return lam2 / lam1 if _level(lam1) > 0 and _inside_range(model, lam2 / lam1) else None


def _legendre_ascent(ops: _TiltOps, lam1: float, lam2: float, dual: tuple) -> float:
    """``legendre_rate`` at a finite rate on ``ops``, from the uniform-kernel dual (s, D)."""
    lam = np.array([lam1, lam2], dtype=float)

    def local(t):
        value, grad, hess = ops.local(t)
        return value - float(lam @ t), grad - lam, hess

    (s, d), y, k_max = dual, lam2 / lam1, float(ops.model._k.max())
    t0 = np.array([math.log(lam1 / k_max) - d - y * s, s]) / k_max
    return 0.0 - _newton_minimize(local, t0, f"the conjugate at lam=({lam1}, {lam2})")[1]


def legendre_rate(model: RateModel, lam1: float, lam2: float) -> float:
    """Fenchel-Legendre conjugate of the limit log-MGF by damped Newton ascent.

    Maximizes Q(t) = lam . t - Phi(t).  The supremum is finite exactly when
    lam1 > 0 and y = lam2/lam1 lies inside the reachable tilted-mean range;
    elsewhere the rate is +inf without an ascent.  The ascent starts at the
    maximiser for a flat kernel of value k_max, the largest kernel value at
    the rule's nodes: there Phi(t) = exp(k_max t1) M(k_max t2) - mass, so
    t2 = s / k_max and t1 = (log(lam1 / k_max) - D - y s) / k_max, with s
    and D = log M(s) - y s the minimiser and minimum of the uniform-kernel
    dual at y.  On a flat kernel the start is the maximiser.  The start only
    seeds the argmax: the value returned is Q from ``_TiltOps`` at the
    point where Newton's own decrement on that table settles, and Q is
    concave, so the ascent corrects any start.  The value therefore stays
    a check on ``closed_rate_uniform`` that is independent of its formula.
    """
    y = _conjugate_level(model, lam1, lam2)
    return math.inf if y is None else _legendre_ascent(
        _TiltOps(model), lam1, lam2, _tilt_dual(model, y))


def _is_plain_uniform(model: RateModel) -> bool:
    return isinstance(model.kernel, UniformKernel) and model.kernel.scale == 1.0


def _require_plain_uniform(model: RateModel, what: str) -> None:
    if not _is_plain_uniform(model):
        raise ValueError(f"{what} requires the unit uniform kernel")


def _closed_rate(model: RateModel, lam1: float, dual: tuple) -> float:
    """``closed_rate_uniform`` at a finite rate from the dual (s, D) at its level."""
    # the trapezoid mass and the moment-row dual round apart at the zero
    return max(0.0, lam1 * (math.log(lam1) - 1.0 - dual[1]) + model.weight.mass)


def closed_rate_uniform(model: RateModel, lam1: float, lam2: float) -> float:
    """Closed-form conjugate rate of the component pair under the uniform kernel.

    Finite exactly when lam1 > 0 and lam2/lam1 lies strictly inside the
    reachable tilted-mean range; +inf elsewhere.
    """
    _require_plain_uniform(model, "the closed conjugate rate")
    y = _conjugate_level(model, lam1, lam2)
    return math.inf if y is None else _closed_rate(model, lam1, _tilt_dual(model, y))


def conjugate_rates(model: RateModel, pairs: Sequence[tuple[float, float]]) -> tuple[list, int]:
    """``legendre_rate`` and ``closed_rate_uniform`` at each pair, and the levels solved.

    The pairs at one float level y = lam2/lam1 share its uniform-kernel dual, solved once:
    it only seeds the ascent, so that stays a check on the closed form.  A failed dual
    leaves both rates nan at its level's pairs, a failed ascent its own rate.
    """
    _require_plain_uniform(model, "the closed conjugate rate")
    ops, rates, levels = _TiltOps(model), [], {}
    for i, pair in enumerate(pairs):
        y = _conjugate_level(model, *pair)
        if y is not None:
            levels.setdefault(y, []).append(i)
        rates.append([math.inf if y is None else math.nan] * 2)
    for y, rows in levels.items():
        with contextlib.suppress(NumericError, RateDomainError):
            dual = _tilt_dual(model, y)
            for i in rows:
                rates[i][1] = _closed_rate(model, pairs[i][0], dual)
                with contextlib.suppress(NumericError, RateDomainError):
                    rates[i][0] = _legendre_ascent(ops, *pairs[i], dual)
    return rates, len(levels)


def _kernel_dual(model: RateModel, y: float) -> tuple[float, float]:
    """Minimiser and minimum of the convex dual integral exp(t K) dtau - y t, y > 0.

    The minimiser inverts the kernel exponential moment: the gradient is
    the moment integral K exp(t K) dtau less y, the Hessian integral
    K^2 exp(t K) dtau, all from the Gauss rule for dtau.  Newton starts at the root of the
    log-linear model of the moment at t = 0, which is exact for a flat kernel.
    """
    k, weights = model._k, model._k_weights
    m1, m2 = weights.dot(k), weights.dot(k * k)

    def local(t):
        with np.errstate(over="ignore"):
            e = weights * np.exp(t[0] * k)
        return float(e.sum()) - y * t[0], np.array([e.dot(k) - y]), np.array([[e.dot(k * k)]])

    t, value = _newton_minimize(local, np.array([math.log(y / m1) * m1 / m2]),
                                f"the kernel-moment inverse at {y}", polish=True)
    return float(t[0]), value


def indicator_rate(model: RateModel, lam1: float, lam2: float) -> float:
    """Conjugate rate specialized to an indicator index.

    Splits the weight mass on and off the indicator set (the mass on it is
    the sum of the moment row q l) and inverts the kernel exponential
    moment on each part through its dual
    D(y) = min_t [integral exp(t K) dtau - y t]; the displayed closed form
    is then mass - mass_on D(lam2 / mass_on) - mass_off D((lam1 - lam2) / mass_off).
    Outside 0 < lam2 < lam1 the rate is +inf.
    """
    if not isinstance(model.index, IntervalIndicator):
        raise ValueError("the indicator rate requires an indicator index")
    mass_on = float(np.sum(model._rows[1]))
    mass_off = model.weight.mass - mass_on
    if not (mass_on > 0 and mass_off > 0):
        raise RateDomainError(
            f"indicator set must carry positive weight on both sides, got "
            f"({mass_on:.3e}, {mass_off:.3e})"
        )
    if not 0.0 < _level(lam2) < _level(lam1):
        return math.inf
    return (model.weight.mass - mass_on * _kernel_dual(model, lam2 / mass_on)[1]
            - mass_off * _kernel_dual(model, (lam1 - lam2) / mass_off)[1])


# ---------------------------------------------------------------------------
# Ratio rate (the regression estimate itself)
# ---------------------------------------------------------------------------

def ratio_rate(model: RateModel, lam: float) -> float:
    """Rate of the ratio estimate at level ``lam`` as a 1-D convex minimax.

    Contracting the pair rate over the cone a > 0 and swapping inf and sup
    gives Gamma(lam) = inf_a Lambda*(a, lam a) = -min_s Phi(-lam s, s).
    The line function f(s) = Phi(-lam s, s) is convex with f(0) = 0, and
    damped Newton finds its minimum; the derivatives are the directional
    ones of the limit log-MGF along (-lam, 1).  The descent starts at
    s0 = s_u / k_max, with s_u the minimiser of the uniform-kernel dual and
    k_max the largest kernel value at the rule's nodes: f(s) is the dtau
    integral of f_u(s K(u)), f_u(r) = integral (exp(r (l - lam)) - 1) w
    is convex with f_u(0) = 0 and its minimum at s_u, so f_u <= 0 at every
    s0 K(u) between 0 and s_u and f(s0) <= f(0).  On a flat kernel s0 is
    the minimiser.  +inf outside the reachable range.
    """
    if not _inside_range(model, lam):
        return math.inf
    ops = _TiltOps(model)
    d = np.array([-lam, 1.0])

    def local(s):
        value, grad, hess = ops.local(s[0] * d)
        return value, np.array([grad @ d]), np.array([[d @ hess @ d]])

    s0 = np.array([_tilt_dual(model, lam)[0] / model._k.max()])
    # f(0) = 0 caps the minimum, so a minimum that rounds above 0 (a start
    # at the zero off by rounding) reads as the rate +0.0, never below it
    return max(0.0, -_newton_minimize(local, s0, f"the ratio rate at {lam}")[1])


def ratio_rate_closed(model: RateModel, lam: float) -> float:
    """Closed-form ratio rate under the uniform kernel.

    Mass minus exp(min_s [log M(s) - lam s]), the tilted mass discounted
    at the inverse tilt of ``lam``, and never below 0; +inf outside the
    reachable range.
    """
    _require_plain_uniform(model, "the closed ratio rate")
    if not _inside_range(model, lam):
        return math.inf
    return max(0.0, model.weight.mass - math.exp(_tilt_dual(model, lam)[1]))


def ratio_rate_derivatives(model: RateModel, lam: float) -> tuple[float, float]:
    """First and second derivatives of the closed ratio rate at ``lam``.

    The second derivative uses the tilted variance, which is the
    derivative of the tilted mean and is nonnegative.
    """
    _require_plain_uniform(model, "ratio-rate derivatives")
    if not _inside_range(model, lam):
        rng = model._tilt_range
        raise RateDomainError(f"level {lam} outside ({rng.v0}, {rng.v1})")
    s = tilted_mean_inverse(model, lam)
    log_mass, _, var = _tilted_moments(model, s)
    amplitude = math.exp(-lam * s + log_mass)
    return s * amplitude, (1.0 / var - s * s) * amplitude


def ratio_rate_quadratic(model: RateModel, lam: float) -> float:
    """Small-deviation quadratic approximation of the ratio rate.

    Requires a centered index (mean zero under the normalized weight);
    returns lam^2 * mass / (2 E l^2).
    """
    if abs(model.mean) >= 1e-10:
        raise ValueError(
            f"quadratic approximation needs a centered index, mean {model.mean:.3e}")
    second = float(np.sum(model._rows[2])) / model.weight.mass
    return lam * lam * model.weight.mass / (2.0 * second)


# ---------------------------------------------------------------------------
# Two-sided deviation rates
# ---------------------------------------------------------------------------


def two_sided_rate(model: RateModel, lam: float) -> float:
    """Rate of a deviation of width ``lam`` on either side of the model's limit m.

    m is the untilted mean of the index, the zero of the ratio rate.
    Every sublevel set of the ratio rate is the image of a convex set
    under the perspective map, so the rate is quasi-convex: nonincreasing
    left of m and nondecreasing right of it.  Its infimum over each ray
    therefore sits at the ray's end: the rate is the smaller of the rates
    at m - lam and m + lam, by the closed form under the unit uniform
    kernel and by ``ratio_rate`` otherwise.
    """
    lam = real(lam, "lam", 0)
    gamma = ratio_rate_closed if _is_plain_uniform(model) else ratio_rate
    return min(gamma(model, model.mean - lam), gamma(model, model.mean + lam))


def class_rate(models: Sequence[RateModel], lam: float) -> float:
    """Smallest two-sided deviation rate over a finite class of centers, one model each."""
    if not models:
        raise ValueError("class rate needs at least one model")
    return min(two_sided_rate(model, lam) for model in models)
