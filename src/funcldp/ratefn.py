"""Large-deviation rate functions for the kernel regression estimator.

The limiting scaled log moment generating function of the estimator's
component pair is a weighted double integral over the response variable
and the kernel support.  Its Fenchel-Legendre conjugate is the rate
function of the pair; a 1-D convex minimax over the ratio map's cone
gives the rate of the regression estimate itself, and two one-sided
evaluations give the rate of a deviation event of fixed width.

All response-side integrals are trapezoid quadratures against a
truncated weight density; exponential tilts are stabilized by shifting
the largest exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .estimator import IdentityIndex, IndexFunction, IntervalIndicator
from .funcdata import IdentityScaling, Kernel, ScalingProfile, UniformKernel

PROBE_T = 50.0
DOMAIN_MARGIN = 1e-6
_TAIL_FACTOR = 1e-12
_DECREMENT_TOL = 1e-15


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

    def __init__(self, message: str, tilt_range: TiltRange | None = None):
        super().__init__(message)
        self.tilt_range = tilt_range


@dataclass(frozen=True, eq=False)
class WeightDensity:
    """Nonnegative weight on a truncated uniform response grid.

    The weight plays the role of a joint local factor: conditional
    small-ball density times response density.  Truncation tails must be
    negligible against the peak so quadratures against exponential tilts
    stay meaningful.
    """

    v_lo: float
    v_hi: float
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.shape[0] < 2:
            raise ValueError("weight density needs a 1-D array of at least 2 values")
        if not self.v_lo < self.v_hi:
            raise ValueError(f"weight window [{self.v_lo}, {self.v_hi}] is degenerate")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weight values must be finite and nonnegative")
        peak = float(np.max(w))
        if peak <= 0:
            raise ValueError("weight density must have positive mass")
        if w[0] > _TAIL_FACTOR * peak or w[-1] > _TAIL_FACTOR * peak:
            raise ValueError(
                "weight density tails are not negligible; widen the window "
                f"(edge values {w[0]:.3e}, {w[-1]:.3e} vs peak {peak:.3e})"
            )
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        nodes = np.linspace(self.v_lo, self.v_hi, w.shape[0])
        nodes.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)
        mass = float(np.trapezoid(w, dx=self.spacing))
        if mass <= 0:
            raise ValueError("weight density must have positive mass")
        object.__setattr__(self, "_mass", mass)

    @property
    def spacing(self) -> float:
        return (self.v_hi - self.v_lo) / (self.w.shape[0] - 1)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def mass(self) -> float:
        return self._mass

    def integral(self, values: np.ndarray) -> float:
        return float(np.trapezoid(values, dx=self.spacing))

    @classmethod
    def from_function(cls, fn, v_lo: float, v_hi: float, nodes: int = 4001) -> "WeightDensity":
        v = np.linspace(v_lo, v_hi, nodes)
        return cls(v_lo, v_hi, np.asarray(fn(v), dtype=float))

    @classmethod
    def gaussian(cls, mean: float = 0.0, sd: float = 1.0, half_width: float = 8.0,
                 nodes: int = 4001) -> "WeightDensity":
        """Gaussian-shaped weight truncated at mean +- half_width * sd."""
        if sd <= 0:
            raise ValueError(f"gaussian weight needs sd > 0, got {sd}")

        def pdf(v):
            return np.exp(-0.5 * ((v - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))

        return cls.from_function(pdf, mean - half_width * sd, mean + half_width * sd, nodes)


@dataclass(frozen=True, eq=False)
class RateModel:
    """Weight density, index function, kernel and small-ball scaling profile.

    Construction certifies numerically that the exponential moments used
    by every formula are finite over the probe tilt range [-20, 20], and
    probes the reachable tilted-mean range once.
    """

    weight: WeightDensity
    index: IndexFunction
    kernel: Kernel
    scaling: ScalingProfile

    def __post_init__(self):
        lvals = np.asarray(self.index(self.weight.nodes), dtype=float)
        if lvals.shape != self.weight.nodes.shape or not np.all(np.isfinite(lvals)):
            raise ValueError("index function must map the weight nodes to finite values")
        lvals = lvals.copy()
        lvals.flags.writeable = False
        object.__setattr__(self, "_lvals", lvals)
        for t in (-20.0, 20.0):
            if not math.isfinite(_log_tilted_mass(self, t)):
                raise ValueError(f"exponential moment at tilt {t} is not finite")
        v0 = tilted_mean(self, -PROBE_T)
        mid = tilted_mean(self, 0.0)
        v1 = tilted_mean(self, PROBE_T)
        if not (v0 <= mid + 1e-12 and mid <= v1 + 1e-12):
            raise NumericError(f"tilted mean probes are not monotone: {v0}, {mid}, {v1}")
        object.__setattr__(self, "_tilt_range", TiltRange(v0, v1))

    @property
    def lvals(self) -> np.ndarray:
        return self._lvals

    @property
    def tilt_range(self) -> TiltRange:
        return self._tilt_range


def gaussian_identity_model(nodes: int = 4001, half_width: float = 8.0) -> RateModel:
    """Standard-normal weight with the identity index and the uniform kernel."""
    return RateModel(
        weight=WeightDensity.gaussian(0.0, 1.0, half_width, nodes),
        index=IdentityIndex(),
        kernel=UniformKernel(),
        scaling=IdentityScaling(),
    )


# ---------------------------------------------------------------------------
# Tilted integrals
# ---------------------------------------------------------------------------


def _log_tilted_mass(model: RateModel, s: float) -> float:
    """log integral of exp(s * l(v)) w(v) dv, shifted for stability."""
    e = s * model.lvals
    support = model.weight.w > 0
    shift = float(np.max(e[support])) if np.any(support) else 0.0
    mass = model.weight.integral(np.exp(e - shift) * model.weight.w)
    return shift + math.log(mass)


def _tilted_moments(model: RateModel, s: float) -> tuple[float, float, float]:
    """(log mass, mean, variance) of the index under the tilted weight."""
    w = model.weight.w
    lvals = model.lvals
    e = s * lvals
    support = w > 0
    shift = float(np.max(e[support])) if np.any(support) else 0.0
    tilted = np.exp(e - shift) * w
    t0 = model.weight.integral(tilted)
    t1 = model.weight.integral(tilted * lvals)
    t2 = model.weight.integral(tilted * lvals**2)
    mean = t1 / t0
    var = max(t2 / t0 - mean**2, 0.0)
    return shift + math.log(t0), mean, var


def tilted_mean(model: RateModel, t: float) -> float:
    """Mean of the index under the exponentially tilted weight.

    Nondecreasing in the tilt; its range over all tilts is the
    finiteness interval of the ratio-rate formulas.
    """
    _, mean, _ = _tilted_moments(model, t)
    return mean


def tilted_mean_range(model: RateModel) -> TiltRange:
    """Reachable range of the tilted mean, probed at tilts -+PROBE_T when the model is built."""
    return model.tilt_range


def _inside_range(model: RateModel, level: float) -> bool:
    """Whether ``level`` lies in the reachable range, DOMAIN_MARGIN clear of its ends."""
    rng = model.tilt_range
    return rng.v0 + DOMAIN_MARGIN < level < rng.v1 - DOMAIN_MARGIN


def _monotone_inverse(fn: Callable[[float], float], y: float, tol: float = 1e-10) -> float:
    """Leftmost point where the nondecreasing ``fn`` reaches ``y``.

    Brackets by doubling from [-1, 1], then bisects keeping the invariant
    fn(lo) < y <= fn(hi); returns ``hi``, the smallest certified point.
    """
    lo, hi = -1.0, 1.0
    for _ in range(64):
        if fn(lo) < y:
            break
        hi = lo
        lo *= 2.0
    else:
        raise NumericError(f"no left bracket for inverse at level {y}")
    for _ in range(64):
        if fn(hi) >= y:
            break
        lo = hi
        hi = hi * 2.0 if hi > 0 else 1.0
    else:
        raise NumericError(f"no right bracket for inverse at level {y}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) >= y:
            hi = mid
        else:
            lo = mid
    return hi


def tilted_mean_inverse(model: RateModel, y: float) -> float:
    """Generalized inverse of the tilted mean: smallest tilt reaching level y."""
    rng = model.tilt_range
    if not rng.v0 < y < rng.v1:
        raise RateDomainError(
            f"level {y} outside the reachable tilted-mean range ({rng.v0}, {rng.v1})", rng
        )
    return _monotone_inverse(lambda s: tilted_mean(model, s), y)


# ---------------------------------------------------------------------------
# Limiting scaled log-MGF
# ---------------------------------------------------------------------------


def log_mgf_limit(model: RateModel, t1: float, t2: float, u_nodes: int = 2001) -> float:
    """Limiting scaled log-MGF of the estimator component pair.

    Integrates, against the weight density,

        (exp(theta K(1)) - 1)
            - integral_0^1 theta K'(u) exp(theta K(u)) tau(u) du

    with theta(v) = t1 + t2 l(v).  Overflow of the exponentials yields
    the +inf sentinel; NaN raises ``NumericError``.
    """
    theta = t1 + t2 * model.lvals
    u = np.linspace(0.0, 1.0, u_nodes)
    k_u = model.kernel.k(u)
    kp_u = model.kernel.kprime(u)
    tau_u = model.scaling.tau(u)
    k1 = model.kernel.k_at_one
    w = model.weight.w
    du = u[1] - u[0]

    moving = kp_u != 0.0  # nodes where K' = 0 contribute 0, never 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        boundary = np.exp(theta * k1) - 1.0
        chunk = max(1, (1 << 21) // u_nodes)
        inner = np.empty_like(theta)
        for start in range(0, theta.shape[0], chunk):
            block = theta[start : start + chunk, np.newaxis]
            integrand = np.where(moving, block * kp_u * np.exp(block * k_u) * tau_u, 0.0)
            inner[start : start + chunk] = np.trapezoid(integrand, dx=du, axis=1)
        total = boundary - inner
        value = model.weight.integral(np.where(w > 0, total * w, 0.0))
    if math.isnan(value):
        raise NumericError(f"NaN in log-MGF quadrature at t=({t1}, {t2})")
    if math.isinf(value):
        return math.inf
    return float(value)


def log_mgf_limit_by_parts(model: RateModel, t1: float, t2: float, u_nodes: int = 2001) -> float:
    """Integration-by-parts form of the limiting scaled log-MGF.

    Valid when the scaling profile is differentiable:

        integral integral_0^1 tau'(u) (exp(theta K(u)) - 1) w(v) du dv,

    computed by substituting the scaling profile so the endpoint
    singularity of tau' for power profiles never appears.
    """
    theta = t1 + t2 * model.lvals
    omega = np.linspace(0.0, 1.0, u_nodes)
    k_sub = model.kernel.k(model.scaling.tau_inverse(omega))
    w = model.weight.w
    domega = omega[1] - omega[0]

    with np.errstate(over="ignore", invalid="ignore"):
        chunk = max(1, (1 << 21) // u_nodes)
        g = np.empty_like(theta)
        for start in range(0, theta.shape[0], chunk):
            block = theta[start : start + chunk, np.newaxis]
            g[start : start + chunk] = np.trapezoid(
                np.exp(block * k_sub) - 1.0, dx=domega, axis=1
            )
        value = model.weight.integral(np.where(w > 0, g * w, 0.0))
    if math.isnan(value):
        raise NumericError(f"NaN in log-MGF quadrature at t=({t1}, {t2})")
    if math.isinf(value):
        return math.inf
    return float(value)


class _TiltOps:
    """Consistent evaluations of the limit log-MGF and its derivatives.

    Uses the scaling-substituted form so value, gradient and Hessian share
    one exponential table per point.  The substituted integrand is smooth,
    so a short Gauss-Legendre rule on the unit interval is exact to
    machine precision; the uniform kernel collapses to a single analytic
    column.
    """

    def __init__(self, model: RateModel, u_nodes: int = 32):
        self.w = model.weight.w
        self.lvals = model.lvals
        self.integral = model.weight.integral
        if isinstance(model.kernel, UniformKernel):
            self.k_sub = np.array([model.kernel.scale])
            self.u_weights = None
        else:
            x, wq = np.polynomial.legendre.leggauss(u_nodes)
            omega = 0.5 * (x + 1.0)
            self.k_sub = np.asarray(model.kernel.k(model.scaling.tau_inverse(omega)))
            self.u_weights = 0.5 * wq

    def _g_tables(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G, G', G'') of the inner kernel integral at each theta."""
        if self.u_weights is None:
            c = self.k_sub[0]
            e = np.exp(theta * c)
            return e - 1.0, c * e, c * c * e
        exps = np.exp(theta[:, np.newaxis] * self.k_sub)
        g = (exps - 1.0) @ self.u_weights
        g1 = exps @ (self.u_weights * self.k_sub)
        g2 = exps @ (self.u_weights * self.k_sub**2)
        return g, g1, g2

    def phi(self, t: np.ndarray) -> float:
        """Limit log-MGF at ``t``; +inf on overflow, ``NumericError`` on NaN."""
        theta = t[0] + t[1] * self.lvals
        with np.errstate(over="ignore"):
            g, _, _ = self._g_tables(theta)
            value = self.integral(np.where(self.w > 0, g * self.w, 0.0))
        if math.isnan(value):
            raise NumericError(f"NaN in log-MGF quadrature at t=({t[0]}, {t[1]})")
        return value

    def grad_hess(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = t[0] + t[1] * self.lvals
        with np.errstate(over="ignore"):
            _, g1, g2 = self._g_tables(theta)
            wl = self.w * self.lvals
            grad = np.array([
                self.integral(g1 * self.w),
                self.integral(g1 * wl),
            ])
            hess = np.empty((2, 2))
            hess[0, 0] = self.integral(g2 * self.w)
            hess[0, 1] = hess[1, 0] = self.integral(g2 * wl)
            hess[1, 1] = self.integral(g2 * wl * self.lvals)
        return grad, hess


def log_mgf_gradient(model: RateModel, t1: float, t2: float) -> tuple[float, float]:
    """Gradient of the limiting scaled log-MGF; at the origin it is the mean vector."""
    grad, _ = _TiltOps(model).grad_hess(np.array([t1, t2]))
    return float(grad[0]), float(grad[1])


# ---------------------------------------------------------------------------
# Conjugate rate of the component pair
# ---------------------------------------------------------------------------


def _newton_minimize(
    fn: Callable[[np.ndarray], float],
    grad_hess: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    what: str,
    max_iter: int = 200,
) -> float:
    """Minimum of a smooth convex ``fn`` by damped Newton descent from ``x``.

    Each Newton step is halved until ``fn`` decreases.  The descent stops
    when the Newton decrement g' H^-1 g, twice the predicted decrease, is
    at the rounding level of the value; a step that is not finite, or one
    that cannot decrease ``fn`` before then, raises ``NumericError``.
    """
    f_x = fn(x)
    for _ in range(max_iter):
        grad, hess = grad_hess(x)
        try:
            step = -np.linalg.solve(hess, grad)
            decrement = float(-grad @ step)
        except np.linalg.LinAlgError:
            decrement = math.nan
        if not 0.0 <= decrement < math.inf:
            raise NumericError(f"no Newton step at {x} for {what}; Hessian {hess.tolist()}")
        if decrement <= _DECREMENT_TOL * max(1.0, abs(f_x)):
            return f_x
        scale = 1.0
        for _ in range(80):
            cand = x + scale * step
            f_cand = fn(cand)
            if f_cand < f_x:
                break
            scale *= 0.5
        else:
            raise NumericError(
                f"no descent step at {x} for {what}; Newton decrement {decrement:.3e}"
            )
        x, f_x = cand, f_cand
    raise NumericError(f"Newton descent did not converge in {max_iter} iterations for {what}")


def legendre_rate(model: RateModel, lam1: float, lam2: float) -> float:
    """Fenchel-Legendre conjugate of the limit log-MGF by damped Newton ascent.

    Maximizes Q(t) = lam . t - Phi(t) from the origin.  The supremum is
    finite exactly when lam1 > 0 and lam2/lam1 lies inside the reachable
    tilted-mean range; elsewhere the rate is +inf without an ascent.
    """
    if lam1 <= 0 or not _inside_range(model, lam2 / lam1):
        return math.inf
    ops = _TiltOps(model)
    lam = np.array([lam1, lam2], dtype=float)

    def grad_hess(t):
        grad, hess = ops.grad_hess(t)
        return grad - lam, hess

    return 0.0 - _newton_minimize(
        lambda t: ops.phi(t) - float(lam @ t), grad_hess, np.zeros(2),
        f"the conjugate at lam=({lam1}, {lam2})",
    )


def _is_plain_uniform(model: RateModel) -> bool:
    return isinstance(model.kernel, UniformKernel) and model.kernel.scale == 1.0


def _require_plain_uniform(model: RateModel, what: str) -> None:
    if not _is_plain_uniform(model):
        raise ValueError(f"{what} requires the unit uniform kernel")


def closed_rate_uniform(model: RateModel, lam1: float, lam2: float) -> float:
    """Closed-form conjugate rate of the component pair under the uniform kernel.

    Finite exactly when lam1 > 0 and lam2/lam1 lies strictly inside the
    reachable tilted-mean range; +inf elsewhere.
    """
    _require_plain_uniform(model, "the closed conjugate rate")
    if lam1 <= 0:
        return math.inf
    ratio = lam2 / lam1
    if not _inside_range(model, ratio):
        return math.inf
    try:
        s = tilted_mean_inverse(model, ratio)
    except RateDomainError:
        return math.inf
    log_mass = _log_tilted_mass(model, s)
    return lam1 * (math.log(lam1) - 1.0) + lam2 * s - lam1 * log_mass + model.weight.mass


def conjugate_stationary_point(model: RateModel, lam1: float, lam2: float) -> tuple[float, float]:
    """Maximizer of the conjugate objective under the uniform kernel."""
    _require_plain_uniform(model, "the conjugate stationary point")
    rng = model.tilt_range
    if lam1 <= 0:
        raise RateDomainError(f"lam1 must be positive, got {lam1}", rng)
    ratio = lam2 / lam1
    if not _inside_range(model, ratio):
        raise RateDomainError(f"ratio {ratio} outside ({rng.v0}, {rng.v1})", rng)
    s = tilted_mean_inverse(model, ratio)
    return math.log(lam1) - _log_tilted_mass(model, s), s


def tilted_kernel_moment(model: RateModel, t: float, u_nodes: int = 2001) -> float:
    """Scaling-weighted kernel exponential moment; strictly increasing in t.

    integral_0^1 tau'(u) K(u) exp(t K(u)) du, computed by substituting
    the scaling profile.
    """
    omega = np.linspace(0.0, 1.0, u_nodes)
    k_sub = np.asarray(model.kernel.k(model.scaling.tau_inverse(omega)))
    return float(np.trapezoid(k_sub * np.exp(t * k_sub), dx=omega[1] - omega[0]))


def indicator_rate(model: RateModel, lam1: float, lam2: float, u_nodes: int = 2001) -> float:
    """Conjugate rate specialized to an indicator index.

    Splits the weight mass on and off the indicator set, inverts the
    kernel exponential moment on each part, and assembles the displayed
    closed form.  Outside 0 < lam2 < lam1 the rate is +inf.
    """
    if not isinstance(model.index, IntervalIndicator):
        raise ValueError("the indicator rate requires an indicator index")
    mass_on = model.weight.integral(model.lvals * model.weight.w)
    mass_off = model.weight.mass - mass_on
    if mass_on <= 0 or mass_off <= 0:
        raise RateDomainError(
            f"indicator set must carry positive weight on both sides, got "
            f"({mass_on:.3e}, {mass_off:.3e})"
        )
    if not 0.0 < lam2 < lam1:
        return math.inf
    t_on = _monotone_inverse(lambda t: tilted_kernel_moment(model, t, u_nodes), lam2 / mass_on)
    t_off = _monotone_inverse(
        lambda t: tilted_kernel_moment(model, t, u_nodes), (lam1 - lam2) / mass_off
    )
    omega = np.linspace(0.0, 1.0, u_nodes)
    k_sub = np.asarray(model.kernel.k(model.scaling.tau_inverse(omega)))
    mixed = mass_on * np.exp(t_on * k_sub) + mass_off * np.exp(t_off * k_sub)
    correction = float(np.trapezoid(mixed, dx=omega[1] - omega[0]))
    return (lam1 - lam2) * t_off + lam2 * t_on + model.weight.mass - correction


# ---------------------------------------------------------------------------
# Ratio rate (the regression estimate itself)
# ---------------------------------------------------------------------------

def ratio_rate(model: RateModel, lam: float) -> float:
    """Rate of the ratio estimate at level ``lam`` as a 1-D convex minimax.

    Contracting the pair rate over the cone a > 0 and swapping inf and sup
    gives Gamma(lam) = inf_a Lambda*(a, lam a) = -min_s Phi(-lam s, s).
    The line function f(s) = Phi(-lam s, s) is convex with f(0) = 0, so
    damped Newton from s = 0 finds its minimum; the derivatives are the
    directional ones of the limit log-MGF along (-lam, 1).  +inf outside
    the reachable range.
    """
    if not _inside_range(model, lam):
        return math.inf
    ops = _TiltOps(model)
    d = np.array([-lam, 1.0])

    def grad_hess(s):
        grad, hess = ops.grad_hess(s[0] * d)
        return np.array([grad @ d]), np.array([[d @ hess @ d]])

    # 0.0 - f, not -f: the rate at the zero is +0.0, not -0.0
    return 0.0 - _newton_minimize(
        lambda s: ops.phi(s[0] * d), grad_hess, np.zeros(1), f"the ratio rate at {lam}"
    )


def ratio_rate_closed(model: RateModel, lam: float) -> float:
    """Closed-form ratio rate under the uniform kernel.

    Single quadrature: mass minus the tilted mass discounted at the
    inverse-tilt of ``lam``; +inf outside the reachable range.
    """
    _require_plain_uniform(model, "the closed ratio rate")
    if not _inside_range(model, lam):
        return math.inf
    try:
        s = tilted_mean_inverse(model, lam)
    except RateDomainError:
        return math.inf
    return model.weight.mass - math.exp(-lam * s + _log_tilted_mass(model, s))


def ratio_rate_derivatives(model: RateModel, lam: float) -> tuple[float, float]:
    """First and second derivatives of the closed ratio rate at ``lam``.

    The second derivative uses the tilted variance, which is the
    derivative of the tilted mean and is nonnegative.
    """
    _require_plain_uniform(model, "ratio-rate derivatives")
    if not _inside_range(model, lam):
        rng = model.tilt_range
        raise RateDomainError(f"level {lam} outside ({rng.v0}, {rng.v1})", rng)
    s = tilted_mean_inverse(model, lam)
    log_mass, _, var = _tilted_moments(model, s)
    amplitude = math.exp(-lam * s + log_mass)
    g1 = s * amplitude
    g2 = (1.0 / var - s * s) * amplitude
    return g1, g2


def ratio_rate_quadratic(model: RateModel, lam: float) -> float:
    """Small-deviation quadratic approximation of the ratio rate.

    Requires a centered index (mean zero under the normalized weight);
    returns lam^2 * mass / (2 E l^2).
    """
    mean0 = tilted_mean(model, 0.0)
    if abs(mean0) >= 1e-10:
        raise ValueError(f"quadratic approximation needs a centered index, mean {mean0:.3e}")
    second = model.weight.integral(model.lvals**2 * model.weight.w) / model.weight.mass
    return lam * lam * model.weight.mass / (2.0 * second)


# ---------------------------------------------------------------------------
# Two-sided deviation rates
# ---------------------------------------------------------------------------


def two_sided_rate(model: RateModel, r_true: float, lam: float) -> float:
    """Rate of a two-sided deviation of width ``lam`` around ``r_true``.

    Every sublevel set of the ratio rate is the image of a convex set
    under the perspective map, so the rate is quasi-convex: nonincreasing
    left of its zero, the untilted mean m, and nondecreasing right of it.
    Its infimum over each ray therefore sits at the ray's point nearest m,
    and the two-sided rate is the smaller of those two evaluations, by the
    closed form under the unit uniform kernel and by ``ratio_rate``
    otherwise.
    """
    if lam <= 0:
        raise ValueError(f"deviation width must be positive, got {lam}")
    gamma = ratio_rate_closed if _is_plain_uniform(model) else ratio_rate
    m = tilted_mean(model, 0.0)
    return min(gamma(model, min(r_true - lam, m)), gamma(model, max(r_true + lam, m)))


def class_rate(entries: Sequence[tuple[RateModel, float]], lam: float) -> float:
    """Smallest two-sided deviation rate over a finite class of centers."""
    if not entries:
        raise ValueError("class rate needs at least one (model, r_true) entry")
    return min(two_sided_rate(m, r, lam) for m, r in entries)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_conjugate_sweep_csv(model: RateModel, pairs, path) -> None:
    """Sweep the pair rate over (lam1, lam2) pairs, comparing both routes.

    Rows that fail numerically carry nan markers; the sweep continues.
    """
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["lambda1", "lambda2", "gamma_legendre", "gamma_closed", "abs_diff"])
        for lam1, lam2 in pairs:
            try:
                num = legendre_rate(model, lam1, lam2)
            except NumericError:
                num = math.nan
            closed = closed_rate_uniform(model, lam1, lam2)
            diff = abs(num - closed) if math.isfinite(num) and math.isfinite(closed) else (
                0.0 if num == closed else math.nan
            )
            writer.writerow([repr(float(lam1)), repr(float(lam2)), repr(float(num)),
                             repr(float(closed)), repr(float(diff))])


def write_ratio_sweep_csv(model: RateModel, r_true: float, lam_values, path) -> None:
    """Sweep the ratio rate, its derivatives and the two-sided rate over levels."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["lambda", "gamma", "gamma_prime", "gamma_second", "beta"])
        for lam in lam_values:
            gamma = ratio_rate_closed(model, lam)
            try:
                g1, g2 = ratio_rate_derivatives(model, lam)
            except RateDomainError:
                g1, g2 = math.nan, math.nan
            beta = two_sided_rate(model, r_true, lam) if lam > 0 else math.nan
            writer.writerow([repr(float(lam)), repr(float(gamma)), repr(float(g1)),
                             repr(float(g2)), repr(float(beta))])
