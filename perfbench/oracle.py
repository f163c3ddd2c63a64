"""Independent reference values for the benchmark's output checks.

Nothing here calls funcldp.  Every value comes from closed forms, scipy's
special functions, quadrature and root-finders, or plain numpy written for
the benchmark, so a check compares the program against a computation made
apart from it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

# Tail of the exact binomial interval on each side: a correct sampler with
# any random stream misses it at most once in 5e8 checks.
HITS_TAIL = 1e-9
# Chernoff tail allowed on each side of a log-MGF estimate.
LOGMGF_TAIL = 1e-10

# funcldp.simulate.default_model(): X = Y * (1 + 0.3 cos 2 pi t)
# + eps * (1 + 0.2 sin 2 pi t) on [0, 1] with Y, eps standard normal.  Both
# curve integrals are 1, so a curve's integral is P = Y + eps.
SIGNAL_INTEGRAL = 1.0
NOISE_INTEGRAL = 1.0
Y_SD = 1.0
P_SD = math.hypot(Y_SD * SIGNAL_INTEGRAL, NOISE_INTEGRAL)
# Y given P: mean SLOPE * P, standard deviation COND_SD.
SLOPE = Y_SD**2 * SIGNAL_INTEGRAL / P_SD**2
COND_SD = Y_SD * NOISE_INTEGRAL / P_SD

# ratefn.WeightDensity.gaussian() defaults: standard normal density on [-8, 8].
HALF_WIDTH = 8.0
WEIGHT_MASS = float(special.ndtr(HALF_WIDTH) - special.ndtr(-HALF_WIDTH))


def hits_interval(hits: int, trials: int, tail: float = HITS_TAIL) -> tuple[float, float]:
    """Clopper-Pearson interval for a binomial proportion, ``tail`` on each side.

    Exact at every count, and far wider than the 95% Wilson interval that
    the ladder CSVs carry, so a correct sampler with another random stream
    still lands inside it.
    """
    lo = 0.0 if hits == 0 else float(stats.beta.ppf(tail, hits, trials - hits + 1))
    hi = 1.0 if hits == trials else float(stats.beta.ppf(1.0 - tail, hits + 1, trials - hits))
    return lo, hi


def schedule(n: int, a: float, alpha: float) -> tuple[float, float]:
    """Bandwidth (log log n / n)^(1/alpha) and a * log log n / n."""
    ratio = math.log(math.log(n)) / n
    return ratio ** (1.0 / alpha), a * ratio


def trapezoid_weights(points: int) -> np.ndarray:
    """Composite trapezoid weights on a uniform grid of [0, 1]."""
    dx = 1.0 / (points - 1)
    w = np.full(points, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


# ---------------------------------------------------------------------------
# Rare-event ladders
# ---------------------------------------------------------------------------


def small_ball_mass(c: float) -> float:
    """Density of the curve integral P at c: the mass of the induced weight."""
    return float(stats.norm.pdf(c, scale=P_SD))


def two_sided_rate(c: float, lam: float) -> float:
    """M(c) (1 - exp(-lam^2 / (2 sigma^2))) for the Gaussian induced weight."""
    return small_ball_mass(c) * -math.expm1(-lam * lam / (2.0 * COND_SD**2))


def hit_bracket(n: int, h: float, lam: float, c: float) -> tuple[float, float]:
    """Rigorous bounds on P(|r_hat(c) - r(c)| > lam) at one ladder rung.

    The number K of curves with |P - c| <= h is Binomial(n, p).  Given the
    window, the mean of the active responses is normal with standard
    deviation COND_SD / sqrt(K) around a centre that the window keeps within
    SLOPE * h of r(c); a deviation outside a symmetric interval is least
    likely at zero shift and most likely at the largest one.  With no active
    curve the estimate is 0.
    """
    p = float(special.ndtr((c + h) / P_SD) - special.ndtr((c - h) / P_SD))
    r_true = SLOPE * c
    k = np.arange(n + 1, dtype=float)
    pmf = stats.binom.pmf(k, n, p)
    root = np.sqrt(k[1:]) / COND_SD
    shift = SLOPE * h
    low = 2.0 * special.ndtr(-lam * root)
    high = special.ndtr(-(lam + shift) * root) + special.ndtr(-(lam - shift) * root)
    empty = 1.0 if abs(r_true) > lam else 0.0
    lo = pmf[0] * empty + float(pmf[1:] @ low)
    hi = pmf[0] * empty + float(pmf[1:] @ high)
    return lo, min(hi, 1.0)


# ---------------------------------------------------------------------------
# Rate functions of the standard Gaussian weight
# ---------------------------------------------------------------------------


def gaussian_ratio_rate(lam: float) -> tuple[float, float, float]:
    """(gamma, gamma', gamma'') = 1 - e^{-l^2/2}, l e^{-l^2/2}, (1 - l^2) e^{-l^2/2}."""
    e = math.exp(-0.5 * lam * lam)
    return -math.expm1(-0.5 * lam * lam), lam * e, (1.0 - lam * lam) * e


def gaussian_pair_rate(lam1: float, lam2: float) -> float:
    """Untruncated Gaussian conjugate lam1 log lam1 - lam1 + 1 + lam2^2 / (2 lam1)."""
    return lam1 * math.log(lam1) - lam1 + 1.0 + lam2 * lam2 / (2.0 * lam1)


def _log_window(s: float) -> float:
    """log(Phi(8 - s) - Phi(-8 - s)), even in s."""
    s = abs(s)
    a = special.log_ndtr(HALF_WIDTH - s)
    b = special.log_ndtr(-HALF_WIDTH - s)
    return float(a + math.log1p(-math.exp(b - a)))


def truncated_log_mass(s: float) -> float:
    """log of the integral of e^{sv} phi(v) over [-8, 8]."""
    return 0.5 * s * s + _log_window(s)


def truncated_tilted_mean(s: float) -> float:
    """Mean of N(s, 1) truncated to [-8, 8]; odd and increasing in s."""
    if s < 0:
        return -truncated_tilted_mean(-s)
    log_z = _log_window(s)
    log_root = 0.5 * math.log(2.0 * math.pi)
    lo, hi = -HALF_WIDTH - s, HALF_WIDTH - s
    return s + math.exp(-0.5 * lo * lo - log_root - log_z) - math.exp(
        -0.5 * hi * hi - log_root - log_z
    )


def truncated_pair_rate(lam1: float, lam2: float) -> float:
    """Conjugate pair rate of the truncated standard Gaussian weight.

    lam1 (log lam1 - 1) + lam2 s - lam1 L(s) + M with L the truncated
    log-mass and s its tilt at the level lam2 / lam1, found by bracketing
    and Brent's method.
    """
    ratio = lam2 / lam1
    if ratio == 0.0:
        s = 0.0
    else:
        edge = math.copysign(1.0, ratio)
        while abs(truncated_tilted_mean(edge)) < abs(ratio):
            edge *= 2.0
        s = optimize.brentq(
            lambda x: truncated_tilted_mean(x) - ratio,
            0.0, edge, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500,
        )
    return lam1 * (math.log(lam1) - 1.0) + lam2 * s - lam1 * truncated_log_mass(s) + WEIGHT_MASS


def _g_exp_decay(theta: np.ndarray) -> np.ndarray:
    """integral_0^1 (exp(theta e^{-u}) - 1) du = Ei(theta) - Ei(theta / e) - 1."""
    out = np.empty_like(theta)
    small = np.abs(theta) < 1.0
    k = np.arange(1, 25, dtype=float)
    coef = -np.expm1(-k) / (k * special.factorial(k))
    out[small] = (theta[small, np.newaxis] ** k) @ coef
    big = theta[~small]
    out[~small] = special.expi(big) - special.expi(big / math.e) - 1.0
    return out


def _g_affine(theta: np.ndarray) -> np.ndarray:
    """integral_0^1 (exp(theta (2 - u)) - 1) du = (e^{2 theta} - e^theta) / theta - 1."""
    return np.exp(theta) * special.exprel(theta) - 1.0


KERNEL_G = {"exp_decay": _g_exp_decay, "affine": _g_affine}


def ratio_rate(kernel: str, lam: float, nodes: int = 400) -> float:
    """Gamma(lam) = -min_s Phi(-lam s, s) for the truncated Gaussian weight.

    Phi(t1, t2) = integral w(v) G(t1 + t2 v) dv with the kernel's closed-form
    inner integral G; the outer integral is Gauss-Legendre on [-8, 8].  Phi
    is convex, so the minimum over the line is found by Brent's method.
    """
    x, wq = np.polynomial.legendre.leggauss(nodes)
    v = HALF_WIDTH * x
    weights = HALF_WIDTH * wq * np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
    g = KERNEL_G[kernel]

    def phi(s: float) -> float:
        with np.errstate(over="ignore"):
            return float(weights @ g(s * (v - lam)))

    start = 0.1 if lam >= 0 else -0.1
    return -float(optimize.minimize_scalar(phi, bracket=(0.0, start), tol=1e-12).fun)


# ---------------------------------------------------------------------------
# Finite-n log-MGF of the uniform-kernel estimator on the default model
# ---------------------------------------------------------------------------


def _window_q(beta: float, t1: float, t2: float, h: float, c: float) -> float:
    """E[(exp(beta (t1 + t2 Y)) - 1) 1{|P - c| <= h}] by 1-D quadrature over Y."""

    def integrand(y: float) -> float:
        inside = special.ndtr((c + h - y * SIGNAL_INTEGRAL) / NOISE_INTEGRAL) - special.ndtr(
            (c - h - y * SIGNAL_INTEGRAL) / NOISE_INTEGRAL
        )
        density = math.exp(-0.5 * (y / Y_SD) ** 2) / (Y_SD * math.sqrt(2.0 * math.pi))
        return density * math.expm1(beta * (t1 + t2 * y)) * inside

    centre = beta * t2 * Y_SD**2
    value, _ = integrate.quad(
        integrand, centre - 14.0, centre + 14.0, points=[c, centre],
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return value


def log_mgf_exact(n: int, h: float, t1: float, t2: float, c: float) -> float:
    """(1 / (n phi(h))) log E exp(sum_i (t1 + t2 Y_i) Delta_i) = log(1 + q) / phi(h)."""
    return math.log1p(_window_q(1.0, t1, t2, h, c)) / (2.0 * h)


def log_mgf_z(value: float, n: int, h: float, t1: float, t2: float, c: float,
              replicates: int) -> float:
    """Standard score of an estimate, with the error from the exact second moment."""
    q1 = _window_q(1.0, t1, t2, h, c)
    q2 = _window_q(2.0, t1, t2, h, c)
    rel_var = math.expm1(n * (math.log1p(q2) - 2.0 * math.log1p(q1)))
    se = math.sqrt(rel_var / replicates) / (n * 2.0 * h)
    return (value - math.log1p(q1) / (2.0 * h)) / se


def log_mgf_interval(n: int, h: float, t1: float, t2: float, c: float,
                     replicates: int, tail: float = LOGMGF_TAIL) -> tuple[float, float]:
    """Interval holding the estimate except with probability 2 * tail.

    The estimate is log(mean_r e^{E_r}) / (n phi(h)), which lies between the
    mean and the maximum of the replicate exponents E_r.  Each E_r has the
    exact moment generating function (1 + q_beta)^n, so Chernoff bounds give
    a lower end for the mean and an upper end for the maximum.
    """
    speed = n * 2.0 * h

    def log_mgf(beta: float) -> float:
        return n * math.log1p(_window_q(beta, t1, t2, h, c))

    upper = optimize.minimize_scalar(
        lambda b: (log_mgf(b) + math.log(replicates / tail)) / b,
        bounds=(0.05, 60.0), method="bounded",
    ).fun
    lower = -optimize.minimize_scalar(
        lambda g: -(math.log(tail) / replicates - log_mgf(-g)) / g,
        bounds=(0.05, 60.0), method="bounded",
    ).fun
    return lower / speed, upper / speed


# ---------------------------------------------------------------------------
# Curve integrals and L1 distances
# ---------------------------------------------------------------------------


def row_integrals(rows: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Trapezoid integral of each row over [0, 1]."""
    w = trapezoid_weights(rows.shape[1])
    return np.concatenate([rows[i : i + chunk] @ w for i in range(0, rows.shape[0], chunk)])


def scale_members(base: np.ndarray, a_lo: float, a_hi: float, count: int) -> np.ndarray:
    """Rows a * base(a t) on base's grid, linearly interpolated, zero outside [0, 1]."""
    t = np.linspace(0.0, 1.0, base.shape[0])
    return np.vstack([
        a * np.interp(a * t, t, base, left=0.0, right=0.0)
        for a in np.linspace(a_lo, a_hi, count)
    ])


def l1_to_rows(centres: np.ndarray, rows: np.ndarray, chunk: int = 8) -> np.ndarray:
    """L1 distances, shape (len(centres), len(rows)), by the trapezoid rule."""
    w = trapezoid_weights(rows.shape[1])
    out = np.empty((centres.shape[0], rows.shape[0]))
    for i in range(0, centres.shape[0], chunk):
        block = np.abs(centres[i : i + chunk, np.newaxis, :] - rows[np.newaxis, :, :])
        out[i : i + chunk] = block @ w
    return out
