"""Kernel calculus written out for the test oracles.

The library integrates against dtau with a Gauss rule in u and never
needs K', tau or the inverse of tau; the K' and by-parts oracles of the
limit log-MGF in ``test_ratefn`` do, and ``test_funcdata`` checks them.
The kernel exponential moment and the conjugate's stationary point are
quantities the rate layer only reaches through its duals; ``test_ratefn``
checks them against quadrature and closed forms.
"""

import math

import numpy as np

from funcldp import ratefn
from funcldp.funcdata import AffineKernel, ExpDecayKernel


def kernel_prime(kernel, u):
    """K'(u): -scale e^-u for exp-decay, -scale for affine, 0 for the flat kernel."""
    u = np.asarray(u, dtype=float)
    if isinstance(kernel, ExpDecayKernel):
        return -kernel.scale * np.exp(-u)
    if isinstance(kernel, AffineKernel):
        return np.full_like(u, -kernel.scale)
    return np.zeros_like(u)


def kernel_eval(kernel, u: float) -> tuple[float, float]:
    """(K(u), K'(u)); u must lie in the support [0, 1]."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"kernel argument {u} outside the support [0, 1]")
    return float(kernel.k(u)), float(kernel_prime(kernel, u))


def tau(profile, u):
    """Scaling profile tau(u) = u**alpha; alpha = 1 for the identity profile."""
    return np.asarray(u, dtype=float) ** getattr(profile, "alpha", 1.0)


def tau_inverse(profile, w):
    return np.asarray(w, dtype=float) ** (1.0 / getattr(profile, "alpha", 1.0))


def tilted_kernel_moment(model, t: float) -> float:
    """Kernel exponential moment integral_0^1 K(u) exp(t K(u)) dtau(u), by the Gauss rule."""
    return float((model._k_weights * model._k).dot(np.exp(t * model._k)))


def conjugate_stationary_point(model, lam1: float, lam2: float) -> tuple[float, float]:
    """Maximiser (t1, t2) of the conjugate objective under the unit uniform kernel.

    t2 is the tilt whose tilted mean is lam2 / lam1, and t1 is log lam1
    less the log tilted mass at t2.
    """
    t2 = ratefn.tilted_mean_inverse(model, lam2 / lam1)
    return math.log(lam1) - ratefn._tilted_moments(model, t2)[0], t2
