"""Kernel derivatives and scaling-profile maps, written out for the test oracles.

The library integrates against dtau with a Gauss rule in u and never
needs K', tau or the inverse of tau; the K' and by-parts oracles of the
limit log-MGF in ``test_ratefn`` do, and ``test_funcdata`` checks them.
"""

import numpy as np

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
