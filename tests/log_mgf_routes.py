"""The finite-n scaled log-MGF of the uniform-kernel estimator, from the window sums.

Under the integral difference and the uniform kernel, a replicate's
exponent sum_i (t1 + t2 Y_i) Delta_i(x) for the identity index is
t1 S1 + t2 S2, where S1 counts the observations within h of x's
projection and S2 sums their responses.  The ladders' exact sampler
draws those two sums.
"""

import math

import numpy as np
from scipy.special import logsumexp

from funcldp import simulate
from funcldp.estimator import IdentityIndex


def window_log_mgf(model, x, n, h, t1, t2, replicates, seed):
    """(1/(n phi(h))) log of the mean of exp(t1 S1 + t2 S2) over the replicates.

    The rung draws from ``SeedSequence((seed, n))``, as a ladder rung does.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    exponents = np.concatenate([
        t1 * s1[:, 0] + t2 * s2[:, 0]
        for s1, s2, _ in simulate._window_sums(model, IdentityIndex(), np.array([x.integral()]),
                                               n, h, replicates, rng)
    ])
    return (logsumexp(exponents) - math.log(replicates)) / (n * model.small_ball_scale(h))
