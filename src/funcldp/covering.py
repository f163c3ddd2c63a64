"""Finite samples of curve classes, greedy covering numbers, entropy checks.

A class of curves is represented by a finite sample of members on one
shared grid.  Covering numbers of the sample are upper-bounded by a
deterministic farthest-point greedy construction (Gonzalez 1985), built
center by center into a running minimum, so a cover of k members never
holds a k x k distance matrix, and triangle-inequality bounds from two
pivot centers (LAESA; Mico, Oncina & Vidal 1994) skip most member
distances.  ``coverage_radii`` recomputes every member's distance to every
center without the bounds, a check of a cover that does not rest on them.
The entropy diagnostics track whether nu * log N(nu) trends to zero and
whether the coupling of nu to the sample-size schedule stays admissible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .funcdata import Curve, Grid, SemiMetric, frozen_array, integer, quadrature, real


@dataclass(frozen=True, eq=False)
class FunctionClass:
    """A finite sample of curves standing in for a class of curves.

    ``rows`` holds one member per row on ``grid``: a read-only copy of the
    (members x points) matrix given, validated once.
    """

    grid: Grid
    rows: np.ndarray
    undersampled: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", frozen_array(self.rows, 2, self.grid.points))


def scale_class(base: Curve, a_lo: float, a_hi: float, count: int) -> FunctionClass:
    """Members a * base(a * t) for a on a uniform grid of [a_lo, a_hi].

    The base curve is linearly interpolated and clamped to zero outside
    its own domain.  The parameter grid must avoid zero.  A member whose
    argument scaling outruns the base curve's own resolution flags the
    class as undersampled.
    """
    a_values = np.linspace(real(a_lo, "a_lo"), real(a_hi, "a_hi"), integer(count, "count", 2))
    if np.any(a_values == 0.0):
        raise ValueError("the scale parameter grid must exclude zero")
    t = base.grid.nodes()
    rows = a_values[:, None] * np.interp(np.outer(a_values, t), t, base.values,
                                         left=0.0, right=0.0)
    # Resampling at a*t reads the base every |a| nodes; skipping more than
    # 4 base nodes per member node risks aliasing narrow features.
    undersampled = float(np.max(np.abs(a_values))) > 4.0
    if undersampled:
        warnings.warn(
            "scale class members may be undersampled: the argument scaling "
            "outruns the base curve resolution",
            RuntimeWarning,
        )
    return FunctionClass(base.grid, rows, undersampled=undersampled)


# Largest fraction of the base curve's L1 mass that a shift class may push
# past the ends of the grid.
_CLIP_TOLERANCE = 1e-6


def _clipped_mass(magnitude: np.ndarray, grid: Grid, shift: float) -> float:
    """Trapezoid mass of the piecewise-linear ``magnitude`` that a shift pushes off the grid.

    A shift t > 0 pushes [t_max - t, t_max] past the right end; t < 0 is
    the mirror case at the left end.
    """
    if shift < 0:
        magnitude, shift = magnitude[::-1], -shift
    cut = max(grid.points - 1 - shift / grid.spacing, 0.0)  # node position of t_max - shift
    k = min(int(cut), grid.points - 2)  # the cut lies in the cell [k, k + 1]
    theta = cut - k
    at_cut = magnitude[k] + theta * (magnitude[k + 1] - magnitude[k])
    mass = 0.5 * (1.0 - theta) * grid.spacing * (at_cut + magnitude[k + 1])
    tail = magnitude[k + 1:]
    if tail.size >= 2:
        mass += quadrature(tail, Grid(0.0, (tail.size - 1) * grid.spacing, tail.size))
    return float(mass)


def shift_class(base: Curve, t_lo: float, t_hi: float, count: int) -> FunctionClass:
    """Members base(. - t) for shifts t on a uniform grid of [t_lo, t_hi].

    A shift may push at most ``_CLIP_TOLERANCE`` of the base curve's L1
    mass (trapezoid mass of |base|, linearly interpolated) past the grid
    window; more would clip the support and lose the Lipschitz-in-shift
    structure.  The clipped mass grows with |t|, so the two end shifts
    bound it.
    """
    count = integer(count, "count", 2)
    grid = base.grid
    magnitude = np.abs(base.values)
    total = quadrature(magnitude, grid)
    if not total > 0:
        raise ValueError("shift class needs a base curve with nonempty support")
    for t in (real(t_lo, "t_lo"), real(t_hi, "t_hi")):
        clipped = _clipped_mass(magnitude, grid, t) / total
        if not clipped <= _CLIP_TOLERANCE:
            raise ValueError(
                f"shift {t} pushes {clipped:.3g} of the base support's L1 mass outside "
                f"the grid window [{grid.t_min}, {grid.t_max}], more than {_CLIP_TOLERANCE:g}"
            )
    nodes = grid.nodes()
    shifts = np.linspace(t_lo, t_hi, count)
    return FunctionClass(grid, np.interp(nodes - shifts[:, None], nodes, base.values,
                                         left=0.0, right=0.0))


@dataclass(frozen=True)
class CoverReport:
    """A greedy cover of a class sample at radius nu.

    ``distance_rows`` counts the member distances the greedy evaluated.
    """

    nu: float
    n_cover: int
    centers: tuple[int, ...]
    nu_log_n: float
    distance_rows: int


def _pivot_allowance(rows: np.ndarray, grid: Grid) -> float:
    """Absolute slack that a pivot bound gives up for rounding.

    With u = eps / 2 and D = 2 max|rows| max(1, t_max - t_min), a computed
    distance is within (points + 3) u D of the exact one.  L_p terms are
    nonnegative, each off by (p + 2) u relative, their sum adds
    (points - 1) u and the p-th root divides the error by p; D bounds every
    L_p distance.  Integral-difference terms are off by 2 u each and their
    sum by (points - 1) u of their magnitudes' sum, which D bounds and which
    cancellation can leave far above the distance itself, so the slack is
    absolute.  A pivot bound set against a computed distance meets three
    such errors and two roundings of its own, u D each; four errors cover
    them.  The terms |x - y|**p are taken not to underflow.
    """
    largest = max(float(np.max(rows)), -float(np.min(rows)))  # max|rows| without a copy
    error = (grid.points + 3) * np.finfo(float).eps * largest * max(1.0, grid.t_max - grid.t_min)
    return 4.0 * error


def greedy_cover(cls: FunctionClass, nu: float, metric: SemiMetric) -> CoverReport:
    """Farthest-point greedy cover of the sample at radius nu.

    Starts from the first member; repeatedly adds the member farthest
    from the current centers (ties to the lowest index) until every
    member sits within nu of some center.  Each new center's distances
    are folded into a running minimum, so memory stays linear in the
    sample size.  Deterministic, and an upper bound on the covering
    number of the sample.

    The first two centers' distance rows are pivots.  For a later center
    c, member j's distance is at least max over the pivots p of
    |d(p, c) - d(p, j)| (L_p and the integral difference are seminorms
    under the trapezoid weights); the greedy evaluates d(c, j) only where
    that bound, less ``_pivot_allowance``, does not exceed j's running
    minimum, and a bound that is not finite never skips a member.  A
    row's distance does not depend on the rows passed with it, so the
    running minimum, and with it the centers, are bitwise those of the
    full traversal; a running minimum is always a distance that was
    evaluated, so the stopping test certifies the cover either way.  A NaN
    distance, which ``np.minimum`` keeps and no radius covers, raises
    ValueError naming its member.
    """
    nu = real(nu, "nu", 0)
    rows = cls.rows
    allowance = _pivot_allowance(rows, cls.grid)
    centers = [0]
    min_dist = metric.distance_to_rows(rows[0], rows, cls.grid)
    pivots = [min_dist.copy()]
    evaluated = min_dist.size
    while not float(np.max(min_dist)) <= nu:
        nxt = int(np.argmax(min_dist))  # the first NaN, if there is one
        if math.isnan(min_dist[nxt]):
            raise ValueError(f"member {nxt} lies at a NaN distance from a center under {metric!r}")
        centers.append(nxt)
        if len(pivots) < 2:
            members = slice(None)
        else:
            with np.errstate(invalid="ignore"):
                bound = np.maximum(*(np.abs(row - row[nxt]) for row in pivots))
                members = np.flatnonzero(~(bound - allowance > min_dist))
        dist = metric.distance_to_rows(rows[nxt], rows[members], cls.grid)
        if len(pivots) < 2:
            pivots.append(dist)
        min_dist[members] = np.minimum(min_dist[members], dist)
        evaluated += dist.size
    return CoverReport(
        nu=nu,
        n_cover=len(centers),
        centers=tuple(centers),
        nu_log_n=float(nu * math.log(len(centers))),
        distance_rows=evaluated,
    )


def coverage_radii(cls: FunctionClass, report: CoverReport, metric: SemiMetric) -> np.ndarray:
    """Distance of each member to its nearest center; all must be <= nu."""
    rows = cls.rows
    nearest = np.full(rows.shape[0], np.inf)
    for c in report.centers:
        np.minimum(nearest, metric.distance_to_rows(rows[c], rows, cls.grid), out=nearest)
    return nearest


def entropy_diagnostics(
    reports: Sequence[CoverReport],
    ladder: Sequence[tuple[int, float, float]],
    a_const: float = 1.0,
) -> list[dict]:
    """Cross table of entropy quantities over radii and the sample schedule.

    For each cover report and each (n, h, phi_h) ladder row, emits
    nu * log N, log N / (n phi_h), and the admissibility flag
    nu < n h / exp(a_const * n * phi_h).
    """
    a_const = real(a_const, "a_const")
    radii = [r.nu for r in reports]
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("cover reports must come with strictly decreasing radii")
    rows = []
    for report in reports:
        for n, h, phi_h in ladder:
            speed = n * phi_h
            try:
                bound = n * h / math.exp(a_const * speed)
            except (OverflowError, ZeroDivisionError):  # e^(A speed) past the float range
                bound = 0.0 if a_const > 0 else math.inf
            rows.append({
                "nu": report.nu,
                "n_cover": report.n_cover,
                "nu_log_n": report.nu_log_n,
                "n": n,
                "h": h,
                "phi_h": phi_h,
                "log_n_over_speed": math.log(report.n_cover) / speed,
                "admissible": report.nu < bound,
            })
    return rows


def default_radius(h: float) -> float:
    """Default coupling of the cover radius to the bandwidth: nu = h^2."""
    return h * h

