"""Finite samples of curve classes, greedy covering numbers, entropy checks.

A class of curves is represented by a finite sample of members on one
shared grid.  Covering numbers of the sample are upper-bounded by a
deterministic farthest-point greedy construction (Gonzalez 1985), built
center by center: each new center adds one row of distances to a running
minimum, so a cover of k members never holds a k x k distance matrix.
``coverage_radii`` then recomputes each member's distance to the returned
centers as an exact post-check.  The entropy diagnostics track whether
nu * log N(nu) trends to zero and whether the coupling of nu to the
sample-size schedule stays admissible.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .funcdata import Curve, Grid, SemiMetric


@dataclass(frozen=True, eq=False)
class FunctionClass:
    """A finite sample of curves standing in for a class of curves."""

    members: tuple[Curve, ...]
    tag: str = "explicit"
    undersampled: bool = False

    def __post_init__(self):
        if not self.members:
            raise ValueError("a function class needs at least one member")
        grid = self.members[0].grid
        for m in self.members:
            if m.grid != grid:
                raise ValueError("all class members must share one grid")

    @property
    def grid(self) -> Grid:
        return self.members[0].grid

    def values_matrix(self) -> np.ndarray:
        return np.vstack([m.values for m in self.members])


def scale_class(base: Curve, a_lo: float, a_hi: float, count: int) -> FunctionClass:
    """Members a * base(a * t) for a on a uniform grid of [a_lo, a_hi].

    The base curve is linearly interpolated and clamped to zero outside
    its own domain.  The parameter grid must avoid zero.  A member whose
    argument scaling outruns the base curve's own resolution flags the
    class as undersampled.
    """
    if count < 2:
        raise ValueError(f"scale class needs at least 2 members, got {count}")
    a_values = np.linspace(a_lo, a_hi, count)
    if np.any(a_values == 0.0):
        raise ValueError("the scale parameter grid must exclude zero")
    grid = base.grid
    t = grid.nodes()
    base_nodes = t
    members = []
    for a in a_values:
        resampled = np.interp(a * t, base_nodes, base.values, left=0.0, right=0.0)
        members.append(Curve(grid, a * resampled))
    # Resampling at a*t reads the base every |a| nodes; skipping more than
    # 4 base nodes per member node risks aliasing narrow features.
    undersampled = float(np.max(np.abs(a_values))) > 4.0
    if undersampled:
        warnings.warn(
            "scale class members may be undersampled: the argument scaling "
            "outruns the base curve resolution",
            RuntimeWarning,
        )
    return FunctionClass(tuple(members), tag="scale", undersampled=undersampled)


def shift_class(base: Curve, t_lo: float, t_hi: float, count: int) -> FunctionClass:
    """Members base(. - t) for shifts t on a uniform grid of [t_lo, t_hi].

    The base curve must have its support strictly inside the grid window
    after every shift; otherwise mass would be clipped away and the
    Lipschitz-in-shift structure lost.
    """
    if count < 2:
        raise ValueError(f"shift class needs at least 2 members, got {count}")
    grid = base.grid
    support = np.nonzero(np.abs(base.values) > 0.0)[0]
    if support.size == 0:
        raise ValueError("shift class needs a base curve with nonempty support")
    nodes = grid.nodes()
    lo_support, hi_support = nodes[support[0]], nodes[support[-1]]
    for t in (t_lo, t_hi):
        if lo_support + t < grid.t_min - 1e-12 or hi_support + t > grid.t_max + 1e-12:
            raise ValueError(
                f"shift {t} pushes the base support [{lo_support}, {hi_support}] "
                f"outside the grid window [{grid.t_min}, {grid.t_max}]"
            )
    members = []
    for t in np.linspace(t_lo, t_hi, count):
        members.append(Curve(grid, np.interp(nodes - t, nodes, base.values, left=0.0, right=0.0)))
    return FunctionClass(tuple(members), tag="shift")


@dataclass(frozen=True)
class CoverReport:
    """A greedy cover of a class sample at radius nu."""

    nu: float
    n_cover: int
    centers: tuple[int, ...]
    nu_log_n: float


def greedy_cover(cls: FunctionClass, nu: float, metric: SemiMetric) -> CoverReport:
    """Farthest-point greedy cover of the sample at radius nu.

    Starts from the first member; repeatedly adds the member farthest
    from the current centers (ties to the lowest index) until every
    member sits within nu of some center.  Each new center costs one row
    of distances, folded into a running minimum, so memory stays linear
    in the sample size.  Deterministic, and an upper bound on the
    covering number of the sample.  The result is checked by
    ``coverage_radii``, which recomputes every member's distance to the
    returned centers; an ``AssertionError`` flags a member beyond nu.
    """
    if nu <= 0:
        raise ValueError(f"cover radius must be positive, got {nu}")
    rows = cls.values_matrix()
    centers = [0]
    min_dist = metric.distance_to_rows(rows[0], rows, cls.grid)
    while float(np.max(min_dist)) > nu:
        nxt = int(np.argmax(min_dist))
        centers.append(nxt)
        np.minimum(min_dist, metric.distance_to_rows(rows[nxt], rows, cls.grid), out=min_dist)
    report = CoverReport(
        nu=float(nu),
        n_cover=len(centers),
        centers=tuple(centers),
        nu_log_n=float(nu * math.log(len(centers))),
    )
    if float(np.max(coverage_radii(cls, report, metric))) > nu:
        raise AssertionError("greedy cover failed its own coverage post-check")
    return report


def coverage_radii(cls: FunctionClass, report: CoverReport, metric: SemiMetric) -> np.ndarray:
    """Distance of each member to its nearest center; all must be <= nu."""
    rows = cls.values_matrix()
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
    radii = [r.nu for r in reports]
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("cover reports must come with strictly decreasing radii")
    rows = []
    for report in reports:
        for n, h, phi_h in ladder:
            speed = n * phi_h
            bound = n * h / math.exp(a_const * speed)
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


def write_cover_csv(
    reports: Sequence[CoverReport], path, admissible: Sequence[bool] | None = None
) -> None:
    """Write cover reports as ``nu,n_cover,nu_log_n,admissible_flag`` rows."""
    if admissible is not None and len(admissible) != len(reports):
        raise ValueError("admissible flags must match the reports one to one")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["nu", "n_cover", "nu_log_n", "admissible_flag"])
        for i, r in enumerate(reports):
            flag = "" if admissible is None else str(bool(admissible[i])).lower()
            writer.writerow([repr(r.nu), r.n_cover, repr(r.nu_log_n), flag])


def write_entropy_csv(rows: Sequence[dict], path) -> None:
    """Write the entropy cross table produced by ``entropy_diagnostics``."""
    fields = ["nu", "n_cover", "nu_log_n", "n", "h", "phi_h", "log_n_over_speed",
              "admissible"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([
                repr(row["nu"]), row["n_cover"], repr(row["nu_log_n"]), row["n"],
                repr(row["h"]), repr(row["phi_h"]), repr(row["log_n_over_speed"]),
                str(bool(row["admissible"])).lower(),
            ])
