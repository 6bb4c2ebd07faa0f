"""Disk geometry with M equal-area vertical strips, and per-strip coverage.

The source sits at (-R, 0) and the destination at (R, 0), the two ends of the
horizontal diameter. A relay's position is uniform within its strip in every
frame, so whether it sits inside a coverage disk is a Bernoulli draw whose
probability depends on its strip alone (coverage_probabilities). Every law
depends on R only through (coverage radius)/R: the strips are solved on the
unit disk and scaled, and coverage is computed back on the unit disk. The
walk between strips lives in protocol.py, as counts of relays per strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

AREA_TOL = 1e-12 * math.pi    # bisection tolerance on the unit disk's area


@dataclass(frozen=True)
class DiskGeometry:
    radius: float
    n_regions: int
    boundaries: tuple  # x_0 = -R < x_1 < ... < x_M = R


def _area_left_of(x: float, radius: float) -> float:
    """Area of the disk slice left of the vertical line at abscissa x."""
    return x * math.sqrt(radius * radius - x * x) + radius * radius * (
        math.asin(x / radius) + math.pi / 2.0)


def build_geometry(radius: float, n_regions: int) -> DiskGeometry:
    """Solve the equal-area strip boundaries by bisection on the segment area,
    to within AREA_TOL: at most 40 halvings for every M from 2 to 399 and for
    M = 10^3, 4,096 and 10^5, so the cap of 200 never binds."""
    if radius <= 0.0 or n_regions < 2:
        raise ValueError(f"need radius > 0 and n_regions >= 2, got {(radius, n_regions)}")
    bounds = [-radius]
    for i in range(1, n_regions):    # on the unit disk, then scaled
        target = math.pi * i / n_regions
        lo, hi = -1.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            err = _area_left_of(mid, 1.0) - target
            if abs(err) <= AREA_TOL:
                break
            if err < 0.0:
                lo = mid
            else:
                hi = mid
        bounds.append(radius * mid)
    bounds.append(radius)
    return DiskGeometry(radius=float(radius), n_regions=n_regions,
                        boundaries=tuple(bounds))


def strip_area(geom: DiskGeometry, region: int) -> float:
    x0, x1 = geom.boundaries[region - 1], geom.boundaries[region]
    return _area_left_of(x1, geom.radius) - _area_left_of(x0, geom.radius)


def _lens_area(x0: float, x1: float, disks) -> float:
    """Area of the part of the strip x0 <= x <= x1 inside every disk.

    Disks are (centre on the x-axis, radius), so the area is the integral of
    2 min_i sqrt(r_i^2 - (x - c_i)^2) over their common x-range. The squared
    heights differ linearly in x, so the lowest disk changes only where two
    circles cross; between cuts each piece is a slice of one disk.
    """
    lo = max([x0] + [c - r for c, r in disks])
    hi = min([x1] + [c + r for c, r in disks])
    if lo >= hi:
        return 0.0
    cuts = [lo, hi]
    for (c1, r1), (c2, r2) in combinations(disks, 2):
        if c1 != c2:
            x = (r1 * r1 - r2 * r2 + c2 * c2 - c1 * c1) / (2.0 * (c2 - c1))
            if lo < x < hi:
                cuts.append(x)
    cuts.sort()
    area = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        c, r = min(disks, key=lambda d: d[1] * d[1] - (mid - d[0]) ** 2)
        # clamped, as rounding can put a cut a hair outside the disk
        area += (_area_left_of(min(b - c, r), r)
                 - _area_left_of(max(a - c, -r), r))
    return area


def coverage_probabilities(geom: DiskGeometry, radius_cov: float):
    """(p_src, p_dst, p_both), each indexed by strip 1..M (entry 0 unused):
    the probabilities that a uniform point of strip r lies within radius_cov
    of the source, of the destination, and of both, as exact area ratios.
    They are computed on the unit disk for the radius radius_cov / R, capped
    at 2, where a coverage disk already holds the whole unit disk.
    """
    R = geom.radius
    unit = DiskGeometry(1.0, geom.n_regions, tuple(x / R for x in geom.boundaries))
    ratio = min(radius_cov / R, 2.0)
    disk, src, dst = (0.0, 1.0), (-1.0, ratio), (1.0, ratio)
    probs = [[0.0], [0.0], [0.0]]
    for r in range(1, geom.n_regions + 1):
        x0, x1 = unit.boundaries[r - 1], unit.boundaries[r]
        area = strip_area(unit, r)
        ps, pd = (min(_lens_area(x0, x1, (disk, end)) / area, 1.0) for end in (src, dst))
        pb = min(_lens_area(x0, x1, (disk, src, dst)) / area, 1.0) if ps and pd else 0.0
        for vec, value in zip(probs, (ps, pd, pb)):
            vec.append(value)
    return tuple(np.array(vec) for vec in probs)
