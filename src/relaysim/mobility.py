"""Disk geometry with M equal-area vertical strips and the reflecting random walk.

The source sits at (-R, 0) and the destination at (R, 0), the two ends of the
horizontal diameter. Relays hop between adjacent strips with probability q per
frame (reflecting at the ends) and their exact coordinates are redrawn uniformly
within the current strip on every transition, self-transitions included, so
position is memoryless given the region index. Whether a relay sits inside a
coverage disk is therefore, in each frame, a Bernoulli draw whose probability
depends on its strip alone (coverage_probabilities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class DiskGeometry:
    radius: float
    n_regions: int
    boundaries: tuple  # x_0 = -R < x_1 < ... < x_M = R


def _area_left_of(x: float, radius: float) -> float:
    """Area of the disk slice left of the vertical line at abscissa x."""
    return x * math.sqrt(radius * radius - x * x) + radius * radius * (
        math.asin(x / radius) + math.pi / 2.0)


def build_geometry(radius: float, n_regions: int, tol: float = 1e-12) -> DiskGeometry:
    """Solve the equal-area strip boundaries by bisection on the segment area.

    tol is the area tolerance relative to the disk area; bisection that fails to
    reach it within 200 iterations raises (degenerate tol).
    """
    if radius <= 0.0 or n_regions < 2:
        raise ValueError(f"need radius > 0 and n_regions >= 2, got {(radius, n_regions)}")
    total = math.pi * radius * radius
    abs_tol = tol * total
    bounds = [-radius]
    for i in range(1, n_regions):
        target = total * i / n_regions
        lo, hi = -radius, radius
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            err = _area_left_of(mid, radius) - target
            if abs(err) <= abs_tol:
                break
            if err < 0.0:
                lo = mid
            else:
                hi = mid
        else:
            raise RuntimeError(
                f"equal-area bisection did not reach tol {tol} in 200 iterations")
        bounds.append(mid)
    bounds.append(radius)
    return DiskGeometry(radius=float(radius), n_regions=n_regions,
                        boundaries=tuple(bounds))


def strip_area(geom: DiskGeometry, region: int) -> float:
    x0, x1 = geom.boundaries[region - 1], geom.boundaries[region]
    return _area_left_of(x1, geom.radius) - _area_left_of(x0, geom.radius)


def step_regions(regions: np.ndarray, n_regions: int, q: float,
                 rng: np.random.Generator):
    """One frame of the reflecting walk for all relays, in place; returns
    the mover ids and their strips before the move.

    Each relay moves with probability 2q, independently, up or down with
    probability 1/2 each, and a move past strip 1 or M reflects into a stay.
    For 2q <= 1/8 the movers are a Binomial(K, 2q) count of distinct uniform
    ids with a fair bit each, at O(K q) cost; above, one uniform per relay is
    cheaper and gives both (up below q, down in [q, 2q)).
    """
    K = regions.size
    if 2.0 * q > 0.125:
        u = rng.random(K)
        movers = np.flatnonzero(u < 2.0 * q)
        up = u[movers] < q
    else:
        m = int(rng.binomial(K, 2.0 * q))
        movers = rng.choice(K, m, replace=False, shuffle=False)
        up = rng.random(m) < 0.5
    old = regions[movers]
    regions[movers] = np.minimum(np.maximum(old + 2 * up - 1, 1), n_regions)
    return movers, old


def sample_positions_in_region(geom: DiskGeometry, region: int, count: int,
                               rng: np.random.Generator):
    """`count` uniform points over strip-and-disk, by bounding-box rejection."""
    x0, x1 = geom.boundaries[region - 1], geom.boundaries[region]
    R = geom.radius
    if x0 < 0.0 < x1:
        ymax = R
    else:
        ymax = math.sqrt(R * R - min(x0 * x0, x1 * x1))
    xs = np.empty(count)
    ys = np.empty(count)
    filled = 0
    while filled < count:
        m = count - filled
        batch = m + (m >> 1) + 8
        cx = rng.uniform(x0, x1, batch)
        cy = rng.uniform(-ymax, ymax, batch)
        ok = np.flatnonzero(cx * cx + cy * cy <= R * R)[:m]
        xs[filled:filled + ok.size] = cx[ok]
        ys[filled:filled + ok.size] = cy[ok]
        filled += ok.size
    return xs, ys


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
    """
    R = geom.radius
    disk, src, dst = (0.0, R), (-R, radius_cov), (R, radius_cov)
    probs = [[0.0], [0.0], [0.0]]
    for r in range(1, geom.n_regions + 1):
        x0, x1 = geom.boundaries[r - 1], geom.boundaries[r]
        area = strip_area(geom, r)
        ps, pd = (min(_lens_area(x0, x1, (disk, end)) / area, 1.0) for end in (src, dst))
        pb = min(_lens_area(x0, x1, (disk, src, dst)) / area, 1.0) if ps and pd else 0.0
        for vec, value in zip(probs, (ps, pd, pb)):
            vec.append(value)
    return tuple(np.array(vec) for vec in probs)
