"""Disk geometry, equal-area strips, the reflecting region walk, sampling,
and the per-strip coverage probabilities."""

import math

import numpy as np
import pytest
from scipy import stats

from oracles import (RelayPosition, coverage_window, destination_position,
                     distance_to_destination, distance_to_source, init_regions,
                     init_relays, region_of, sample_position_in_region,
                     sample_positions_in_region, source_position, step_region,
                     step_regions, transition_matrix)
from relaysim.channel import coverage_radius
from relaysim.mobility import build_geometry, coverage_probabilities, strip_area

# interior boundaries for R=1 frozen from 50-digit root-finding on the
# circular-segment area equation
X_M4 = 0.403972753299517209319
X_M8 = (-0.6347045939761929848403, -0.403972753299517209319,
        -0.1976439531556595252858, 0.0, 0.1976439531556595252858,
        0.403972753299517209319, 0.6347045939761929848403)


def chi2_uniform_ok(counts, alpha=0.01):
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / counts.size
    chi2 = ((counts - expected) ** 2 / expected).sum()
    return chi2 <= stats.chi2.ppf(1.0 - alpha, df=counts.size - 1)


def test_geometry_m2_is_symmetric():
    for R in (1.0, 2.0):
        geom = build_geometry(R, 2)
        assert geom.boundaries[0] == -R and geom.boundaries[2] == R
        assert abs(geom.boundaries[1]) < 1e-12 * R


def test_geometry_m4_matches_root_oracle():
    geom = build_geometry(1.0, 4)
    inner = geom.boundaries[1:-1]
    assert abs(inner[0] + X_M4) < 1e-10
    assert abs(inner[1]) < 1e-10
    assert abs(inner[2] - X_M4) < 1e-10


def test_geometry_m8_matches_root_oracle():
    geom = build_geometry(1.0, 8)
    for got, want in zip(geom.boundaries[1:-1], X_M8):
        assert abs(got - want) < 1e-10


def test_geometry_equal_areas_up_to_m64():
    for M in (2, 3, 5, 16, 64):
        geom = build_geometry(1.0, M)
        target = math.pi / M
        for region in range(1, M + 1):
            assert abs(strip_area(geom, region) - target) <= 1e-10 * target
        bounds = geom.boundaries
        assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_geometry_scales_with_radius():
    unit = build_geometry(1.0, 6)
    scaled = build_geometry(3.5, 6)
    for a, b in zip(unit.boundaries, scaled.boundaries):
        assert abs(b - 3.5 * a) < 1e-9


def test_geometry_source_destination_endpoints():
    geom = build_geometry(2.0, 3)
    assert source_position(geom) == (-2.0, 0.0)
    assert destination_position(geom) == (2.0, 0.0)


def test_geometry_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        build_geometry(0.0, 4)
    with pytest.raises(ValueError):
        build_geometry(1.0, 1)


def test_region_of_covers_all_strips():
    geom = build_geometry(1.0, 5)
    for region in range(1, 6):
        mid = 0.5 * (geom.boundaries[region - 1] + geom.boundaries[region])
        assert region_of(geom, mid) == region
    assert region_of(geom, -1.0) == 1
    assert region_of(geom, 1.0) == 5


def test_step_region_frozen_at_q_zero():
    rng = np.random.default_rng(0)
    assert all(step_region(3, 5, 0.0, rng) == 3 for _ in range(100))


def test_step_region_reflects_at_boundary():
    # from region 1 the only moves are stay (1-q) and up (q)
    rng = np.random.default_rng(1)
    n = 10**6
    ups = sum(step_region(1, 5, 0.3, rng) == 2 for _ in range(10_000))
    phat = ups / 10_000
    sigma = math.sqrt(0.3 * 0.7 / 10_000)
    assert abs(phat - 0.3) <= 3 * sigma
    stepped = np.ones(n, dtype=np.int64)
    step_regions(stepped, 5, 0.3, np.random.default_rng(2))
    assert set(np.unique(stepped)) <= {1, 2}
    assert abs(np.mean(stepped == 2) - 0.3) <= 3 * sigma / 10  # n is 100x larger


def test_step_regions_matches_transition_matrix_rows():
    # q = 0.2 draws one uniform per relay, q = 0.02 a Binomial count of movers
    # and a direction bit each; both must give the matrix rows and report
    # exactly the relays that moved, with their strips before the move
    rng = np.random.default_rng(3)
    M, n = 4, 200_000
    for q in (0.2, 0.02):
        Q = transition_matrix(M, q)
        for start in range(1, M + 1):
            stepped = np.full(n, start, dtype=np.int64)
            movers, old = step_regions(stepped, M, q, rng)
            assert np.array_equal(old, np.full(movers.size, start))
            assert np.unique(movers).size == movers.size
            assert np.all(np.delete(stepped, movers) == start)
            assert abs(movers.size - 2 * q * n) <= 4 * math.sqrt(2 * q * (1 - 2 * q) * n)
            freq = np.bincount(stepped, minlength=M + 1)[1:] / n
            for j in range(M):
                sigma = math.sqrt(Q[start - 1, j] * (1 - Q[start - 1, j]) / n)
                assert abs(freq[j] - Q[start - 1, j]) <= 4 * sigma + 1e-12


def test_transition_matrix_doubly_stochastic():
    for M, q in ((2, 0.5), (5, 0.1), (10, 0.01)):
        Q = transition_matrix(M, q)
        assert np.allclose(Q.sum(axis=0), 1.0)
        assert np.allclose(Q.sum(axis=1), 1.0)
        assert np.all(Q >= 0.0)
    with pytest.raises(ValueError):
        transition_matrix(4, 0.6)


def test_walk_preserves_uniform_ensemble():
    # uniform is stationary for the doubly stochastic walk: start an ensemble
    # exactly uniform, step it, and the counts stay multinomial-uniform
    for M, q in ((2, 0.5), (5, 0.1), (10, 0.01)):
        rng = np.random.default_rng(100 + M)
        n = 20_000 * M
        regions = np.repeat(np.arange(1, M + 1, dtype=np.int64), n // M)
        for _ in range(5):
            step_regions(regions, M, q, rng)
        counts = np.bincount(regions, minlength=M + 1)[1:]
        assert chi2_uniform_ok(counts)


def test_walk_flows_balance_across_boundaries():
    # reversibility: crossings i -> i+1 match i+1 -> i within 3 sigma
    M, q, steps = 5, 0.25, 10**6
    rng = np.random.default_rng(9)
    regions = init_regions(build_geometry(1.0, M), 64, rng)
    up = np.zeros(M + 1, dtype=np.int64)
    down = np.zeros(M + 1, dtype=np.int64)
    for _ in range(steps // 64):
        stepped = regions.copy()
        step_regions(stepped, M, q, rng)
        for b in range(1, M):
            up[b] += int(np.count_nonzero((regions == b) & (stepped == b + 1)))
            down[b] += int(np.count_nonzero((regions == b + 1) & (stepped == b)))
        regions = stepped
    for b in range(1, M):
        total = up[b] + down[b]
        assert abs(up[b] - down[b]) <= 3 * math.sqrt(total)


def test_positions_stay_in_strip():
    geom = build_geometry(1.0, 2)
    rng = np.random.default_rng(4)
    xs, ys = sample_positions_in_region(geom, 1, 10_000, rng)
    assert np.all(xs >= -1.0) and np.all(xs <= 0.0)
    assert np.all(xs * xs + ys * ys <= 1.0)
    pos = sample_position_in_region(geom, 2, rng)
    assert pos.region == 2
    assert 0.0 <= pos.coords[0] <= 1.0
    with pytest.raises(ValueError):
        sample_position_in_region(geom, 3, rng)


def test_positions_symmetric_in_y():
    geom = build_geometry(1.0, 5)
    rng = np.random.default_rng(5)
    for region in (1, 3):
        xs, ys = sample_positions_in_region(geom, region, 10**6, rng)
        sigma = ys.std() / math.sqrt(ys.size)
        assert abs(ys.mean()) <= 3 * sigma


def test_positions_uniform_over_subrectangle():
    # fraction landing in a sub-rectangle of the strip matches its area share
    geom = build_geometry(1.0, 4)
    rng = np.random.default_rng(6)
    xs, ys = sample_positions_in_region(geom, 2, 10**6, rng)
    x0, x1 = geom.boundaries[1], geom.boundaries[2]  # strip 2 bounds
    # rectangle fully inside strip-and-disk: x in [x0, x1], |y| <= 0.5
    box = (ys >= -0.5) & (ys <= 0.5)
    assert np.all(np.abs(np.array([x0, x1])) <= math.sqrt(1 - 0.25))
    want = (x1 - x0) * 1.0 / strip_area(geom, 2)
    phat = box.mean()
    sigma = math.sqrt(want * (1 - want) / xs.size)
    assert abs(phat - want) <= 3 * sigma


def test_init_relays_uniform_on_disk():
    geom = build_geometry(1.0, 8)
    rng = np.random.default_rng(7)
    regions = init_regions(geom, 10**6, rng)
    counts = np.bincount(regions, minlength=9)[1:]
    assert chi2_uniform_ok(counts)
    relays = init_relays(geom, 50_000, rng)
    r2 = np.array([x * x + y * y for _, (x, y) in
                   ((p.region, p.coords) for p in relays)])
    assert np.all(r2 <= 1.0)
    # E[r^2] = R^2/2 for uniform disk; var(r^2) = 1/12
    sigma = math.sqrt(1.0 / 12.0 / r2.size)
    assert abs(r2.mean() - 0.5) <= 3 * sigma
    for p in relays[:200]:
        assert region_of(geom, p.coords[0]) == p.region


def test_distances_to_endpoints():
    geom = build_geometry(1.0, 2)
    center = RelayPosition(region=1, coords=(0.0, 0.0))
    assert distance_to_source(geom, center) == 1.0
    assert distance_to_destination(geom, center) == 1.0
    at_source = RelayPosition(region=1, coords=(-1.0, 0.0))
    assert distance_to_source(geom, at_source) == 0.0
    assert distance_to_destination(geom, at_source) == 2.0
    top = RelayPosition(region=1, coords=(0.0, 1.0))
    assert abs(distance_to_source(geom, top) - math.sqrt(2.0)) < 1e-15
    assert abs(distance_to_destination(geom, top) - math.sqrt(2.0)) < 1e-15


def test_coverage_window_brackets_reachable_strips():
    geom = build_geometry(1.0, 5)
    src_max, dest_min = coverage_window(geom, 0.1)
    assert (src_max, dest_min) == (1, 5)
    src_max, dest_min = coverage_window(geom, 2.0)  # whole disk reachable
    assert (src_max, dest_min) == (5, 1)
    # window is sound: any sampled point inside coverage lies in the window
    rng = np.random.default_rng(10)
    d = 0.8
    src_max, dest_min = coverage_window(geom, d)
    for region in range(1, 6):
        xs, ys = sample_positions_in_region(geom, region, 2000, rng)
        covered_src = (xs + 1.0) ** 2 + ys**2 <= d * d
        covered_dst = (xs - 1.0) ** 2 + ys**2 <= d * d
        if region > src_max:
            assert not covered_src.any()
        if region < dest_min:
            assert not covered_dst.any()


@pytest.mark.parametrize("M", [2, 5])
def test_coverage_probabilities_match_sampled_positions(M):
    # uniform points of each strip, counted inside source coverage,
    # destination coverage and both; the radii run from small disks to
    # windows that overlap, through middle strips that meet both disks
    # partially, to coverage of the whole disk (p = 32, beta = 2)
    geom = build_geometry(1.0, M)
    rng = np.random.default_rng(200 + M)
    n = 100_000
    for p, beta in ((1.0, 10**5), (1.0, 100.0), (1.0, 2.0), (2.0, 1.5),
                    (4.0, 2.0), (32.0, 2.0)):
        cov = coverage_radius(p, beta, 4.0)
        p_src, p_dst, p_both = coverage_probabilities(geom, cov)
        assert p_src[0] == p_dst[0] == p_both[0] == 0.0
        # mirror symmetry: the destination sees strip r as the source sees M+1-r
        assert np.allclose(p_src[1:], p_dst[:0:-1], rtol=1e-12, atol=1e-15)
        src_max, dest_min = coverage_window(geom, cov)
        assert int(np.flatnonzero(p_src)[-1]) == src_max
        assert int(np.flatnonzero(p_dst)[0]) == dest_min
        for r in range(1, M + 1):
            xs, ys = sample_positions_in_region(geom, r, n, rng)
            in_src = (xs + 1.0) ** 2 + ys ** 2 <= cov * cov
            in_dst = (xs - 1.0) ** 2 + ys ** 2 <= cov * cov
            for want, hits in ((p_src[r], in_src), (p_dst[r], in_dst),
                               (p_both[r], in_src & in_dst)):
                assert 0.0 <= want <= 1.0
                sigma = math.sqrt(want * (1.0 - want) / n)
                assert abs(hits.mean() - want) <= 4.5 * sigma + 1e-12, (beta, r)


def test_coverage_probabilities_see_R_only_through_the_ratio():
    # the same laws at any R for the radius cov * R, down to no coverage at
    # all, and every relay in both disks from a radius of 2R up
    unit = coverage_probabilities(build_geometry(1.0, 5), 0.7)
    for R in (3.5, 1e-200, 1e200):
        scaled = coverage_probabilities(build_geometry(R, 5), 0.7 * R)
        for want, got in zip(unit, scaled):
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    for probs in coverage_probabilities(build_geometry(1e200, 5), 0.7):
        assert not probs.any()
    for cov in (2.0, 5.0, math.inf):
        for probs in coverage_probabilities(build_geometry(1.0, 5), cov):
            assert probs[1:].tolist() == [1.0] * 5
