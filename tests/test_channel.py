"""Link statistics, connectivity thresholds, and the ergodic-capacity oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from oracles import (QuadratureError, ergodic_capacity_exact, is_connected_fixed,
                     is_connected_mobile, mutual_information, sample_power_gain,
                     sample_power_gains)
from relaysim.channel import FixedLinkSampler, RateThreshold, coverage_radius

# E[log2(1 + c*g)], g ~ Exp(1), frozen from a 50-digit evaluation of
# exp(1/c)*E1(1/c)/ln2
ERGODIC_ORACLE = {
    0.001: 0.001441255222616438565649,
    1.0: 0.8603473822708859511902,
    100.0: 5.884048233683473454764,
    1e6: 19.09884293357537130895,
}


def test_power_gain_is_unit_mean_exponential():
    rng = np.random.default_rng(7)
    gains = sample_power_gains(rng, 10**6)
    assert gains.min() >= 0.0
    assert abs(gains.mean() - 1.0) < 0.01
    # second moment of Exp(1) is 2
    assert abs((gains**2).mean() - 2.0) < 0.05


def test_power_gain_golden_first_draw():
    # frozen on first execution; guards the stream contract under reseeding
    assert sample_power_gain(np.random.default_rng(42)) == 2.4042086039659947


def test_power_gain_tail_matches_one_over_beta():
    rng = np.random.default_rng(8)
    gains = sample_power_gains(rng, 10**6)
    for beta in (2.0, 10.0, 100.0):
        phat = np.mean(gains >= math.log(beta))
        sigma = math.sqrt((1 / beta) * (1 - 1 / beta) / gains.size)
        assert abs(phat - 1 / beta) <= 3 * sigma


def test_mutual_information_known_points():
    assert mutual_information(1.0, 1.0) == 1.0
    assert mutual_information(3.0, 1.0) == 2.0
    assert mutual_information(1.0, 0.0) == 0.0


def test_mutual_information_strictly_increasing():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = rng.uniform(0.1, 10.0)
        g = rng.uniform(0.0, 10.0)
        eps = 1e-6
        assert mutual_information(p + eps, g + eps) > mutual_information(p, g + eps)
        assert mutual_information(p, g + eps) > mutual_information(p, g)


def test_rate_threshold_fixed_relation():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = rng.uniform(0.1, 100.0)
        beta = rng.uniform(1.0, 1e6)
        r = RateThreshold.for_fixed(p, beta)
        # defining relation 2^rate - 1 = p*ln(beta) within 1e-12 relative
        lhs = 2.0**r.rate - 1.0
        rhs = p * math.log(beta)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_rate_threshold_mobile_relation():
    for n in (1, 2, 4):
        for beta in (1.0, 4.0, 1e3):
            r = RateThreshold.for_mobile(n, beta)
            assert r.rate == n * math.log2(beta)


def test_rate_threshold_rejects_bad_inputs():
    with pytest.raises(ValueError):
        RateThreshold(rate=1.0, beta=0.5)
    with pytest.raises(ValueError):
        RateThreshold(rate=-0.1, beta=2.0)
    with pytest.raises(ValueError):
        RateThreshold.for_fixed(0.0, 2.0)


def test_is_connected_fixed_boundary_and_interior():
    r = RateThreshold.for_fixed(1.0, math.e)  # rate 1 at p=1, gain threshold 1
    assert is_connected_fixed(r, 1.0, 1.0)    # boundary counts as connected
    assert not is_connected_fixed(r, 1.0, 0.9)
    assert is_connected_fixed(r, 1.0, 1.1)


def test_is_connected_fixed_agrees_with_rate_comparison():
    # threshold form and the log2 comparison must agree off the boundary
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        p = rng.uniform(0.5, 5.0)
        beta = rng.uniform(1.1, 50.0)
        gain = rng.exponential()
        r = RateThreshold.for_fixed(p, beta)
        via_rate = mutual_information(p, gain) >= r.rate - 1e-9
        via_threshold = is_connected_fixed(r, p, gain)
        if abs(gain - r.gain_threshold) > 1e-6:  # skip the float boundary
            assert via_threshold == (mutual_information(p, gain) >= r.rate) == via_rate


def test_connect_probability_is_exactly_one_over_beta():
    rng = np.random.default_rng(12)
    n = 10**6
    for beta in (1.5, 3.0, 30.0):
        r = RateThreshold.for_fixed(1.0, beta)
        gains = sample_power_gains(rng, n)
        hits = sum(is_connected_fixed(r, 1.0, g) for g in gains[:10_000])
        phat = hits / 10_000
        sigma = math.sqrt((1 / beta) * (1 - 1 / beta) / 10_000)
        assert abs(phat - 1 / beta) <= 4 * sigma


def test_coverage_radius_known_points():
    assert coverage_radius(1.0, 1.0, 2.0) == 1.0
    assert coverage_radius(16.0, 1.0, 4.0) == 2.0
    assert coverage_radius(1.0, 256.0, 4.0) == 0.25


def test_coverage_radius_rejects_bad_inputs():
    with pytest.raises(ValueError):
        coverage_radius(0.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        coverage_radius(1.0, 0.9, 2.0)
    with pytest.raises(ValueError):
        coverage_radius(1.0, 2.0, 0.0)


def test_is_connected_mobile_boundary_inclusive():
    r1 = RateThreshold.for_mobile(1, 1.0)
    assert is_connected_mobile(r1, 1.0, 0.5, 2.0)
    assert is_connected_mobile(r1, 1.0, 1.0, 2.0)  # d equal to radius connects
    r256 = RateThreshold.for_mobile(1, 256.0)
    assert not is_connected_mobile(r256, 1.0, 0.3, 4.0)  # radius is 0.25
    with pytest.raises(ValueError):
        is_connected_mobile(r1, 1.0, 0.0, 2.0)


def test_ergodic_capacity_against_oracle():
    for c, want in ERGODIC_ORACLE.items():
        got = ergodic_capacity_exact(p=c, d=1.0, alpha=2.0, n_subcarriers=1)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_ergodic_capacity_small_power_expansion():
    p = 1e-9
    got = ergodic_capacity_exact(p, 1.0, 2.0, 1)
    assert abs(got - p / math.log(2.0)) <= 0.01 * p / math.log(2.0)


def test_ergodic_capacity_linear_in_subcarriers():
    one = ergodic_capacity_exact(2.0, 0.7, 3.0, 1)
    four = ergodic_capacity_exact(2.0, 0.7, 3.0, 4)
    assert four == 4.0 * one


def test_ergodic_capacity_distance_enters_through_pathloss():
    # p/d^alpha is the only channel parameter: (p=4, d=2, alpha=2) == (p=1, d=1)
    a = ergodic_capacity_exact(4.0, 2.0, 2.0, 1)
    b = ergodic_capacity_exact(1.0, 1.0, 2.0, 1)
    assert abs(a - b) <= 1e-13


def test_ergodic_capacity_approximation_gap():
    # Jensen (log2 concave): capacity <= N*log2(1 + p/d^alpha). Against the
    # pathloss surrogate N*log2(p/d^alpha) the absolute gap tends to a
    # constant (gamma/ln2 bits, from E[log2 g] = -gamma/ln2), so the relative
    # gap shrinks along a geometric sweep once past the small-c crossover.
    rel_gaps = []
    for c in (32.0, 128.0, 512.0, 2048.0, 8192.0):
        exact = ergodic_capacity_exact(c, 1.0, 2.0, 1)
        assert exact <= math.log2(1.0 + c)
        rel_gaps.append(abs(exact - math.log2(c)) / exact)
    assert all(a > b for a, b in zip(rel_gaps, rel_gaps[1:]))
    gap_at_huge = ergodic_capacity_exact(1e9, 1.0, 2.0, 1) - math.log2(1e9)
    assert abs(gap_at_huge + 0.5772156649015329 / math.log(2.0)) < 1e-3


def test_ergodic_capacity_requires_certifiable_tail():
    with pytest.raises(QuadratureError):
        ergodic_capacity_exact(1.0, 1.0, 2.0, 1, upper=5.0)
    with pytest.raises(ValueError):
        ergodic_capacity_exact(1.0, 1.0, 2.0, 1, quadrature_nodes=8)
    with pytest.raises(ValueError):
        ergodic_capacity_exact(1.0, 0.0, 2.0, 1)


def test_ergodic_capacity_stable_at_16_nodes():
    for c in (1e-3, 1.0, 1e6):
        coarse = ergodic_capacity_exact(c, 1.0, 2.0, 1, quadrature_nodes=16)
        fine = ergodic_capacity_exact(c, 1.0, 2.0, 1, quadrature_nodes=64)
        assert abs(coarse - fine) <= 1e-10 * max(1.0, fine)


def test_link_sampler_matches_bernoulli_rate():
    rng = np.random.default_rng(13)
    sampler = FixedLinkSampler(RateThreshold.for_fixed(1.0, 8.0), rng)
    draws = np.concatenate([sampler.connected(1000) for _ in range(1000)])
    phat = draws.mean()
    sigma = math.sqrt((1 / 8.0) * (1 - 1 / 8.0) / draws.size)
    assert abs(phat - 1 / 8.0) <= 3 * sigma


def test_link_sampler_is_deterministic_under_seed():
    a = FixedLinkSampler(RateThreshold.for_fixed(1.0, 5.0), np.random.default_rng(3))
    b = FixedLinkSampler(RateThreshold.for_fixed(1.0, 5.0), np.random.default_rng(3))
    assert np.array_equal(a.connected(257), b.connected(257))


# ------------------------------------------------------- sparse link samplers


def chi2_pvalue(counts, expected):
    """Goodness-of-fit p-value after merging cells expected below 5."""
    counts, expected = np.asarray(counts, float), np.asarray(expected, float)
    keep_c, keep_e, acc_c, acc_e = [], [], 0.0, 0.0
    for c, e in zip(counts, expected):
        acc_c, acc_e = acc_c + c, acc_e + e
        if acc_e >= 5.0:
            keep_c.append(acc_c)
            keep_e.append(acc_e)
            acc_c = acc_e = 0.0
    keep_c[-1] += acc_c
    keep_e[-1] += acc_e
    return stats.chisquare(keep_c, keep_e).pvalue


def test_connected_ids_count_is_binomial():
    K, beta, frames = 1000, 100.0, 20000
    sampler = FixedLinkSampler(RateThreshold.for_fixed(1.0, beta),
                               np.random.default_rng(51))
    sizes = np.array([sampler.connected_ids(K).size for _ in range(frames)])
    support = np.arange(sizes.max() + 1)
    expected = frames * stats.binom.pmf(support, K, 1 / beta)
    expected[-1] += frames * stats.binom.sf(support[-1], K, 1 / beta)
    assert chi2_pvalue(np.bincount(sizes), expected) > 1e-3


def test_connected_ids_are_sorted_distinct_and_uniform():
    K, beta, frames = 40, 4.0, 20000
    sampler = FixedLinkSampler(RateThreshold.for_fixed(1.0, beta),
                               np.random.default_rng(52))
    hits = np.zeros(K)
    for _ in range(frames):
        ids = sampler.connected_ids(K)
        assert ids.dtype == np.int32
        assert np.all(np.diff(ids) > 0) and (ids.size == 0 or 0 <= ids[0] <= ids[-1] < K)
        hits[ids] += 1
    # every link connects with probability exactly 1/beta
    assert stats.chisquare(hits).pvalue > 1e-3
    assert abs(hits.sum() / (K * frames) - 1 / beta) < 4 * math.sqrt(
        (1 / beta) * (1 - 1 / beta) / (K * frames))


def test_connected_subsets_stop_at_first_empty_subcarrier():
    sampler = FixedLinkSampler(RateThreshold.for_fixed(1.0, 1.0),
                               np.random.default_rng(53))
    subsets = sampler.connected_subsets(7, 3)
    assert len(subsets) == 3
    assert all(np.array_equal(ids, np.arange(7)) for ids in subsets)
    never = FixedLinkSampler(RateThreshold.for_fixed(1.0, 1e9),
                             np.random.default_rng(54))
    assert never.connected_subsets(7, 3) is None


def test_any_connected_matches_one_minus_all_down():
    beta, frames = 8.0, 40000
    sampler = FixedLinkSampler(RateThreshold.for_fixed(1.0, beta),
                               np.random.default_rng(55))
    for count in (1, 5, 20):
        want = 1.0 - (1.0 - 1.0 / beta) ** count
        phat = np.mean([sampler.any_connected(count) for _ in range(frames)])
        assert abs(phat - want) <= 4 * math.sqrt(want * (1 - want) / frames)
    assert not sampler.any_connected(0)


def test_pick_connected_is_uniform_over_holders():
    # five holders among 1000 relays: mostly found by rejection, now and then
    # by the scan after a failed batch; both must give the same uniform law
    held = np.zeros(1000, dtype=np.int32)
    holders = np.array([3, 250, 251, 600, 999])
    held[holders] = [1, 4, 1, 2, 1]    # bank depth must not bias the pick
    sampler = FixedLinkSampler(RateThreshold.for_fixed(1.0, 4.0),
                               np.random.default_rng(56))
    picks = np.array([sampler.pick_connected(held, holders.size)
                      for _ in range(20000)])
    assert set(picks.tolist()) == set(holders.tolist())
    counts = np.array([np.count_nonzero(picks == k) for k in holders])
    assert stats.chisquare(counts).pvalue > 1e-3


def test_pick_connected_lone_holder():
    held = np.zeros(10_000, dtype=np.int32)
    held[4321] = 3
    sampler = FixedLinkSampler(RateThreshold.for_fixed(1.0, 2.0),
                               np.random.default_rng(57))
    assert all(sampler.pick_connected(held, 1) == 4321 for _ in range(50))


@pytest.mark.parametrize("beta", [1.0, 1e9])
def test_sparse_samplers_at_extreme_beta_raise_no_warning(beta):
    sampler = FixedLinkSampler(RateThreshold.for_fixed(1.0, beta),
                               np.random.default_rng(58))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids = sampler.connected_ids(500)
        hit = sampler.any_connected(500)
    if beta == 1.0:
        assert np.array_equal(ids, np.arange(500)) and hit
    else:
        assert ids.size == 0 and not hit
