"""Closed-form predictions: frozen oracles, exact identities, scaling laws."""

import math

import numpy as np
import pytest

from oracles import (CoverageModelError, expected_covered_relays,
                     flow_balance_residual, occupancy_limit)
from relaysim.analytics import (baseline_fixed_prediction,
                                baseline_mobile_prediction, c_of, delta_of,
                                occupancy_alpha, odwf_fixed_prediction,
                                odwf_mobile_prediction, p_rd)

# frozen from 50-digit evaluations
DELTA_1E6 = 0.6321207427683549057142          # delta(beta=1e6, K=1e6)
C_OF = {1: 0.6931471805599453094172, 2: 1.227947177299515679941,
        4: 1.838199812488795734973, 8: 2.488963385681362861799}
# fixed point at K=1e4, beta=2000, N=2
FP_DELTA = 0.993270472977857040102
FP_P_RD = 0.4966239151135328294697
FP_ALPHA = 0.2439021902320154032891


def test_delta_known_points():
    assert delta_of(1.0, 17) == 1.0
    assert abs(delta_of(1e6, 1e6) - DELTA_1E6) < 1e-6
    # first-order regime: delta ~ K/beta
    assert abs(delta_of(1e9, 1e3) - 1e-6) <= 1e-3 * 1e-6
    with pytest.raises(ValueError):
        delta_of(0.5, 10)
    with pytest.raises(ValueError):
        delta_of(math.nan, 10)
    with pytest.raises(ValueError):
        delta_of(2.0, 0)


def test_delta_monotone_and_bounded():
    rng = np.random.default_rng(16)
    for _ in range(300):
        beta = rng.uniform(1.0, 1e4)
        K = int(rng.integers(1, 10**6))
        d = delta_of(beta, K)
        assert 0.0 <= d <= 1.0
        assert delta_of(beta, K + 1) >= d          # more relays help
        assert delta_of(beta * 1.1, K) <= d + 1e-15  # higher threshold hurts


def test_p_rd_known_points():
    assert p_rd(1.0, 5, 3) == 0.5            # delta = 1
    assert abs(p_rd(2.0, 1, 1) - 1.0 / 3.0) < 1e-15  # delta = 0.5, N=1


def test_p_rd_bounded_by_half():
    rng = np.random.default_rng(17)
    for _ in range(300):
        beta = rng.uniform(1.0 + 1e-9, 1e5)
        K = int(rng.integers(1, 10**5))
        N = int(rng.integers(1, 9))
        val = p_rd(beta, K, N)
        assert 0.0 <= val <= 0.5
        if delta_of(beta, K) < 1.0:
            assert val < 0.5


def test_c_of_frozen_values():
    for n, want in C_OF.items():
        assert abs(c_of(n) - want) < 1e-15
    with pytest.raises(ValueError):
        c_of(0)


def test_occupancy_fixed_point_values():
    assert abs(delta_of(2000.0, 10**4) - FP_DELTA) < 1e-14
    assert abs(p_rd(2000.0, 10**4, 2) - FP_P_RD) < 1e-14
    val, singular = occupancy_alpha(2000.0, 10**4, 2)
    assert not singular
    assert abs(val - FP_ALPHA) < 1e-14


def test_occupancy_singular_at_beta_one():
    val, singular = occupancy_alpha(1.0, 100, 2)
    assert singular and val == 1.0


def test_occupancy_flow_balance_residual():
    rng = np.random.default_rng(18)
    for _ in range(200):
        beta = rng.uniform(1.5, 1e5)
        K = int(rng.integers(2, 10**6))
        N = int(rng.integers(1, 5))
        assert abs(flow_balance_residual(beta, K, N)) <= 1e-12


def test_occupancy_within_bounds_and_limit():
    # the companion (beta/K)*c converges along beta = sqrt(K) -> infinity
    # (the error is ~1/(2*beta), so beta must grow, not just K)
    for N in (1, 2, 4):
        errors = []
        for K in (10**4, 10**6, 10**8, 10**10):
            beta = math.sqrt(K)
            val, _ = occupancy_alpha(beta, K, N)
            assert 0.0 <= val <= 1.0
            errors.append(abs(occupancy_limit(beta, K, N) / val - 1.0))
        assert errors[-1] < 1e-3
        assert all(b <= a for a, b in zip(errors, errors[1:]))
    assert abs(occupancy_limit(10.0, 100.0, 1) - 0.1 * math.log(2.0)) < 1e-15


def test_occupancy_survives_float_saturated_delta():
    # K large enough that (1-1/beta)^K underflows: delta rounds to 1.0 but
    # the log-domain evaluation stays finite and positive
    val, singular = occupancy_alpha(1.01, 10**6, 2)
    assert not singular
    assert delta_of(1.01, 10**6) == 1.0
    assert 0.0 < val < 1e-3


def test_odwf_fixed_prediction_values():
    pred = odwf_fixed_prediction(10**4, 1, 1.0, 100.0)
    assert abs(pred.c - math.log(2.0)) < 1e-15
    assert abs(pred.D - 1.386294361119890618834) < 1e-12  # 2*ln2*1e4/1e4
    assert abs(pred.T - 0.5 * math.log2(1.0 + math.log(100.0))) < 1e-15
    assert abs(pred.T_max - 0.5 * math.log2(1.0 + math.log(10**4))) < 1e-15
    assert pred.validity == frozenset({"beta_over_K_vanishes"})


def test_odwf_fixed_delay_floors_at_one():
    pred = odwf_fixed_prediction(10**6, 2, 1.0, 10.0)  # 2c*beta^2/K << 1
    assert pred.D == 1.0


def test_odwf_fixed_finite_k_matches_balanced_limit():
    # in the balanced regime P_RD -> 1/2 and the finite-K throughput
    # N*P_RD*r approaches (N/2)*r from below
    pred = odwf_fixed_prediction(10**6, 2, 1.0, 1000.0)
    assert pred.T_finite_K <= pred.T
    assert abs(pred.T_finite_K / pred.T - 1.0) < 1e-6


def test_odwf_fixed_approaches_ceiling():
    # T(beta = K^(1-eps)) climbs to T_max as eps shrinks
    K = 10**6
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05, 0.01):
        pred = odwf_fixed_prediction(K, 2, 1.0, K ** (1.0 - eps))
        assert pred.T <= pred.T_max
        gaps.append(pred.T_max - pred.T)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert "ln_beta_over_ln_K_is_1" in odwf_fixed_prediction(
        K, 2, 1.0, K ** 0.999).validity


def test_baseline_fixed_prediction_values():
    pred = baseline_fixed_prediction(math.e**2, 2, 1.0)
    assert abs(pred.T - 1.0) < 1e-12   # ln sqrt(e^2) = 1, log2(2) = 1
    assert pred.D == 1.0
    assert abs(pred.beta_opt - math.sqrt(math.e**2) / 2.0) < 1e-12


def test_half_relays_ceiling_identity_exact():
    # ODWF ceiling with sqrt(K) relays equals baseline throughput with K,
    # bit-exact across the grid
    for K in (10**2, 10**4, 10**6, 10**8):
        odwf = odwf_fixed_prediction(math.sqrt(K), 4, 2.0, 2.0)
        base = baseline_fixed_prediction(K, 4, 2.0)
        assert odwf.T_max == base.T


def test_odwf_mobile_prediction_values():
    pred = odwf_mobile_prediction(10**4, 2, 4.0, 4.0, 0.1)
    assert pred.T == 2.0                     # (N/2) log2(4)
    assert "orderwise_only" in pred.validity
    pred = odwf_mobile_prediction(10**4, 1, 2.0, 50.0, 0.1)
    assert abs(pred.T_max - 6.643856189774724695741) < 1e-12
    with pytest.raises(ValueError):
        odwf_mobile_prediction(10**4, 1, 2.0, 4.0, 0.0)
    with pytest.raises(ValueError):
        odwf_mobile_prediction(10**4, 1, 1.5, 4.0, 0.1)


def test_odwf_mobile_delay_crossover():
    # beta^(4/alpha) = K puts both delay branches at 1/q
    K, alpha, q = 10**4, 4.0, 0.05
    pred = odwf_mobile_prediction(K, 1, alpha, float(K), q)
    assert abs(pred.D - 1.0 / q) < 1e-9
    slow = odwf_mobile_prediction(K, 1, alpha, float(K) * 16, q)
    assert slow.D > pred.D


def test_odwf_mobile_achievability_ratio():
    # with beta = (K/ln^2 K)^(alpha/2), T/T_max -> 1 along a K sweep; the
    # gap closes like loglog(K)/log(K) so the sweep must reach huge K
    alpha = 4.0
    ratios = []
    for K in (1e3, 1e6, 1e12, 1e24, 1e48, 1e96):
        beta = (K / math.log(K) ** 2) ** (alpha / 2.0)
        pred = odwf_mobile_prediction(K, 1, alpha, beta, 0.1)
        ratios.append(pred.T / pred.T_max)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.9


def test_baseline_mobile_regimes():
    # bounded: x = q*K^(1/(M-1)) stays small
    pred = baseline_mobile_prediction(10**4, 1, 4.0, 2, 1.0 / 10**4)
    assert abs(pred.T_max - 1.0) < 1e-12     # x = 1 exactly
    assert "indeterminate_regime" in pred.validity
    assert "orderwise_only" in pred.validity
    # divergent: x large
    pred = baseline_mobile_prediction(10**6, 1, 4.0, 3, 0.1)
    x = 0.1 * (10**6) ** 0.5
    assert abs(pred.T_max - math.log2(10**6)) < 1e-12
    assert pred.D == 1.0
    assert abs(pred.beta_opt - x) < 1e-9     # alpha/4 = 1
    assert "indeterminate_regime" not in pred.validity
    # deep bounded regime: delay blows up as 1/(K q^(M-1))
    pred = baseline_mobile_prediction(10**6, 1, 4.0, 5, 0.001)
    assert pred.D == 1.0 / (10**6 * 0.001**4)
    with pytest.raises(ValueError):
        baseline_mobile_prediction(10**4, 1, 4.0, 1, 0.1)


def test_baseline_mobile_gain_shape():
    # ODWF ceiling over baseline ceiling grows like log2(K)/x in the slow
    # regime, so the measured gain ratio must increase along a K sweep
    gains = []
    for K in (10**2, 10**3, 10**4):
        q = 1.0 / K
        odwf = odwf_mobile_prediction(K, 1, 4.0, float(K), q)
        base = baseline_mobile_prediction(K, 1, 4.0, 2, q)
        gains.append(odwf.T_max / base.T_max)
    assert all(b > a for a, b in zip(gains, gains[1:]))


def test_expected_covered_relays():
    assert expected_covered_relays(10**4, 1.0, 16.0, 4.0, 1.0) == 1250.0
    assert abs(expected_covered_relays(100, 1.0, 1.0, 2.0, 1.0) - 50.0) < 1e-12
    small = expected_covered_relays(100, 1.0, 1e8, 2.0, 1.0)
    assert small < 1e-4
    with pytest.raises(CoverageModelError):
        expected_covered_relays(100, 16.0, 1.0, 2.0, 1.0)  # d = 4 > R


def test_expected_covered_matches_monte_carlo():
    # cross-check the d^2/(2R^2) area ratio by point counting; the closed
    # form is the small-d lens limit, ~2% high at d = 0.1R, so compare
    # relative at 5%
    from oracles import uniform_disk
    rng = np.random.default_rng(19)
    K, p, beta, alpha, R = 2000, 1.0, 10**4, 4.0, 1.0
    d = (p / beta) ** (1.0 / alpha)
    assert d == pytest.approx(0.1)
    hits = 0
    trials = 2000
    for _ in range(trials):
        xs, ys = uniform_disk(R, K, rng)
        hits += int(np.count_nonzero((xs + R) ** 2 + ys**2 <= d * d))
    want = expected_covered_relays(K, p, beta, alpha, R)
    got = hits / trials
    assert want == pytest.approx(10.0)
    assert abs(got - want) / want <= 0.05


def test_predictions_carry_probability_bounds():
    rng = np.random.default_rng(20)
    for _ in range(100):
        K = int(rng.integers(2, 10**6))
        N = int(rng.integers(1, 6))
        beta = rng.uniform(1.0, 5000.0)
        pred = odwf_fixed_prediction(K, N, 1.0, beta)
        assert 0.0 <= pred.delta <= 1.0
        assert 0.0 <= pred.P_RD <= 0.5
        assert 0.0 <= pred.occupancy_alpha <= 1.0
        assert pred.D >= 1.0
