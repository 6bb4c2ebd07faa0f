"""Closed-form throughput, delay, and occupancy predictions for both scenarios.

Every formula the simulator is validated against lives here as a stateless
function. Orderwise results are materialized with unit constants and carry the
"orderwise_only" flag; tests against them compare slopes and ratios, never
absolute values. Asymptotic validity conditions are evaluated as finite-size
ratio thresholds (ratio <= 0.01 counts as satisfied) and reported as flags,
never silently assumed. Each domain check is negated so that NaN fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import fixed_link

# a finite-size ratio below this stands in for "vanishes in the limit"
VALIDITY_RATIO = 0.01

FLAG_BETA_OVER_K_VANISHES = "beta_over_K_vanishes"
FLAG_LN_BETA_LN_K = "ln_beta_over_ln_K_is_1"
FLAG_ORDERWISE = "orderwise_only"
FLAG_INDETERMINATE = "indeterminate_regime"


@dataclass(frozen=True)
class Prediction:
    """Closed-form point prediction. Fields a scheme does not predict are None.

    validity holds the asymptotic conditions satisfied at these parameters
    plus markers: "orderwise_only" when any value has an unknown constant,
    "indeterminate_regime" when the parameters fall between regime limits.
    """

    T: float | None = None
    T_max: float | None = None
    D: float | None = None
    P_RD: float | None = None
    occupancy_alpha: float | None = None
    delta: float | None = None
    c: float | None = None
    T_finite_K: float | None = None
    beta_opt: float | None = None
    validity: frozenset = field(default_factory=frozenset)


def delta_of(beta: float, K: float) -> float:
    """P(some relay of K connects on one subcarrier) = 1 - (1 - 1/beta)^K."""
    if not beta >= 1.0:    # NaN too: fixed_link would read it as beta = 1
        raise ValueError(f"beta must be >= 1, got {beta}")
    if not K >= 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return -math.expm1(K * fixed_link(beta)[1])    # K * -inf at beta = 1: exactly 1


def p_rd(beta: float, K: float, N: int) -> float:
    """Stationary relay-transmit frame frequency delta^N / (1 + delta^N)."""
    dN = delta_of(beta, K) ** N
    return dN / (1.0 + dN)


def occupancy_alpha(beta: float, K: float, N: int) -> tuple[float, bool]:
    """Stationary fraction of relays holding packets, per subcarrier.

    Returns (value, singular). The value solves the flow-balance fixed point:
    ln[1 - delta/(1+delta^N)^(1/N)] / ln(1-delta). At beta = 1 the expression
    is singular; the limiting value 1 is returned with singular=True.
    """
    if beta == 1.0:
        return 1.0, True
    d = delta_of(beta, K)
    num = math.log1p(-d * (1.0 + d ** N) ** (-1.0 / N))
    # K*log1p(-1/beta) never cancels, unlike log(1 - delta_of(...))
    return num / (K * fixed_link(beta)[1]), False


def c_of(N: int) -> float:
    """ln(2^(1/N) / (2^(1/N) - 1)), the occupancy/delay constant."""
    if not N >= 1:
        raise ValueError(f"N must be >= 1, got {N}")
    t = math.log(2.0) / N
    return t - math.log(math.expm1(t))


def odwf_fixed_prediction(K: float, N: int, p: float, beta: float) -> Prediction:
    """Fixed-relay ODWF: throughput, its ceiling, and the buffering delay.

    T = (N/2)*log2(1 + p*ln(beta)), valid when beta/K vanishes;
    T_max = (N/2)*log2(1 + p*ln(K)) at the optimal threshold beta = K;
    D = max(1, 2*c*beta^2/K). The finite-K throughput
    N*P_RD*log2(1 + p*ln(beta)) is reported alongside.
    """
    if not K >= 2:
        raise ValueError(f"K must be >= 2, got {K}")
    c = c_of(N)
    prd = p_rd(beta, K, N)
    occ, _ = occupancy_alpha(beta, K, N)
    per_packet = math.log2(1.0 + p * math.log(beta))
    flags = set()
    if beta / K <= VALIDITY_RATIO:
        flags.add(FLAG_BETA_OVER_K_VANISHES)
    if beta > 1.0 and abs(math.log(beta) / math.log(K) - 1.0) <= VALIDITY_RATIO:
        flags.add(FLAG_LN_BETA_LN_K)
    return Prediction(
        T=N / 2.0 * per_packet,
        T_max=N / 2.0 * math.log2(1.0 + p * math.log(K)),
        D=max(1.0, 2.0 * c * beta ** 2 / K),
        P_RD=prd,
        occupancy_alpha=occ,
        delta=delta_of(beta, K),
        c=c,
        T_finite_K=N * prd * per_packet,
        validity=frozenset(flags),
    )


def baseline_fixed_prediction(K: float, N: int, p: float) -> Prediction:
    """Fixed-relay baseline at its asymptotically optimal threshold
    beta* = sqrt(K)/ln(K). At finite K a larger beta can do better: with
    N = 2, p = 10^8 and K = 10^4 to 10^8, frames alternate inject/deliver
    at each of (1/2, 1, 2)*beta*, so T = (N/2)*log2(1 + p*ln(beta)) rises
    with beta across them.

    T = (N/2)*log2(1 + p*ln(sqrt(K))) and D = 1: a batch rarely needs more
    than one relay-transmit frame, so frames alternate inject/deliver.
    The ln(sqrt(K)) is evaluated as log(sqrt(K)) so that the half-relay
    equivalence T == odwf_fixed_prediction(sqrt(K), ...).T_max is bit-exact.
    """
    if not K >= 2:
        raise ValueError(f"K must be >= 2, got {K}")
    T = N / 2.0 * math.log2(1.0 + p * math.log(math.sqrt(K)))
    return Prediction(T=T, T_max=T, D=1.0, beta_opt=math.sqrt(K) / math.log(K))


def odwf_mobile_prediction(K: float, N: int, alpha: float, beta: float,
                           q: float) -> Prediction:
    """Mobile-relay ODWF: T = (N/2)*log2(beta), valid when beta^(2/alpha)/K
    vanishes; T_max = (N*alpha/4)*log2(K) at beta = K^(alpha/2);
    D = max(beta^(4/alpha)/(K*q), 1/q) up to an unknown constant.
    """
    if not q > 0.0:
        raise ValueError(f"q must be > 0, got {q}")
    if not alpha >= 2.0:
        raise ValueError(f"alpha must be >= 2, got {alpha}")
    flags = {FLAG_ORDERWISE}
    if beta ** (2.0 / alpha) / K <= VALIDITY_RATIO:
        flags.add(FLAG_BETA_OVER_K_VANISHES)
    log_beta_opt = alpha / 2.0 * math.log(K)
    if beta > 1.0 and abs(math.log(beta) / log_beta_opt - 1.0) <= VALIDITY_RATIO:
        flags.add(FLAG_LN_BETA_LN_K)
    return Prediction(
        T=N / 2.0 * math.log2(beta),
        T_max=N * alpha / 4.0 * math.log2(K),
        D=max(beta ** (4.0 / alpha) / (K * q), 1.0 / q),
        validity=frozenset(flags),
    )


def baseline_mobile_prediction(K: float, N: int, alpha: float, M: int,
                               q: float) -> Prediction:
    """Mobile-relay baseline, regime split on x = q*K^(1/(M-1)).

    Bounded regime (x < 2): T_max = x and D = 1/(K*q^(M-1)), both with unit
    constants; the delay can fall below one frame and is reported verbatim.
    Divergent regime (x >= 2): T_max = log2(K), D = 1, and the optimal
    threshold satisfies beta^(4/alpha) = x. Parameters with x in [0.5, 2]
    sit between the two limits and are flagged "indeterminate_regime".
    """
    if not q > 0.0:
        raise ValueError(f"q must be > 0, got {q}")
    if not M >= 2:
        raise ValueError(f"M must be >= 2, got {M}")
    x = q * K ** (1.0 / (M - 1))
    flags = {FLAG_ORDERWISE}
    if 0.5 <= x <= 2.0:
        flags.add(FLAG_INDETERMINATE)
    if x < 2.0:
        return Prediction(
            T_max=x,
            D=1.0 / (K * q ** (M - 1)),
            validity=frozenset(flags),
        )
    return Prediction(
        T_max=math.log2(K),
        D=1.0,
        beta_opt=x ** (alpha / 4.0),
        validity=frozenset(flags),
    )
