"""Link models for both relay scenarios.

Fixed relays see per-subcarrier Rayleigh block fading: every inspected link gets
a fresh Exp(1) power gain each frame, and a link is connected iff the gain clears
the rate threshold. Mobile relays see pure pathloss: a link is connected iff the
distance is within the coverage radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RateThreshold:
    """A transmission rate locked to its connectivity threshold beta.

    Fixed scenario: rate = log2(1 + p * ln(beta)); a link is connected iff its
    fading gain is at least ln(beta), so the connect probability is exactly
    1/beta. Mobile scenario: rate = N * log2(beta) over the whole band; a link
    is connected iff the distance is within (p/beta)^(1/alpha). beta = 1 is the
    degenerate zero-rate threshold, allowed for geometry probes.
    """

    rate: float
    beta: float

    def __post_init__(self):
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.rate < 0.0:
            raise ValueError(f"rate must be nonnegative, got {self.rate}")

    @classmethod
    def for_fixed(cls, p: float, beta: float) -> "RateThreshold":
        if p <= 0.0:
            raise ValueError(f"p must be positive, got {p}")
        return cls(rate=math.log2(1.0 + p * math.log(beta)), beta=float(beta))

    @classmethod
    def for_mobile(cls, n_subcarriers: int, beta: float) -> "RateThreshold":
        return cls(rate=n_subcarriers * math.log2(beta), beta=float(beta))


def coverage_radius(p: float, beta: float, alpha: float) -> float:
    """Distance (p/beta)^(1/alpha) within which a pathloss-only link is connected."""
    if p <= 0.0 or beta < 1.0 or alpha <= 0.0:
        raise ValueError(f"need p > 0, beta >= 1, alpha > 0; got {(p, beta, alpha)}")
    return (p / beta) ** (1.0 / alpha)


class FixedLinkSampler:
    """Lazy per-frame connectivity draws for fixed-relay links.

    Uses the inverse-transform coupling U = exp(-gain): the event
    {Exp(1) gain >= ln beta} is exactly {U <= 1/beta}, so connectivity can be
    drawn as Bernoulli(1/beta) without materializing gains. Links are i.i.d.
    across relays, so the fixed schemes draw counts of connected links from
    connect_probability and log_down rather than one indicator per link.
    """

    def __init__(self, threshold: RateThreshold, rng: np.random.Generator):
        self.threshold = threshold
        self.rng = rng
        self.connect_probability = 1.0 / threshold.beta
        # log P(a link is down); beta = 1 means no link is ever down
        self.log_down = (math.log1p(-self.connect_probability)
                          if threshold.beta > 1.0 else -math.inf)

    def connected(self, count: int) -> np.ndarray:
        """Connectivity indicators for `count` distinct links in this frame."""
        return self.rng.random(count) < self.connect_probability
