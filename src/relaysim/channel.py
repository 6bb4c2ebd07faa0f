"""Link models for both relay scenarios.

Fixed relays see per-subcarrier Rayleigh block fading: every link gets a fresh
Exp(1) power gain each frame, and a link is connected iff the gain clears the
rate threshold, so it is up with probability exactly 1/beta, independently
across links and frames. The fixed schemes draw counts of connected links from
that number. Mobile relays see pure pathloss: a link is connected iff the
distance is within the coverage radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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

    @property
    def connect_probability(self) -> float:
        """P(a fixed link is up): exactly 1/beta."""
        return 1.0 / self.beta

    @property
    def log_down(self) -> float:
        """log P(a fixed link is down); -inf at beta = 1, where none is."""
        return math.log1p(-1.0 / self.beta) if self.beta > 1.0 else -math.inf

    @classmethod
    def for_fixed(cls, p: float, beta: float) -> "RateThreshold":
        if p <= 0.0:
            raise ValueError(f"p must be positive, got {p}")
        return cls(rate=math.log2(1.0 + p * math.log(beta)), beta=float(beta))

    @classmethod
    def for_mobile(cls, n_subcarriers: int, beta: float) -> "RateThreshold":
        return cls(rate=n_subcarriers * math.log2(beta), beta=float(beta))


def coverage_radius(p: float, beta: float, alpha: float) -> float:
    """Distance (p/beta)^(1/alpha) within which a pathloss-only link is
    connected; inf past the float range."""
    if p <= 0.0 or beta < 1.0 or alpha <= 0.0:
        raise ValueError(f"need p > 0, beta >= 1, alpha > 0; got {(p, beta, alpha)}")
    try:
        return (p / beta) ** (1.0 / alpha)
    except OverflowError:
        return math.inf


# inert: perfbench/tracing.py patches FixedLinkSampler.connected by name
class FixedLinkSampler:
    connected = None
