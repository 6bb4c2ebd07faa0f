"""Link models for both relay scenarios.

Fixed relays see per-subcarrier Rayleigh block fading: every link gets a fresh
Exp(1) power gain each frame, and a link is connected iff the gain clears
ln(beta), the gain at which log2(1 + p * gain) meets the rate
log2(1 + p ln beta). So a link is up with probability exactly 1/beta,
independently across links and frames (fixed_link): the fixed schemes draw
counts of connected links from it, and analytics' closed forms build on it.
Mobile relays see pure pathloss: a link is connected iff the distance is
within the coverage radius (p/beta)^(1/alpha), where the rate over the whole
band is N log2(beta).
"""

from __future__ import annotations

import math


def fixed_link(beta: float) -> tuple:
    """(P(a fixed link is up), log P(it is down)) at threshold beta: 1/beta,
    and log1p(-1/beta), or -inf at beta = 1, where no link is down."""
    return 1.0 / beta, math.log1p(-1.0 / beta) if beta > 1.0 else -math.inf


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
