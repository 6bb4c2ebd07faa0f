"""Frame-loop driver: configuration, single runs, replication, and metrics.

run_once executes the configuration's warm-up (discarded) then
measure_frames of the configured scheme and collects per-frame series;
run_replicated aggregates independent replications into means with 95%
intervals (Student-t for up to 30 replications, normal above).
Per-replication RNG streams are spawned from the master seed, so results are
deterministic and independent of execution order.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field

import numpy as np

from .analytics import c_of
from .protocol import (IDLE, RELAY_TX, SOURCE_TX, BaselineFixed,
                       BaselineMobile, OdwfFixed, OdwfMobile)

FIXED = "fixed"
MOBILE = "mobile"
ODWF = "odwf"
BASELINE = "baseline"

_PHASE_CODE = {SOURCE_TX: 0, RELAY_TX: 1, IDLE: 2}
_SCHEMES = {(FIXED, ODWF): OdwfFixed, (FIXED, BASELINE): BaselineFixed,
            (MOBILE, ODWF): OdwfMobile, (MOBILE, BASELINE): BaselineMobile}


@dataclass(frozen=True)
class SystemConfig:
    scenario: str
    scheme: str
    K: int
    N: int
    p: float
    beta: float
    alpha: float = 4.0          # mobile only
    M: int = 5                  # mobile only
    q: float = 0.1              # mobile only
    R: float = 1.0              # mobile only
    warmup_frames: int | None = None   # None: scaled to the predicted delay
    measure_frames: int = 10_000
    replications: int = 1
    seed: int = 0
    buffer_cap: int = 100_000
    # frames run before measuring: warmup_frames, or else default_warmup
    warmup: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scenario not in (FIXED, MOBILE):
            raise ValueError(f"scenario must be {FIXED!r} or {MOBILE!r}, "
                             f"got {self.scenario!r}")
        if self.scheme not in (ODWF, BASELINE):
            raise ValueError(f"scheme must be {ODWF!r} or {BASELINE!r}, "
                             f"got {self.scheme!r}")
        for key in ("p", "beta", "alpha", "q", "R"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        for key in ("K", "N"):
            value = getattr(self, key)
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
            if value >= 2 ** 63:    # numpy draws take int64 counts
                raise ValueError(f"{key} must be < 2**63, got {value}")
        if self.p <= 0.0:
            raise ValueError(f"p must be > 0, got {self.p}")
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if self.scenario == FIXED and math.isinf(self.rate):
            raise ValueError(f"p = {self.p} overflows the rate log2(1 + p ln beta) "
                             f"at beta = {self.beta}")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if not 0.0 <= self.q <= 0.5:
            raise ValueError(f"q must be in [0, 1/2], got {self.q}")
        if self.scenario == MOBILE:
            if self.alpha <= 0.0:
                raise ValueError(f"alpha must be > 0, got {self.alpha}")
            if self.R < sys.float_info.min:    # subnormal: R * x loses the strips
                raise ValueError(f"R must be >= {sys.float_info.min}, got {self.R}")
            if self.K > 2 ** 52:    # the walk's float picks lose the low bit
                raise ValueError(f"K must be <= 2**52 for mobile relays, got {self.K}")
        if self.warmup_frames is not None and self.warmup_frames < 0:
            raise ValueError(f"warmup_frames must be >= 0, got {self.warmup_frames}")
        if self.measure_frames < 1:
            raise ValueError(f"measure_frames must be >= 1, got {self.measure_frames}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.buffer_cap < 1:
            raise ValueError(f"buffer_cap must be >= 1, got {self.buffer_cap}")
        object.__setattr__(self, "warmup", self.warmup_frames
                           if self.warmup_frames is not None else default_warmup(self))

    @property
    def rate(self) -> float:
        """Bits per delivered packet at threshold beta: log2(1 + p ln beta)
        on a fixed relay's subcarrier, N log2(beta) over a mobile relay's
        whole band."""
        if self.scenario == FIXED:
            return math.log2(1.0 + self.p * math.log(self.beta))
        return self.N * math.log2(self.beta)


@dataclass
class MetricsTrace:
    """Per-frame series over the measurement window of one run."""

    rate: float                      # bits per delivered packet
    delivered_per_frame: np.ndarray  # packet counts, int64
    per_packet_delay: np.ndarray     # delivery frame - creation frame, int64
    occupancy_fraction: np.ndarray   # (frames, series): per subcarrier for
                                     # fixed relays, one column for mobile
    in_network_per_frame: np.ndarray
    phase_per_frame: np.ndarray      # int8: 0 source_tx, 1 relay_tx, 2 idle
    undelivered_at_end: int

    @property
    def measure_frames(self) -> int:
        return self.delivered_per_frame.size

    @property
    def phase_counts(self) -> dict:
        counts = np.bincount(self.phase_per_frame, minlength=3)
        return {SOURCE_TX: int(counts[0]), RELAY_TX: int(counts[1]),
                IDLE: int(counts[2])}


@dataclass(frozen=True)
class RunSummary:
    """Replication means with 95% half-widths (0 for a single replication).

    mean_delay is None when no replication delivered a packet: an undefined
    delay is reported as absent, never as 0.
    """

    mean_throughput: float
    throughput_ci95: float
    mean_delay: float | None
    delay_ci95: float | None
    occupancy: float
    occupancy_ci95: float
    p_rd_hat: float
    p_rd_ci95: float
    p_sr_hat: float
    p_sr_ci95: float
    undelivered_at_end: float
    replications: int


def default_warmup(cfg: SystemConfig) -> int:
    """Warm-up long enough to reach stationarity: 10x the predicted delay
    scale of the scenario (buffering delay 2*c*beta^2/K for fixed relays,
    max(beta^(4/alpha)/(K*q), 1/q) for mobile), floored at 10^3 frames.
    A scale past the float range raises ValueError naming the field that
    overflows it, q where 10/q does and beta otherwise. SystemConfig resolves
    its warm-up with this at construction, so parse_spec reports the
    overflow on that field's line or sweep axis: pin warmup_frames there.
    """
    try:
        if cfg.scenario == FIXED:
            delay_scale = 2.0 * c_of(cfg.N) * cfg.beta ** 2 / cfg.K
            return max(10 * math.ceil(delay_scale), 1000)
        terms = [1000]
        if cfg.q > 0.0:
            delay_scale = cfg.beta ** (4.0 / cfg.alpha) / (cfg.K * cfg.q)
            terms.append(10 * math.ceil(delay_scale))
            terms.append(math.ceil(10.0 / cfg.q))
        return max(terms)
    except OverflowError:
        key = "q" if cfg.scenario == MOBILE and math.isinf(10.0 / cfg.q) else "beta"
        raise ValueError(f"{key} = {getattr(cfg, key)!r} overflows the default "
                         "warm-up; set warmup_frames") from None


def build_protocol(cfg: SystemConfig, rng: np.random.Generator):
    return _SCHEMES[cfg.scenario, cfg.scheme](cfg, rng)


def run_once(cfg: SystemConfig, rng: np.random.Generator) -> MetricsTrace:
    """One warm-up plus measurement pass over step() and census() per frame.
    Packets created during warm-up but delivered in the window count toward
    delay with the creation frame of their (seq, created_frame) pair.
    """
    proto = build_protocol(cfg, rng)
    warmup = cfg.warmup
    for frame in range(warmup):
        proto.step(frame)
    frames = cfg.measure_frames
    # compact int8 and int64 buffers, which the series view without a copy
    phase, delivered = array("b"), array("q")
    in_network, occupied = array("q"), array("q")
    delays = []
    for frame in range(warmup, warmup + frames):
        kind, packets = proto.step(frame)
        phase.append(_PHASE_CODE[kind])
        delivered.append(len(packets))
        for _, created in packets:
            delays.append(frame - created)
        counts, in_flight = proto.census()
        occupied.extend(counts)
        in_network.append(in_flight)
    return MetricsTrace(
        rate=cfg.rate,
        delivered_per_frame=np.frombuffer(delivered, dtype=np.int64),
        per_packet_delay=np.asarray(delays, dtype=np.int64),
        occupancy_fraction=np.frombuffer(occupied, dtype=np.int64).reshape(frames, -1) / cfg.K,
        in_network_per_frame=np.frombuffer(in_network, dtype=np.int64),
        phase_per_frame=np.frombuffer(phase, dtype=np.int8),
        undelivered_at_end=in_network[-1],
    )


def measure_throughput(trace: MetricsTrace) -> float:
    """Mean delivered bits per frame, exactly rate * count / frames."""
    return trace.rate * int(trace.delivered_per_frame.sum()) / trace.measure_frames


def measure_delay(trace: MetricsTrace) -> float | None:
    """Mean per-packet delay in frames; None when nothing was delivered."""
    if trace.per_packet_delay.size == 0:
        return None
    return float(trace.per_packet_delay.mean())


# Student-t 0.975 quantiles with 1..29 degrees of freedom, for 2..30
# replications; above 30 the normal quantile 1.96 is used
_T975 = (12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
         2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
         2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
         2.0595, 2.0555, 2.0518, 2.0484, 2.0452)


def _mean_ci(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    quantile = _T975[arr.size - 2] if arr.size <= 30 else 1.96
    return mean, float(quantile * arr.std(ddof=1) / math.sqrt(arr.size))


def summarize(traces: list) -> RunSummary:
    throughput, throughput_ci = _mean_ci([measure_throughput(t) for t in traces])
    delay_means = [measure_delay(t) for t in traces]
    delay_means = [d for d in delay_means if d is not None]
    if delay_means:
        delay, delay_ci = _mean_ci(delay_means)
    else:
        delay, delay_ci = None, None
    occupancy, occupancy_ci = _mean_ci(
        [float(t.occupancy_fraction.mean()) for t in traces])
    counts = [t.phase_counts for t in traces]
    p_rd, p_rd_ci = _mean_ci(
        [c[RELAY_TX] / t.measure_frames for c, t in zip(counts, traces)])
    p_sr, p_sr_ci = _mean_ci(
        [c[SOURCE_TX] / t.measure_frames for c, t in zip(counts, traces)])
    return RunSummary(
        mean_throughput=throughput,
        throughput_ci95=throughput_ci,
        mean_delay=delay,
        delay_ci95=delay_ci,
        occupancy=occupancy,
        occupancy_ci95=occupancy_ci,
        p_rd_hat=p_rd,
        p_rd_ci95=p_rd_ci,
        p_sr_hat=p_sr,
        p_sr_ci95=p_sr_ci,
        undelivered_at_end=float(np.mean([t.undelivered_at_end for t in traces])),
        replications=len(traces),
    )


def run_replicated(cfg: SystemConfig) -> RunSummary:
    """Deterministic given cfg.seed; one spawned RNG stream per replication."""
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    traces = [run_once(cfg, np.random.Generator(np.random.PCG64(s)))
              for s in streams]
    return summarize(traces)
