"""Run orchestration: traces, summaries, replication statistics, validation."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats

from relaysim.analytics import occupancy_alpha, p_rd
from relaysim.engine import (_T975, BASELINE, FIXED, MOBILE, ODWF, MetricsTrace,
                             SystemConfig, _mean_ci, build_protocol, default_warmup,
                             measure_delay, measure_throughput, run_once,
                             run_replicated, summarize)
from relaysim.experiment import SpecError, parse_spec
from relaysim.protocol import IDLE, RELAY_TX, SOURCE_TX


def fixed_cfg(**kw):
    base = dict(scenario=FIXED, scheme=ODWF, K=300, N=2, p=1.0, beta=30.0,
                warmup_frames=300, measure_frames=1500, seed=1)
    base.update(kw)
    return SystemConfig(**base)


def mobile_cfg(**kw):
    base = dict(scenario=MOBILE, scheme=ODWF, K=100, N=1, p=1.0, beta=4.0,
                alpha=4.0, M=5, q=0.1, R=1.0, warmup_frames=300,
                measure_frames=1500, seed=2)
    base.update(kw)
    return SystemConfig(**base)


def test_config_validation_messages_name_the_field():
    good = dict(scenario=FIXED, scheme=ODWF, K=10, N=1, p=1.0, beta=2.0)
    for field, value in [("scenario", "fxied"), ("scheme", "dwf"), ("K", 0),
                         ("N", 0), ("p", 0.0), ("beta", 0.5), ("M", 1),
                         ("q", 0.7), ("warmup_frames", -1),
                         ("measure_frames", 0), ("replications", 0),
                         ("seed", -1), ("buffer_cap", 0),
                         ("p", math.nan), ("beta", math.inf), ("q", math.nan),
                         ("alpha", math.nan), ("R", -math.inf)]:
        with pytest.raises(ValueError, match=rf"^{field} "):
            SystemConfig(**{**good, field: value})
    # mobile-only geometry checks do not fire for fixed relays
    SystemConfig(**good, alpha=-1.0, R=-1.0)
    with pytest.raises(ValueError, match=r"^alpha "):
        SystemConfig(**{**good, "scenario": MOBILE, "alpha": -1.0})
    for R in (0.0, 1e-320):    # a subnormal radius blurs the strips
        with pytest.raises(ValueError, match=r"^R "):
            SystemConfig(**{**good, "scenario": MOBILE, "R": R})
    # log2(1 + p ln beta) overflows: the rate of a fixed row is inf
    with pytest.raises(ValueError, match=r"^p "):
        SystemConfig(**{**good, "p": 1e308, "beta": 10.0})
    SystemConfig(**{**good, "scenario": MOBILE, "p": 1e308, "beta": 10.0})


def test_default_warmup_rules():
    from relaysim.analytics import c_of
    cfg = fixed_cfg(warmup_frames=None, K=1000, beta=1000.0)
    want = 10 * math.ceil(2.0 * c_of(2) * 1000.0**2 / 1000)
    assert want > 1000 and default_warmup(cfg) == want
    assert default_warmup(fixed_cfg(warmup_frames=None, beta=1.0)) == 1000
    cfg = mobile_cfg(warmup_frames=None, K=10, beta=256.0, alpha=4.0, q=0.01)
    assert default_warmup(cfg) == 10 * math.ceil(256.0 / (10 * 0.01))
    cfg = mobile_cfg(warmup_frames=None, q=0.001, beta=1.0)
    assert default_warmup(cfg) == 10_000     # 10/q dominates
    assert default_warmup(mobile_cfg(warmup_frames=None, q=0.0)) == 1000
    assert fixed_cfg(warmup_frames=77).warmup == 77
    assert fixed_cfg(warmup_frames=None, beta=1.0).warmup == 1000


@pytest.mark.parametrize("cfg,key", [(fixed_cfg(beta=1e200), "beta"),
                                     (mobile_cfg(beta=1e200, alpha=0.5), "beta"),
                                     (mobile_cfg(q=5e-324), "q")],
                         ids=["fixed", "mobile", "tiny-q"])
def test_default_warmup_past_the_float_range_asks_for_warmup_frames(cfg, key):
    # beta^2, beta^(4/alpha) and 10/q pass the float range: the message
    # names the field that overflows, so a spec blames its line; a pinned
    # warm-up still resolves
    want = re.escape(f"{key} = {getattr(cfg, key)!r} overflows the default "
                     "warm-up; set warmup_frames")
    with pytest.raises(ValueError, match=f"^{want}$"):
        default_warmup(cfg)
    with pytest.raises(ValueError, match=f"^{want}$"):
        dataclasses.replace(cfg, warmup_frames=None)
    assert cfg.warmup == 300


def test_sweep_resolves_every_warmup_before_the_first_row():
    text = ("schema_version = 1\n[system]\nscenario = fixed\n"
            "scheme = odwf\nK = 100\nN = 1\np = 1.0\nbeta = 4\n"
            "measure_frames = 100\n[sweep]\nbeta = 10, 1e200\n")
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert str(err.value) == ("line 11: beta = 1e+200 overflows the default "
                              "warm-up; set warmup_frames")


def run_trace(cfg):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    return run_once(cfg, rng)


def test_trace_shapes_and_tallies():
    cfg = fixed_cfg()
    trace = run_trace(cfg)
    F = cfg.measure_frames
    assert trace.measure_frames == F
    assert trace.occupancy_fraction.shape == (F, cfg.N)
    assert trace.in_network_per_frame.shape == (F,)
    assert sum(trace.phase_counts.values()) == F
    assert np.all(trace.per_packet_delay >= 1)
    assert trace.per_packet_delay.size == trace.delivered_per_frame.sum()
    mob = run_trace(mobile_cfg())
    assert mob.occupancy_fraction.shape == (mobile_cfg().measure_frames, 1)


@pytest.mark.parametrize("cfg", [fixed_cfg(K=60), fixed_cfg(scheme=BASELINE, K=30, N=3),
                                 mobile_cfg(beta=256.0), mobile_cfg(scheme=BASELINE)],
                         ids=["fixed-odwf", "fixed-baseline", "mobile-odwf",
                              "mobile-baseline"])
def test_trace_series_replay_step_and_census(cfg):
    # the same seed replayed through build_protocol, step and census gives
    # every series of run_once value for value, frame by frame
    trace = run_trace(cfg)
    proto = build_protocol(cfg, np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(cfg.seed))))
    warmup = cfg.warmup
    for frame in range(warmup):
        proto.step(frame)
    code = {SOURCE_TX: 0, RELAY_TX: 1, IDLE: 2}
    phase, delivered, in_network, occupied, delays = [], [], [], [], []
    for frame in range(warmup, warmup + cfg.measure_frames):
        kind, packets = proto.step(frame)
        counts, in_flight = proto.census()
        phase.append(code[kind])
        delivered.append(len(packets))
        in_network.append(in_flight)
        occupied.append([n / cfg.K for n in counts])
        delays += [frame - created for _, created in packets]
    assert set(phase) == {0, 1, 2}    # every kind's code is pinned
    F, columns = cfg.measure_frames, cfg.N if cfg.scenario == FIXED else 1
    for name, dtype, shape, want in (
            ("phase_per_frame", np.int8, (F,), phase),
            ("delivered_per_frame", np.int64, (F,), delivered),
            ("in_network_per_frame", np.int64, (F,), in_network),
            ("occupancy_fraction", np.float64, (F, columns), occupied),
            ("per_packet_delay", np.int64, (len(delays),), delays)):
        series = getattr(trace, name)
        assert series.dtype == dtype and series.shape == shape, name
        assert series.tolist() == want, name
    assert trace.undelivered_at_end == proto.census()[1]
    assert type(trace.undelivered_at_end) is int


def test_trace_bits_accounting_is_exact():
    # N = 2, so each frame's bits, 0 or 2 x rate, are exact products and
    # their exact sum is rate x packets; a rounded float sum need not be
    trace = run_trace(fixed_cfg())
    total_bits = math.fsum(trace.delivered_per_frame * trace.rate)
    assert total_bits == trace.rate * int(trace.delivered_per_frame.sum())
    assert measure_throughput(trace) == trace.rate * int(
        trace.delivered_per_frame.sum()) / trace.measure_frames


def test_trace_packet_conservation_over_window():
    # creations (N per source frame) minus deliveries equals backlog growth
    cfg = fixed_cfg()
    trace = run_trace(cfg)
    counts = trace.phase_counts
    created = cfg.N * counts[SOURCE_TX]
    delivered = int(trace.delivered_per_frame.sum())
    growth = int(trace.in_network_per_frame[-1] - trace.in_network_per_frame[0])
    assert abs(created - delivered - growth) <= 2 * cfg.N
    assert trace.undelivered_at_end == trace.in_network_per_frame[-1]


def test_phase_frequencies_match_prediction():
    cfg = fixed_cfg(K=1000, beta=100.0, warmup_frames=1000, measure_frames=5000)
    s = run_replicated(cfg)
    want = p_rd(cfg.beta, cfg.K, cfg.N)
    assert abs(s.p_rd_hat - want) / want < 0.05
    assert abs(s.p_sr_hat - s.p_rd_hat) < 0.05 * want   # flow balance
    occ_want, _ = occupancy_alpha(cfg.beta, cfg.K, cfg.N)
    assert abs(s.occupancy - occ_want) / occ_want < 0.10


def test_littles_law_holds_in_steady_state():
    cfg = fixed_cfg(K=500, beta=50.0, warmup_frames=2000, measure_frames=8000)
    trace = run_trace(cfg)
    lam = trace.delivered_per_frame.sum() / trace.measure_frames
    W = float(trace.per_packet_delay.mean())
    L = float(trace.in_network_per_frame.mean())
    assert abs(L - lam * W) / L < 0.10


def test_occupancy_is_stationary_after_warmup():
    # from empty buffers the occupancy takes about 200 frames to climb to
    # its stationary 0.30 here, so without the warm-up the first half of
    # each measurement reads about 20 % low; pooling 48 independent runs
    # holds the halves' chance difference to about 1.2 %
    cfg = fixed_cfg(K=400, beta=100.0, warmup_frames=1000, measure_frames=400)
    halves = []
    for stream in np.random.SeedSequence(cfg.seed).spawn(48):
        series = run_once(cfg, np.random.default_rng(stream)).occupancy_fraction.mean(axis=1)
        halves.append((series[:200].mean(), series[200:].mean()))
    a, b = np.mean(halves, axis=0)
    assert abs(a - b) / a < 0.05


def test_mobile_throughput_near_half_rate():
    # with beta << coverage-limited regime the two phases alternate and
    # throughput approaches (N/2) log2 beta
    cfg = mobile_cfg(warmup_frames=500, measure_frames=3000)
    s = run_replicated(cfg)
    assert abs(s.mean_throughput - 1.0) < 0.10
    assert s.mean_delay is not None and s.mean_delay >= 1.0


def test_mobile_unreachable_network_reports_absent_delay():
    cfg = SystemConfig(MOBILE, ODWF, K=2, N=1, p=1.0, beta=1e6, alpha=2.0,
                       M=5, q=0.0, warmup_frames=0, measure_frames=50, seed=0)
    s = run_replicated(cfg)
    assert s.mean_throughput == 0.0
    assert s.mean_delay is None and s.delay_ci95 is None
    assert s.p_rd_hat == 0.0 and s.p_sr_hat == 0.0
    assert s.undelivered_at_end == 0.0


@pytest.mark.parametrize("scheme", [ODWF, BASELINE])
@pytest.mark.parametrize("alpha,beta", [(0.5, 1e200), (4.0, 1e300)])
def test_mobile_vanishing_coverage_idles(scheme, alpha, beta):
    # the coverage radius (p/beta)^(1/alpha) is too small for any strip to
    # show a coverage probability above 0, so no relay is ever covered
    cfg = mobile_cfg(scheme=scheme, alpha=alpha, beta=beta, warmup_frames=20,
                     measure_frames=200)
    s = run_replicated(cfg)
    assert s.mean_throughput == 0.0 and s.mean_delay is None
    assert s.p_rd_hat == 0.0 and s.p_sr_hat == 0.0 and s.occupancy == 0.0


def test_baseline_fixed_delay_is_one_with_many_relays():
    cfg = fixed_cfg(scheme=BASELINE, K=500, beta=4.0, warmup_frames=100,
                    measure_frames=3000)
    s = run_replicated(cfg)
    assert abs(s.mean_delay - 1.0) <= 0.02
    # strict SourceTx/RelayTx alternation shows up as equal phase rates
    assert abs(s.p_rd_hat - 0.5) <= 0.01 and abs(s.p_sr_hat - 0.5) <= 0.01


def test_single_replication_has_zero_halfwidths():
    s = run_replicated(fixed_cfg(measure_frames=500, replications=1))
    assert s.replications == 1
    assert s.throughput_ci95 == 0.0 and s.occupancy_ci95 == 0.0
    assert s.delay_ci95 == 0.0


def test_t_quantiles_match_scipy():
    # 2..30 replications use the Student-t quantile, to 3 decimals
    assert len(_T975) == 29
    for n, quantile in enumerate(_T975, start=2):
        assert abs(quantile - stats.t.ppf(0.975, n - 1)) < 5e-4


@pytest.mark.parametrize("n,quantile", [(1, 0.0), (2, 12.7062), (3, 4.3027),
                                        (30, 2.0452), (31, 1.96), (200, 1.96)])
def test_halfwidth_uses_the_t_quantile_up_to_30_replications(n, quantile):
    values = np.arange(n, dtype=float) ** 2
    mean, half = _mean_ci(values)
    assert mean == values.mean()
    spread = values.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    assert half == pytest.approx(quantile * spread)


def test_replication_is_deterministic_given_seed():
    cfg = fixed_cfg(measure_frames=800, replications=3, seed=9)
    assert run_replicated(cfg) == run_replicated(cfg)
    other = run_replicated(dataclasses.replace(cfg, seed=10))
    assert other != run_replicated(cfg)


def test_halfwidth_shrinks_with_replications():
    cfg = fixed_cfg(warmup_frames=200, measure_frames=400, replications=8,
                    seed=5)
    a = run_replicated(cfg)
    b = run_replicated(dataclasses.replace(cfg, replications=32))
    assert a.throughput_ci95 > 0.0
    ratio = b.throughput_ci95 / a.throughput_ci95   # expect ~ sqrt(8/32)
    assert 0.3 < ratio < 0.9


def test_summarize_pools_only_delivering_replications():
    trace = run_trace(fixed_cfg(measure_frames=300))
    empty = MetricsTrace(
        rate=trace.rate,
        delivered_per_frame=np.zeros(300, dtype=np.int64),
        per_packet_delay=np.zeros(0, dtype=np.int64),
        occupancy_fraction=np.zeros((300, 2)),
        in_network_per_frame=np.zeros(300, dtype=np.int64),
        phase_per_frame=np.full(300, 2, dtype=np.int8),
        undelivered_at_end=0,
    )
    assert measure_delay(empty) is None
    s = summarize([trace, empty])
    assert s.mean_delay == measure_delay(trace)
    assert s.mean_throughput == measure_throughput(trace) / 2.0
    assert summarize([empty]).mean_delay is None
