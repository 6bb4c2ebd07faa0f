"""Frame-level protocol dynamics: scheduling, conservation, FIFO, purging."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from oracles import DenseBaselineMobile, DenseOdwfMobile
from relaysim.analytics import p_rd
from relaysim.channel import FixedLinkSampler, RateThreshold
from relaysim.mobility import build_geometry
from relaysim.protocol import (IDLE, RELAY_TX, SOURCE_TX, BaselineFixed,
                               BaselineMobile, BufferOverflowError, OdwfFixed,
                               OdwfMobile, Packet)


def make_fixed(scheme, K, N, p, beta, seed, **kw):
    thr = RateThreshold.for_fixed(p, beta)
    return scheme(K, N, thr, np.random.default_rng(seed), **kw)


def make_mobile(scheme, K, N, p, beta, alpha, M, q, R, seed, **kw):
    thr = RateThreshold.for_mobile(N, beta)
    geom = build_geometry(R, M)
    return scheme(K, geom, thr, p, alpha, q, np.random.default_rng(seed), **kw)


def drive(proto, frames):
    return [proto.step(t) for t in range(frames)]


def delivered_seqs(outcomes):
    return [p.seq for out in outcomes for p in out.delivered]


def test_packet_and_outcome_are_frozen():
    pkt = Packet(0, 3, 1.5, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pkt.seq = 1
    from relaysim.protocol import FrameOutcome
    out = FrameOutcome(7, RELAY_TX, (pkt, pkt), (4, 4))
    assert out.bits == 3.0


# ---------------------------------------------------------------- fixed ODWF


def test_fixed_odwf_conservation():
    proto = make_fixed(OdwfFixed, 50, 2, 1.0, 4.0, 21)
    outs = drive(proto, 2000)
    seqs = delivered_seqs(outs)
    assert len(seqs) == len(set(seqs))            # nothing delivered twice
    assert len(seqs) + proto.in_network() == proto.next_seq
    assert set(proto.created_frame) | set(seqs) == set(range(proto.next_seq))


def test_fixed_odwf_relay_frames_deliver_one_per_subcarrier():
    proto = make_fixed(OdwfFixed, 30, 3, 1.0, 4.0, 22)
    for out in drive(proto, 500):
        if out.kind == RELAY_TX:
            assert len(out.delivered) == 3 and len(out.transmitters) == 3
            assert sorted(p.subcarrier_of_origin for p in out.delivered) == [1, 2, 3]
            assert out.bits == 3 * proto.rate
        elif out.kind == SOURCE_TX:
            assert out.delivered == () and out.transmitters == ()


def test_fixed_odwf_purges_delivered_everywhere():
    proto = make_fixed(OdwfFixed, 20, 2, 1.0, 3.0, 23)
    gone = set()
    for t in range(400):
        out = proto.step(t)
        gone.update(p.seq for p in out.delivered)
        if out.kind == RELAY_TX:
            for k in range(proto.K):
                state = proto.relay_state(k)
                assert not gone.intersection(s for bank in state.banks for s in bank)


def test_fixed_odwf_banks_stay_fifo():
    proto = make_fixed(OdwfFixed, 25, 2, 1.0, 5.0, 24)
    drive(proto, 600)
    for k in range(proto.K):
        for bank in proto.relay_state(k).banks:
            assert bank == sorted(bank)


def test_fixed_odwf_always_connected_alternates():
    # beta = 1 makes every link connected: source fills, relays drain, and
    # the two phases strictly alternate with delay exactly 1
    proto = make_fixed(OdwfFixed, 10, 2, 1.0, 1.0, 25)
    outs = drive(proto, 40)
    assert [o.kind for o in outs] == [SOURCE_TX, RELAY_TX] * 20
    for out in outs:
        for pkt in out.delivered:
            assert out.frame - pkt.created_frame == 1


def test_fixed_odwf_idle_when_nothing_connects():
    proto = make_fixed(OdwfFixed, 2, 1, 1.0, 1e9, 26)
    outs = drive(proto, 100)
    assert all(o.kind == IDLE for o in outs)
    assert proto.in_network() == 0 and proto.next_seq == 0


def test_fixed_odwf_uniform_pick_among_eligible():
    # beta = 1, K = 3: every relay holds every packet and connects, so the
    # transmitter must be uniform over the three
    proto = make_fixed(OdwfFixed, 3, 1, 1.0, 1.0, 27)
    counts = np.zeros(3)
    for out in drive(proto, 6000):
        for k in out.transmitters:
            counts[k] += 1
    total = counts.sum()
    assert total == 3000
    chi2 = ((counts - total / 3) ** 2 / (total / 3)).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=2)


def test_fixed_odwf_relay_frame_frequency_matches_prediction():
    K, N, beta = 1000, 2, 100.0
    proto = make_fixed(OdwfFixed, K, N, 1.0, beta, 28)
    outs = drive(proto, 6000)
    relay_frac = sum(o.kind == RELAY_TX for o in outs[1000:]) / 5000
    source_frac = sum(o.kind == SOURCE_TX for o in outs[1000:]) / 5000
    want = p_rd(beta, K, N)
    assert abs(relay_frac - want) / want < 0.05
    # flow balance: creations and deliveries run at the same frame rate
    assert abs(relay_frac - source_frac) < 0.05 * want


def test_fixed_odwf_occupancy_counter_matches_state():
    proto = make_fixed(OdwfFixed, 40, 2, 1.0, 6.0, 29)
    for t in range(300):
        proto.step(t)
        frac = proto.occupied_fraction()
        assert frac.shape == (2,)
        recount = (proto.bank_count > 0).sum(axis=1) / proto.K
        assert np.array_equal(frac, recount)


def test_fixed_odwf_buffer_guard_trips():
    # relay phase forced into permanent outage: the source pumps one packet
    # per subcarrier per frame until the guard cap trips
    proto = make_fixed(OdwfFixed, 10, 1, 1.0, 1.0, 30, buffer_cap=4)
    proto._relay_eligibility = lambda: None
    with pytest.raises(BufferOverflowError):
        drive(proto, 10)
    assert proto.next_seq == 5


# ---------------------------------------- dense oracle for the fixed samplers


class DenseLinks(FixedLinkSampler):
    """The sampler as it was before the sparse draws: one indicator per link."""

    def connected_subsets(self, count, n_subcarriers):
        masks = []
        for _ in range(n_subcarriers):
            mask = self.connected(count)
            if not mask.any():
                return None
            masks.append(mask)
        return [np.flatnonzero(m).astype(np.int32) for m in masks]


class DenseOdwfFixed(OdwfFixed):
    """OdwfFixed drawing every source-relay and relay-destination link."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.links = DenseLinks(self.links.threshold, self.rng)

    def _relay_eligibility(self):
        eligible = []
        for n in range(self.N):
            if self.occupied[n] == 0:
                return None
            occupied_ids = np.flatnonzero(self.bank_count[n] > 0)
            elig = occupied_ids[self.links.connected(occupied_ids.size)]
            if elig.size == 0:
                return None
            eligible.append(elig)
        return [int(elig[self.rng.integers(elig.size)]) for elig in eligible]


def snapshot(scheme, seed, frames, K=500, N=2, beta=50.0):
    """Phase of the last frame, then occupancy of subcarrier 0 and packets
    in flight after it."""
    proto = make_fixed(scheme, K, N, 1.0, beta, seed)
    for t in range(frames):
        out = proto.step(t)
    return out.kind, int(proto.occupied[0]), proto.in_network()


def assert_same_law(samples_a, samples_b):
    """Chi-square contingency test of two samples of one discrete law. The
    categories are the pooled quintiles, each a category of its own, and
    the ranges between them; a law with one value must agree exactly."""
    edges = np.unique(np.quantile(samples_a + samples_b, [0.2, 0.4, 0.6, 0.8]))

    def categories(side):
        x = np.asarray(side)
        j = np.searchsorted(edges, x)
        return 2 * j + (edges[np.minimum(j, edges.size - 1)] == x)

    table = np.array([np.bincount(categories(side), minlength=2 * edges.size + 1)
                      for side in (samples_a, samples_b)])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] == 1:
        assert samples_a == samples_b
    else:
        assert stats.chi2_contingency(table).pvalue > 1e-3


def test_sparse_and_dense_fixed_odwf_agree_in_distribution():
    # one snapshot per independent run, so the contingency tests' cells are
    # i.i.d.; 150 frames is about ten buffering delays at this configuration
    runs, frames = 400, 150
    sparse = [snapshot(OdwfFixed, 1000 + r, frames) for r in range(runs)]
    dense = [snapshot(DenseOdwfFixed, 5000 + r, frames) for r in range(runs)]
    kinds = (SOURCE_TX, RELAY_TX, IDLE)
    assert_same_law([kinds.index(s[0]) for s in sparse], [kinds.index(s[0]) for s in dense])
    for i in (1, 2):    # occupancy, then packets in flight
        assert_same_law([s[i] for s in sparse], [s[i] for s in dense])


def test_fixed_odwf_transmitter_uniform_over_occupied_relays():
    # six relays hold packets, one of them three deep; each frame some of
    # their links connect, and the transmitter must be uniform over all six
    K, beta, draws = 40, 4.0, 20000
    holders = [2, 5, 11, 17, 23, 31]
    for scheme in (OdwfFixed, DenseOdwfFixed):
        proto = make_fixed(scheme, K, 1, 1.0, beta, 60)
        subsets = [[np.array(holders, dtype=np.int32)],
                   [np.array([5], dtype=np.int32)],
                   [np.array([5], dtype=np.int32)]]
        for t, subset in enumerate(subsets):
            proto._source_tx(t, subset)
        picks = [proto._relay_eligibility() for _ in range(draws)]
        hits = [p[0] for p in picks if p is not None]
        want = 1.0 - (1.0 - 1.0 / beta) ** len(holders)
        sigma = math.sqrt(want * (1 - want) / draws)
        assert abs(len(hits) / draws - want) <= 4 * sigma
        counts = [hits.count(k) for k in holders]
        assert sum(counts) == len(hits)
        assert stats.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("scheme", [OdwfFixed, BaselineFixed])
def test_fixed_schemes_at_extreme_beta_raise_no_warning(scheme):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        always = drive(make_fixed(scheme, 12, 2, 1.0, 1.0, 61), 40)
        never = make_fixed(scheme, 12, 2, 1.0, 1e9, 62)
        assert all(o.kind == IDLE for o in drive(never, 200))
    assert [o.kind for o in always] == [SOURCE_TX, RELAY_TX] * 20
    assert never.next_seq == 0


# ------------------------------------------------------------ fixed baseline


def test_baseline_fixed_alternates_when_links_are_good():
    # K large enough that both phases succeed essentially every frame
    proto = make_fixed(BaselineFixed, 200, 2, 1.0, 4.0, 31)
    outs = drive(proto, 2000)
    flips = sum(a.kind != b.kind for a, b in zip(outs, outs[1:]))
    assert flips / (len(outs) - 1) >= 0.99
    delays = [o.frame - p.created_frame for o in outs for p in o.delivered]
    assert delays and sum(d == 1 for d in delays) / len(delays) >= 0.99


def test_baseline_fixed_batch_holds_channel_until_drained():
    proto = make_fixed(BaselineFixed, 4, 2, 1.0, 8.0, 32)
    for t in range(3000):
        pending = proto.in_network() > 0
        out = proto.step(t)
        if pending:
            assert out.kind == RELAY_TX
        else:
            assert out.kind in (SOURCE_TX, IDLE)
    seqs_seen = proto.next_seq
    assert seqs_seen > 0


def test_baseline_fixed_conservation_and_origins():
    proto = make_fixed(BaselineFixed, 6, 3, 1.0, 6.0, 33)
    outs = drive(proto, 4000)
    seqs = delivered_seqs(outs)
    assert len(seqs) == len(set(seqs))
    assert len(seqs) + proto.in_network() == proto.next_seq
    for out in outs:
        for pkt in out.delivered:
            assert 1 <= pkt.subcarrier_of_origin <= 3
            assert out.frame - pkt.created_frame >= 1
    # each full batch carries one packet per subcarrier
    by_batch = {}
    for s in seqs:
        by_batch.setdefault(s // 3, []).append(s)
    full = [b for b in by_batch.values() if len(b) == 3]
    assert full and all(sorted(s % 3 for s in b) == [0, 1, 2] for b in full)


def test_baseline_fixed_partial_delivery_survives():
    # with one relay and harsh links, batches routinely need several relay
    # frames; whatever is left keeps its creation frame
    proto = make_fixed(BaselineFixed, 1, 2, 1.0, 4.0, 34)
    outs = drive(proto, 4000)
    partial = [o for o in outs if o.kind == RELAY_TX and 0 < len(o.delivered) < 2]
    assert partial   # matching can deliver one of two when only one link is up
    delays = [o.frame - p.created_frame for o in outs for p in o.delivered]
    assert max(delays) > 1
    seqs = delivered_seqs(outs)
    assert len(seqs) + proto.in_network() == proto.next_seq


def test_baseline_fixed_occupancy_tracks_the_holder_union():
    # partial deliveries shrink the batch between source frames, so a stale
    # cached union would show up as a wrong occupancy
    proto = make_fixed(BaselineFixed, 30, 3, 1.0, 6.0, 36)
    changed = 0
    for t in range(1500):
        before = proto.in_network()
        proto.step(t)
        changed += proto.in_network() not in (0, before)
        frac = proto.occupied_fraction()
        held = (np.unique(np.concatenate(list(proto.batch.values())))
                if proto.batch else np.empty(0))
        assert np.array_equal(frac, np.full(3, held.size / proto.K))
        if proto.batch:
            assert np.array_equal(proto._holder_union(), held)
    assert changed > 50


def test_baseline_fixed_one_relay_may_serve_both_subcarriers():
    proto = make_fixed(BaselineFixed, 1, 2, 1.0, 2.0, 35)
    outs = drive(proto, 500)
    both = [o for o in outs if len(o.delivered) == 2]
    assert both and all(o.transmitters == (0, 0) for o in both)


# --------------------------------------------------------------- mobile ODWF


FULL_COVER = dict(p=32.0, beta=2.0, alpha=4.0, M=5, q=0.1, R=1.0)  # cov = 2R


def test_mobile_odwf_full_coverage_alternates():
    proto = make_mobile(OdwfMobile, 8, 1, seed=36, **FULL_COVER)
    outs = drive(proto, 60)
    assert [o.kind for o in outs] == [SOURCE_TX, RELAY_TX] * 30
    # broadcast reaches everyone, delivery purges everyone
    for t, out in enumerate(outs):
        if out.kind == SOURCE_TX:
            assert proto.occupied_fraction() == 0.0 or t >= 0
    proto2 = make_mobile(OdwfMobile, 8, 1, seed=36, **FULL_COVER)
    proto2.step(0)
    assert proto2.occupied_fraction() == 1.0
    assert all(proto2.relay_state(k).banks == [[0]] for k in range(8))
    proto2.step(1)
    assert proto2.occupied_fraction() == 0.0 and proto2.in_network() == 0


def test_mobile_odwf_frozen_walk_out_of_reach_idles():
    proto = make_mobile(OdwfMobile, 2, 1, p=1.0, beta=1e6, alpha=2.0,
                        M=5, q=0.0, R=1.0, seed=37)
    assert proto.src_max_region == 1 and proto.dest_min_region == 5
    proto.place([2, 3])
    outs = drive(proto, 200)
    assert all(o.kind == IDLE for o in outs)
    assert np.array_equal(proto.regions, [2, 3])
    assert proto.next_seq == 0


def test_mobile_odwf_conservation_and_fifo():
    proto = make_mobile(OdwfMobile, 200, 1, p=1.0, beta=4.0, alpha=4.0,
                        M=5, q=0.1, R=1.0, seed=38)
    outs = []
    for t in range(3000):
        out = proto.step(t)
        outs.append(out)
        if out.kind == RELAY_TX:
            (pkt,), (k,) = out.delivered, out.transmitters
            assert out.frame - pkt.created_frame >= 1
            assert pkt.subcarrier_of_origin == 0
            # FIFO: the head was the oldest seq this relay still held
            assert all(s > pkt.seq for s in proto.relay_state(k).banks[0])
    seqs = delivered_seqs(outs)
    assert len(seqs) == len(set(seqs))
    assert len(seqs) + proto.in_network() == proto.next_seq
    assert len(seqs) > 100


def test_mobile_odwf_occupancy_counter_matches_state():
    proto = make_mobile(OdwfMobile, 50, 1, p=1.0, beta=4.0, alpha=4.0,
                        M=5, q=0.2, R=1.0, seed=39)
    for t in range(500):
        proto.step(t)
        frac = proto.occupied_fraction()
        recount = sum(
            1 for k in range(proto.K) if proto.relay_state(k).banks[0]
        ) / proto.K
        assert frac == pytest.approx(recount)


def test_mobile_odwf_buffer_guard_trips():
    proto = make_mobile(OdwfMobile, 5, 1, seed=40, buffer_cap=4, **FULL_COVER)
    proto.p_dst[:] = 0.0   # no relay ever reaches destination coverage
    with pytest.raises(BufferOverflowError):
        drive(proto, 10)
    assert proto.next_seq == 5


def test_mobile_odwf_deterministic_under_seed():
    kw = dict(p=1.0, beta=4.0, alpha=4.0, M=5, q=0.1, R=1.0)
    a = make_mobile(OdwfMobile, 60, 1, seed=41, **kw)
    b = make_mobile(OdwfMobile, 60, 1, seed=41, **kw)
    for t in range(400):
        oa, ob = a.step(t), b.step(t)
        assert (oa.kind, oa.delivered, oa.transmitters) == (
            ob.kind, ob.delivered, ob.transmitters)


# ----------------------------------------------------------- mobile baseline


def test_mobile_baseline_full_coverage_alternates():
    proto = make_mobile(BaselineMobile, 6, 1, seed=42, **FULL_COVER)
    outs = drive(proto, 40)
    assert [o.kind for o in outs] == [SOURCE_TX, RELAY_TX] * 20
    for out in outs:
        for pkt in out.delivered:
            assert out.frame - pkt.created_frame == 1
    proto2 = make_mobile(BaselineMobile, 6, 1, seed=42, **FULL_COVER)
    proto2.step(0)
    assert proto2.occupied_fraction() == 1.0 and proto2.in_network() == 1


def test_mobile_baseline_stranded_holder_never_delivers():
    # the lone relay takes the packet near the source and, with the walk
    # frozen, can never reach destination coverage
    proto = make_mobile(BaselineMobile, 1, 1, p=1.0, beta=16.0, alpha=4.0,
                        M=5, q=0.0, R=1.0, seed=43)
    proto.place([1])
    outs = drive(proto, 600)
    kinds = [o.kind for o in outs]
    assert SOURCE_TX in kinds
    first = kinds.index(SOURCE_TX)
    assert all(k == IDLE for k in kinds[first + 1:])
    assert proto.in_network() == 1
    assert not delivered_seqs(outs)


def test_mobile_baseline_single_outstanding_packet():
    proto = make_mobile(BaselineMobile, 40, 1, p=1.0, beta=4.0, alpha=4.0,
                        M=5, q=0.1, R=1.0, seed=44)
    outs = []
    for t in range(3000):
        pending = proto.in_network()
        assert pending in (0, 1)
        out = proto.step(t)
        outs.append(out)
        if pending == 1:
            assert out.kind in (RELAY_TX, IDLE)
        else:
            assert out.kind in (SOURCE_TX, IDLE)
    seqs = delivered_seqs(outs)
    assert len(seqs) == len(set(seqs))
    assert len(seqs) + proto.in_network() == proto.next_seq
    assert len(seqs) > 50
    delays = [o.frame - p.created_frame for o in outs for p in o.delivered]
    assert min(delays) >= 1 and max(delays) > 1


def test_mobile_strip_counters_match_state():
    # the per-strip counts are kept current through moves, deliveries and
    # broadcasts; q = 0.02 takes the sparse walk, q = 0.3 the dense one
    for scheme in (OdwfMobile, BaselineMobile):
        for q, seed in ((0.02, 45), (0.3, 46)):
            proto = make_mobile(scheme, 120, 1, p=4.0, beta=2.0, alpha=4.0,
                                M=5, q=q, R=1.0, seed=seed)
            kinds = set()
            for t in range(400):
                kinds.add(proto.step(t).kind)
                tally = np.bincount(proto.regions, minlength=6)
                assert np.array_equal(proto.strip_relays, tally)
                held = proto.regions[proto.buffer_count > 0]
                assert np.array_equal(proto.strip_buffered,
                                      np.bincount(held, minlength=6))
            assert {SOURCE_TX, RELAY_TX} <= kinds


def test_mobile_place_rebuilds_counters():
    proto = make_mobile(OdwfMobile, 6, 1, seed=47, **FULL_COVER)
    proto.step(0)                      # everyone buffers packet 0
    proto.place([1, 1, 2, 5, 5, 5])
    assert proto.strip_relays.tolist() == [0, 2, 1, 0, 0, 3]
    assert proto.strip_buffered.tolist() == [0, 2, 1, 0, 0, 3]


# --------------------------------- coordinate-sampling oracle, mobile schemes


# (relays, config) per law. M = 5 strips; the coverage radius
# (p/beta)^(1/4) is 0.71 in "apart", so the source and destination windows
# stay apart; 1.19 in "overlapping", so strips 2-4 meet both disks partially
# (in strip 3 a buffered relay outside destination coverage is in source
# coverage with probability 0.35, against 0.64 for any relay there); and
# 2.0 in FULL_COVER, which covers the whole disk from either end. q = 0.05
# takes the sparse walk, q = 0.1 the dense one.
MOBILE_LAWS = {
    "apart": (60, dict(p=1.0, beta=4.0, alpha=4.0, M=5, q=0.05, R=1.0)),
    "overlapping": (6, dict(p=4.0, beta=2.0, alpha=4.0, M=5, q=0.1, R=1.0)),
    "full_cover": (8, FULL_COVER),
}


def mobile_snapshot(scheme, seed, frames, K, cfg):
    """Phase of the last frame, then relays holding packets and packets in
    flight after it."""
    proto = make_mobile(scheme, K, 1, seed=seed, **cfg)
    for t in range(frames):
        out = proto.step(t)
    return out.kind, round(proto.occupied_fraction() * K), proto.in_network()


@pytest.mark.parametrize("law", sorted(MOBILE_LAWS))
@pytest.mark.parametrize("scheme,dense", [(OdwfMobile, DenseOdwfMobile),
                                          (BaselineMobile, DenseBaselineMobile)])
def test_mobile_schemes_agree_with_coordinate_sampling(scheme, dense, law):
    # one snapshot per independent run, as for the fixed schemes
    runs, frames, (K, cfg) = 300, 40, MOBILE_LAWS[law]
    new = [mobile_snapshot(scheme, 2000 + r, frames, K, cfg) for r in range(runs)]
    old = [mobile_snapshot(dense, 7000 + r, frames, K, cfg) for r in range(runs)]
    kinds = (SOURCE_TX, RELAY_TX, IDLE)
    assert_same_law([kinds.index(s[0]) for s in new], [kinds.index(s[0]) for s in old])
    for i in (1, 2):    # relays holding packets, then packets in flight
        assert_same_law([s[i] for s in new], [s[i] for s in old])


def test_mobile_odwf_phase_one_sees_buffered_relays_outside_destination_coverage():
    # six relays in strip 3, which meets both disks, two of them buffered and
    # the walk frozen; each trial draws phase II, then phase I if it failed,
    # without changing the state. The coordinate sampler decides both phases
    # from one position per relay, so in phase I a buffered relay is in
    # source coverage with probability 0.35, not 0.64 as an unbuffered one
    K, trials = 6, 8000
    cfg = dict(MOBILE_LAWS["overlapping"][1], q=0.0)
    new = make_mobile(OdwfMobile, K, 1, seed=50, **cfg)
    dense = make_mobile(DenseOdwfMobile, K, 1, seed=51, **cfg)
    new.place([3] * K)
    dense.regions = np.full(K, 3, dtype=np.int64)
    for proto in (new, dense):
        proto._source_tx(0, np.array([0, 1]))
    outcomes = {"new": ([], []), "dense": ([], [])}
    for _ in range(trials):
        if new._deliverer() is None:
            covered = new._source_covered()
            covered = np.empty(0) if covered is None else covered
            outcomes["new"][0].append(int(np.count_nonzero(covered < 2)))
            outcomes["new"][1].append(int(np.count_nonzero(covered >= 2)))
        else:
            outcomes["new"][0].append(-1)
        xs, ys = dense._positions_for(np.arange(K))
        if dense._in_dest_coverage(xs[:2], ys[:2]).any():
            outcomes["dense"][0].append(-1)
        else:
            src = dense._in_source_coverage(xs, ys)
            outcomes["dense"][0].append(int(src[:2].sum()))
            outcomes["dense"][1].append(int(src[2:].sum()))
    for i in (0, 1):    # phase II or buffered relays covered, then unbuffered
        assert_same_law(outcomes["new"][i], outcomes["dense"][i])
    phase_one = [n for n in outcomes["new"][0] if n >= 0]
    assert abs(np.mean(phase_one) / 2 - 0.354) < 0.05


# ------------------------------------------------------ FIFO memory bound


@pytest.mark.parametrize("make", [
    lambda: make_fixed(OdwfFixed, 500, 2, 1.0, 50.0, 48),
    lambda: make_mobile(OdwfMobile, 500, 1, p=1.0, beta=4.0, alpha=4.0,
                        M=5, q=0.05, R=1.0, seed=49),
], ids=["fixed", "mobile"])
def test_odwf_fifos_hold_at_most_twice_their_live_seqs(make):
    # delivered seqs stay in the FIFOs of relays that did not send them;
    # compaction keeps every FIFO within twice its undelivered seqs plus a
    # slack, so the total stays within 2 x live entries + SLACK x K however
    # long the run
    proto = make()
    banks = proto.banks if isinstance(proto, OdwfFixed) else [proto.bank]
    dead_seen = 0
    for t in range(6000):
        proto.step(t)
        if t % 50 == 49:
            for bank in banks:
                lengths = np.zeros(bank.count.size, dtype=np.int64)
                for k, fifo in bank.fifo.items():
                    lengths[k] = len(fifo)
                live = sum(ids.size for ids in bank.holders.values())
                assert live == bank.count.sum()
                assert np.array_equal(lengths, bank.length)
                assert np.all(lengths <= 2 * bank.count + bank.SLACK)
                assert lengths.sum() <= 2 * live + bank.SLACK * proto.K
                dead_seen += int(np.count_nonzero(lengths > bank.count))
    assert dead_seen > 0    # dead seqs do occur and are tolerated up to the bound
    held = [s for k in range(proto.K) for bank in proto.relay_state(k).banks
            for s in bank]
    assert len(held) == sum(int(b.count.sum()) for b in banks)
