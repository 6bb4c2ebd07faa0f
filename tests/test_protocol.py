"""Frame-level protocol dynamics: scheduling, conservation, FIFO, purging."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

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


def quintile_table(samples_a, samples_b):
    """2 x 5 contingency table of two samples binned at pooled quintiles."""
    edges = np.unique(np.quantile(samples_a + samples_b, [0.2, 0.4, 0.6, 0.8]))
    return [np.bincount(np.searchsorted(edges, side, "right"), minlength=edges.size + 1)
            for side in (samples_a, samples_b)]


def test_sparse_and_dense_fixed_odwf_agree_in_distribution():
    # one snapshot per independent run, so the contingency tests' cells are
    # i.i.d.; 150 frames is about ten buffering delays at this configuration
    runs, frames = 400, 150
    sparse = [snapshot(OdwfFixed, 1000 + r, frames) for r in range(runs)]
    dense = [snapshot(DenseOdwfFixed, 5000 + r, frames) for r in range(runs)]
    kinds = (SOURCE_TX, RELAY_TX, IDLE)
    phase_table = np.array([[sum(s[0] == kind for s in side) for kind in kinds]
                            for side in (sparse, dense)])
    phase_table = phase_table[:, phase_table.sum(axis=0) > 0]
    assert stats.chi2_contingency(phase_table).pvalue > 1e-3
    for i in (1, 2):    # occupancy, then packets in flight
        table = quintile_table([s[i] for s in sparse], [s[i] for s in dense])
        assert stats.chi2_contingency(table).pvalue > 1e-3


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
    proto.regions = np.array([2, 3])
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
    proto._in_dest_coverage = lambda xs, ys: np.zeros(np.shape(xs)[0], dtype=bool)
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
    proto.regions = np.array([1])
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
