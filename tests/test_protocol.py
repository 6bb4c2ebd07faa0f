"""Frame-level protocol dynamics: scheduling, conservation, FIFO, purging."""

import itertools
import math
import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (DenseBaselineFixed, DenseBaselineMobile, DenseOdwfFixed,
                     DenseOdwfMobile, StripBaselineMobile, StripOdwfMobile,
                     binomial_cell_split, place, relay_state, transition_matrix)
import relaysim.protocol
from relaysim.analytics import p_rd
from relaysim.engine import BASELINE, FIXED, MOBILE, ODWF, SystemConfig
from relaysim.protocol import (IDLE, IDLE_FRAME, RELAY_TX, SOURCE_FRAME,
                               SOURCE_TX, BaselineFixed, BaselineMobile,
                               BufferOverflowError, FrameOutcome, OdwfFixed,
                               OdwfMobile)


def make(scheme, scenario, seed, **fields):
    """A runtime or reference scheme built from its SystemConfig, with no
    warm-up, so that extreme beta needs no default one."""
    name = ODWF if "Odwf" in scheme.__name__ else BASELINE
    cfg = SystemConfig(scenario, name, warmup_frames=0, **fields)
    return scheme(cfg, np.random.default_rng(seed))


def make_fixed(scheme, K, N, p, beta, seed, **kw):
    return make(scheme, FIXED, seed, K=K, N=N, p=p, beta=beta, **kw)


def make_mobile(scheme, K, N, p, beta, alpha, M, q, R, seed, **kw):
    return make(scheme, MOBILE, seed, K=K, N=N, p=p, beta=beta, alpha=alpha, M=M,
                q=q, R=R, **kw)


def drive(proto, frames):
    return [proto.step(t) for t in range(frames)]


def delivered_seqs(outcomes):
    return [seq for out in outcomes for seq, _ in out.delivered]


def delays_of(outcomes):
    """Delivery frame minus creation frame of every packet, for outcomes
    of frames 0, 1, 2, ... in order."""
    return [t - created for t, out in enumerate(outcomes) for _, created in out.delivered]


def record_transmitters(proto):
    """Wrap the deliver of each bank of an ODWF scheme so that it appends
    the relay id it is given to the list returned here."""
    sent = []
    for bank in proto.banks:
        def deliver(k, deliver=bank.deliver):
            sent.append(k)
            return deliver(k)
        bank.deliver = deliver
    return sent


def test_frame_outcome_is_kind_and_delivered_pairs():
    assert not hasattr(relaysim.protocol, "Packet")
    assert FrameOutcome._fields == ("kind", "delivered")
    out = FrameOutcome(RELAY_TX, ((0, 3), (1, 3)))
    with pytest.raises(AttributeError):
        out.kind = IDLE
    kind, delivered = out
    assert kind == RELAY_TX and len(delivered) * 1.5 == 3.0
    assert IDLE_FRAME == (IDLE, ()) and SOURCE_FRAME == (SOURCE_TX, ())
    # every scheme returns the shared source frame
    for proto in (make_fixed(OdwfFixed, 10, 2, 1.0, 1.0, 25),
                  make_fixed(BaselineFixed, 10, 2, 1.0, 1.0, 25),
                  make_mobile(OdwfMobile, 8, 1, seed=36, **FULL_COVER),
                  make_mobile(BaselineMobile, 6, 1, seed=42, **FULL_COVER)):
        outs = drive(proto, 4)
        assert outs[0] is SOURCE_FRAME and outs[2] is SOURCE_FRAME
        assert outs[3].delivered == tuple((seq, 2) for seq in range(proto.next_seq)
                                          if seq >= proto.next_seq // 2)
    never = make_fixed(OdwfFixed, 2, 1, 1.0, 1e9, 26)
    assert all(out is IDLE_FRAME for out in drive(never, 10))


def test_integer_pick_stays_below_n_at_the_largest_uniform():
    # Generator.random returns at most 1 - 2**-53, and floor(u * n) must stay
    # below n with no clamp for every n <= 2**53 (_below's docstring)
    top = itertools.repeat(1.0 - 2.0 ** -53)
    assert np.nextafter(1.0, 0.0) == next(top)
    edges = [2 ** k + d for k in range(54) for d in (-1, 0, 1) if 0 < 2 ** k + d <= 2 ** 53]
    sample = np.random.default_rng(2009).integers(1, 2 ** 53, 10_000, endpoint=True)
    ns = [*range(1, 10_001), *edges, *sample.tolist()]
    assert [n for n in ns if relaysim.protocol._below(top, n) != n - 1] == []


# ---------------------------------------------------------------- fixed ODWF


def test_fixed_odwf_conservation():
    proto = make_fixed(OdwfFixed, 50, 2, 1.0, 4.0, 21)
    outs = drive(proto, 2000)
    seqs = delivered_seqs(outs)
    assert len(seqs) == len(set(seqs))            # nothing delivered twice
    assert len(seqs) + proto.census()[1] == proto.next_seq
    assert set(proto.created_frame) | set(seqs) == set(range(proto.next_seq))


def test_fixed_odwf_relay_frames_deliver_one_per_subcarrier():
    proto = make_fixed(OdwfFixed, 30, 3, 1.0, 4.0, 22)
    sent = record_transmitters(proto)
    for t in range(500):
        before = len(sent)
        out = proto.step(t)
        if out.kind == RELAY_TX:
            assert len(out.delivered) == 3 and len(sent) - before == 3
            # a source frame gives bank n the seqs n mod 3
            assert sorted(seq % 3 for seq, _ in out.delivered) == [0, 1, 2]
            # FIFO: each bank's transmitter sent the oldest seq it held there
            for n, ((seq, _), k) in enumerate(zip(out.delivered, sent[before:])):
                assert all(s > seq for s in relay_state(proto, k).banks[n])
        elif out.kind == SOURCE_TX:
            assert out.delivered == () and len(sent) == before


def test_fixed_odwf_purges_delivered_everywhere():
    proto = make_fixed(OdwfFixed, 20, 2, 1.0, 3.0, 23)
    gone = set()
    for t in range(400):
        out = proto.step(t)
        gone.update(seq for seq, _ in out.delivered)
        if out.kind == RELAY_TX:
            for k in range(proto.K):
                state = relay_state(proto, k)
                assert not gone.intersection(s for bank in state.banks for s in bank)


def test_fixed_odwf_banks_stay_fifo():
    proto = make_fixed(OdwfFixed, 25, 2, 1.0, 5.0, 24)
    drive(proto, 600)
    for k in range(proto.K):
        for bank in relay_state(proto, k).banks:
            assert bank == sorted(bank)


def test_fixed_odwf_always_connected_alternates():
    # beta = 1 makes every link connected: source fills, relays drain, and
    # the two phases strictly alternate with delay exactly 1
    proto = make_fixed(OdwfFixed, 10, 2, 1.0, 1.0, 25)
    outs = drive(proto, 40)
    assert [o.kind for o in outs] == [SOURCE_TX, RELAY_TX] * 20
    assert set(delays_of(outs)) == {1}


def test_fixed_odwf_idle_when_nothing_connects():
    proto = make_fixed(OdwfFixed, 2, 1, 1.0, 1e9, 26)
    outs = drive(proto, 100)
    assert all(o.kind == IDLE for o in outs)
    assert proto.census()[1] == 0 and proto.next_seq == 0


def test_fixed_odwf_uniform_pick_among_eligible():
    # beta = 1, K = 3: every relay holds every packet and connects, so the
    # transmitter must be uniform over the three
    proto = make_fixed(OdwfFixed, 3, 1, 1.0, 1.0, 27)
    counts = np.zeros(3)
    sent = record_transmitters(proto)
    drive(proto, 6000)
    for k in sent:
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


def odwf_bank_is_consistent(proto, bank):
    """The ids of an ODWF bank agree with its FIFOs: the free ids and the
    occupied ones (a nonempty FIFO) split range(len(fifo)), no id twice;
    size counts the occupied ids, which are exactly the relays holding an
    undelivered seq, each holder listed once per seq. For mobile relays
    strip[k] is 0 exactly when fifo[k] is empty, and the strips of the
    occupied ids tally to the buffered counts."""
    n = len(bank.fifo)
    occupied = [k for k, fifo in enumerate(bank.fifo) if fifo]
    assert sorted(bank.free + occupied) == list(range(n))
    assert bank.size == len(occupied) <= proto.K
    assert all(len(set(ids)) == len(ids) for ids in bank.holders.values())
    assert {k for ids in bank.holders.values() for k in ids} == set(occupied)
    if isinstance(proto, OdwfMobile):
        assert ((proto.strip[:n] != 0) == [bool(fifo) for fifo in bank.fifo]).all()
        assert not proto.strip[n:].any()
        assert np.array_equal(np.bincount(proto.strip[occupied], minlength=proto.M + 1)[1:],
                              proto.buffered[1:])


def test_fixed_odwf_occupancy_counter_matches_state():
    # beta = 6 at K = 40 takes and frees several relays per frame; beta = 1
    # fills and empties every relay of both subcarriers each pair of frames
    for beta, seed in ((6.0, 29), (1.0, 31)):
        proto = make_fixed(OdwfFixed, 40, 2, 1.0, beta, seed)
        for t in range(300):
            proto.step(t)
            occupied, in_flight = proto.census()
            assert all(type(n) is int for n in occupied)
            recount = [len({k for ids in bank.holders.values() for k in ids})
                       for bank in proto.banks]
            assert occupied == recount
            assert in_flight == sum(len(bank.holders) for bank in proto.banks)
            for bank in proto.banks:
                odwf_bank_is_consistent(proto, bank)


def test_fixed_odwf_buffer_guard_trips():
    # relay phase forced into permanent outage: the source pumps one packet
    # per subcarrier per frame until the guard cap trips
    proto = make_fixed(OdwfFixed, 10, 1, 1.0, 1.0, 30, buffer_cap=4)
    proto._deliverers = lambda: None
    with pytest.raises(BufferOverflowError):
        drive(proto, 10)
    assert proto.next_seq == 5


# ----------------------------------------------- dense oracle for fixed ODWF


def snapshot(scheme, seed, frames, K, N, beta):
    """Phase of the last frame, then the occupied relays of subcarrier 0 and
    the packets in flight after it."""
    proto = make_fixed(scheme, K, N, 1.0, beta, seed)
    for t in range(frames):
        out = proto.step(t)
    occupied, in_flight = proto.census()
    return out.kind, occupied[0], in_flight


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


# (frames, (K, N, beta)) per law: the buffering regime of criterion 02, in
# miniature; low occupancy, where dozens of idle relays connect per source
# frame and most of them empty again on the next delivery; and three
# subcarriers. The mean delays are 15, 1 and 5 frames, so each snapshot
# comes after about ten delays, and at least 40 frames.
FIXED_ODWF_LAWS = {
    "buffering": (150, (500, 2, 50.0)),
    "low_occupancy": (40, (400, 2, 8.0)),
    "three_subcarriers": (60, (300, 3, 20.0)),
}


@pytest.mark.parametrize("law", sorted(FIXED_ODWF_LAWS))
def test_sparse_and_dense_fixed_odwf_agree_in_distribution(law):
    # one snapshot per independent run, so the contingency tests' cells are
    # i.i.d.
    runs, (frames, cfg) = 400, FIXED_ODWF_LAWS[law]
    sparse = [snapshot(OdwfFixed, 1000 + r, frames, *cfg) for r in range(runs)]
    dense = [snapshot(DenseOdwfFixed, 5000 + r, frames, *cfg) for r in range(runs)]
    kinds = (SOURCE_TX, RELAY_TX, IDLE)
    assert_same_law([kinds.index(s[0]) for s in sparse], [kinds.index(s[0]) for s in dense])
    for i in (1, 2):    # occupancy, then packets in flight
        assert_same_law([s[i] for s in sparse], [s[i] for s in dense])


def test_fixed_odwf_transmitter_uniform_over_occupied_relays():
    # six relays hold packets, one of them three deep; each frame some of
    # their links connect, and the transmitter must be uniform over all six.
    # OdwfFixed hands out ids 0..31 and frees all but the six again, so its
    # rejection pick meets free ids below and among the occupied ones
    K, beta, draws = 40, 4.0, 20000
    holders = [2, 5, 11, 17, 23, 31]
    for scheme in (OdwfFixed, DenseOdwfFixed):
        proto = make_fixed(scheme, K, 1, 1.0, beta, 60)
        bank = proto.banks[0]
        if scheme is OdwfFixed:
            bank.add(0, [k for k in bank.take(32) if k not in holders])
            bank.deliver(0)
            for seq, ids in enumerate((holders, [5], [5]), start=1):
                bank.add(seq, ids)
            odwf_bank_is_consistent(proto, bank)
            assert len(bank.fifo) == 32 and bank.size == 6
        else:
            for seq, ids in enumerate((holders, [5], [5])):
                bank.add(seq, np.array(ids))
        picks = [proto._deliverers() for _ in range(draws)]
        hits = [p[0] for p in picks if p is not None]
        want = 1.0 - (1.0 - 1.0 / beta) ** len(holders)
        sigma = math.sqrt(want * (1 - want) / draws)
        assert abs(len(hits) / draws - want) <= 4 * sigma
        counts = [hits.count(k) for k in holders]
        assert sum(counts) == len(hits)
        assert stats.chisquare(counts).pvalue > 1e-3


def test_fixed_odwf_covers_occupied_and_idle_relays_independently():
    # twenty of forty relays hold a packet and phase II is off, so phase I
    # covers each relay with probability 1/beta: the covered occupied relays
    # number Binomial(20, 1/4), spread uniformly over the twenty, and the
    # covered idle ones Binomial(20, 1/4) (none at all makes an idle frame).
    # Ids 0..29 were handed out and every third freed again, so free ids
    # sit below and among the occupied ones
    K, beta, trials = 40, 4.0, 3000
    hits = np.zeros(K, dtype=np.int64)
    counts = ([], [])
    for r in range(trials):
        proto = make_fixed(OdwfFixed, K, 1, 1.0, beta, 7000 + r)
        proto._deliverers = lambda: None
        bank = proto.banks[0]
        ids = bank.take(30)
        bank.add(0, ids[::3])
        bank.deliver(0)
        occupied = [k for k in ids if k % 3]
        bank.add(1, occupied)
        proto.next_seq = 2
        if proto.step(2).kind == IDLE:
            counts[0].append(0)
            counts[1].append(0)
            continue
        odwf_bank_is_consistent(proto, bank)
        covered = np.intersect1d(bank.holders[2], occupied)
        hits[covered] += 1
        counts[0].append(covered.size)
        counts[1].append(len(bank.holders[2]) - covered.size)
    want = np.random.default_rng(65).binomial(20, 1 / beta, (2, trials))
    for got, ref in zip(counts, want):
        assert_same_law(got, ref.tolist())
    assert hits.sum() == sum(counts[0])
    assert stats.chisquare(hits[occupied]).pvalue > 1e-3


def fifos_with_gaps(seed):
    """A _Fifos that handed out ids 0..15 and freed eight of them again,
    so free ids sit below and among the occupied ones, the last id
    included, and a seeded uniform stream to draw ids with."""
    bank, occupied = relaysim.protocol._Fifos(10), [1, 2, 5, 6, 9, 11, 12, 15]
    ids = bank.take(16)
    bank.add(0, [k for k in ids if k not in occupied])
    bank.deliver(0)
    bank.add(1, occupied)
    bank.add(2, occupied[::3])
    assert sorted(bank.free + occupied) == ids and bank.size == len(occupied)
    rng = np.random.default_rng(seed)
    return bank, occupied, relaysim.protocol._stream(lambda: rng.random(1024))


@pytest.mark.parametrize("skip", [set(), {2, 11}])
def test_fifos_pick_is_uniform_over_occupied_ids_not_skipped(skip):
    bank, occupied, u = fifos_with_gaps(81)
    allowed, draws = [k for k in occupied if k not in skip], 20000
    picks = Counter(bank.pick(u, skip) for _ in range(draws))
    assert set(picks) == set(allowed)
    assert stats.chisquare([picks[k] for k in allowed]).pvalue > 1e-3


def test_fifos_cover_keeps_each_occupied_id_at_rate_m_over_len():
    bank, occupied, u = fifos_with_gaps(82)
    n, m, draws = len(bank.fifo), 5, 20000
    assert bank.cover(u, 0) == [] and sorted(bank.cover(u, n)) == occupied
    hits = Counter()
    for _ in range(draws):
        ids = bank.cover(u, m)
        assert len(set(ids)) == len(ids) and set(ids) <= set(occupied)
        hits.update(ids)
    want, sigma = draws * m / n, math.sqrt(draws * m / n * (1 - m / n))
    assert all(abs(hits[k] - want) <= 5 * sigma for k in occupied)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.sampled_from([1.0, 1.01, 1.3, 2.0, 6.0]),
       st.integers(0, 2**32 - 1))
def test_fixed_odwf_bank_invariants_hold_every_frame(K, N, beta, seed):
    # near beta = 1 a relay frame drains every bank, and the next source
    # frame takes every id back from the free stack
    proto = make_fixed(OdwfFixed, K, N, 1.0, beta, seed)
    for t in range(80):
        proto.step(t)
        for bank in proto.banks:
            odwf_bank_is_consistent(proto, bank)
        assert proto.census()[1] == len(proto.created_frame)


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
    delays = delays_of(outs)
    assert delays and sum(d == 1 for d in delays) / len(delays) >= 0.99


def test_baseline_fixed_batch_holds_channel_until_drained():
    proto = make_fixed(BaselineFixed, 4, 2, 1.0, 8.0, 32)
    for t in range(3000):
        pending = proto.census()[1] > 0
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
    assert len(seqs) + proto.census()[1] == proto.next_seq
    assert not hasattr(proto, "banks")    # the baseline keeps no relay ids
    assert min(delays_of(outs)) >= 1
    # packet i of a batch, seq base_seq + i, came in on subcarrier i; all
    # packets of a batch share its creation frame
    created = {}
    for out in outs:
        for seq, frame in out.delivered:
            assert created.setdefault(seq // 3, frame) == frame
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
    delays = delays_of(outs)
    assert max(delays) > 1
    seqs = delivered_seqs(outs)
    assert len(seqs) + proto.census()[1] == proto.next_seq


def holders(proto, i):
    """How many relays of a BaselineFixed hold packet i of the batch."""
    return int(proto.sizes[np.flatnonzero(proto.labels >> i & 1)].sum())


def test_baseline_fixed_occupancy_tracks_the_holder_union():
    # partial deliveries shrink the batch between source frames, so a cell
    # left holding only delivered packets would show up as a wrong occupancy
    proto = make_fixed(BaselineFixed, 30, 3, 1.0, 6.0, 36)
    changed = 0
    for t in range(1500):
        before = proto.census()[1]
        proto.step(t)
        occupied, in_flight = proto.census()
        changed += in_flight not in (0, before)
        if not proto.pending:
            assert occupied == [0, 0, 0]
            continue
        # cells of relays that hold an undelivered packet
        live = (proto.labels & sum(1 << i for i in proto.pending)) != 0
        assert occupied == [int(proto.sizes[live].sum())] * 3
        assert (proto.sizes > 0).all() and proto.sizes.sum() <= proto.K
        assert all(holders(proto, i) for i in proto.pending)   # no packet is lost
    assert changed > 50


def test_baseline_fixed_one_relay_may_serve_both_subcarriers():
    proto = make_fixed(BaselineFixed, 1, 2, 1.0, 2.0, 35)
    outs = drive(proto, 500)
    assert any(len(o.delivered) == 2 for o in outs)


def test_baseline_fixed_handles_more_subcarriers_than_label_bits():
    # N >= 63 keeps the packet masks of the cells as Python integers
    proto = make_fixed(BaselineFixed, 20, 70, 1.0, 1.5, 37)
    outs = drive(proto, 300)
    seqs = delivered_seqs(outs)
    assert seqs and len(seqs) == len(set(seqs))
    assert len(seqs) + proto.census()[1] == proto.next_seq
    for i in proto.pending:
        assert holders(proto, i)


@pytest.mark.parametrize("K,N,p,beta,partial", [
    (2000, 4, 1e8, math.sqrt(2000) / math.log(2000), False),
    (30, 3, 1.0, 6.0, True)])
def test_baseline_fixed_runs_the_matching_only_when_reach_is_partial(
        monkeypatch, K, N, p, beta, partial):
    # a frame where every subcarrier reaches every pending packet delivers
    # them all without the matching; any other relay frame calls it once.
    # The name is the one perfbench/tracing.py patches.
    real, calls = relaysim.protocol.max_bipartite_matching, []

    def counted(adjacency, n_right):
        calls.append(adjacency)
        return real(adjacency, n_right)

    monkeypatch.setattr(relaysim.protocol, "max_bipartite_matching", counted)
    proto = make_fixed(BaselineFixed, K, N, p, beta, 38)
    relay_frames = 0
    for t in range(1000):
        before, seen = list(proto.pending), len(calls)
        out = proto.step(t)
        relay_frames += out.kind == RELAY_TX
        if out.kind == RELAY_TX and len(calls) == seen:    # the shortcut
            assert sorted(s - proto.base_seq for s, _ in out.delivered) == before
        else:
            assert len(calls) - seen == (out.kind == RELAY_TX)
    assert relay_frames > 300
    assert bool(calls) == partial
    if partial:    # some fallback frames leave a pending packet behind
        assert any(len(adjacency) > real(adjacency, N)[1] for adjacency in calls)


class CountedEdges:
    """An adjacency list that adds to tally[0] each edge the search takes."""

    def __init__(self, edges, tally):
        self.edges, self.tally = edges, tally

    def __iter__(self):
        for v in self.edges:
            self.tally[0] += 1
            yield v


def test_baseline_fixed_matching_takes_each_packets_own_subcarrier_first(monkeypatch):
    # packet i lists the subcarriers from i on, so a near-complete graph
    # matches most packets at their first edge. Listed 0, 1, ..., N - 1 each
    # packet walks an augmenting path through every packet before it: these
    # 5 matchings took 22,710,281 edges that way, against 84,754 rotated.
    real, calls = relaysim.protocol.max_bipartite_matching, []

    def counted(adjacency, n_right):
        calls.append(adjacency)
        return real(adjacency, n_right)

    monkeypatch.setattr(relaysim.protocol, "max_bipartite_matching", counted)
    N = 300
    proto = make_fixed(BaselineFixed, 6, N, 1.0, 1.2, 1)
    drive(proto, 10)
    assert len(calls) >= 3
    tally = [0]
    for adjacency in calls:
        real([CountedEdges(edges, tally) for edges in adjacency], N)
    assert tally[0] < len(calls) * N ** 2


def sure_packets(proto, beta):
    """The packets of a BaselineFixed's batch that some sure cell holds: a
    cell whose up probability, -expm1(size * log(1 - 1/beta)), is 1.0."""
    sure = -np.expm1(proto.sizes * math.log1p(-1 / beta)) == 1.0
    return {i for label in proto.labels[sure].tolist() for i in range(proto.N)
            if label >> i & 1}


# (K, N, p, beta, mixed): the fixed-k10k baseline shape, whose packets sit in
# sure cells, and a shape where some pending packet often does not
SURE_SHAPES = [(10**4, 4, 1e8, math.sqrt(10**4) / math.log(10**4), False),
               (700, 2, 1.0, 4.0, True)]


@pytest.mark.parametrize("K,N,p,beta,mixed", SURE_SHAPES)
def test_baseline_fixed_sure_relay_frames_draw_nothing(K, N, p, beta, mixed):
    # rng.random() < 1.0 always holds, so a sure cell is up on every
    # subcarrier: a relay frame whose pending packets all sit in sure cells
    # delivers them all without a draw, and any other relay frame draws
    proto = make_fixed(BaselineFixed, K, N, p, beta, 39)
    seen = Counter()
    for t in range(2000):
        before = list(proto.pending)
        sure = bool(before) and set(before) <= sure_packets(proto, beta)
        state = proto.rng.bit_generator.state
        out = proto.step(t)
        if out.kind != RELAY_TX:
            continue
        assert (proto.rng.bit_generator.state != state) is not sure
        if sure:
            assert sorted(s - proto.base_seq for s, _ in out.delivered) == before
        seen[sure] += 1
    assert seen[True] > 100 and (seen[False] > 100) is mixed


@pytest.mark.parametrize("K", [10**8, 10**12])
def test_fixed_baseline_holder_counts_are_binomial_at_huge_k(K):
    # relay counts no id array could hold: after a source frame the holders
    # of a packet number Binomial(K, 1/beta) and the relays holding anything
    # Binomial(K, 1 - (1 - 1/beta)^N); one relay frame then drains the batch
    N, beta, runs = 3, 4.0, 300
    p, p_any = 1 / beta, 1 - (1 - 1 / beta) ** N
    z_one, z_any = [], []
    for r in range(runs):
        proto = make_fixed(BaselineFixed, K, N, 1.0, beta, 60_000 + r)
        assert proto.step(0).kind == SOURCE_TX
        z_one.append((holders(proto, r % N) - K * p) / math.sqrt(K * p * (1 - p)))
        z_any.append((proto.census()[0][0] - K * p_any)
                     / math.sqrt(K * p_any * (1 - p_any)))
        out = proto.step(1)
        assert len(out.delivered) == N and proto.census()[1] == 0
    for z in (z_one, z_any):
        assert stats.kstest(z, "norm").pvalue > 1e-3


@pytest.mark.parametrize("K,N", [(7, 3), (7, 10), (3, 70)])
def test_fixed_baseline_at_beta_one_makes_one_cell_of_all_relays(K, N):
    # every link is up: one pattern per chunk has all the mass
    proto = make_fixed(BaselineFixed, K, N, 1.0, 1.0, 63)
    for t in range(0, 20, 2):
        assert proto.step(t).kind == SOURCE_TX
        assert proto.labels.tolist() == [2 ** N - 1] and proto.sizes.tolist() == [K]
        assert len(proto.step(t + 1).delivered) == N


@pytest.mark.parametrize("K,N", [(12, 8), (10**12, 8), (10**12, 12)])
def test_fixed_baseline_at_huge_beta_raises_nothing(K, N):
    # pattern probabilities down to 1e-72 must pass numpy's pvals checks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proto = make_fixed(BaselineFixed, K, N, 1.0, 1e9, 64)
        outs = drive(proto, 50)
    if K < 10**9:
        assert all(o is IDLE_FRAME for o in outs)
    else:    # about 1000 relays connect per subcarrier, a few to the destination
        assert [o.kind for o in outs] == [SOURCE_TX] + [RELAY_TX] * 49
        assert abs(sum(holders(proto, i) for i in range(N)) / N - 1000) < 200


# ------------------------- binomial oracle for the fixed baseline's split


def cell_configurations(K, N, beta, seed, draws, oracle):
    """One source phase per draw, as its cells, {label: size} sorted by
    label, or IDLE: from BaselineFixed or from binomial_cell_split."""
    proto = make_fixed(BaselineFixed, K, N, 1.0, beta, seed)
    rng, p = proto.rng, 1 / beta
    configurations = []
    for t in range(draws):
        if oracle:
            cells = binomial_cell_split(rng, K, N, p)
        else:
            cells = (None if proto._source_tx(t) is IDLE_FRAME
                     else (proto.labels.tolist(), proto.sizes.tolist()))
        configurations.append(IDLE if cells is None else tuple(sorted(zip(*cells))))
    return configurations


# (K, N, beta): one chunk of 4 with about 440 configurations, a full chunk of
# 8, and two chunks, 8 + 1 and 8 + 4, drawn one attempt at a time with every
# chunk split whatever the first covered; near beta = 1 most configurations
# have all but a few links up. At K = 1, N = 9 about 53 % of attempts miss a
# subcarrier in their first chunk and still draw their second
SPLIT_LAWS = [(3, 4, 2.0), (2, 8, 1.1), (2, 9, 1.1), (1, 9, 1.1), (2, 12, 1.05)]


@pytest.mark.parametrize("K,N,beta", SPLIT_LAWS)
def test_fixed_baseline_cell_split_matches_binomial_oracle(K, N, beta):
    # BaselineFixed draws one-chunk attempts (N <= 8) BLOCK at a time, so
    # there the 15,000 attempts cross a few hundred block boundaries
    draws = 15_000
    new = Counter(cell_configurations(K, N, beta, 5100 + N, draws, oracle=False))
    old = Counter(cell_configurations(K, N, beta, 5200 + N, draws, oracle=True))
    # configurations seen fewer than 10 times in both samples share one category
    common = [c for c in new.keys() | old.keys() if new[c] + old[c] >= 10]
    table = np.array([[side[c] for c in common] for side in (new, old)])
    table = np.column_stack((table, draws - table.sum(axis=1)))
    table = table[:, table.sum(axis=0) > 0]
    assert stats.chi2_contingency(table).pvalue > 1e-3


@pytest.mark.parametrize("K,N,beta,calls", [(30, 4, 2.0, 2), (30, 8, 1.5, 2),
                                            (3, 12, 2.0, 2 * 128), (20, 70, 1.5, 9 * 128)])
def test_fixed_baseline_draws_each_chunk_once_a_block(K, N, beta, calls):
    # one multinomial call per chunk over a block's cells: 128 one-chunk
    # attempts (N <= 8) are two blocks of BLOCK = 64, each split by one call
    # from K relays per attempt; past one chunk a block is one attempt, which
    # splits every chunk, 2 at N = 12 and 9 at N = 70, whether or not an
    # earlier chunk missed a subcarrier (at K = 3, N = 12 most attempts do)
    proto = make_fixed(BaselineFixed, K, N, 1.0, beta, 73)
    proto.rng = CountingRng(proto.rng)
    kinds = Counter(proto._source_tx(t).kind for t in range(128))
    assert len(proto.rng.multinomials) == calls
    first = proto.rng.multinomials[::len(proto.chunks)]
    assert [n.tolist() for n in first] == [[K] * (128 // len(first))] * len(first)
    assert kinds[SOURCE_TX] and (kinds[IDLE] > 64) is (K == 3)


# ------------------------------------ dense oracle for the fixed baseline


def baseline_snapshot(scheme, seed, frames, K, N, beta):
    """Phase of the last of `frames` frames, packets in flight and relays
    holding them after it, then the packets the next relay frame delivers."""
    proto = make_fixed(scheme, K, N, 1.0, beta, seed)
    for t in range(frames):
        out = proto.step(t)
    occupied, in_flight = proto.census()
    snap = (out.kind, in_flight, occupied[0])
    for t in range(frames, frames + 10_000):
        nxt = proto.step(t)
        if nxt.kind == RELAY_TX:
            return snap + (len(nxt.delivered),)
    raise AssertionError("no relay frame")


def sure_share(K, N, beta, batches=1000):
    """The share of a BaselineFixed's batches whose packets all sit in sure
    cells, which drain in one relay frame that draws nothing."""
    proto = make_fixed(BaselineFixed, K, N, 1.0, beta, 65)
    sure, t = 0, 0
    for _ in range(batches):
        while proto.step(t).kind != SOURCE_TX:
            t += 1
        t += 1
        sure += sure_packets(proto, beta) == set(range(N))
    return sure / batches


# (K, N, beta, sure share bounds): K = 6 and K = 1 deliver part of a batch
# often (K = 1 keeps a single cell), K = 30 splits into up to seven cells,
# and K = 200 at beta = sqrt(K)/ln K nearly always drains a batch in one
# frame, all four drawing every relay frame; at K = 2000, beta =
# sqrt(K)/ln K every batch sits in sure cells, and at K = 700, beta = 4 some do
BASELINE_LAWS = [(6, 3, 6.0, (0, 0)), (1, 2, 4.0, (0, 0)), (30, 3, 6.0, (0, 0)),
                 (200, 4, 2.67, (0, 0)),
                 (2000, 2, math.sqrt(2000) / math.log(2000), (1, 1)),
                 (700, 2, 4.0, (0.1, 0.5))]


@pytest.mark.parametrize("K,N,beta,share", BASELINE_LAWS)
def test_fixed_baseline_agrees_with_dense_links(K, N, beta, share):
    assert share[0] <= sure_share(K, N, beta) <= share[1]
    # one snapshot per independent run, so the contingency tests' cells are i.i.d.
    runs, frames = 300, 25
    new = [baseline_snapshot(BaselineFixed, 3000 + r, frames, K, N, beta)
           for r in range(runs)]
    old = [baseline_snapshot(DenseBaselineFixed, 9000 + r, frames, K, N, beta)
           for r in range(runs)]
    kinds = (SOURCE_TX, RELAY_TX, IDLE)
    assert_same_law([kinds.index(s[0]) for s in new], [kinds.index(s[0]) for s in old])
    for i in (1, 2, 3):   # in flight, holders, delivered per relay frame
        assert_same_law([s[i] for s in new], [s[i] for s in old])


# --------------------------------------------------------------- mobile ODWF


FULL_COVER = dict(p=32.0, beta=2.0, alpha=4.0, M=5, q=0.1, R=1.0)  # cov = 2R


def test_mobile_odwf_full_coverage_alternates():
    proto = make_mobile(OdwfMobile, 8, 1, seed=36, **FULL_COVER)
    outs = []
    # broadcast reaches everyone, delivery purges everyone
    for t in range(60):
        outs.append(proto.step(t))
        if outs[-1].kind == SOURCE_TX:
            assert proto.census() == ([8], 1)
            assert all(relay_state(proto, k).banks == [[t // 2]] for k in range(8))
        else:
            assert proto.census() == ([0], 0)
    assert [o.kind for o in outs] == [SOURCE_TX, RELAY_TX] * 30


def test_mobile_odwf_frozen_walk_out_of_reach_idles():
    proto = make_mobile(OdwfMobile, 2, 1, p=1.0, beta=1e6, alpha=2.0,
                        M=5, q=0.0, R=1.0, seed=37)
    # only strip 1 meets the source disk, only strip 5 the destination's
    assert np.flatnonzero(proto.p_src).tolist() == [1]
    assert np.flatnonzero(proto.p_dst).tolist() == [5]
    place(proto, [2, 3])
    outs = drive(proto, 200)
    assert all(o.kind == IDLE for o in outs)
    assert proto.idle.tolist() == [0, 0, 1, 1, 0, 0]     # the relays in strips 2, 3
    assert proto.next_seq == 0


def test_mobile_odwf_conservation_and_fifo():
    proto = make_mobile(OdwfMobile, 200, 1, p=1.0, beta=4.0, alpha=4.0,
                        M=5, q=0.1, R=1.0, seed=38)
    assert len(proto.banks) == 1    # mobile relays have no subcarriers
    sent = record_transmitters(proto)
    outs = []
    for t in range(3000):
        out = proto.step(t)
        outs.append(out)
        if out.kind == RELAY_TX:
            ((seq, created),), (k,) = out.delivered, sent
            sent.clear()
            assert t - created >= 1
            # FIFO: the head was the oldest seq this relay still held
            assert all(s > seq for s in relay_state(proto, k).banks[0])
        assert not sent
    seqs = delivered_seqs(outs)
    assert len(seqs) == len(set(seqs))
    assert len(seqs) + proto.census()[1] == proto.next_seq
    assert len(seqs) > 100


def test_mobile_odwf_occupancy_counter_matches_state():
    proto = make_mobile(OdwfMobile, 50, 1, p=1.0, beta=4.0, alpha=4.0,
                        M=5, q=0.2, R=1.0, seed=39)
    for t in range(500):
        proto.step(t)
        occupied, in_flight = proto.census()
        recount = sum(1 for k in range(proto.K) if relay_state(proto, k).banks[0])
        assert occupied == [recount]
        assert in_flight == sum(len(bank.holders) for bank in proto.banks)


def test_mobile_odwf_buffer_guard_trips():
    proto = make_mobile(OdwfMobile, 5, 1, seed=40, buffer_cap=4, **FULL_COVER)
    # no relay ever reaches destination coverage, so source coverage is no
    # longer conditioned on missing it
    proto.p_dst[:], proto.dst_reach = 0.0, []
    proto.p_src_given_no_dst[:] = proto.p_src
    proto.thin_rate = proto.p_src.max()
    with pytest.raises(BufferOverflowError):
        drive(proto, 10)
    assert proto.next_seq == 5


def test_mobile_odwf_at_int64_scale_keeps_no_entry_per_relay():
    # K = 2**52 relays, the most a mobile row may have, under disks that
    # cover none of them in 100 frames (radius 1e-20) and four movers per
    # frame: the idle relays are only counted per strip, and strip grows
    # with the ids handed out, none here
    K = 2**52
    proto = make_mobile(OdwfMobile, K, 1, p=1.0, beta=1e80, alpha=4.0, M=5,
                        q=2.0**-51, R=1.0, seed=73)
    assert proto.few
    assert all(out.kind == IDLE for out in drive(proto, 100))
    assert proto.strip.size < 1024
    assert sum(proto.store) == K and proto.census() == ([0], 0)


def test_mobile_odwf_deterministic_under_seed():
    kw = dict(p=1.0, beta=4.0, alpha=4.0, M=5, q=0.1, R=1.0)
    a = make_mobile(OdwfMobile, 60, 1, seed=41, **kw)
    b = make_mobile(OdwfMobile, 60, 1, seed=41, **kw)
    sent_a, sent_b = record_transmitters(a), record_transmitters(b)
    for t in range(400):
        assert a.step(t) == b.step(t)
        assert sent_a == sent_b


# ----------------------------------------------------------- mobile baseline


def test_mobile_baseline_full_coverage_alternates():
    proto = make_mobile(BaselineMobile, 6, 1, seed=42, **FULL_COVER)
    outs = drive(proto, 40)
    assert [o.kind for o in outs] == [SOURCE_TX, RELAY_TX] * 20
    assert set(delays_of(outs)) == {1}
    proto2 = make_mobile(BaselineMobile, 6, 1, seed=42, **FULL_COVER)
    proto2.step(0)
    assert proto2.census() == ([6], 1)


def test_mobile_baseline_stranded_holder_never_delivers():
    # the lone relay takes the packet near the source and, with the walk
    # frozen, can never reach destination coverage
    proto = make_mobile(BaselineMobile, 1, 1, p=1.0, beta=16.0, alpha=4.0,
                        M=5, q=0.0, R=1.0, seed=43)
    place(proto, [1])
    outs = drive(proto, 600)
    kinds = [o.kind for o in outs]
    assert SOURCE_TX in kinds
    first = kinds.index(SOURCE_TX)
    assert all(k == IDLE for k in kinds[first + 1:])
    assert proto.census()[1] == 1
    assert not delivered_seqs(outs)


def test_mobile_baseline_single_outstanding_packet():
    proto = make_mobile(BaselineMobile, 40, 1, p=1.0, beta=4.0, alpha=4.0,
                        M=5, q=0.1, R=1.0, seed=44)
    outs = []
    for t in range(3000):
        pending = proto.census()[1]
        assert pending in (0, 1)
        out = proto.step(t)
        outs.append(out)
        if pending == 1:
            assert out.kind in (RELAY_TX, IDLE)
        else:
            assert out.kind in (SOURCE_TX, IDLE)
    seqs = delivered_seqs(outs)
    assert len(seqs) == len(set(seqs))
    assert len(seqs) + proto.census()[1] == proto.next_seq
    assert len(seqs) > 50
    delays = delays_of(outs)
    assert min(delays) >= 1 and max(delays) > 1


def mobile_state_is_consistent(proto):
    """The per-strip counts add up to K and, for ODWF, match the buffered
    relays: the bank's ids are consistent, and the strips of its occupied
    relays tally to the buffered counts."""
    assert proto.counts.min() >= 0 and proto.counts[:, 0].tolist() == [0, 0]
    assert int(proto.counts.sum()) == proto.K
    if isinstance(proto, BaselineMobile):
        assert proto.buffered.sum() == proto.held
        return
    odwf_bank_is_consistent(proto, proto.bank)


def test_mobile_strip_counters_match_state():
    # the per-strip counts are kept current through moves, deliveries and
    # broadcasts; q = 0.02 takes the few-movers walk, q = 0.3 the other one
    for scheme in (OdwfMobile, BaselineMobile):
        for q, seed in ((0.02, 45), (0.3, 46)):
            proto = make_mobile(scheme, 120, 1, p=4.0, beta=2.0, alpha=4.0,
                                M=5, q=q, R=1.0, seed=seed)
            assert proto.few == (q == 0.02)
            kinds = set()
            for t in range(400):
                kinds.add(proto.step(t).kind)
                mobile_state_is_consistent(proto)
                assert proto.census()[0] == [int(proto.buffered.sum())]
            assert {SOURCE_TX, RELAY_TX} <= kinds


@pytest.mark.parametrize("few", [True, False])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mobile_odwf_bank_invariants_hold_every_frame(few, data):
    # few: at most 3 movers per frame, walked one by one; otherwise at least
    # 10, walked by the multinomial draw. (p, beta) runs from full coverage,
    # which drains the bank on every relay frame, to narrow disks, where
    # thin lets phase I thin from any number of ids
    K = data.draw(st.integers(1, 30) if few else st.integers(25, 40))
    q = data.draw(st.sampled_from([0.0, 0.01, 0.05] if few else [0.2, 0.35, 0.5]))
    p, beta = data.draw(st.sampled_from([(32.0, 1.0), (32.0, 2.0), (4.0, 2.0),
                                         (1.0, 4.0), (1.0, 1024.0)]))
    proto = make_mobile(OdwfMobile, K, 1, p=p, beta=beta, alpha=4.0,
                        M=data.draw(st.integers(2, 5)), q=q, R=1.0,
                        seed=data.draw(st.integers(0, 2**32 - 1)))
    assert proto.few == few
    if data.draw(st.booleans(), label="thin"):
        proto.THIN_FROM = 0
    for t in range(80):
        proto.step(t)
        mobile_state_is_consistent(proto)
        assert proto.census()[0] == [int(proto.buffered.sum())]


def test_mobile_odwf_few_movers_pick_is_uniform_over_unpicked_buffered_relays():
    # ids 0..9 in strip 3, five of them freed again below and among the five
    # buffered relays; each trial moves two buffered movers, the first down,
    # the second up and uniform over the four not picked, so every ordered
    # pair is as likely and no free id ever moves
    proto = make_mobile(OdwfMobile, 12, 1, p=1.0, beta=4.0, alpha=4.0, M=5,
                        q=0.0, R=1.0, seed=66)
    bank, buffered, trials = proto.bank, [1, 4, 5, 8, 9], 6000
    assert proto.few
    place(proto, [3] * 12)
    ids = proto._take(bank, [(3, 10)])
    bank.add(0, [k for k in ids if k not in buffered])
    bank.add(1, buffered)
    proto._emptied(bank.deliver(0)[1])
    odwf_bank_is_consistent(proto, bank)
    strips, counts = proto.strip.copy(), proto.counts.copy()
    pairs = Counter()
    for _ in range(trials):
        assert proto._groups()[-1] == 5
        proto._move(proto.M + 1, 0)    # the buffered group
        proto._move(proto.M + 1, 1)
        (down,), (up,) = np.flatnonzero(proto.strip == 2), np.flatnonzero(proto.strip == 4)
        assert np.flatnonzero(proto.strip != strips).tolist() == sorted((down, up))
        pairs[down, up] += 1
        mobile_state_is_consistent(proto)
        proto.strip[:], proto.counts[:] = strips, counts
    cells = [pairs[a, b] for a in buffered for b in buffered if a != b]
    assert sum(cells) == trials
    assert stats.chisquare(cells).pvalue > 1e-3


def test_mobile_place_rebuilds_counters():
    proto = make_mobile(OdwfMobile, 6, 1, seed=47, **FULL_COVER)
    proto.step(0)                      # everyone buffers packet 0
    place(proto, [1, 1, 2, 5, 5, 5])
    assert (proto.idle + proto.buffered).tolist() == [0, 2, 1, 0, 0, 3]
    assert proto.buffered.tolist() == [0, 2, 1, 0, 0, 3]
    mobile_state_is_consistent(proto)


# ------------------------------------------------------- walk of the counts


def buffer_relays(proto, fresh):
    """Make fresh[r] idle relays of strip r buffered: ODWF gives them a
    packet, the baseline holds one."""
    fresh = np.asarray(fresh, dtype=np.int64)
    if isinstance(proto, OdwfMobile):    # a source frame that covers just those
        assert proto.bank.size == 0
        proto._walk = proto._deliverers = lambda: None
        proto._in_coverage = lambda row, reach: [(r, c) for r, c in enumerate(fresh.tolist())
                                                 if c]
        assert proto.step(0) is SOURCE_FRAME
        del proto._walk, proto._deliverers, proto._in_coverage
    else:
        proto.created, proto.next_seq = 0, 1    # packet 0 is out
        proto.held = int(fresh.sum())
        proto.idle -= fresh
        proto.buffered += fresh


@pytest.mark.parametrize("q", [0.02, 0.3, 0.5])
def test_mobile_idle_counts_stay_multinomial(q):
    # the walk is doubly stochastic, so Multinomial(K, 1/M) strip counts, as
    # drawn at the start, keep that law; K = 40 takes the few-movers walk at
    # q = 0.02 and the multinomial one above
    K, M, runs, steps = 40, 3, 1500, 5
    rng = np.random.default_rng(60)
    walked = []
    for r in range(runs):
        proto = make_mobile(BaselineMobile, K, 1, p=1.0, beta=4.0, alpha=4.0,
                            M=M, q=q, R=1.0, seed=3000 + r)
        for _ in range(steps):
            proto._walk()
        walked.append(proto.idle[1:].copy())
    assert proto.few == (q == 0.02)
    walked = np.array(walked)
    fresh = rng.multinomial(K, [1.0 / M] * M, size=runs)
    assert np.all(walked.sum(axis=1) == K)
    for strip in range(M):
        assert_same_law(walked[:, strip].tolist(), fresh[:, strip].tolist())
    assert_same_law((walked[:, 0] - walked[:, -1]).tolist(),
                    (fresh[:, 0] - fresh[:, -1]).tolist())


@pytest.mark.parametrize("scheme", [OdwfMobile, BaselineMobile])
def test_mobile_walk_frozen_at_q_zero(scheme):
    proto = make_mobile(scheme, 50, 1, p=1.0, beta=4.0, alpha=4.0, M=5, q=0.0,
                        R=1.0, seed=61)
    buffer_relays(proto, [0, 3, 0, 2, 0, 0])
    counts = proto.counts.copy()
    strips = proto.strip.copy() if scheme is OdwfMobile else None
    for _ in range(200):
        proto._walk()
    assert np.array_equal(proto.counts, counts)
    if scheme is OdwfMobile:
        assert np.array_equal(proto.strip, strips)


@pytest.mark.parametrize("scheme", [OdwfMobile, BaselineMobile])
def test_mobile_walk_moves_up_half_the_time_at_the_largest_k(scheme):
    # at K = 2**52, the most a mobile row may have, a mover's direction is
    # still a fair bit of its pick; past it the pick's low bit is lost and
    # movers go down. Four movers a frame under disks that cover no relay
    K = 2**52
    proto = make_mobile(scheme, K, 1, p=1.0, beta=1e80, alpha=4.0, M=5, q=2.0**-51,
                        R=1.0, seed=3)
    assert proto.few
    ups, move = [], proto._move
    proto._move = lambda group, up: (ups.append(up), move(group, up))
    drive(proto, 2000)
    n = len(ups)
    assert n > 4000
    assert abs(sum(ups) - n / 2) <= 5 * math.sqrt(n) / 2


@pytest.mark.parametrize("scheme", [OdwfMobile, BaselineMobile])
@pytest.mark.parametrize("q", [0.05, 0.3])
def test_mobile_walk_flows_match_transition_matrix(scheme, q):
    # all relays start in one strip, split between the idle and the buffered
    # class; one step sends each class along the row of the transition matrix,
    # reflecting at strips 1 and M. K = 40 takes the few-movers walk at
    # q = 0.05 and the multinomial one at q = 0.3
    K, M, runs = 40, 4, 600
    Q = transition_matrix(M, q)
    for start in range(1, M + 1):
        landed = np.zeros((2, M), dtype=np.int64)
        for r in range(runs):
            proto = make_mobile(scheme, K, 1, p=1.0, beta=4.0, alpha=4.0,
                                M=M, q=q, R=1.0, seed=4000 + 1000 * start + r)
            place(proto, [start] * K)
            fresh = np.zeros(M + 1, dtype=np.int64)
            fresh[start] = K // 4
            buffer_relays(proto, fresh)
            proto._walk()
            mobile_state_is_consistent(proto)
            landed += proto.counts[:, 1:]
        assert proto.few == (q == 0.05)
        for cls, n in ((0, K - K // 4), (1, K // 4)):
            total = runs * n
            for j in range(M):
                want = Q[start - 1, j]
                sigma = math.sqrt(want * (1 - want) / total)
                assert abs(landed[cls, j] / total - want) <= 4 * sigma + 1e-12


# --------------------------------- coordinate-sampling oracle, mobile schemes


# (relays, config) per law. M = 5 strips; the coverage radius
# (p/beta)^(1/4) is 0.71 in "apart", so the source and destination windows
# stay apart; 1.19 in "overlapping", so strips 2-4 meet both disks partially
# (in strip 3 a buffered relay outside destination coverage is in source
# coverage with probability 0.35, against 0.64 for any relay there); and
# 2.0 in FULL_COVER, which covers the whole disk from either end. q = 0.05
# takes the sparse walk, q = 0.1 the dense one. All of these move at most
# 8 relays per frame on average (2qK <= 8), so the new schemes walk them
# mover by mover; "apart_many" walks by the multinomial draw. In "narrow"
# (radius 0.18, M = 2) a strip is inside a disk with probability 0.03, so
# ODWF, allowed to thin from any number of buffered relays, draws which of
# them are covered by thinning.
MOBILE_LAWS = {
    "apart": (60, dict(p=1.0, beta=4.0, alpha=4.0, M=5, q=0.05, R=1.0)),
    "overlapping": (6, dict(p=4.0, beta=2.0, alpha=4.0, M=5, q=0.1, R=1.0)),
    "full_cover": (8, FULL_COVER),
    "apart_many": (60, dict(p=1.0, beta=4.0, alpha=4.0, M=5, q=0.2, R=1.0)),
    "narrow": (300, dict(p=1.0, beta=1024.0, alpha=4.0, M=2, q=0.01, R=1.0)),
}


def mobile_snapshot(scheme, seed, frames, K, cfg):
    """Phase of the last frame, then relays holding packets and packets in
    flight after it."""
    proto = make_mobile(scheme, K, 1, seed=seed, **cfg)
    if scheme is OdwfMobile:
        proto.THIN_FROM = 0    # so that "narrow" thins at K = 300
    for t in range(frames):
        out = proto.step(t)
    occupied, in_flight = proto.census()
    return out.kind, occupied[0], in_flight


@pytest.mark.parametrize("law", sorted(MOBILE_LAWS))
@pytest.mark.parametrize("scheme,oracle", [(OdwfMobile, DenseOdwfMobile),
                                           (BaselineMobile, DenseBaselineMobile),
                                           (OdwfMobile, StripOdwfMobile),
                                           (BaselineMobile, StripBaselineMobile)])
def test_mobile_schemes_agree_with_coordinate_sampling(scheme, oracle, law):
    # one snapshot per independent run, as for the fixed schemes; the oracle
    # samples coordinates, or walks every relay id through its strip
    runs, frames, (K, cfg) = 300, 40, MOBILE_LAWS[law]
    new = [mobile_snapshot(scheme, 2000 + r, frames, K, cfg) for r in range(runs)]
    old = [mobile_snapshot(oracle, 7000 + r, frames, K, cfg) for r in range(runs)]
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
    # (the new scheme counts the four idle ones)
    K, trials = 6, 8000
    cfg = dict(MOBILE_LAWS["overlapping"][1], q=0.0)
    new = make_mobile(OdwfMobile, K, 1, seed=50, **cfg)
    dense = make_mobile(DenseOdwfMobile, K, 1, seed=51, **cfg)
    place(new, [3] * K)
    buffer_relays(new, [0, 0, 0, 2, 0, 0])
    assert new.idle[3] == 4 and new.buffered[3] == 2
    dense.regions = np.full(K, 3, dtype=np.int64)
    dense._source_tx(0, np.array([0, 1]))
    outcomes = {"new": ([], []), "dense": ([], [])}
    for _ in range(trials):
        if new._deliverers() is None:
            ((held, fresh),) = new._covered() or [([], [])]
            outcomes["new"][0].append(len(held))
            outcomes["new"][1].append(sum(c for _, c in fresh))
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


@pytest.mark.parametrize("scale", [1.0, 0.1])
def test_mobile_odwf_covers_buffered_relays_independently(scale):
    # sixty buffered relays in each of strips 1-3, covered with probability
    # 0.5, 0.2, 0 (scale 1: one uniform per relay) or 0.05, 0.02, 0 (scale
    # 0.1: thinning): per strip the covered count is Binomial(60, p), and
    # every relay of a strip is as likely to be covered
    trials, rng = 4000, np.random.default_rng(63)
    proto = make_mobile(OdwfMobile, 300, 1, p=1.0, beta=4.0, alpha=4.0, M=5,
                        q=0.0, R=1.0, seed=62)
    place(proto, [1] * 100 + [2] * 100 + [3] * 100)
    buffer_relays(proto, [0, 60, 60, 60, 0, 0])
    proto.THIN_FROM = 0    # thinning at 180 buffered relays, where p allows
    probs = np.array([0.0, 0.5, 0.2, 0.0, 0.0, 0.0]) * scale
    proto.p_src_given_no_dst[:] = probs
    proto.thin_rate = probs.max()
    hits = np.zeros(proto.K, dtype=np.int64)
    per_strip = []
    for _ in range(trials):
        covered = proto._covered()
        held = np.array(covered[0][0] if covered else [], dtype=np.intp)
        assert np.unique(held).size == held.size
        hits[held] += 1
        per_strip.append(np.bincount(proto.strip[held], minlength=6))
    per_strip = np.array(per_strip)
    for strip in (1, 2, 3):
        want = rng.binomial(60, probs[strip], trials)
        assert_same_law(per_strip[:, strip].tolist(), want.tolist())
        members = np.flatnonzero(proto.strip == strip)
        if probs[strip]:
            assert stats.chisquare(hits[members]).pvalue > 1e-3


@pytest.mark.parametrize("scheme", [OdwfMobile, BaselineMobile])
@pytest.mark.parametrize("p,beta,reach", [(4.0, 2.0, ([1, 2, 3, 4], [2, 3, 4, 5])),
                                          (32.0, 2.0, ([1, 2, 3, 4, 5],) * 2),
                                          (4.0, 1e80, ([], []))])
def test_mobile_coverage_takes_scalar_binomials_over_nonzero_strips(scheme, p, beta, reach):
    # the walk is frozen and no relay is buffered, so the first frame draws
    # only coverage: Binomial(n, p) for each strip with n > 0 and p > 0 in
    # strip order, as scalar draws, and nothing where every strip has n = 0
    # or p = 0 (beta = 1e80). Strip 2 is empty, and reach lists the strips
    # that meet the source and the destination disk. The baseline's second
    # frame draws destination coverage likewise
    proto = make_mobile(scheme, 12, 1, p=p, beta=beta, alpha=4.0, M=5,
                        q=0.0, R=1.0, seed=71)
    place(proto, [1, 1, 3, 3, 3, 4, 4, 5, 5, 5, 5, 5])
    assert (np.flatnonzero(proto.p_src).tolist(), np.flatnonzero(proto.p_dst).tolist()) == reach
    twin = np.random.default_rng()
    twin.bit_generator.state = proto.rng.bit_generator.state

    def scalar(counts, probs):
        return [int(twin.binomial(n, p)) if n and p else 0
                for n, p in zip(counts.tolist(), probs.tolist())]

    fresh = scalar(proto.idle, proto.p_src)
    assert proto.step(0).kind == (SOURCE_TX if any(fresh) else IDLE)
    assert proto.buffered.tolist() == fresh
    assert proto.rng.bit_generator.state == twin.bit_generator.state
    if scheme is BaselineMobile and any(fresh):
        seen = scalar(proto.buffered, proto.p_dst)
        assert proto.step(1).kind == (RELAY_TX if any(seen) else IDLE)
        assert proto.rng.bit_generator.state == twin.bit_generator.state


class CountingRng:
    """A Generator that records its scalar binomial calls as (n, p), and the
    n of each multinomial call, one entry per draw of the call."""

    def __init__(self, rng):
        self.rng, self.calls, self.multinomials = rng, [], []

    def binomial(self, n, p, size=None):
        if size is None:
            self.calls.append((n, p))
        return self.rng.binomial(n, p, size)

    def multinomial(self, n, pvals, size=None):
        self.multinomials.append(np.broadcast_to(n, size or np.shape(n)))
        return self.rng.multinomial(n, pvals, size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("scheme", [OdwfMobile, BaselineMobile])
def test_mobile_coverage_visits_only_the_strips_a_disk_reaches(scheme):
    # M = 1000 strips, one relay each, every other one buffered, and disks
    # of radius 0.05 that reach the 7 strips at either end; the walk is
    # frozen. The precomputed (r, p) pairs hold exactly the strips with
    # p > 0, and each frame makes one scalar Binomial per reached strip
    # whose class has relays, in strip order, and no other
    M = 1000
    proto = make_mobile(scheme, M, 1, p=1.0, beta=0.05 ** -4, alpha=4.0, M=M,
                        q=0.0, R=1.0, seed=72)
    for probs, reach in ((proto.p_src, proto.src_reach), (proto.p_dst, proto.dst_reach)):
        assert [r for r, _ in reach] == np.flatnonzero(probs).tolist()
        assert [p for _, p in reach] == probs[probs > 0].tolist()
        assert len(reach) == np.count_nonzero(probs) == 7
    place(proto, np.arange(1, M + 1))
    buffer_relays(proto, np.arange(M + 1) % 2)
    proto.rng = CountingRng(proto.rng)
    kinds = set()
    for t in range(1, 300):
        idle, buffered = proto.idle.tolist(), proto.buffered.tolist()
        src = [(idle[r], p) for r, p in proto.src_reach if idle[r]]
        dst = [(buffered[r], p) for r, p in proto.dst_reach if buffered[r]]
        proto.rng.calls.clear()
        kind = proto.step(t).kind
        kinds.add(kind)
        if scheme is BaselineMobile:    # the network holds a packet, or is empty
            want = dst if any(buffered) else src
        else:
            want = dst + (src if kind != RELAY_TX else [])
        assert proto.rng.calls == want
    assert {SOURCE_TX, RELAY_TX} <= kinds


# --------------------------------------------------- exact FIFO contents


@pytest.mark.parametrize("make", [
    lambda: make_fixed(OdwfFixed, 500, 2, 1.0, 50.0, 48),
    lambda: make_mobile(OdwfMobile, 500, 1, p=1.0, beta=4.0, alpha=4.0,
                        M=5, q=0.05, R=1.0, seed=49),
    lambda: make_mobile(OdwfMobile, 1000, 1, p=1.0, beta=16.0, alpha=4.0,
                        M=5, q=0.001, R=1.0, seed=50),
], ids=["fixed", "mobile", "mobile-slow"])
def test_odwf_fifos_hold_exactly_their_undelivered_seqs(make):
    # a delivery removes its seq from every holder's FIFO at once, so no
    # FIFO ever holds a delivered seq; at q = 0.001 FIFOs run hundreds long
    # and deliveries remove seqs from their middle
    proto = make()
    for t in range(6000):
        proto.step(t)
        if t % 50 == 49:
            for bank in proto.banks:
                want = defaultdict(list)
                for seq in sorted(bank.holders):
                    for k in bank.holders[seq]:
                        want[k].append(seq)
                assert max(want, default=-1) < len(bank.fifo) <= proto.K
                for k, fifo in enumerate(bank.fifo):
                    assert list(fifo) == want.get(k, [])
                odwf_bank_is_consistent(proto, bank)
    held = [s for k in range(proto.K) for bank in relay_state(proto, k).banks
            for s in bank]
    assert len(held) == sum(len(ids) for b in proto.banks for ids in b.holders.values())
