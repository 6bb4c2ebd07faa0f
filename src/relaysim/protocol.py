"""The four relay scheduling schemes as frame-synchronous state machines.

Each scheme exposes step(frame) -> FrameOutcome. A frame is one of three kinds:
SOURCE_TX (phase I, source injects), RELAY_TX (phase II, relays deliver), or
IDLE. Buffers are unbounded by design; a configurable guard cap aborts with a
diagnostic when a configuration is divergent.

Mobile relays carry a strip, never coordinates: positions are redrawn
uniformly within the strip every frame, so coverage is a per-strip Bernoulli
draw and a mobile frame costs O(movers + relays touched), not O(K).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .channel import FixedLinkSampler, RateThreshold, coverage_radius
from .matching import max_bipartite_matching
from .mobility import (DiskGeometry, coverage_probabilities, init_regions,
                       step_regions)
from .mobility import sample_positions_in_region  # noqa: F401, perfbench/tracing.py patches it

SOURCE_TX = "source_tx"
RELAY_TX = "relay_tx"
IDLE = "idle"


class BufferOverflowError(RuntimeError):
    """In-flight packets exceeded the guard cap: the configuration is divergent."""


@dataclass(frozen=True)
class Packet:
    seq: int
    created_frame: int
    size_bits: float
    subcarrier_of_origin: int = 0  # 1..N for fixed relays, 0 for mobile


@dataclass(frozen=True)
class FrameOutcome:
    frame: int
    kind: str
    delivered: tuple = ()      # Packet instances handed to the destination
    transmitters: tuple = ()   # relay ids that transmitted this frame

    @property
    def bits(self) -> float:
        return sum(p.size_bits for p in self.delivered)


@dataclass
class RelayState:
    """Debug/test view of one relay: undelivered seqs per bank, FIFO order."""
    relay_id: int
    banks: list = field(default_factory=list)
    region: int | None = None


class _Fifos:
    """Per-relay FIFOs of undelivered seqs on one subcarrier.

    holders maps each undelivered seq to its relay ids; count[k] is the number
    of undelivered seqs relay k holds, length[k] the length of its FIFO. Dead
    (delivered) seqs leave FIFOs lazily: heads skip them, and a FIFO is rebuilt
    from its live seqs (dropped if none) once longer than twice those plus
    SLACK, which spares FIFOs with few live seqs. Each entry is dropped once,
    by a pop or by a rebuild that drops more than it keeps: O(1) amortized.
    """

    SLACK = 8

    def __init__(self, count: np.ndarray):
        self.count = count  # int32 per relay, a view owned by the scheme
        self.length = np.zeros(count.size, dtype=np.int32)
        self.fifo = defaultdict(deque)
        self.holders = {}

    def add(self, seq: int, ids: np.ndarray) -> np.ndarray:
        """Enqueue seq at the distinct relays ids; return those that held nothing."""
        ids = ids.astype(np.intp, copy=False)  # indexes faster than int32
        self.holders[seq] = ids
        fresh = ids[self.count[ids] == 0]
        self.count[ids] += 1
        self.length[ids] += 1
        fifo = self.fifo
        for k in ids.tolist():
            fifo[k].append(seq)
        return fresh

    def deliver(self, k: int):
        """Pop relay k's oldest undelivered seq and purge it everywhere;
        return it with the ids of the relays it leaves holding nothing."""
        fifo, holders = self.fifo, self.holders
        head = fifo[k]
        seq = head.popleft()
        while seq not in holders:
            seq = head.popleft()
        self.length[k] = len(head)
        hold = holders.pop(seq)
        count, length = self.count, self.length
        count[hold] -= 1
        left = count[hold]
        for j in hold[length[hold] > 2 * left + self.SLACK].tolist():
            live = self.live(j)
            length[j] = len(live)
            if live:
                fifo[j] = deque(live)
            else:
                del fifo[j]
        return seq, hold[left == 0]

    def live(self, k: int) -> list:
        return [s for s in self.fifo.get(k, ()) if s in self.holders]


class OdwfFixed:
    """Scheme: opportunistic decode-wait-and-forward over fixed relays.

    Phase II runs when every subcarrier has at least one relay with a nonempty
    bank behind a connected relay-destination link; one eligible relay per
    subcarrier is picked uniformly and transmits its bank head, and every relay
    purges that seq (overhearing is perfectly reliable). Phase I runs when
    phase II fails and every subcarrier has a connected source-relay link; the
    source emits one fresh packet per subcarrier and every connected relay
    enqueues it. Otherwise the frame idles.
    """

    def __init__(self, n_relays: int, n_subcarriers: int, threshold: RateThreshold,
                 rng: np.random.Generator, buffer_cap: int = 100_000):
        self.K = n_relays
        self.N = n_subcarriers
        self.rate = threshold.rate
        self.rng = rng
        self.links = FixedLinkSampler(threshold, rng)
        self.buffer_cap = buffer_cap
        self.bank_count = np.zeros((self.N, self.K), dtype=np.int32)
        self.occupied = np.zeros(self.N, dtype=np.int64)
        self.banks = [_Fifos(self.bank_count[n]) for n in range(self.N)]
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        transmitters = self._relay_eligibility()
        if transmitters is not None:
            return self._relay_tx(frame, transmitters)
        subsets = self.links.connected_subsets(self.K, self.N)
        if subsets is not None:
            return self._source_tx(frame, subsets)
        return FrameOutcome(frame, IDLE)

    def _relay_eligibility(self):
        """Per-subcarrier transmitter ids, or None if any subcarrier has no
        occupied relay behind a connected relay-destination link."""
        links = self.links
        for n in range(self.N):
            if not links.any_connected(int(self.occupied[n])):
                return None
        return [links.pick_connected(self.bank_count[n], int(self.occupied[n]))
                for n in range(self.N)]

    def _relay_tx(self, frame, transmitters):
        delivered = []
        for n, k in enumerate(transmitters):
            seq, emptied = self.banks[n].deliver(k)
            self.occupied[n] -= emptied.size
            delivered.append(Packet(seq, self.created_frame.pop(seq), self.rate, n + 1))
        return FrameOutcome(frame, RELAY_TX, tuple(delivered), tuple(transmitters))

    def _source_tx(self, frame, subsets):
        for n, ids in enumerate(subsets):
            seq = self.next_seq
            self.next_seq += 1
            self.created_frame[seq] = frame
            bank = self.banks[n]
            self.occupied[n] += bank.add(seq, ids).size
            if len(bank.holders) > self.buffer_cap:
                raise BufferOverflowError(
                    f"subcarrier {n}: {len(bank.holders)} undelivered packets "
                    f"exceed the guard cap {self.buffer_cap}")
        return FrameOutcome(frame, SOURCE_TX)

    def occupied_fraction(self) -> np.ndarray:
        return self.occupied / self.K

    def in_network(self) -> int:
        return sum(len(bank.holders) for bank in self.banks)

    def relay_state(self, relay_id: int) -> RelayState:
        return RelayState(relay_id=relay_id,
                          banks=[bank.live(relay_id) for bank in self.banks])


class BaselineFixed:
    """Baseline: genie-aided regular decode-and-forward over fixed relays.

    A fresh batch of N packets (one per subcarrier) is injected only when the
    network is empty and every subcarrier has a connected source-relay link.
    While packets remain, every frame is a RelayTx that delivers a maximum
    bipartite matching between undelivered packets and subcarriers; an edge
    exists iff some holder of the packet has a connected relay-destination link
    on that subcarrier. A relay may serve several subcarriers in one frame.
    """

    def __init__(self, n_relays: int, n_subcarriers: int, threshold: RateThreshold,
                 rng: np.random.Generator):
        self.K = n_relays
        self.N = n_subcarriers
        self.rate = threshold.rate
        self.rng = rng
        self.links = FixedLinkSampler(threshold, rng)
        self.batch = {}   # seq -> sorted holder id array
        self._held = None  # cached holder union, see _holder_union
        self.origin = {}
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        if self.batch:
            return self._relay_tx(frame)
        subsets = self.links.connected_subsets(self.K, self.N)
        if subsets is None:
            return FrameOutcome(frame, IDLE)
        for n, ids in enumerate(subsets):
            seq = self.next_seq
            self.next_seq += 1
            self.batch[seq] = ids
            self.origin[seq] = n + 1
            self.created_frame[seq] = frame
        self._held = None
        return FrameOutcome(frame, SOURCE_TX)

    def _holder_union(self) -> np.ndarray:
        """Sorted ids of relays holding any undelivered packet, cached until
        the batch changes. Sort-and-drop-repeats gives np.unique's result;
        np.unique hashes, which is about 15x slower on a few thousand ids."""
        if self._held is None:
            ids = np.sort(np.concatenate(list(self.batch.values())))
            self._held = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
        return self._held

    def _relay_tx(self, frame):
        seqs = list(self.batch)
        union = self._holder_union()
        conn = np.empty((self.N, union.size), dtype=bool)
        for n in range(self.N):
            conn[n] = self.links.connected(union.size)
        holder_pos = [np.searchsorted(union, self.batch[s]) for s in seqs]
        adjacency = [np.flatnonzero(conn[:, pos].any(axis=1)).tolist()
                     for pos in holder_pos]
        match_left, _ = max_bipartite_matching(adjacency, self.N)
        delivered = []
        transmitters = []
        for i, seq in enumerate(seqs):
            n = match_left[i]
            if n < 0:
                continue  # unmatched packets survive to the next RelayTx frame
            pos = holder_pos[i]
            k = int(union[pos[int(np.argmax(conn[n, pos]))]])
            delivered.append(Packet(seq, self.created_frame.pop(seq), self.rate,
                                    self.origin.pop(seq)))
            transmitters.append(k)
            del self.batch[seq]
        if delivered:
            self._held = None
        return FrameOutcome(frame, RELAY_TX, tuple(delivered), tuple(transmitters))

    def occupied_fraction(self) -> np.ndarray:
        if not self.batch:
            return np.zeros(self.N)
        return np.full(self.N, self._holder_union().size / self.K)

    def in_network(self) -> int:
        return len(self.batch)


class _MobileScheme:
    """Strip bookkeeping shared by the two mobile schemes.

    regions[k] is relay k's strip; strip_relays[r] counts the relays in strip
    r and strip_buffered[r] those with a nonempty buffer (0 for the baseline),
    both kept current in O(movers) per frame. p_src[r] and p_dst[r] are the
    probabilities that a relay of strip r is inside source and destination
    coverage in a frame (entry 0 unused).
    """

    def __init__(self, n_relays: int, geom: DiskGeometry, threshold: RateThreshold,
                 p: float, pathloss_exp: float, q: float, rng: np.random.Generator):
        self.K = n_relays
        self.M = geom.n_regions
        self.rate = threshold.rate
        self.q = q
        self.rng = rng
        cov = coverage_radius(p, threshold.beta, pathloss_exp)
        self.p_src, self.p_dst, p_both = coverage_probabilities(geom, cov)
        # coverage reaches strips 1..src_max_region and dest_min_region..M
        self.src_max_region = int(np.flatnonzero(self.p_src)[-1])
        self.dest_min_region = int(np.flatnonzero(self.p_dst)[0])
        # source coverage given no destination coverage; where p_dst = 1 no
        # buffered relay survives phase II, so any value will do
        self.p_src_given_no_dst = np.clip(np.divide(
            self.p_src - p_both, 1.0 - self.p_dst,
            out=np.zeros(self.M + 1), where=self.p_dst < 1.0), 0.0, 1.0)
        self.buffer_count = np.zeros(n_relays, dtype=np.int32)
        self.place(init_regions(geom, n_relays, rng))

    def place(self, regions):
        """Put relay k in strip regions[k] and rebuild the per-strip counts."""
        self.regions = np.array(regions, dtype=np.int64)
        self.strip_relays = self._tally(self.regions)
        self.strip_buffered = self._tally(self.regions[self.buffer_count > 0])

    def _tally(self, regions: np.ndarray) -> np.ndarray:
        return np.bincount(regions, minlength=self.M + 1)

    def _walk(self):
        movers, old = step_regions(self.regions, self.M, self.q, self.rng)
        if movers.size:
            self.strip_relays += self._tally(self.regions[movers]) - self._tally(old)
            held = self.buffer_count[movers] > 0
            if held.any():
                self.strip_buffered += (self._tally(self.regions[movers[held]])
                                        - self._tally(old[held]))

    def _source_covered(self):
        """Ids of the relays inside source coverage this frame, or None.

        Unbuffered relays are covered independently with p_src. ODWF's phase I
        runs only when no buffered relay is in destination coverage, so those
        are covered with p_src_given_no_dst, unlike p_src only where p_dst > 0.
        Per strip and class the count is Binomial(relays, p), and given the
        count every subset of that size is equally likely.
        """
        picks = []
        for strip in range(1, self.src_max_region + 1):
            total, buffered = int(self.strip_relays[strip]), int(self.strip_buffered[strip])
            if buffered and self.p_dst[strip] > 0.0:
                classes = ((total - buffered, self.p_src[strip], False),
                           (buffered, self.p_src_given_no_dst[strip], True))
            else:
                classes = ((total, self.p_src[strip], None),)
            for members, prob, held in classes:
                size = int(self.rng.binomial(members, prob)) if members else 0
                if size:
                    picks.append(self._members(strip, held, size, members))
        return np.concatenate(picks) if picks else None

    def _belongs(self, ids, strip, held):
        ok = self.regions[ids] == strip
        if held is not None:
            ok &= (self.buffer_count[ids] > 0) if held else (self.buffer_count[ids] == 0)
        return ok

    def _members(self, strip: int, held, size: int, total: int) -> np.ndarray:
        """`size` distinct uniform ids among the `total` relays of `strip`
        with a nonempty buffer (held True), an empty one (False) or any (None).

        A uniform id that belongs is uniform over the members, so the first
        `size` distinct members drawn are a uniform subset. One batch of four
        times the mean draws this needs, at most size*K/(total - size + 1), is
        tried; if it comes up short, or would cost more than a scan of all K
        relays, a uniform subset of the scanned members is drawn instead.
        """
        K = self.K
        tries = -(-4 * K * size // (total - size + 1))
        if tries < K:
            ids = self.rng.integers(K, size=tries)
            distinct = list(dict.fromkeys(ids[self._belongs(ids, strip, held)].tolist()))
            if len(distinct) >= size:
                return np.array(distinct[:size])
        ids = np.flatnonzero(self._belongs(slice(None), strip, held))
        return self.rng.choice(ids, size, replace=False)


class OdwfMobile(_MobileScheme):
    """Scheme: ODWF over mobile relays with pathloss-only connectivity.

    Phase II when any relay with a nonempty buffer sits inside destination
    coverage: one such relay is picked uniformly, delivers its FIFO head, and
    the seq is purged from every buffer. Phase I when phase II fails and some
    relay sits inside source coverage: the source broadcasts one packet and
    every in-coverage relay enqueues it. Otherwise Idle.
    """

    def __init__(self, n_relays, geom, threshold, p, pathloss_exp, q, rng,
                 buffer_cap: int = 100_000):
        super().__init__(n_relays, geom, threshold, p, pathloss_exp, q, rng)
        self.bank = _Fifos(self.buffer_count)
        self.buffer_cap = buffer_cap
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        k = self._deliverer()
        if k is not None:
            return self._relay_tx(frame, k)
        covered = self._source_covered()
        if covered is not None:
            return self._source_tx(frame, covered)
        return FrameOutcome(frame, IDLE)

    def _deliverer(self):
        """A uniform pick among the buffered relays in destination coverage, or
        None: per strip their count is Binomial(buffered, p_dst) and any subset
        of that size is as likely, so a strip is picked in proportion, then any
        of its buffered relays."""
        lo = self.dest_min_region
        counts = list(accumulate(
            int(self.rng.binomial(b, p)) if b else 0
            for b, p in zip(self.strip_buffered[lo:].tolist(), self.p_dst[lo:].tolist())))
        if counts[-1] == 0:
            return None
        strip = lo + bisect_right(counts, int(self.rng.integers(counts[-1])))
        return int(self._members(strip, True, 1, int(self.strip_buffered[strip]))[0])

    def _relay_tx(self, frame, k):
        seq, emptied = self.bank.deliver(k)
        self.strip_buffered -= self._tally(self.regions[emptied])
        pkt = Packet(seq, self.created_frame.pop(seq), self.rate)
        return FrameOutcome(frame, RELAY_TX, (pkt,), (k,))

    def _source_tx(self, frame, covered):
        seq = self.next_seq
        self.next_seq += 1
        self.created_frame[seq] = frame
        fresh = self.bank.add(seq, covered)
        self.strip_buffered += self._tally(self.regions[fresh])
        if len(self.bank.holders) > self.buffer_cap:
            raise BufferOverflowError(
                f"{len(self.bank.holders)} undelivered packets exceed the guard cap "
                f"{self.buffer_cap}")
        return FrameOutcome(frame, SOURCE_TX)

    def occupied_fraction(self) -> float:
        return int(self.strip_buffered.sum()) / self.K

    def in_network(self) -> int:
        return len(self.bank.holders)

    def relay_state(self, relay_id: int) -> RelayState:
        return RelayState(relay_id=relay_id, banks=[self.bank.live(relay_id)],
                          region=int(self.regions[relay_id]))


class BaselineMobile(_MobileScheme):
    """Baseline: one outstanding packet at a time over mobile relays.

    With the network empty, the source broadcasts to every relay in source
    coverage. The packet then waits while its holders walk; as soon as any
    holder enters destination coverage the genie delivers through it and the
    network empties again.
    """

    def __init__(self, n_relays, geom, threshold, p, pathloss_exp, q, rng):
        super().__init__(n_relays, geom, threshold, p, pathloss_exp, q, rng)
        self.outstanding = None  # (seq, holder id array)
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        if self.outstanding is not None:
            seq, hold = self.outstanding
            elig = hold[self.rng.random(hold.size) < self.p_dst[self.regions[hold]]]
            if elig.size:
                k = int(elig[self.rng.integers(elig.size)])
                pkt = Packet(seq, self.created_frame.pop(seq), self.rate)
                self.outstanding = None
                return FrameOutcome(frame, RELAY_TX, (pkt,), (k,))
            return FrameOutcome(frame, IDLE)
        covered = self._source_covered()
        if covered is not None:
            seq = self.next_seq
            self.next_seq += 1
            self.outstanding = (seq, covered)
            self.created_frame[seq] = frame
            return FrameOutcome(frame, SOURCE_TX)
        return FrameOutcome(frame, IDLE)

    def occupied_fraction(self) -> float:
        if self.outstanding is None:
            return 0.0
        return self.outstanding[1].size / self.K

    def in_network(self) -> int:
        return 0 if self.outstanding is None else 1
