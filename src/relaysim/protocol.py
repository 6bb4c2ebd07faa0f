"""The four relay scheduling schemes as frame-synchronous state machines.

Each scheme exposes step(frame) -> FrameOutcome. A frame is one of three kinds:
SOURCE_TX (phase I, source injects), RELAY_TX (phase II, relays deliver), or
IDLE. Buffers are unbounded by design; a configurable guard cap aborts with a
diagnostic when a configuration is divergent.

Purged packets are removed lazily from the per-relay FIFOs: the authoritative
record of who still holds an undelivered seq is the holders index, and deque
heads are skipped past delivered seqs on access. Every (relay, seq) pair is
appended once and popped at most once, so the lazy cleanup is O(1) amortized.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from .channel import FixedLinkSampler, RateThreshold, coverage_radius
from .matching import max_bipartite_matching
from .mobility import (DiskGeometry, coverage_window, init_regions,
                       sample_positions_in_region, step_regions)

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
        self.banks = [defaultdict(deque) for _ in range(self.N)]
        self.holders = [dict() for _ in range(self.N)]  # seq -> relay id array
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
            bank = self.banks[n][k]
            while True:
                seq = bank.popleft()
                if seq in self.holders[n]:
                    break
            hold = self.holders[n].pop(seq)
            self.bank_count[n, hold] -= 1
            self.occupied[n] -= int(np.count_nonzero(self.bank_count[n, hold] == 0))
            delivered.append(Packet(seq, self.created_frame.pop(seq), self.rate, n + 1))
        return FrameOutcome(frame, RELAY_TX, tuple(delivered), tuple(transmitters))

    def _source_tx(self, frame, subsets):
        for n, ids in enumerate(subsets):
            seq = self.next_seq
            self.next_seq += 1
            self.holders[n][seq] = ids
            self.created_frame[seq] = frame
            self.occupied[n] += int(np.count_nonzero(self.bank_count[n, ids] == 0))
            self.bank_count[n, ids] += 1
            bank = self.banks[n]
            for k in ids:
                bank[int(k)].append(seq)
            if len(self.holders[n]) > self.buffer_cap:
                raise BufferOverflowError(
                    f"subcarrier {n}: {len(self.holders[n])} undelivered packets "
                    f"exceed the guard cap {self.buffer_cap}")
        return FrameOutcome(frame, SOURCE_TX)

    def occupied_fraction(self) -> np.ndarray:
        return self.occupied / self.K

    def in_network(self) -> int:
        return sum(len(h) for h in self.holders)

    def relay_state(self, relay_id: int) -> RelayState:
        banks = [[s for s in self.banks[n].get(relay_id, ()) if s in self.holders[n]]
                 for n in range(self.N)]
        return RelayState(relay_id=relay_id, banks=banks)


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
    """Shared geometry plumbing for the two mobile schemes.

    Coordinates are sampled only for relays in strips a coverage disk can
    reach; everyone else's position is irrelevant this frame and, being
    redrawn on every transition anyway, carries no state.
    """

    def __init__(self, n_relays: int, geom: DiskGeometry, threshold: RateThreshold,
                 p: float, pathloss_exp: float, q: float, rng: np.random.Generator):
        self.K = n_relays
        self.geom = geom
        self.rate = threshold.rate
        self.p = p
        self.alpha = pathloss_exp
        self.q = q
        self.rng = rng
        self.cov = coverage_radius(p, threshold.beta, pathloss_exp)
        self.src_max_region, self.dest_min_region = coverage_window(geom, self.cov)
        self.regions = init_regions(geom, n_relays, rng)

    def _walk(self):
        self.regions = step_regions(self.regions, self.geom.n_regions, self.q, self.rng)

    def _positions_for(self, ids: np.ndarray):
        """Fresh coordinates for the given relay ids, grouped by region."""
        xs = np.empty(ids.size)
        ys = np.empty(ids.size)
        regs = self.regions[ids]
        for r in np.unique(regs):
            sel = np.flatnonzero(regs == r)
            x, y = sample_positions_in_region(self.geom, int(r), sel.size, self.rng)
            xs[sel] = x
            ys[sel] = y
        return xs, ys

    def _in_source_coverage(self, xs, ys):
        R = self.geom.radius
        return (xs + R) ** 2 + ys ** 2 <= self.cov ** 2

    def _in_dest_coverage(self, xs, ys):
        R = self.geom.radius
        return (xs - R) ** 2 + ys ** 2 <= self.cov ** 2


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
        self.buffer_cap = buffer_cap
        self.buffers = defaultdict(deque)
        self.buffer_count = np.zeros(self.K, dtype=np.int32)
        self.buffered_relays = 0
        self.holders = {}
        self.created_frame = {}
        self.next_seq = 0
        # if one strip can meet both coverage disks, its relays must not be
        # sampled twice in a frame; materialize the union up front in that case
        self.overlapping_windows = self.dest_min_region <= self.src_max_region

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        if self.overlapping_windows:
            cand = np.flatnonzero((self.regions >= self.dest_min_region)
                                  | (self.regions <= self.src_max_region))
            xs, ys = self._positions_for(cand)
            elig = cand[self._in_dest_coverage(xs, ys) & (self.buffer_count[cand] > 0)]
            if elig.size:
                return self._relay_tx(frame, elig)
            covered = cand[self._in_source_coverage(xs, ys)]
            if covered.size:
                return self._source_tx(frame, covered)
            return FrameOutcome(frame, IDLE)
        dest_cand = np.flatnonzero((self.regions >= self.dest_min_region)
                                   & (self.buffer_count > 0))
        if dest_cand.size:
            xs, ys = self._positions_for(dest_cand)
            elig = dest_cand[self._in_dest_coverage(xs, ys)]
            if elig.size:
                return self._relay_tx(frame, elig)
        src_cand = np.flatnonzero(self.regions <= self.src_max_region)
        if src_cand.size:
            xs, ys = self._positions_for(src_cand)
            covered = src_cand[self._in_source_coverage(xs, ys)]
            if covered.size:
                return self._source_tx(frame, covered)
        return FrameOutcome(frame, IDLE)

    def _relay_tx(self, frame, elig):
        k = int(elig[self.rng.integers(elig.size)])
        buf = self.buffers[k]
        while True:
            seq = buf.popleft()
            if seq in self.holders:
                break
        hold = self.holders.pop(seq)
        self.buffer_count[hold] -= 1
        self.buffered_relays -= int(np.count_nonzero(self.buffer_count[hold] == 0))
        pkt = Packet(seq, self.created_frame.pop(seq), self.rate)
        return FrameOutcome(frame, RELAY_TX, (pkt,), (k,))

    def _source_tx(self, frame, covered):
        seq = self.next_seq
        self.next_seq += 1
        ids = covered.astype(np.int32)
        self.holders[seq] = ids
        self.created_frame[seq] = frame
        self.buffered_relays += int(np.count_nonzero(self.buffer_count[ids] == 0))
        self.buffer_count[ids] += 1
        for k in ids:
            self.buffers[int(k)].append(seq)
        if len(self.holders) > self.buffer_cap:
            raise BufferOverflowError(
                f"{len(self.holders)} undelivered packets exceed the guard cap "
                f"{self.buffer_cap}")
        return FrameOutcome(frame, SOURCE_TX)

    def occupied_fraction(self) -> float:
        return self.buffered_relays / self.K

    def in_network(self) -> int:
        return len(self.holders)

    def relay_state(self, relay_id: int) -> RelayState:
        bank = [s for s in self.buffers.get(relay_id, ()) if s in self.holders]
        return RelayState(relay_id=relay_id, banks=[bank],
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
            cand = hold[self.regions[hold] >= self.dest_min_region]
            if cand.size:
                xs, ys = self._positions_for(cand)
                elig = cand[self._in_dest_coverage(xs, ys)]
                if elig.size:
                    k = int(elig[self.rng.integers(elig.size)])
                    pkt = Packet(seq, self.created_frame.pop(seq), self.rate)
                    self.outstanding = None
                    return FrameOutcome(frame, RELAY_TX, (pkt,), (k,))
            return FrameOutcome(frame, IDLE)
        src_cand = np.flatnonzero(self.regions <= self.src_max_region)
        if src_cand.size:
            xs, ys = self._positions_for(src_cand)
            covered = src_cand[self._in_source_coverage(xs, ys)]
            if covered.size:
                seq = self.next_seq
                self.next_seq += 1
                self.outstanding = (seq, covered.astype(np.int32))
                self.created_frame[seq] = frame
                return FrameOutcome(frame, SOURCE_TX)
        return FrameOutcome(frame, IDLE)

    def occupied_fraction(self) -> float:
        if self.outstanding is None:
            return 0.0
        return self.outstanding[1].size / self.K

    def in_network(self) -> int:
        return 0 if self.outstanding is None else 1
