"""The four relay scheduling schemes as frame-synchronous state machines.

Each scheme exposes step(frame) -> FrameOutcome. A frame is one of three kinds:
SOURCE_TX (phase I, source injects), RELAY_TX (phase II, relays deliver), or
IDLE. Buffers are unbounded by design; a configurable guard cap aborts with a
diagnostic when a configuration is divergent.

Mobile relays carry a strip, never coordinates: positions are redrawn
uniformly within the strip every frame, so coverage is a per-strip Bernoulli
draw. Relays with nothing to forward are only counted per strip, so a mobile
frame costs O(M + buffered relays touched) draws, not O(K).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .channel import FixedLinkSampler, RateThreshold, coverage_radius
from .matching import max_bipartite_matching
from .mobility import DiskGeometry, coverage_probabilities
# no scheme calls these; perfbench/tracing.py patches them by name here
from .mobility import sample_positions_in_region, step_regions  # noqa: F401

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
    transmitters: tuple = ()   # relay ids that transmitted, if the scheme has ids


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


class BaselineFixed:
    """Baseline: genie-aided regular decode-and-forward over fixed relays.

    A fresh batch of N packets (one per subcarrier) is injected only when the
    network is empty and every subcarrier has a connected source-relay link.
    While packets remain, every frame is a RelayTx that delivers a maximum
    bipartite matching between undelivered packets and subcarriers; an edge
    exists iff some holder of the packet has a connected relay-destination link
    on that subcarrier, and the lowest-id such holder transmits. A relay may
    serve several subcarriers in one frame.

    Relays are kept in holder cells: cell c is the sizes[c] relays
    ids[first[c]:first[c] + sizes[c]], in ascending order, that hold exactly
    the packets i of the batch with bit i set in labels[c]. Links are i.i.d.
    Bernoulli(1/beta), so relays are exchangeable, only cell sizes enter the
    laws, and a frame costs O(N * cells), whatever K is.
    - Source phase: the members of a cell that connect on subcarrier n number
      Binomial(size, 1/beta), independently across cells, which splits every
      cell in two. Given the sizes, every assignment of relays to cells is
      equally likely, so the cells are consecutive blocks of a uniformly
      ordered sample of distinct ids.
    - Relay phase: no member of a cell of s relays connects on a subcarrier
      with probability (1 - 1/beta)^s, independently across cells and
      subcarriers: one Bernoulli per (subcarrier, cell) decides the edges.
      Cells with equal patterns are disjoint and need no merging, since
      (1 - 1/beta)^(s+t) = (1 - 1/beta)^s (1 - 1/beta)^t.
    - Transmitter: given that a cell is up, the index of its first connected
      member in id order is geometric truncated to the cell size, drawn only
      for delivered packets; the minimum id over the up cells holding the
      packet is its lowest-id connected holder.
    """

    def __init__(self, n_relays: int, n_subcarriers: int, threshold: RateThreshold,
                 rng: np.random.Generator):
        self.K = n_relays
        self.N = n_subcarriers
        self.rate = threshold.rate
        self.rng = rng
        self.links = FixedLinkSampler(threshold, rng)
        self.pending = []    # undelivered packets i of the batch: seq base_seq + i
        self.base_seq = self.created = 0    # created: the batch's creation frame
        self.held = 0        # relays in live cells
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        if self.pending:
            return self._relay_tx(frame)
        return self._source_tx(frame)

    def _source_tx(self, frame):
        rng, p = self.rng, self.links.connect_probability
        labels, sizes = [0], [self.K]    # cell c holds packet i iff bit i of labels[c]
        for n in range(self.N):
            ups = (rng.binomial(sizes, p).tolist() if len(sizes) > 8
                   else [rng.binomial(s, p) for s in sizes])   # cheaper when few
            if not any(ups):
                return FrameOutcome(frame, IDLE)
            labels = ([label | 1 << n for label, up in zip(labels, ups) if up]
                      + [label for label, size, up in zip(labels, sizes, ups) if size > up])
            sizes = [up for up in ups if up] + [s - up for s, up in zip(sizes, ups) if s > up]
        if labels[-1] == 0:    # the relays that connected nowhere, always last
            labels, sizes = labels[:-1], sizes[:-1]
        self.labels = np.array(labels, dtype=np.int64 if self.N < 63 else object)
        self.sizes = np.array(sizes)
        self.first = np.array([0, *accumulate(sizes[:-1])])
        self.up_prob = -np.expm1(self.sizes * self.links.log_down)
        self.held = held = int(sum(sizes))
        # cells are consecutive blocks of the sample, so its order matters
        # only when there are several
        sample = rng.choice(self.K, held, replace=False, shuffle=len(sizes) > 1)
        if len(sizes) == 1:
            self.ids = np.sort(sample)
        else:
            cell = np.repeat(np.arange(len(sizes)), sizes)
            self.ids = np.sort(cell * self.K + sample) - cell * self.K
        self.pending = list(range(self.N))
        self.base_seq, self.created = self.next_seq, frame
        self.next_seq += self.N
        return FrameOutcome(frame, SOURCE_TX)

    def _relay_tx(self, frame):
        rng, N, pending = self.rng, self.N, self.pending
        one_cell = self.sizes.size == 1    # always at N = 1; drawn with scalars
        if one_cell:
            q = float(self.up_prob[0])
            up = [n for n, u in enumerate(rng.random(N).tolist()) if u < q]
            adjacency = [up] * len(pending)
        else:
            up = rng.random((N, self.sizes.size)) < self.up_prob   # up[n, c]
            reach = np.bitwise_or.reduce(np.where(up, self.labels, 0), axis=1).tolist()
            adjacency = [[n for n in range(N) if reach[n] >> i & 1] for i in pending]
        match_left, _ = max_bipartite_matching(adjacency, N)
        sent = [(i, n) for i, n in zip(pending, match_left) if n >= 0]
        if not sent:
            return FrameOutcome(frame, RELAY_TX)
        packets, subs = (list(x) for x in zip(*sent))
        # index of the first connected member of an up cell: the inverse of
        # its law, P(index <= j) = (1 - (1 - 1/beta)^(j+1)) / up_prob, at a
        # uniform draw; 0 at beta = 1, where log_down = -inf
        log_down = self.links.log_down
        if one_cell:
            first, last = int(self.first[0]), int(self.first[0] + self.sizes[0] - 1)
            transmitters = [
                int(self.ids[min(first + int(math.log1p(-rng.random() * q) / log_down),
                                 last)]) for _ in packets]
        else:
            # holders[j, c]: cell c holds packet packets[j] and is up on subs[j]
            holders = up[subs] & (self.labels >> np.array(packets)[:, None] & 1).astype(bool)
            index = np.log1p(-rng.random(holders.shape) * self.up_prob) / log_down
            cand = self.ids[self.first + np.minimum(index.astype(np.int64), self.sizes - 1)]
            transmitters = np.where(holders, cand, self.K).min(axis=1).tolist()
        gone = sum(1 << i for i in packets)
        self.pending = [i for i in pending if not gone >> i & 1]
        self.labels = self.labels & ~gone
        keep = np.flatnonzero(self.labels)
        if keep.size < self.sizes.size:
            for name in ("labels", "sizes", "first", "up_prob"):
                setattr(self, name, getattr(self, name)[keep])
            self.held = int(self.sizes.sum())
        delivered = tuple(Packet(self.base_seq + i, self.created, self.rate, i + 1)
                          for i in packets)
        return FrameOutcome(frame, RELAY_TX, delivered, tuple(transmitters))

    def occupied_fraction(self) -> np.ndarray:
        return np.full(self.N, self.held / self.K)

    def in_network(self) -> int:
        return len(self.pending)


class _MobileScheme:
    """Strip bookkeeping shared by the two mobile schemes.

    A relay is idle while its buffer is empty (ODWF) or it does not hold the
    outstanding packet (baseline), and buffered otherwise. counts[0, r] =
    idle[r] and counts[1, r] = buffered[r] count the idle and buffered relays
    of strip r; p_src[r] and p_dst[r] are the probabilities that a relay of
    strip r is inside source and destination coverage in a frame. Per-strip
    arrays leave entry 0 unused.

    Every draw concerns relays independently, and an idle relay enters every
    law only through its strip, so the idle relays of a strip are
    exchangeable and the chain lumps exactly onto their counts. So every
    metric keeps its law:
    - Start: the strips have equal area, so the idle counts are one
      Multinomial(K, 1/M) draw.
    - Walk: a relay moves up with probability q and down with q, and a move
      past strip 1 or M reflects into a stay. Per strip the (up, down, stay)
      counts of a class are Multinomial(n; q, q, 1 - 2q), one vectorised
      draw over the strips, which numpy makes as Binomial(n, q) up, then
      Binomial(n - up, q/(1 - q)) down. When 2qK <= FEW relays move per
      frame on average, drawing the movers one by one is faster: their
      number is Binomial(K, 2q), drawn ahead in blocks, each is uniform over
      the relays not picked yet, so it falls in a strip and class in
      proportion to those left there, and a fair bit sends it up or down.
      Each mover costs a few Python statements, against a fixed numpy cost
      for the multinomial walk (plus one uniform per buffered relay for
      ODWF), so the mover-by-mover walk is the faster one up to about 5
      movers for the baseline and 10-15 for ODWF; FEW lies between.
    - Coverage: per strip and class the relays inside a coverage disk number
      Binomial(n, p), and given the count every subset of that size is
      equally likely.
    Uniform integer picks come from uniforms drawn ahead in blocks, as
    floor(u * n), exact to float precision like any Bernoulli draw.
    """

    FEW = 8.0

    def __init__(self, n_relays: int, geom: DiskGeometry, threshold: RateThreshold,
                 p: float, pathloss_exp: float, q: float, rng: np.random.Generator):
        self.K = n_relays
        self.M = M = geom.n_regions
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
            out=np.zeros(M + 1), where=self.p_dst < 1.0), 0.0, 1.0)
        self.counts = np.zeros((2, M + 1), dtype=np.int64)
        self.idle, self.buffered = self.counts    # views, updated in place
        self.idle[1:] = rng.multinomial(n_relays, np.full(M, 1.0 / M))
        self.split = [q, q, 1.0 - 2.0 * q]
        # where the up, down and staying movers of strip r, class c land in
        # counts.ravel(), for strips 1..M of the idle, then the buffered class
        strips = np.arange(1, M + 1)
        self.dest = (np.stack((np.minimum(strips + 1, M), np.maximum(strips - 1, 1),
                               strips), axis=1).ravel() + [[0], [M + 1]]).ravel()
        self.few = 2.0 * q * n_relays <= self.FEW
        self.n_movers = self.uniforms = iter(())

    def _below(self, n: int) -> int:
        """A uniform integer in [0, n)."""
        u = next(self.uniforms, None)
        if u is None:
            self.uniforms = iter(self.rng.random(1024).tolist())
            u = next(self.uniforms)
        return min(int(u * n), n - 1)

    def _walk(self):
        """One frame of the walk for every relay."""
        if not self.q:
            return
        if not self.few:
            self._walk_many()
            return
        n = next(self.n_movers, None)
        if n is None:
            self.n_movers = iter(self.rng.binomial(self.K, 2.0 * self.q, 1024).tolist())
            n = next(self.n_movers)
        left = self._groups()    # relays not picked yet, per group
        for i in range(n):
            pick = self._below(2 * (self.K - i))
            index, group = pick >> 1, 0
            while index >= left[group]:
                index -= left[group]
                group += 1
            left[group] -= 1
            self._move(group, index, pick & 1)

    def _groups(self) -> list:
        """Sizes of the groups the few-movers walk picks from: here the idle,
        then the buffered relays of strips 1..M."""
        return self.counts[:, 1:].ravel().tolist()

    def _move(self, group: int, index: int, up: int):
        """Move up (up = 1) or down the index-th relay of group not picked
        yet; a counted relay needs no index."""
        row, strip = divmod(group, self.M)
        self.counts[row, strip + 1] -= 1
        self.counts[row, min(max(strip + 2 * up, 1), self.M)] += 1

    def _walk_many(self):
        moves = self.rng.multinomial(self.counts[:, 1:], self.split)
        self.counts[:] = np.bincount(self.dest, moves.ravel(),
                                     self.counts.size).reshape(self.counts.shape)

    def _in_dest_coverage(self) -> list:
        """Running totals over strips dest_min_region..M of the buffered
        relays inside destination coverage."""
        return list(accumulate(
            int(self.rng.binomial(b, p)) if b else 0
            for b, p in zip(self.buffered[self.dest_min_region:].tolist(),
                            self.p_dst[self.dest_min_region:].tolist())))

    def _in_source_coverage(self):
        """Per strip, the idle relays inside source coverage this frame; None
        if there are none."""
        fresh = [0] + [int(self.rng.binomial(n, p)) if n else 0 for n, p in zip(
            self.idle[1:self.src_max_region + 1].tolist(),
            self.p_src[1:self.src_max_region + 1].tolist())]
        if not any(fresh):
            return None
        return np.array(fresh + [0] * (self.M - self.src_max_region))


class OdwfMobile(_MobileScheme):
    """Scheme: ODWF over mobile relays with pathloss-only connectivity.

    Phase II when any relay with a nonempty buffer sits inside destination
    coverage: one such relay is picked uniformly, delivers its FIFO head, and
    the seq is purged from every buffer. Phase I when phase II fails and some
    relay sits inside source coverage: the source broadcasts one packet and
    every in-coverage relay enqueues it. Otherwise Idle.

    A buffered relay has an id, taken from a pool of K free ids when it is
    covered and given back when it empties; ids are only labels. The
    buffered relays form one swap-remove array: held[i] for i < K - n_free
    is a relay id, held_strip[i] its strip, and relay k sits at index pos[k]
    (-1 while k is free). A pick within a strip scans held_strip in one
    numpy call. The few-movers walk picks buffered movers from the whole
    array, moving each picked one behind those not picked yet; when many
    move, one uniform per buffered relay decides its move (up below q, down
    in [q, 2q)).
    """

    THIN_FROM = 2048

    def __init__(self, n_relays, geom, threshold, p, pathloss_exp, q, rng,
                 buffer_cap: int = 100_000):
        super().__init__(n_relays, geom, threshold, p, pathloss_exp, q, rng)
        self.held = np.zeros(n_relays, dtype=np.intp)
        self.held_strip = np.zeros(n_relays, dtype=np.int64)
        self.pos = np.full(n_relays, -1, dtype=np.intp)    # -1: a free id
        self.free = np.arange(n_relays)
        self.n_free = n_relays
        self.bank = _Fifos(np.zeros(n_relays, dtype=np.int32))
        self.buffer_cap = buffer_cap
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        k = self._deliverer()
        if k is not None:
            return self._relay_tx(frame, k)
        covered = self._covered()
        if covered is not None:
            return self._source_tx(frame, *covered)
        return FrameOutcome(frame, IDLE)

    def _groups(self) -> list:
        """The idle relays of strips 1..M, then all buffered ones, none of
        them picked yet."""
        self.unpicked = self.K - self.n_free
        return self.idle[1:].tolist() + [self.unpicked]

    def _move(self, group, index, up):
        if group < self.M:
            super()._move(group, index, up)
            return
        # swap the pick behind the buffered relays not picked yet
        self.unpicked -= 1
        i, j = index, self.unpicked
        held, strips = self.held, self.held_strip
        held[i], held[j] = held[j], held[i]
        strips[i], strips[j] = strips[j], strips[i]
        self.pos[held[i]], self.pos[held[j]] = i, j
        strip = int(strips[j])
        to = min(max(strip + 2 * up - 1, 1), self.M)
        strips[j] = to
        self.buffered[strip] -= 1
        self.buffered[to] += 1

    def _walk_many(self):
        moves = self.rng.multinomial(self.idle[1:], self.split)
        self.idle[:] = np.bincount(self.dest[:3 * self.M], moves.ravel(), self.M + 1)
        nb = self.K - self.n_free
        u, strips = self.rng.random(nb), self.held_strip[:nb]
        strips += u < self.q
        strips -= (u >= self.q) & (u < 2.0 * self.q)
        np.clip(strips, 1, self.M, out=strips)
        self.buffered[:] = np.bincount(strips, minlength=self.M + 1)

    def _members(self, strip: int) -> np.ndarray:
        """Indices into held of the buffered relays of strip."""
        return np.flatnonzero(self.held_strip[:self.K - self.n_free] == strip)

    def _deliverer(self):
        """A uniform pick among the buffered relays in destination coverage, or
        None: a strip is picked in proportion to its count, then any of its
        buffered relays."""
        counts = self._in_dest_coverage()
        if counts[-1] == 0:
            return None
        strip = self.dest_min_region + bisect_right(counts, self._below(counts[-1]))
        members = self._members(strip)
        return int(self.held[members[self._below(members.size)]])

    def _covered(self):
        """(held, fresh), or None if no relay is inside source coverage: held
        are the ids of the buffered relays inside it, and fresh[r] counts the
        idle ones of strip r.

        ODWF's phase I runs only when no buffered relay is in destination
        coverage, so those are covered with p_src_given_no_dst, unlike p_src
        only where p_dst > 0, each independently. When the largest of these,
        p, is at most 1/16 and at least THIN_FROM relays are buffered, fewer
        draws do: candidates come at rate p as a Bernoulli process, whose
        gaps are Geometric(p), and a candidate of strip r stays with
        probability p_src_given_no_dst[r] / p. Its dozen numpy calls cost
        more than one uniform per relay below about 2,000 buffered relays,
        or above p = 1/8.
        """
        fresh = self._in_source_coverage()
        nb, p = self.K - self.n_free, max(self.p_src_given_no_dst.tolist())
        if nb < self.THIN_FROM or p > 0.0625:
            held = self.held[:nb][self.rng.random(nb)
                                  < self.p_src_given_no_dst[self.held_strip[:nb]]]
        elif p:
            mean = nb * p
            pos = np.cumsum(self.rng.geometric(p, int(mean + 4 * math.sqrt(mean) + 8))) - 1
            while pos[-1] < nb:    # too few gaps drawn to pass nb: rare
                pos = np.concatenate((pos, pos[-1] + np.cumsum(self.rng.geometric(p, 64))))
            pos = pos[:np.searchsorted(pos, nb)]
            keep = self.rng.random(pos.size) * p < self.p_src_given_no_dst[self.held_strip[pos]]
            held = self.held[pos[keep]]
        else:
            held = np.empty(0, dtype=np.intp)
        if fresh is None and held.size == 0:
            return None
        return held, fresh

    def _relay_tx(self, frame, k):
        seq, emptied = self.bank.deliver(k)
        self._release(emptied)
        pkt = Packet(seq, self.created_frame.pop(seq), self.rate)
        return FrameOutcome(frame, RELAY_TX, (pkt,), (k,))

    def _source_tx(self, frame, held, fresh):
        seq = self.next_seq
        self.next_seq += 1
        self.created_frame[seq] = frame
        if fresh is not None:
            held = np.concatenate((held, self._take(fresh)))
        self.bank.add(seq, held)
        if len(self.bank.holders) > self.buffer_cap:
            raise BufferOverflowError(
                f"{len(self.bank.holders)} undelivered packets exceed the guard cap "
                f"{self.buffer_cap}")
        return FrameOutcome(frame, SOURCE_TX)

    def occupied_fraction(self) -> float:
        return (self.K - self.n_free) / self.K

    def in_network(self) -> int:
        return len(self.bank.holders)

    def _take(self, fresh) -> np.ndarray:
        """Free ids for the fresh[r] idle relays of each strip r that turn
        buffered."""
        nb, n = self.K - self.n_free, int(fresh.sum())
        self.n_free -= n
        ids = self.free[self.n_free:self.n_free + n].copy()
        self.held[nb:nb + n] = ids
        self.held_strip[nb:nb + n] = np.repeat(np.arange(self.M + 1), fresh)
        self.pos[ids] = np.arange(nb, nb + n)
        self.idle -= fresh
        self.buffered += fresh
        return ids

    def _release(self, ids):
        """Turn the buffered relays ids idle: out of the array by swap-remove
        (the live relays among the last ids.size fill the holes below them),
        their ids back to the pool. A released relay holds no live seq, and
        its FIFO at most SLACK dead ones, which a reuse of its id skips."""
        nb = self.K - self.n_free
        keep = nb - ids.size
        at = self.pos[ids]
        gone = np.bincount(self.held_strip[at], minlength=self.M + 1)
        self.idle += gone
        self.buffered -= gone
        self.pos[ids] = -1
        tail = np.arange(keep, nb)
        tail = tail[self.pos[self.held[tail]] >= 0]
        holes = at[at < keep]
        self.held[holes] = self.held[tail]
        self.held_strip[holes] = self.held_strip[tail]
        self.pos[self.held[holes]] = holes
        self.free[self.n_free:self.n_free + ids.size] = ids
        self.n_free += ids.size


class BaselineMobile(_MobileScheme):
    """Baseline: one outstanding packet at a time over mobile relays.

    With the network empty, the source broadcasts to every relay in source
    coverage. The packet then waits while its holders walk; as soon as any
    holder enters destination coverage the genie delivers through it and the
    network empties again. The holders, the buffered relays, are
    exchangeable as well, so they are only counted, and no transmitter id is
    reported.
    """

    def __init__(self, n_relays, geom, threshold, p, pathloss_exp, q, rng):
        super().__init__(n_relays, geom, threshold, p, pathloss_exp, q, rng)
        self.outstanding = None  # seq of the packet in the network
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        if self.outstanding is not None:
            if self._in_dest_coverage()[-1] == 0:
                return FrameOutcome(frame, IDLE)
            seq, self.outstanding = self.outstanding, None
            self.idle += self.buffered
            self.buffered[:] = 0
            pkt = Packet(seq, self.created_frame.pop(seq), self.rate)
            return FrameOutcome(frame, RELAY_TX, (pkt,))
        covered = self._in_source_coverage()    # the network is empty
        if covered is not None:
            self.idle -= covered
            self.buffered += covered
            self.outstanding = seq = self.next_seq
            self.next_seq += 1
            self.created_frame[seq] = frame
            return FrameOutcome(frame, SOURCE_TX)
        return FrameOutcome(frame, IDLE)

    def occupied_fraction(self) -> float:
        return 0.0 if self.outstanding is None else int(self.buffered.sum()) / self.K

    def in_network(self) -> int:
        return 0 if self.outstanding is None else 1
