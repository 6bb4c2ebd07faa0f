"""The four relay scheduling schemes as frame-synchronous state machines.

Each scheme is built as Scheme(cfg, rng) from an engine.SystemConfig and a
numpy Generator, and reads the fields of cfg it needs. It exposes
step(frame) -> FrameOutcome(kind, delivered): kind is SOURCE_TX (phase I,
source injects), RELAY_TX (phase II, relays deliver) or IDLE, and delivered
holds a (seq, created_frame) pair per packet the destination received. Idle
and source frames return IDLE_FRAME and SOURCE_FRAME. census() ->
(occupied, in_flight) gives, as ints, the relays holding undelivered packets
per subcarrier (one entry for mobile relays) and the packets in flight. Both
ODWF schemes run one packet flow, _Odwf, and differ only in their link model.
Buffers are unbounded by design; a configurable guard cap aborts with a
diagnostic when a configuration is divergent.

Mobile relays carry a strip, never coordinates: positions are redrawn
uniformly within the strip every frame, so coverage is a per-strip Bernoulli
draw. Relays with nothing to forward are only counted per strip, so a mobile
frame costs O(M + buffered relays touched) draws, not O(K), and its coverage
draws visit only the strips a disk reaches.
"""

from __future__ import annotations

import math
from array import array
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .channel import coverage_radius, fixed_link
from .matching import max_bipartite_matching
from .mobility import build_geometry, coverage_probabilities

# inert: perfbench/tracing.py patches these names here; nothing calls them,
# and they go when the tracer drops those patch points
step_regions = sample_positions_in_region = None

SOURCE_TX = "source_tx"
RELAY_TX = "relay_tx"
IDLE = "idle"


class BufferOverflowError(RuntimeError):
    """In-flight packets exceeded the guard cap: the configuration is divergent."""


class FrameOutcome(NamedTuple):
    kind: str
    delivered: tuple = ()    # (seq, created_frame) per packet the destination received


IDLE_FRAME = FrameOutcome(IDLE)
SOURCE_FRAME = FrameOutcome(SOURCE_TX)


def _stream(draw):
    """draw()'s values one at a time: a numpy call per block, not per draw."""
    while True:
        yield from draw().tolist()


def _below(u, n: int) -> int:
    """A uniform integer in [0, n) from the uniform stream u, with no clamp:
    Generator.random returns at most 1 - 2**-53, and for every integer
    n <= 2**53, (1 - 2**-53) * n rounds to a float below n, as the exact
    product n - n * 2**-53 lies more than half an ulp below n unless n is a
    power of two, when it is exact. Callers pass n <= 2**53: the walk
    2(K - i), as SystemConfig puts a mobile K at most 2**52, and the others
    FIFO lengths or strip counts."""
    return int(next(u) * n)


class _Fifos:
    """Per-relay FIFOs of undelivered seqs on one subcarrier.

    A relay's id is its index in fifo, and fifo[k] holds exactly relay k's
    undelivered seqs, oldest first, as the keys of an insertion-ordered
    dict; holders maps each undelivered seq to its relay ids. A relay is
    occupied while its dict is nonempty. An idle relay has no id: its empty
    dict waits, its id on the stack free, for the next relay take() hands
    it to. Free ids go first, so fifo grows to the peak occupancy only, and
    free and the size occupied ids split range(len(fifo)). A delivery
    deletes its seq from every holder's dict at once: a list or deque would
    scan for it, and at low mobility it sits tens of entries deep in FIFOs
    hundreds long. More than cap undelivered seqs abort the run. No other
    code reads fifo past its length: pick() and cover() draw ids from it.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.fifo = []
        self.free = []
        self.holders = {}
        self.size = 0

    def take(self, n: int) -> list:
        """Ids for n idle relays: the last freed first, then new ones."""
        free, fifo = self.free, self.fifo
        cut = max(len(free) - n, 0)
        ids = free[:cut - 1 if cut else None:-1]
        del free[cut:]
        new = n - len(ids)
        if new:
            ids += range(len(fifo), len(fifo) + new)
            fifo.extend({} for _ in range(new))
        self.size += n
        return ids

    def add(self, seq: int, ids: list):
        """Enqueue seq at the relays ids."""
        self.holders[seq] = ids
        if len(self.holders) > self.cap:
            raise BufferOverflowError(f"{len(self.holders)} undelivered packets "
                                      f"exceed the guard cap {self.cap}")
        fifo = self.fifo
        for k in ids:
            fifo[k][seq] = None

    def deliver(self, k: int):
        """Pop relay k's oldest seq and purge it everywhere. Return the seq
        and the ids of the relays it leaves holding nothing, in holder
        order; they turn idle and their ids free."""
        fifo = self.fifo
        seq = next(iter(fifo[k]))
        emptied = []
        for j in self.holders.pop(seq):
            queue = fifo[j]
            del queue[seq]
            if not queue:
                emptied.append(j)
        self.free += emptied
        self.size -= len(emptied)
        return seq, emptied

    def pick(self, u, skip=()) -> int:
        """A uniform occupied id not in skip, a set of occupied ids, from the
        uniform stream u: a uniform id redrawn until it is one, in
        len(fifo)/(size - len(skip)) tries on average. Some must exist."""
        fifo, n = self.fifo, len(self.fifo)
        k = _below(u, n)
        while not fifo[k] or k in skip:
            k = _below(u, n)
        return k

    def cover(self, u, m: int) -> list:
        """The occupied ids among a uniform m-subset of range(len(fifo)),
        drawn from the uniform stream u by Floyd's algorithm."""
        fifo, picked = self.fifo, set()
        for j in range(len(fifo) - m, len(fifo)):
            picked.add(j if (t := _below(u, j + 1)) in picked else t)
        return [k for k in picked if fifo[k]]


class _Odwf:
    """Opportunistic decode-wait-and-forward's packet flow over banks, a list
    of _Fifos: one per subcarrier for fixed relays, one for mobile relays.

    A frame first walks the relays. Phase II runs when _deliverers() gives
    one transmitter per bank: each delivers its FIFO head, and every relay
    purges that seq (overhearing is perfectly reliable). Phase I runs when
    phase II fails and _covered() gives (occupied ids, fresh) per bank: the
    source emits one packet per bank, in bank order, which the covered
    occupied relays and the idle ones that _take(bank, fresh) hands ids
    enqueue. Otherwise it idles.
    """

    def __init__(self, n_banks: int, buffer_cap: int):
        self.banks = [_Fifos(buffer_cap) for _ in range(n_banks)]
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        transmitters = self._deliverers()
        if transmitters is not None:
            delivered = []
            for bank, k in zip(self.banks, transmitters):
                seq, emptied = bank.deliver(k)
                if emptied:
                    self._emptied(emptied)
                delivered.append((seq, self.created_frame.pop(seq)))
            return FrameOutcome(RELAY_TX, tuple(delivered))
        covered = self._covered()
        if covered is None:
            return IDLE_FRAME
        for bank, (ids, fresh) in zip(self.banks, covered):
            seq = self.next_seq
            self.next_seq += 1
            self.created_frame[seq] = frame
            bank.add(seq, ids + self._take(bank, fresh))
        return SOURCE_FRAME

    def _walk(self):
        """Fixed relays stay put."""

    def _take(self, bank: _Fifos, fresh: int) -> list:
        """Ids for the fresh covered idle relays of bank."""
        return bank.take(fresh)

    def _emptied(self, ids: list):
        """The relays ids turned idle; fixed relays keep nothing else."""

    def census(self) -> tuple:
        """Per bank, the relays holding an undelivered seq; and the packets
        in flight."""
        return [bank.size for bank in self.banks], len(self.created_frame)


class OdwfFixed(_Odwf):
    """Scheme: opportunistic decode-wait-and-forward over fixed relays.

    Phase II needs, on every subcarrier, an occupied relay behind a connected
    relay-destination link, and picks one uniformly as the transmitter.
    Phase I needs, on every subcarrier, a connected source-relay link.

    Each subcarrier n keeps its own _Fifos, whose idle relays (no undelivered
    seq in bank n) are only counted, as K minus the occupied ones; relay ids
    are labels per subcarrier. Every link is Bernoulli(1/beta), independently
    across relays, subcarriers and frames, so every metric keeps its law:
    - Idle relays of a subcarrier are exchangeable: they hold nothing in its
      bank, and no draw involves a relay's state on another subcarrier. So
      only their number enters, and phase I's newly covered ones number
      Binomial(K - occ_n, 1/beta). They take ids once every subcarrier has
      passed, since a later one may still idle the frame.
    - A Binomial(len(fifo), 1/beta) count, then a uniform subset of that
      size (_Fifos.cover), covers every id independently with probability
      1/beta; the occupied ones among them are the covered occupied relays.
    - Some occupied relay connects to the destination with probability
      1 - (1 - 1/beta)^occ_n: one Bernoulli draw. Given that some do, the
      uniform pick among them is, by symmetry, uniform over all occ_n
      occupied relays (_Fifos.pick), and no other link of the frame is used.
      It runs with probability at most occ_n/beta, so its len(fifo)/occ_n
      tries cost at most len(fifo)/beta per frame, as many as phase I draws.
    So a frame costs O(N + connected relays), whatever K is.
    """

    def __init__(self, cfg, rng: np.random.Generator):
        super().__init__(cfg.N, cfg.buffer_cap)
        self.K = cfg.K
        self.rng = rng
        self.connect_probability, self.log_down = fixed_link(cfg.beta)
        self.uniforms = _stream(partial(rng.random, 1024))

    def _deliverers(self):
        """Per-subcarrier transmitter ids, or None if any subcarrier has no
        occupied relay behind a connected relay-destination link."""
        u, log_down = self.uniforms, self.log_down
        for bank in self.banks:
            if not bank.size or next(u) >= -math.expm1(bank.size * log_down):
                return None
        return [bank.pick(u) for bank in self.banks]

    def _covered(self):
        """Per subcarrier, the relays with a connected source-relay link:
        the ids of the occupied ones and the number of idle ones. None as
        soon as a subcarrier has none (later ones are then never drawn)."""
        rng, p, u = self.rng, self.connect_probability, self.uniforms
        covered = []
        for bank in self.banks:
            fresh = rng.binomial(self.K - bank.size, p)
            ids = bank.cover(u, rng.binomial(len(bank.fifo), p))
            if not fresh and not ids:
                return None
            covered.append((ids, fresh))
        return covered


class BaselineFixed:
    """Baseline: genie-aided regular decode-and-forward over fixed relays.

    A fresh batch of N packets (one per subcarrier) is injected only when the
    network is empty and every subcarrier has a connected source-relay link.
    While packets remain, every frame is a RelayTx that delivers a maximum
    bipartite matching between undelivered packets and subcarriers; an edge
    exists iff some holder of the packet has a connected relay-destination link
    on that subcarrier. A relay may serve several subcarriers in one frame.
    Which relay transmits changes no metric, so none is picked.

    Relays are kept in holder cells: cell c is sizes[c] relays that hold
    exactly the packets i of the batch with bit i set in labels[c]. Links are
    i.i.d. Bernoulli(1/beta), so relays are exchangeable, only cell sizes
    enter the laws, and a frame costs O(N * cells), whatever K is.
    - Source phase: p = 1/beta, and over a chunk of L <= CHUNK subcarriers a
      relay connects on exactly the subset S with probability pi_S =
      p^|S| (1 - p)^(L - |S|), independently of other relays and chunks. So
      one Multinomial(size, pi) per cell and chunk splits the cells exactly;
      the batch is refused when the patterns drawn miss a subcarrier. A draw
      costs up to 2^L Binomials per cell; CHUNK = 8 still makes every N <= 8,
      all criteria and benchmark rows, one draw.
    - Relay phase: no member of a cell of s relays connects on a subcarrier
      with probability (1 - 1/beta)^s, independently across cells and
      subcarriers: one Bernoulli per (subcarrier, cell) decides the edges.
      Cells with equal labels need no merging: (1 - 1/beta)^(s+t) factors.
    - Full reach: when every subcarrier reaches every pending packet, the
      frame delivers them all without running the matching. At most N
      packets are pending and each has an edge to all N subcarriers, so
      every set of packets has at least as many neighbours as members;
      by Hall's theorem a matching covers them all, and a maximum one, as
      max_bipartite_matching returns, does too. The delivered packets, their
      order and the draws are the matching's, so output is unchanged.
    """

    CHUNK = 8

    def __init__(self, cfg, rng: np.random.Generator):
        self.K, self.N = cfg.K, cfg.N
        self.rng = rng
        p, self.log_down = fixed_link(cfg.beta)    # (first subcarrier, pi) per chunk
        self.chunks = [(n, reduce(np.kron, [[1 - p, p]] * min(self.CHUNK, self.N - n), [1.0]))
                       for n in range(0, self.N, self.CHUNK)]    # bit j of S: subcarrier n + j
        self.root = np.zeros(1, np.int64 if self.N < 63 else object)    # no packet yet
        self.pending = []    # undelivered packets i of the batch: seq base_seq + i
        self.base_seq = self.created = 0    # created: the batch's creation frame
        self.held = 0        # relays in live cells
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        return self._relay_tx() if self.pending else self._source_tx(frame)

    def _source_tx(self, frame):
        labels, sizes = self.root, self.K
        for first, pi in self.chunks:    # a scalar draw for the first chunk
            counts = self.rng.multinomial(sizes, pi).reshape(-1, pi.size)    # counts[c, S]
            cells, patterns = np.nonzero(counts)
            if np.bitwise_or.reduce(patterns) != pi.size - 1:
                return IDLE_FRAME
            labels = labels[cells] | patterns.astype(labels.dtype) << first
            sizes = counts[cells, patterns]
        dead = int(labels[0] == 0)    # the relays that connected nowhere, always first
        self.labels, self.sizes = labels[dead:], sizes[dead:]
        self.up_prob = -np.expm1(self.sizes * self.log_down)
        self.held = self.K - int(sizes[0]) if dead else self.K    # sizes sum to K
        self.pending = list(range(self.N))
        self.base_seq, self.created = self.next_seq, frame
        self.next_seq += self.N
        return SOURCE_FRAME

    def _relay_tx(self):
        N, pending = self.N, self.pending
        up = self.rng.random((N, self.sizes.size)) < self.up_prob   # up[n, c]
        reach = np.bitwise_or.reduce(np.where(up, self.labels, 0), axis=1).tolist()
        want = sum(1 << i for i in pending)
        if all(r & want == want for r in reach):    # full reach: the batch drains
            packets, self.pending, self.held = pending, [], 0
        else:
            adjacency = [[n for n in range(N) if reach[n] >> i & 1] for i in pending]
            match_left, _ = max_bipartite_matching(adjacency, N)
            packets = [i for i, n in zip(pending, match_left) if n >= 0]
            gone = sum(1 << i for i in packets)
            self.pending = [i for i in pending if not gone >> i & 1]
            if not self.pending:    # the next source frame redraws the cells
                self.held = 0
            elif packets:    # a cell left holding nothing stays, with label 0
                self.labels = self.labels & ~gone
                self.held = int(self.sizes[self.labels != 0].sum())
        return FrameOutcome(RELAY_TX, tuple((self.base_seq + i, self.created)
                                            for i in packets))

    def census(self) -> tuple:
        return [self.held] * self.N, len(self.pending)


class _MobileScheme:
    """Strip bookkeeping shared by the two mobile schemes.

    A relay is idle while its buffer is empty (ODWF) or it does not hold the
    outstanding packet (baseline), and buffered otherwise. store holds the
    idle counts of strips 0..M, then the buffered ones, as Python ints for
    scalar updates; counts, idle = counts[0] and buffered = counts[1] are
    its numpy views, for vector draws. p_src[r] and p_dst[r] are the
    probabilities that a relay of strip r is inside source and destination
    coverage in a frame; src_reach and dst_reach list (r, p) where p > 0.
    Per-strip arrays are 0 at entry 0, a strip no relay is in.

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
      ODWF), so the mover-by-mover walk is the faster one up to about 11
      movers for the baseline and 14 for ODWF (K = 1000, M = 5). FEW stays
      below both, as moving it changes the draws of rows in between.
      Both walks are exact for K <= 2**52, the bound SystemConfig puts on
      mobile rows: a mover and its direction come from one float uniform
      scaled to 2(K - i), which keeps its low bit only up to 2**53, and the
      multinomial walk's bincount sums counts in float64.
    - Coverage: per strip and class the relays inside a coverage disk number
      Binomial(n, p), and given the count every subset of that size is
      equally likely.
    Uniform integer picks come from uniforms drawn ahead in blocks by _stream.
    """

    FEW = 8.0

    def __init__(self, cfg, rng: np.random.Generator):
        K, M, q = cfg.K, cfg.M, cfg.q
        self.K, self.M, self.rng = K, M, rng
        self.p_src, self.p_dst, p_both = coverage_probabilities(
            build_geometry(cfg.R, M), coverage_radius(cfg.p, cfg.beta, cfg.alpha))
        self.src_reach, self.dst_reach = ([(r, p) for r, p in enumerate(probs.tolist()) if p]
                                          for probs in (self.p_src, self.p_dst))
        # source coverage given no destination coverage; where p_dst = 1 no
        # buffered relay survives phase II, so any value will do
        self.p_src_given_no_dst = np.clip(np.divide(
            self.p_src - p_both, 1.0 - self.p_dst,
            out=np.zeros(M + 1), where=self.p_dst < 1.0), 0.0, 1.0)
        self.store = array("q", bytes(16 * (M + 1)))
        self.counts = np.frombuffer(self.store, dtype=np.int64).reshape(2, M + 1)
        self.idle, self.buffered = self.counts    # views, updated in place
        self.idle[1:] = rng.multinomial(K, np.full(M, 1.0 / M))
        self.split = [q, q, 1.0 - 2.0 * q]
        # land[r]: the strips a relay of strip r moves to up, down or
        # staying, reflected at strips 1 and M; row 0, no strip, stays 0
        self.land = np.array([[0] * 3] + [[min(r + 1, M), max(r - 1, 1), r]
                                          for r in range(1, M + 1)])
        # to[g]: the store entries a down and an up mover of entry g land in
        self.to = [(row + down, row + up) for row in (0, M + 1)
                   for up, down, _ in self.land.tolist()]
        # where the up, down and staying movers of strip r, class c land in
        # counts.ravel(), for strips 1..M of the idle, then the buffered class
        self.dest = (self.land[1:].ravel() + [[0], [M + 1]]).ravel()
        self.few = 2.0 * q * K <= self.FEW
        self.n_movers = _stream(partial(rng.binomial, K, 2.0 * q, 1024))
        self.uniforms = _stream(partial(rng.random, 1024))

    def _walk(self):
        """One frame of the walk for every relay."""
        if not self.few:
            self._walk_many()
            return
        n = next(self.n_movers)
        left = self._groups() if n else None    # relays not picked yet, per group
        for i in range(n):
            pick = _below(self.uniforms, 2 * (self.K - i))
            index, group = pick >> 1, 0
            while index >= left[group]:
                index -= left[group]
                group += 1
            left[group] -= 1
            self._move(group, pick & 1)

    def _groups(self) -> list:
        """Sizes of the groups the few-movers walk picks from, by store
        entry: here every entry."""
        return self.store.tolist()

    def _move(self, group: int, up: int):
        """Move a relay of store entry group, not picked yet, up (up = 1) or
        down."""
        store = self.store
        store[group] -= 1
        store[self.to[group][up]] += 1

    def _walk_many(self):
        moves = self.rng.multinomial(self.counts[:, 1:], self.split)
        self.counts[:] = np.bincount(self.dest, moves.ravel(),
                                     self.counts.size).reshape(self.counts.shape)

    def _in_coverage(self, row: int, reach: list) -> list:
        """(r, c) per strip r of reach, the (r, p) pairs of a coverage disk,
        where c > 0 of the store[row + r] relays of strip r are inside it,
        each with probability p: Binomial where the count is nonzero, as
        numpy too draws nothing for n = 0."""
        store, binomial = self.store, self.rng.binomial
        return [(r, c) for r, p in reach if (n := store[row + r]) and (c := binomial(n, p))]

    def _buffer(self, fresh: list) -> int:
        """Make c idle relays of strip r buffered per (r, c) of fresh; return
        how many turned buffered."""
        store, top = self.store, self.M + 1
        for r, c in fresh:
            store[r] -= c
            store[top + r] += c
        return sum(c for _, c in fresh)


class OdwfMobile(_MobileScheme, _Odwf):
    """Scheme: ODWF over mobile relays with pathloss-only connectivity.

    Phase II needs a relay with a nonempty buffer inside destination
    coverage, and picks one such relay uniformly as the transmitter. Phase I
    needs a relay inside source coverage.

    A buffered relay has an id in bank, the one _Fifos, and strip[k] is its
    strip, 0 while id k is free or past len(fifo). Every per-strip array is
    0 at entry 0, so draws over strip[:len(fifo)] leave free ids alone: the
    many-movers walk (one uniform u per id: up below q, down in [q, 2q),
    through land), the covering of phase I and the scan for a pick within a
    strip. The few-movers walk picks a buffered mover uniformly among those
    not picked yet with _Fifos.pick.
    """

    THIN_FROM = 2048

    def __init__(self, cfg, rng: np.random.Generator):
        _MobileScheme.__init__(self, cfg, rng)
        _Odwf.__init__(self, 1, cfg.buffer_cap)
        self.bank = self.banks[0]
        self.strip = np.zeros(0, dtype=np.intp)    # grown with bank.fifo by _take
        self.thin_rate = max(self.p_src_given_no_dst.tolist())
        self.cuts = np.array([cfg.q, 2.0 * cfg.q])

    def _groups(self) -> list:
        """The idle relays of strips 0..M, then all buffered ones, none of
        them picked yet."""
        self.picked = set()
        return self.store[:self.M + 1].tolist() + [self.bank.size]

    def _move(self, group, up):
        if group <= self.M:
            super()._move(group, up)
            return
        k = self.bank.pick(self.uniforms, self.picked)
        self.picked.add(k)
        old = int(self.strip[k])
        self.strip[k] = self.to[old][up]
        super()._move(group + old, up)    # group is M + 1, the buffered row

    def _walk_many(self):
        moves = self.rng.multinomial(self.idle[1:], self.split)
        self.idle[:] = np.bincount(self.dest[:3 * self.M], moves.ravel(), self.M + 1)
        n = len(self.bank.fifo)
        strips = self.strip[:n]
        strips[:] = self.land[strips, np.searchsorted(self.cuts, self.rng.random(n), "right")]
        self.buffered[1:] = np.bincount(strips, minlength=self.M + 1)[1:]

    def _deliverers(self):
        """[k] for a uniform pick k among the buffered relays in destination
        coverage, or None: a strip is picked in proportion to its count,
        then any of its buffered relays."""
        covered = self._in_coverage(self.M + 1, self.dst_reach)
        if not covered:
            return None
        pick = _below(self.uniforms, sum(c for _, c in covered))
        for strip, c in covered:
            if pick < c:
                break
            pick -= c
        members = np.flatnonzero(self.strip[:len(self.bank.fifo)] == strip)
        return [int(members[_below(self.uniforms, members.size)])]

    def _covered(self):
        """[(held, fresh)], or None if no relay is inside source coverage:
        held are the ids of the buffered relays inside it, and fresh the
        (r, c) pairs of the strips r with c > 0 idle ones inside it.

        ODWF's phase I runs only when no buffered relay is in destination
        coverage, so those are covered with p_src_given_no_dst, unlike p_src
        only where p_dst > 0, each independently. When the largest of these,
        thin_rate p, is at most 1/16 and ids number at least THIN_FROM,
        fewer draws do: candidates come at rate p as a Bernoulli process,
        whose gaps are Geometric(p), and a candidate of strip r stays with
        probability p_src_given_no_dst[r] / p. Its dozen numpy calls cost
        more than one uniform per id below about 2,000 ids, or above
        p = 1/8.
        """
        fresh = self._in_coverage(0, self.src_reach)
        n, p = len(self.bank.fifo), self.thin_rate
        strips = self.strip[:n]
        if n < self.THIN_FROM or not 0.0 < p <= 0.0625:
            held = np.flatnonzero(self.rng.random(n) < self.p_src_given_no_dst[strips]).tolist()
        else:
            mean = n * p
            pos = np.cumsum(self.rng.geometric(p, int(mean + 4 * math.sqrt(mean) + 8))) - 1
            while pos[-1] < n:    # too few gaps drawn to pass n: rare
                pos = np.concatenate((pos, pos[-1] + np.cumsum(self.rng.geometric(p, 64))))
            pos = pos[:np.searchsorted(pos, n)]
            keep = self.rng.random(pos.size) * p < self.p_src_given_no_dst[strips[pos]]
            held = pos[keep].tolist()
        if not held and not fresh:
            return None
        return [(held, fresh)]

    def _take(self, bank, fresh):
        """Ids for the c covered idle relays of strip r per (r, c) of fresh,
        which turn buffered there. strip grows to twice len(fifo) when
        fifo outgrows it."""
        ids = bank.take(self._buffer(fresh))
        if ids:    # most phase-I frames of a slow walk cover no idle relay
            if len(bank.fifo) > self.strip.size:    # zeros past the old end
                self.strip = np.pad(self.strip, (0, 2 * len(bank.fifo) - self.strip.size))
            self.strip[ids] = [r for r, c in fresh for _ in range(c)]
        return ids

    def _emptied(self, ids):
        store, top = self.store, self.M + 1
        for r in self.strip[ids].tolist():
            store[r] += 1
            store[top + r] -= 1
        self.strip[ids] = 0


class BaselineMobile(_MobileScheme):
    """Baseline: one outstanding packet at a time over mobile relays.

    With the network empty, the source broadcasts to every relay in source
    coverage. The packet then waits while its holders walk; as soon as any
    holder enters destination coverage the genie delivers through it and the
    network empties again. The holders, the buffered relays, are
    exchangeable as well, so they are only counted.
    """

    def __init__(self, cfg, rng: np.random.Generator):
        super().__init__(cfg, rng)
        self.held = 0    # relays holding packet next_seq - 1; 0: none is out
        self.created = self.next_seq = 0    # created: its creation frame

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        if self.held:
            if not self._in_coverage(self.M + 1, self.dst_reach):
                return IDLE_FRAME
            self.held = 0
            self.idle += self.buffered
            self.buffered[:] = 0
            return FrameOutcome(RELAY_TX, ((self.next_seq - 1, self.created),))
        covered = self._in_coverage(0, self.src_reach)    # the network is empty
        if not covered:
            return IDLE_FRAME
        self.held = self._buffer(covered)
        self.created = frame
        self.next_seq += 1
        return SOURCE_FRAME

    def census(self) -> tuple:
        return [self.held], int(self.held > 0)
