"""The four relay scheduling schemes as frame-synchronous state machines.

Each scheme exposes step(frame) -> FrameOutcome(kind, delivered): kind is
SOURCE_TX (phase I, source injects), RELAY_TX (phase II, relays deliver) or
IDLE, and delivered holds a (seq, created_frame) pair per packet the
destination received. Idle and source frames return IDLE_FRAME and
SOURCE_FRAME. census() -> (occupied, in_flight) gives, as ints, the relays
holding undelivered packets per subcarrier (one entry for mobile relays) and
the packets in flight. Both ODWF schemes run one packet flow, _Odwf, and
differ only in their link model. Buffers are unbounded by design; a
configurable guard cap aborts with a diagnostic when a configuration is
divergent.

Mobile relays carry a strip, never coordinates: positions are redrawn
uniformly within the strip every frame, so coverage is a per-strip Bernoulli
draw. Relays with nothing to forward are only counted per strip, so a mobile
frame costs O(M + buffered relays touched) draws, not O(K).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

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


class FrameOutcome(NamedTuple):
    kind: str
    delivered: tuple = ()    # (seq, created_frame) per packet the destination received


IDLE_FRAME = FrameOutcome(IDLE)
SOURCE_FRAME = FrameOutcome(SOURCE_TX)
_NO_TAGS = np.empty(0, dtype=np.int64)


class _Uniforms:
    """Uniforms in [0, 1) drawn from rng 1,024 at a time, which spares a
    numpy call per scalar draw. Integer picks are floor(u * n), exact to
    float precision like any Bernoulli draw."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.block = iter(())

    def __call__(self) -> float:
        u = next(self.block, None)
        if u is None:
            self.block = iter(self.rng.random(1024).tolist())
            u = next(self.block)
        return u

    def below(self, n: int) -> int:
        """A uniform integer in [0, n)."""
        u = next(self.block, None)    # inline: one more call per pick showed in timings
        return min(int((self() if u is None else u) * n), n - 1)

    def subset(self, n: int, m: int) -> list:
        """A uniform m-subset of range(n), by Floyd's algorithm."""
        picked = set()
        for j in range(n - m, n):
            t = self.below(j + 1)
            picked.add(j if t in picked else t)
        return list(picked)


class _Fifos:
    """Per-relay FIFOs of undelivered seqs on one subcarrier, and the ids of
    the relays holding any.

    A relay holding no undelivered seq is idle and has no id. The others,
    the occupied relays, take ids from a pool and sit in one swap-remove
    array: held is a permutation of range(K) whose first size entries are
    the occupied ids and whose rest is the pool, with relay k at pos[k].
    tag[i] is a label the scheme keeps with held[i] (a mobile relay's strip).

    holders maps each undelivered seq to its relay ids, and fifo[k] holds
    exactly relay k's undelivered seqs, oldest first, as the keys of an
    insertion-ordered dict. A delivery deletes its seq from every holder's
    dict at once: a list or deque would scan from the front for it, and at
    low mobility it sits tens of entries deep in FIFOs hundreds long. fifo
    is a list indexed by relay id, which cost less per holder than a dict of
    dicts, and it grows to the peak occupancy only: the pool hands out the
    ids it took back last, so held[:peak] is a permutation of range(peak)
    and no id at or above the peak is ever taken. A relay that turns idle
    keeps its empty dict for the next relay that takes its id. More than cap
    undelivered seqs abort the run.
    """

    def __init__(self, n_relays: int, cap: int):
        self.cap = cap
        self.fifo = []
        self.holders = {}
        self.held = np.arange(n_relays)
        self.pos = np.arange(n_relays)
        self.tag = np.zeros(n_relays, dtype=np.int64)
        self.size = 0

    def add(self, seq: int, ids: np.ndarray, fresh: int):
        """Enqueue seq at the occupied relays ids and at fresh idle relays,
        which take the next ids of the pool at held[size:size + fresh]."""
        size = self.size
        self.size += fresh
        if fresh:
            taken = self.held[size:self.size]
            ids = np.concatenate((ids, taken)) if ids.size else taken.copy()
        self.holders[seq] = ids
        if len(self.holders) > self.cap:
            raise BufferOverflowError(f"{len(self.holders)} undelivered packets "
                                      f"exceed the guard cap {self.cap}")
        fifo = self.fifo
        if self.size > len(fifo):    # a new peak: held[:size] is range(size)
            fifo.extend({} for _ in range(self.size - len(fifo)))
        for k in ids.tolist():
            fifo[k][seq] = None

    def deliver(self, k: int):
        """Pop relay k's oldest seq and purge it everywhere; the relays it
        leaves holding nothing turn idle. Return the seq and the tags of
        those relays, in holder order."""
        fifo = self.fifo
        seq = next(iter(fifo[k]))
        emptied = []
        for j in self.holders.pop(seq).tolist():
            queue = fifo[j]
            del queue[seq]
            if not queue:
                emptied.append(j)
        return seq, self._release(np.array(emptied)) if emptied else _NO_TAGS

    def _release(self, ids: np.ndarray) -> np.ndarray:
        """Move the occupied relays ids to the pool by swap-remove: the
        occupied ones among the last ids.size entries fill, in order, the
        holes below them. Return their tags."""
        held, pos, tag = self.held, self.pos, self.tag
        size = self.size
        keep = self.size = size - ids.size
        at = pos[ids]
        tags = tag[at]
        pos[ids] = -1
        to = np.arange(keep, size)
        tail = to[pos[held[keep:size]] >= 0]
        holes = at[at < keep]
        held[holes] = held[tail]
        tag[holes] = tag[tail]
        pos[held[holes]] = holes
        held[keep:size] = ids
        pos[ids] = to
        return tags


class _Odwf:
    """Opportunistic decode-wait-and-forward's packet flow over banks, a list
    of _Fifos: one per subcarrier for fixed relays, one for mobile relays.

    A frame first walks the relays. Phase II runs when _deliverers() gives
    one transmitter per bank: each delivers its FIFO head, and every relay
    purges that seq (overhearing is perfectly reliable). Phase I runs when
    phase II fails and _covered() gives (occupied ids, fresh count) per bank:
    the source emits one packet per bank, in bank order, which the covered
    occupied relays and that many idle ones enqueue. Otherwise it idles.
    """

    def __init__(self, n_banks: int, n_relays: int, buffer_cap: int):
        self.banks = [_Fifos(n_relays, buffer_cap) for _ in range(n_banks)]
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        transmitters = self._deliverers()
        if transmitters is not None:
            delivered = []
            for bank, k in zip(self.banks, transmitters):
                seq, tags = bank.deliver(k)
                if tags.size:
                    self._emptied(tags)
                delivered.append((seq, self.created_frame.pop(seq)))
            return FrameOutcome(RELAY_TX, tuple(delivered))
        covered = self._covered()
        if covered is None:
            return IDLE_FRAME
        for bank, (ids, fresh) in zip(self.banks, covered):
            seq = self.next_seq
            self.next_seq += 1
            self.created_frame[seq] = frame
            bank.add(seq, ids, fresh)
        return SOURCE_FRAME

    def _walk(self):
        """Fixed relays stay put."""

    def _emptied(self, tags: np.ndarray):
        """Relays with these tags turned idle; fixed relays keep no tags."""

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
      Binomial(K - occ_n, 1/beta) and take pool ids.
    - The covered occupied relays number Binomial(occ_n, 1/beta), and given
      that number every subset of that size is equally likely.
    - Some occupied relay connects to the destination with probability
      1 - (1 - 1/beta)^occ_n: one Bernoulli draw. Given that some do, the
      uniform pick among them is, by symmetry, uniform over all occ_n
      occupied relays, and no other link of the frame is used.
    So a frame costs O(N + connected relays), whatever K is.
    """

    def __init__(self, n_relays: int, n_subcarriers: int, threshold: RateThreshold,
                 rng: np.random.Generator, buffer_cap: int = 100_000):
        super().__init__(n_subcarriers, n_relays, buffer_cap)
        self.K = n_relays
        self.N = n_subcarriers
        self.rate = threshold.rate
        self.rng = rng
        self.links = FixedLinkSampler(threshold, rng)
        self.uniforms = _Uniforms(rng)

    def _deliverers(self):
        """Per-subcarrier transmitter ids, or None if any subcarrier has no
        occupied relay behind a connected relay-destination link."""
        u, log_down = self.uniforms, self.links.log_down
        for bank in self.banks:
            if not bank.size or u() >= -math.expm1(bank.size * log_down):
                return None
        return [int(bank.held[u.below(bank.size)]) for bank in self.banks]

    def _covered(self):
        """Per subcarrier, the relays with a connected source-relay link:
        the ids of a uniform subset of the occupied ones and the number of
        idle ones, each count Binomial. None as soon as a subcarrier has
        none (later ones are then never drawn)."""
        rng, p, subset = self.rng, self.links.connect_probability, self.uniforms.subset
        covered = []
        for bank in self.banks:
            occ = bank.size
            fresh = rng.binomial(self.K - occ, p)
            hit = rng.binomial(occ, p) if occ else 0
            if not fresh + hit:
                return None
            covered.append((bank.held[subset(occ, hit)], fresh))
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
    - Source phase: the members of a cell that connect on subcarrier n number
      Binomial(size, 1/beta), independently across cells, which splits every
      cell in two.
    - Relay phase: no member of a cell of s relays connects on a subcarrier
      with probability (1 - 1/beta)^s, independently across cells and
      subcarriers: one Bernoulli per (subcarrier, cell) decides the edges.
      Cells with equal patterns are disjoint and need no merging, since
      (1 - 1/beta)^(s+t) = (1 - 1/beta)^s (1 - 1/beta)^t.
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
            return self._relay_tx()
        return self._source_tx(frame)

    def _source_tx(self, frame):
        rng, p = self.rng, self.links.connect_probability
        labels, sizes = [0], [self.K]    # cell c holds packet i iff bit i of labels[c]
        for n in range(self.N):
            ups = (rng.binomial(sizes, p).tolist() if len(sizes) > 8
                   else [rng.binomial(s, p) for s in sizes])   # cheaper when few
            if not any(ups):
                return IDLE_FRAME
            labels = ([label | 1 << n for label, up in zip(labels, ups) if up]
                      + [label for label, size, up in zip(labels, sizes, ups) if size > up])
            sizes = [up for up in ups if up] + [s - up for s, up in zip(sizes, ups) if s > up]
        if labels[-1] == 0:    # the relays that connected nowhere, always last
            labels, sizes = labels[:-1], sizes[:-1]
        self.labels = np.array(labels, dtype=np.int64 if self.N < 63 else object)
        self.sizes = np.array(sizes)
        self.up_prob = -np.expm1(self.sizes * self.links.log_down)
        self.held = int(sum(sizes))
        self.pending = list(range(self.N))
        self.base_seq, self.created = self.next_seq, frame
        self.next_seq += self.N
        return SOURCE_FRAME

    def _relay_tx(self):
        N, pending = self.N, self.pending
        up = self.rng.random((N, self.sizes.size)) < self.up_prob   # up[n, c]
        reach = np.bitwise_or.reduce(np.where(up, self.labels, 0), axis=1).tolist()
        adjacency = [[n for n in range(N) if reach[n] >> i & 1] for i in pending]
        match_left, _ = max_bipartite_matching(adjacency, N)
        packets = [i for i, n in zip(pending, match_left) if n >= 0]
        if not packets:
            return FrameOutcome(RELAY_TX)
        gone = sum(1 << i for i in packets)
        self.pending = [i for i in pending if not gone >> i & 1]
        self.labels = self.labels & ~gone
        keep = np.flatnonzero(self.labels)
        if keep.size < self.sizes.size:
            for name in ("labels", "sizes", "up_prob"):
                setattr(self, name, getattr(self, name)[keep])
            self.held = int(self.sizes.sum())
        return FrameOutcome(RELAY_TX, tuple((self.base_seq + i, self.created)
                                            for i in packets))

    def census(self) -> tuple:
        return [self.held] * self.N, len(self.pending)


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
    Uniform integer picks come from uniforms drawn ahead in blocks.
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
        # coverage reaches strips 1..src_max_region and dest_min_region..M;
        # none (0 and M + 1) where the radius is too small to cover any area
        src, dst = np.flatnonzero(self.p_src), np.flatnonzero(self.p_dst)
        self.src_max_region = int(src[-1]) if src.size else 0
        self.dest_min_region = int(dst[0]) if dst.size else M + 1
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
        self.n_movers = iter(())
        self.uniforms = _Uniforms(rng)

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
            pick = self.uniforms.below(2 * (self.K - i))
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
        """Running totals, from 0, over strips dest_min_region..M of the
        buffered relays inside destination coverage."""
        return list(accumulate(
            (int(self.rng.binomial(b, p)) if b else 0
             for b, p in zip(self.buffered[self.dest_min_region:].tolist(),
                             self.p_dst[self.dest_min_region:].tolist())), initial=0))

    def _in_source_coverage(self):
        """Per strip, the idle relays inside source coverage this frame; None
        if there are none."""
        fresh = [0] + [int(self.rng.binomial(n, p)) if n else 0 for n, p in zip(
            self.idle[1:self.src_max_region + 1].tolist(),
            self.p_src[1:self.src_max_region + 1].tolist())]
        if not any(fresh):
            return None
        return np.array(fresh + [0] * (self.M - self.src_max_region))


class OdwfMobile(_MobileScheme, _Odwf):
    """Scheme: ODWF over mobile relays with pathloss-only connectivity.

    Phase II needs a relay with a nonempty buffer inside destination
    coverage, and picks one such relay uniformly as the transmitter. Phase I
    needs a relay inside source coverage.

    A buffered relay has an id from the pool of bank, the one _Fifos, and its
    strip is its tag there: the buffered relays are bank.held[:nb], their
    strips bank.tag[:nb]. A pick within a strip scans those strips in one
    numpy call. The few-movers walk picks buffered movers from the whole
    array, moving each picked one behind those not picked yet; when many
    move, one uniform per buffered relay decides its move (up below q, down
    in [q, 2q)).
    """

    THIN_FROM = 2048

    def __init__(self, n_relays, geom, threshold, p, pathloss_exp, q, rng,
                 buffer_cap: int = 100_000):
        _MobileScheme.__init__(self, n_relays, geom, threshold, p, pathloss_exp, q, rng)
        _Odwf.__init__(self, 1, n_relays, buffer_cap)
        self.bank = self.banks[0]

    def _groups(self) -> list:
        """The idle relays of strips 1..M, then all buffered ones, none of
        them picked yet."""
        self.unpicked = self.bank.size
        return self.idle[1:].tolist() + [self.unpicked]

    def _move(self, group, index, up):
        if group < self.M:
            super()._move(group, index, up)
            return
        # swap the pick behind the buffered relays not picked yet
        self.unpicked -= 1
        i, j = index, self.unpicked
        held, strips, pos = self.bank.held, self.bank.tag, self.bank.pos
        held[i], held[j] = held[j], held[i]
        strips[i], strips[j] = strips[j], strips[i]
        pos[held[i]], pos[held[j]] = i, j
        strip = int(strips[j])
        to = min(max(strip + 2 * up - 1, 1), self.M)
        strips[j] = to
        self.buffered[strip] -= 1
        self.buffered[to] += 1

    def _walk_many(self):
        moves = self.rng.multinomial(self.idle[1:], self.split)
        self.idle[:] = np.bincount(self.dest[:3 * self.M], moves.ravel(), self.M + 1)
        nb = self.bank.size
        u, strips = self.rng.random(nb), self.bank.tag[:nb]
        strips += u < self.q
        strips -= (u >= self.q) & (u < 2.0 * self.q)
        np.clip(strips, 1, self.M, out=strips)
        self.buffered[:] = np.bincount(strips, minlength=self.M + 1)

    def _deliverers(self):
        """[k] for a uniform pick k among the buffered relays in destination
        coverage, or None: a strip is picked in proportion to its count,
        then any of its buffered relays."""
        counts = self._in_dest_coverage()
        if counts[-1] == 0:
            return None
        strip = self.dest_min_region - 1 + bisect_right(
            counts, self.uniforms.below(counts[-1]))
        members = np.flatnonzero(self.bank.tag[:self.bank.size] == strip)
        return [int(self.bank.held[members[self.uniforms.below(members.size)]])]

    def _covered(self):
        """[(held, n)], or None if no relay is inside source coverage: held
        are the ids of the buffered relays inside it, and n counts the idle
        ones, fresh[r] of strip r. These turn buffered at once, since phase I
        follows: their strips go to the tags at the pool's next n positions,
        whose ids bank.add hands them.

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
        nb, p = self.bank.size, max(self.p_src_given_no_dst.tolist())
        ids, strips = self.bank.held, self.bank.tag
        if nb < self.THIN_FROM or p > 0.0625:
            held = ids[:nb][self.rng.random(nb) < self.p_src_given_no_dst[strips[:nb]]]
        elif p:
            mean = nb * p
            pos = np.cumsum(self.rng.geometric(p, int(mean + 4 * math.sqrt(mean) + 8))) - 1
            while pos[-1] < nb:    # too few gaps drawn to pass nb: rare
                pos = np.concatenate((pos, pos[-1] + np.cumsum(self.rng.geometric(p, 64))))
            pos = pos[:np.searchsorted(pos, nb)]
            keep = self.rng.random(pos.size) * p < self.p_src_given_no_dst[strips[pos]]
            held = ids[pos[keep]]
        else:
            held = np.empty(0, dtype=np.intp)
        if fresh is None:
            return [(held, 0)] if held.size else None
        n = int(fresh.sum())
        self.idle -= fresh
        self.buffered += fresh
        strips[nb:nb + n] = np.repeat(np.arange(self.M + 1), fresh)
        return [(held, n)]

    def _emptied(self, strips):
        gone = np.bincount(strips, minlength=self.M + 1)
        self.idle += gone
        self.buffered -= gone


class BaselineMobile(_MobileScheme):
    """Baseline: one outstanding packet at a time over mobile relays.

    With the network empty, the source broadcasts to every relay in source
    coverage. The packet then waits while its holders walk; as soon as any
    holder enters destination coverage the genie delivers through it and the
    network empties again. The holders, the buffered relays, are
    exchangeable as well, so they are only counted.
    """

    def __init__(self, n_relays, geom, threshold, p, pathloss_exp, q, rng):
        super().__init__(n_relays, geom, threshold, p, pathloss_exp, q, rng)
        self.outstanding = None  # seq of the packet in the network
        self.created = self.next_seq = 0    # created: its creation frame
        self.held = 0            # relays holding it

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        if self.outstanding is not None:
            if self._in_dest_coverage()[-1] == 0:
                return IDLE_FRAME
            seq, self.outstanding = self.outstanding, None
            self.held = 0
            self.idle += self.buffered
            self.buffered[:] = 0
            return FrameOutcome(RELAY_TX, ((seq, self.created),))
        covered = self._in_source_coverage()    # the network is empty
        if covered is None:
            return IDLE_FRAME
        self.idle -= covered
        self.buffered += covered
        self.held = int(covered.sum())
        self.outstanding, self.created = self.next_seq, frame
        self.next_seq += 1
        return SOURCE_FRAME

    def census(self) -> tuple:
        return [self.held], int(self.outstanding is not None)
