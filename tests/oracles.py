"""Reference code the tests compare the simulator against.

The scalar channel and mobility helpers spell out the model one link or one
relay at a time; the simulator never calls them. DenseOdwfMobile and
DenseBaselineMobile are the mobile schemes as they were before coverage
became a per-strip probability: they walk every relay each frame and draw
coordinates for every relay a coverage disk can reach.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from relaysim.channel import RateThreshold, coverage_radius
from relaysim.mobility import DiskGeometry, sample_positions_in_region
from relaysim.protocol import (IDLE, RELAY_TX, SOURCE_TX, BufferOverflowError,
                               FrameOutcome, Packet, RelayState)

# ------------------------------------------------------------------ channel


def sample_power_gain(rng: np.random.Generator) -> float:
    """One Rayleigh power gain |H|^2 with H ~ CN(0,1): exponential, mean 1."""
    return float(rng.exponential())


def sample_power_gains(rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized counterpart of sample_power_gain."""
    return rng.exponential(size=size)


def mutual_information(p: float, gain: float) -> float:
    """Per-subcarrier mutual information log2(1 + p * gain) in bits per channel use."""
    return math.log2(1.0 + p * gain)


def is_connected_fixed(r: RateThreshold, p: float, gain: float) -> bool:
    """Fixed-scenario link test in threshold form.

    Equivalent to mutual_information(p, gain) >= r.rate, but evaluated as
    gain >= ln(beta) so the connect probability is exactly 1/beta with no
    transcendental round-trip at the boundary.
    """
    return gain >= r.gain_threshold


def is_connected_mobile(r: RateThreshold, p: float, d: float, alpha: float) -> bool:
    """Mobile-scenario link test: inside the coverage radius, boundary inclusive."""
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    return d <= coverage_radius(p, r.beta, alpha)


# ----------------------------------------------------------------- mobility


@dataclass(frozen=True)
class RelayPosition:
    region: int
    coords: tuple  # (x, y) inside the disk and inside the region's strip


def region_of(geom: DiskGeometry, x: float) -> int:
    """Region index 1..M of the strip containing abscissa x."""
    # interior boundaries only; right-closed strips except the last
    idx = int(np.searchsorted(np.asarray(geom.boundaries[1:-1]), x, side="right"))
    return idx + 1


def step_region(current: int, n_regions: int, q: float, rng: np.random.Generator) -> int:
    """One reflecting-walk transition: to i +/- 1 with probability q each.

    At regions 1 and M the blocked move reflects into a stay, so the boundary
    stay probability is 1 - q, matching the transition matrix rows.
    """
    u = rng.random()
    proposal = current + (1 if u < q else (-1 if u < 2.0 * q else 0))
    return min(max(proposal, 1), n_regions)


def step_regions_dense(regions: np.ndarray, n_regions: int, q: float,
                       rng: np.random.Generator) -> np.ndarray:
    """step_region over a whole relay population, one uniform per relay."""
    u = rng.random(regions.size)
    delta = (u < q).astype(np.int64) - ((u >= q) & (u < 2.0 * q))
    return np.clip(regions + delta, 1, n_regions)


def transition_matrix(n_regions: int, q: float) -> np.ndarray:
    """The M x M region-transition matrix Q; symmetric, hence doubly stochastic."""
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"need 0 <= q <= 1/2, got {q}")
    Q = np.zeros((n_regions, n_regions))
    for i in range(n_regions):
        if i > 0:
            Q[i, i - 1] = q
        if i < n_regions - 1:
            Q[i, i + 1] = q
        Q[i, i] = 1.0 - Q[i].sum()
    return Q


def sample_position_in_region(geom: DiskGeometry, region: int,
                              rng: np.random.Generator) -> RelayPosition:
    """One uniform position within the region's strip."""
    if not 1 <= region <= geom.n_regions:
        raise ValueError(f"region must be in 1..{geom.n_regions}, got {region}")
    xs, ys = sample_positions_in_region(geom, region, 1, rng)
    return RelayPosition(region=region, coords=(float(xs[0]), float(ys[0])))


def uniform_disk(radius: float, count: int, rng: np.random.Generator):
    """`count` uniform points on the disk, by bounding-box rejection."""
    xs = np.empty(count)
    ys = np.empty(count)
    filled = 0
    while filled < count:
        m = count - filled
        batch = m + (m >> 1) + 8
        cx = rng.uniform(-radius, radius, batch)
        cy = rng.uniform(-radius, radius, batch)
        ok = np.flatnonzero(cx * cx + cy * cy <= radius * radius)[:m]
        xs[filled:filled + ok.size] = cx[ok]
        ys[filled:filled + ok.size] = cy[ok]
        filled += ok.size
    return xs, ys


def init_relays(geom: DiskGeometry, n_relays: int, rng: np.random.Generator):
    """K i.i.d. uniform positions on the disk, region derived from x."""
    if n_relays < 1:
        raise ValueError(f"need at least one relay, got {n_relays}")
    xs, ys = uniform_disk(geom.radius, n_relays, rng)
    interior = np.asarray(geom.boundaries[1:-1])
    regions = np.searchsorted(interior, xs, side="right") + 1
    return [RelayPosition(region=int(r), coords=(float(x), float(y)))
            for r, x, y in zip(regions, xs, ys)]


def distance_to_source(geom: DiskGeometry, pos: RelayPosition) -> float:
    x, y = pos.coords
    return math.hypot(x + geom.radius, y)


def distance_to_destination(geom: DiskGeometry, pos: RelayPosition) -> float:
    x, y = pos.coords
    return math.hypot(x - geom.radius, y)


def coverage_window(geom: DiskGeometry, radius_cov: float):
    """Static strip windows that a coverage disk can reach.

    Returns (src_max_region, dest_min_region): strips 1..src_max_region are the
    only ones that can intersect the source disk, strips dest_min_region..M the
    only ones that can intersect the destination disk.
    """
    b = geom.boundaries
    M = geom.n_regions
    src_max = 1
    for i in range(2, M + 1):
        if b[i - 1] <= -geom.radius + radius_cov:
            src_max = i
        else:
            break
    dest_min = M
    for i in range(M - 1, 0, -1):
        if b[i] >= geom.radius - radius_cov:
            dest_min = i
        else:
            break
    return src_max, dest_min


# ------------------------------------------------- coordinate-sampling schemes


class _DenseMobileScheme:
    """Shared geometry plumbing for the two dense mobile schemes.

    Coordinates are sampled only for relays in strips a coverage disk can
    reach; everyone else's position is irrelevant this frame and, being
    redrawn on every transition anyway, carries no state.
    """

    def __init__(self, n_relays: int, geom: DiskGeometry, threshold: RateThreshold,
                 p: float, pathloss_exp: float, q: float, rng: np.random.Generator):
        self.K = n_relays
        self.geom = geom
        self.rate = threshold.rate
        self.q = q
        self.rng = rng
        self.cov = coverage_radius(p, threshold.beta, pathloss_exp)
        self.src_max_region, self.dest_min_region = coverage_window(geom, self.cov)
        xs, _ = uniform_disk(geom.radius, n_relays, rng)
        interior = np.asarray(geom.boundaries[1:-1])
        self.regions = (np.searchsorted(interior, xs, side="right") + 1).astype(np.int64)

    def _walk(self):
        self.regions = step_regions_dense(self.regions, self.geom.n_regions, self.q,
                                          self.rng)

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


class DenseOdwfMobile(_DenseMobileScheme):
    """OdwfMobile drawing coordinates for every relay a coverage disk can reach."""

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


class DenseBaselineMobile(_DenseMobileScheme):
    """BaselineMobile drawing coordinates for every relay a coverage disk can reach."""

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
