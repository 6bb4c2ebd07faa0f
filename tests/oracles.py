"""Reference code the tests compare the simulator against.

flow_balance_residual checks the occupancy fixed point, occupancy_limit is
its large-K form, expected_covered_relays is the small-disk coverage count,
and ergodic_capacity_exact integrates the exact ergodic capacity that the
mobile pathloss model approximates. The scalar channel and mobility helpers
spell out the model one link or one relay at a time; the simulator never
calls them. DenseLinkSampler draws one indicator per fixed link,
step_regions walks every relay by id and sample_positions_in_region draws
coordinates within a strip: the dense schemes below run on them.
DenseOdwfMobile and DenseBaselineMobile are the mobile schemes as they were
before coverage became a per-strip probability: they walk every relay each
frame and draw coordinates for every relay a coverage disk can reach.
StripOdwfMobile and StripBaselineMobile are the mobile schemes as they were
before idle relays became per-strip counts: every relay keeps an id and a
strip, the walk moves ids, and coverage is a per-strip probability.
DenseBaselineFixed is the fixed baseline as it was before holder cells: it
keeps every holder id per packet and draws one indicator per holder link.
binomial_cell_split is the fixed baseline's source phase as it was before
one multinomial draw split a cell by a chunk of subcarriers. DenseOdwfFixed
is fixed ODWF as it was before idle relays lost their ids: every relay keeps
its id and one FIFO per subcarrier (IdFifos), and every link the protocol
uses gets its own indicator. RelayState and relay_state give a per-relay
view of the ODWF FIFOs, and place(proto, regions) puts the relays of a
mobile scheme into given strips. recursive_bipartite_matching is Kuhn's
matching as it was before its search kept an explicit stack: one Python
call per step of an augmenting path, so a path of about 1,000 steps raises
RecursionError.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from relaysim.analytics import c_of, delta_of, occupancy_alpha
from relaysim.channel import coverage_radius
from relaysim.mobility import DiskGeometry, build_geometry, coverage_probabilities
from relaysim.protocol import (IDLE_FRAME, RELAY_TX, SOURCE_FRAME,
                               BufferOverflowError, FrameOutcome, OdwfMobile)

# ---------------------------------------------------------------- analytics


def flow_balance_residual(beta: float, K: float, N: int) -> float:
    """Defect of the occupancy fixed point; ~0 up to roundoff by construction.

    With alpha*K relays occupied, the relay-transmit frequency is
    y = [1 - (1-1/beta)^(alpha*K)]^N and flow balance demands
    y = (1-y) * delta^N.
    """
    alpha, singular = occupancy_alpha(beta, K, N)
    if singular:
        return 0.0
    y = (-math.expm1(alpha * K * math.log1p(-1.0 / beta))) ** N
    return y - (1.0 - y) * delta_of(beta, K) ** N


def occupancy_limit(beta: float, K: float, N: int) -> float:
    """Large-K companion of occupancy_alpha: (beta/K) * c_of(N)."""
    return beta / K * c_of(N)


class CoverageModelError(ValueError):
    """Coverage disk reaches beyond the deployment region: out of model."""


def expected_covered_relays(K: float, p: float, beta: float, alpha: float,
                            R: float) -> float:
    """Mean number of relays inside one endpoint's coverage: K*d^2/(2*R^2).

    The factor 1/2 is the area ratio of a radius-d half-disk centered on a
    boundary point to the radius-R deployment disk.
    """
    d = coverage_radius(p, beta, alpha)
    if d > R:
        raise CoverageModelError(
            f"coverage radius {d} exceeds deployment radius {R}")
    return K * d * d / (2.0 * R * R)


# ---------------------------------------------------------------- protocol


@dataclass
class RelayState:
    """View of one relay: undelivered seqs per bank, FIFO order."""
    relay_id: int
    banks: list = field(default_factory=list)
    region: int | None = None


def relay_state(proto, relay_id: int) -> RelayState:
    """The FIFOs of one relay of an OdwfFixed (one bank per subcarrier) or
    an OdwfMobile (one bank, plus the relay's strip; None while the id is
    free, its relay idle and anonymous)."""
    fifos = [bank.fifo[relay_id] if relay_id < len(bank.fifo) else {} for bank in proto.banks]
    state = RelayState(relay_id, [list(fifo) for fifo in fifos])
    if isinstance(proto, OdwfMobile) and relay_id < proto.strip.size:
        state.region = int(proto.strip[relay_id]) or None
    return state


def place(proto, regions):
    """Put relay k of a mobile scheme in strip regions[k].

    In OdwfMobile relay k is the buffered relay with id k, or an idle one
    when id k is free; the baseline must hold no packet, so all its relays
    are idle. The strip-walking oracles place every relay by id.
    """
    regions = np.asarray(regions, dtype=np.int64)
    if hasattr(proto, "place"):
        proto.place(regions)
        return
    assert regions.size == proto.K
    buffered = np.zeros(regions.size, dtype=bool)
    if isinstance(proto, OdwfMobile):
        n = len(proto.bank.fifo)    # strip is 0 past fifo, however long it is
        buffered[:n] = proto.strip[:n] != 0
        proto.strip[:n][buffered[:n]] = regions[:n][buffered[:n]]
    else:
        assert proto.held == 0
    proto.idle[:] = np.bincount(regions[~buffered], minlength=proto.M + 1)
    proto.buffered[:] = np.bincount(regions[buffered], minlength=proto.M + 1)


def binomial_cell_split(rng: np.random.Generator, K: int, N: int, p: float):
    """BaselineFixed's source phase as it was before the multinomial chunks:
    one Binomial(size, p) per cell and subcarrier splits every cell in two,
    starting from one cell of all K relays. Return the labels and sizes of
    the cells that hold some packet, or None when some subcarrier has no
    connected relay (later subcarriers are then never drawn)."""
    labels, sizes = [0], [K]    # cell c holds packet i iff bit i of labels[c]
    for n in range(N):
        ups = [int(rng.binomial(s, p)) for s in sizes]
        if not any(ups):
            return None
        labels = ([label | 1 << n for label, up in zip(labels, ups) if up]
                  + [label for label, size, up in zip(labels, sizes, ups) if size > up])
        sizes = [up for up in ups if up] + [s - up for s, up in zip(sizes, ups) if s > up]
    if labels[-1] == 0:    # the relays that connected nowhere, always last
        labels, sizes = labels[:-1], sizes[:-1]
    return labels, sizes


def recursive_bipartite_matching(adjacency, n_right: int):
    """Kuhn's maximum matching, searching for augmenting paths by recursion.

    adjacency: sequence over left vertices of iterables of right-vertex ids.
    Returns (match_left, size) as relaysim.matching.max_bipartite_matching.
    """
    n_left = len(adjacency)
    match_right = [-1] * n_right

    def try_augment(u, seen):
        for v in adjacency[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] < 0 or try_augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in range(n_left):
        if try_augment(u, [False] * n_right):
            size += 1
    match_left = [-1] * n_left
    for v, u in enumerate(match_right):
        if u >= 0:
            match_left[u] = v
    return match_left, size


class DenseBaselineFixed:
    """BaselineFixed keeping every holder id and drawing every holder link.

    A fresh batch of N packets (one per subcarrier) is injected only when the
    network is empty and every subcarrier has a connected source-relay link.
    While packets remain, every frame is a RelayTx that delivers a maximum
    bipartite matching between undelivered packets and subcarriers; an edge
    exists iff some holder of the packet has a connected relay-destination link
    on that subcarrier.
    """

    def __init__(self, cfg, rng: np.random.Generator):
        self.K, self.N = cfg.K, cfg.N
        self.rng = rng
        self.links = DenseLinkSampler(cfg.beta, rng)
        self.batch = {}   # seq -> sorted holder id array
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        if self.batch:
            return self._relay_tx()
        subsets = []
        for _ in range(self.N):
            ids = np.flatnonzero(self.links.connected(self.K))
            if ids.size == 0:
                return IDLE_FRAME
            subsets.append(ids)
        for ids in subsets:
            seq = self.next_seq
            self.next_seq += 1
            self.batch[seq] = ids
            self.created_frame[seq] = frame
        return SOURCE_FRAME

    def holder_union(self) -> np.ndarray:
        """Sorted ids of the relays holding any undelivered packet."""
        if not self.batch:
            return np.empty(0, dtype=np.int32)
        return np.unique(np.concatenate(list(self.batch.values())))

    def _relay_tx(self):
        seqs = list(self.batch)
        union = self.holder_union()
        conn = np.empty((self.N, union.size), dtype=bool)
        for n in range(self.N):
            conn[n] = self.links.connected(union.size)
        holder_pos = [np.searchsorted(union, self.batch[s]) for s in seqs]
        adjacency = [np.flatnonzero(conn[:, pos].any(axis=1)).tolist()
                     for pos in holder_pos]
        match_left, _ = recursive_bipartite_matching(adjacency, self.N)
        delivered = []
        for i, seq in enumerate(seqs):
            if match_left[i] < 0:
                continue  # unmatched packets survive to the next RelayTx frame
            delivered.append((seq, self.created_frame.pop(seq)))
            del self.batch[seq]
        return FrameOutcome(RELAY_TX, tuple(delivered))

    def census(self) -> tuple:
        return [self.holder_union().size] * self.N, len(self.batch)


class IdFifos:
    """Per-relay FIFOs of undelivered seqs on one subcarrier, keyed by relay
    id. holders maps each undelivered seq to its relay ids and count[k] is
    the number of undelivered seqs relay k holds; heads skip dead seqs."""

    def __init__(self, count: np.ndarray, cap: int):
        self.cap = cap
        self.count = count    # int32 per relay, a view owned by the scheme
        self.fifo = defaultdict(deque)
        self.holders = {}

    def add(self, seq: int, ids: np.ndarray) -> np.ndarray:
        """Enqueue seq at the distinct relays ids; return those that held nothing."""
        self.holders[seq] = ids
        if len(self.holders) > self.cap:
            raise BufferOverflowError(f"{len(self.holders)} undelivered packets "
                                      f"exceed the guard cap {self.cap}")
        fresh = ids[self.count[ids] == 0]
        self.count[ids] += 1
        for k in ids.tolist():
            self.fifo[k].append(seq)
        return fresh

    def deliver(self, k: int):
        """Pop relay k's oldest undelivered seq and purge it everywhere;
        return it with the ids of the relays it leaves holding nothing."""
        head = self.fifo[k]
        seq = head.popleft()
        while seq not in self.holders:
            seq = head.popleft()
        hold = self.holders.pop(seq)
        self.count[hold] -= 1
        return seq, hold[self.count[hold] == 0]


class DenseOdwfFixed:
    """OdwfFixed keeping every relay id and drawing every link it uses.

    Phase II draws the relay-destination link of every occupied relay of
    each subcarrier, stopping at the first subcarrier where none connects,
    and picks each transmitter uniformly among the connected ones. Phase I
    draws every source-relay link of each subcarrier, and every connected
    relay enqueues that subcarrier's packet.
    """

    def __init__(self, cfg, rng: np.random.Generator):
        self.K, self.N = cfg.K, cfg.N
        self.rng = rng
        self.links = DenseLinkSampler(cfg.beta, rng)
        self.banks = [IdFifos(np.zeros(cfg.K, dtype=np.int32), cfg.buffer_cap)
                      for _ in range(self.N)]
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        transmitters = self._deliverers()
        if transmitters is not None:
            delivered = []
            for bank, k in zip(self.banks, transmitters):
                seq, _ = bank.deliver(k)
                delivered.append((seq, self.created_frame.pop(seq)))
            return FrameOutcome(RELAY_TX, tuple(delivered))
        covered = []
        for _ in range(self.N):
            ids = np.flatnonzero(self.links.connected(self.K))
            if ids.size == 0:
                return IDLE_FRAME
            covered.append(ids)
        for bank, ids in zip(self.banks, covered):
            seq = self.next_seq
            self.next_seq += 1
            self.created_frame[seq] = frame
            bank.add(seq, ids)
        return SOURCE_FRAME

    def _deliverers(self):
        transmitters = []
        for bank in self.banks:
            occupied = np.flatnonzero(bank.count)
            eligible = occupied[self.links.connected(occupied.size)]
            if eligible.size == 0:
                return None
            transmitters.append(int(eligible[self.rng.integers(eligible.size)]))
        return transmitters

    def census(self) -> tuple:
        return ([int(np.count_nonzero(bank.count)) for bank in self.banks],
                sum(len(bank.holders) for bank in self.banks))

# ------------------------------------------------------------------ channel


class DenseLinkSampler:
    """One connectivity indicator per fixed-relay link and frame, as the
    fixed schemes drew links before they drew counts of connected ones.

    Uses the inverse-transform coupling U = exp(-gain): the event
    {Exp(1) gain >= ln beta} is exactly {U <= 1/beta}, so connectivity is a
    Bernoulli(1/beta) draw, without gains.
    """

    def __init__(self, beta: float, rng: np.random.Generator):
        self.rng = rng
        self.connect_probability = 1.0 / beta

    def connected(self, count: int) -> np.ndarray:
        """Connectivity indicators for `count` distinct links in this frame."""
        return self.rng.random(count) < self.connect_probability


def sample_power_gain(rng: np.random.Generator) -> float:
    """One Rayleigh power gain |H|^2 with H ~ CN(0,1): exponential, mean 1."""
    return float(rng.exponential())


def sample_power_gains(rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized counterpart of sample_power_gain."""
    return rng.exponential(size=size)


def mutual_information(p: float, gain: float) -> float:
    """Per-subcarrier mutual information log2(1 + p * gain) in bits per channel use."""
    return math.log2(1.0 + p * gain)


def is_connected_fixed(beta: float, p: float, gain: float) -> bool:
    """Fixed-scenario link test in threshold form.

    Equivalent to mutual_information(p, gain) >= log2(1 + p ln beta), the
    rate at threshold beta, but evaluated as gain >= ln(beta) so the connect
    probability is exactly 1/beta with no transcendental round-trip at the
    boundary.
    """
    return gain >= math.log(beta)


def is_connected_mobile(beta: float, p: float, d: float, alpha: float) -> bool:
    """Mobile-scenario link test: inside the coverage radius, boundary inclusive."""
    if d <= 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    return d <= coverage_radius(p, beta, alpha)


LN2 = math.log(2.0)


class QuadratureError(RuntimeError):
    """Raised when the ergodic-capacity quadrature cannot certify 1e-6 bits."""


def ergodic_capacity_exact(p: float, d: float, alpha: float, n_subcarriers: int,
                           quadrature_nodes: int = 32, upper: float = 60.0) -> float:
    """N * E[log2(1 + p*g/d^alpha)] with g ~ Exp(1), by numeric integration.

    The oracle for the pathloss approximation. The integrand has a knee at g = d^alpha/p, so the
    range splits there, with the outer piece integrated in log space in panels
    of width <= 2 (Gauss-Legendre, quadrature_nodes points per panel). The tail
    beyond `upper` is bounded analytically; if that bound exceeds 1e-6 bits the
    computation refuses rather than report an uncertified value.
    """
    if d <= 0.0 or quadrature_nodes < 16:
        raise ValueError(f"need d > 0 and quadrature_nodes >= 16, got {(d, quadrature_nodes)}")
    c = p / d ** alpha
    # tail bound: log2(1+c*g) <= log2(1+c*G) + c*(g-G)/((1+c*G)*ln2) for g >= G
    tail = math.exp(-upper) * (math.log2(1.0 + c * upper) + c / ((1.0 + c * upper) * LN2))
    if tail > 1e-6:
        raise QuadratureError(
            f"tail-truncation error bound {tail:.3e} bits exceeds 1e-6 at upper={upper}")
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_nodes)

    def panel(lo, hi, transform):
        xs = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
        ws = 0.5 * (hi - lo) * weights
        return transform(xs, ws)

    def linear(xs, ws):
        return float(np.sum(ws * np.log2(1.0 + c * xs) * np.exp(-xs)))

    def logspace(ts, ws):
        gs = np.exp(ts)
        return float(np.sum(ws * gs * np.log2(1.0 + c * gs) * np.exp(-gs)))

    knee = min(1.0 / c, upper)
    # width <= 4 keeps Gauss-Legendre at machine precision against exp(-g)
    n_linear = max(1, math.ceil(knee / 4.0))
    lin_edges = np.linspace(0.0, knee, n_linear + 1)
    total = sum(panel(lo, hi, linear)
                for lo, hi in zip(lin_edges[:-1], lin_edges[1:]))
    if knee < upper:
        t0, t1 = math.log(knee), math.log(upper)
        n_panels = max(1, math.ceil((t1 - t0) / 2.0))
        edges = np.linspace(t0, t1, n_panels + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += panel(lo, hi, logspace)
    return n_subcarriers * total


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


def init_regions(geom: DiskGeometry, n_relays: int, rng: np.random.Generator) -> np.ndarray:
    """Strips of a fresh uniform-on-disk population: the strips have equal
    area, so each relay's strip is uniform on 1..M."""
    return rng.integers(1, geom.n_regions + 1, size=n_relays, dtype=np.int64)


def step_regions_dense(regions: np.ndarray, n_regions: int, q: float,
                       rng: np.random.Generator) -> np.ndarray:
    """step_region over a whole relay population, one uniform per relay."""
    u = rng.random(regions.size)
    delta = (u < q).astype(np.int64) - ((u >= q) & (u < 2.0 * q))
    return np.clip(regions + delta, 1, n_regions)


def step_regions(regions: np.ndarray, n_regions: int, q: float,
                 rng: np.random.Generator):
    """One frame of the reflecting walk for all relays, in place; returns
    the mover ids and their strips before the move.

    Each relay moves with probability 2q, independently, up or down with
    probability 1/2 each, and a move past strip 1 or M reflects into a stay.
    For 2q <= 1/8 the movers are a Binomial(K, 2q) count of distinct uniform
    ids with a fair bit each, at O(K q) cost; above, one uniform per relay is
    cheaper and gives both (up below q, down in [q, 2q)).
    """
    K = regions.size
    if 2.0 * q > 0.125:
        u = rng.random(K)
        movers = np.flatnonzero(u < 2.0 * q)
        up = u[movers] < q
    else:
        m = int(rng.binomial(K, 2.0 * q))
        movers = rng.choice(K, m, replace=False, shuffle=False)
        up = rng.random(m) < 0.5
    old = regions[movers]
    regions[movers] = np.minimum(np.maximum(old + 2 * up - 1, 1), n_regions)
    return movers, old


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


def sample_positions_in_region(geom: DiskGeometry, region: int, count: int,
                               rng: np.random.Generator):
    """`count` uniform points over strip-and-disk, by bounding-box rejection."""
    x0, x1 = geom.boundaries[region - 1], geom.boundaries[region]
    R = geom.radius
    if x0 < 0.0 < x1:
        ymax = R
    else:
        ymax = math.sqrt(R * R - min(x0 * x0, x1 * x1))
    xs = np.empty(count)
    ys = np.empty(count)
    filled = 0
    while filled < count:
        m = count - filled
        batch = m + (m >> 1) + 8
        cx = rng.uniform(x0, x1, batch)
        cy = rng.uniform(-ymax, ymax, batch)
        ok = np.flatnonzero(cx * cx + cy * cy <= R * R)[:m]
        xs[filled:filled + ok.size] = cx[ok]
        ys[filled:filled + ok.size] = cy[ok]
        filled += ok.size
    return xs, ys


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


def source_position(geom: DiskGeometry) -> tuple:
    """The source, at the left end of the horizontal diameter."""
    return (-geom.radius, 0.0)


def destination_position(geom: DiskGeometry) -> tuple:
    """The destination, at the right end of the horizontal diameter."""
    return (geom.radius, 0.0)


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

    def __init__(self, cfg, rng: np.random.Generator):
        self.K = cfg.K
        self.geom = geom = build_geometry(cfg.R, cfg.M)
        self.q = cfg.q
        self.rng = rng
        self.cov = coverage_radius(cfg.p, cfg.beta, cfg.alpha)
        self.src_max_region, self.dest_min_region = coverage_window(geom, self.cov)
        xs, _ = uniform_disk(geom.radius, cfg.K, rng)
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

    def __init__(self, cfg, rng: np.random.Generator):
        super().__init__(cfg, rng)
        self.buffer_cap = cfg.buffer_cap
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
                return self._relay_tx(elig)
            covered = cand[self._in_source_coverage(xs, ys)]
            if covered.size:
                return self._source_tx(frame, covered)
            return IDLE_FRAME
        dest_cand = np.flatnonzero((self.regions >= self.dest_min_region)
                                   & (self.buffer_count > 0))
        if dest_cand.size:
            xs, ys = self._positions_for(dest_cand)
            elig = dest_cand[self._in_dest_coverage(xs, ys)]
            if elig.size:
                return self._relay_tx(elig)
        src_cand = np.flatnonzero(self.regions <= self.src_max_region)
        if src_cand.size:
            xs, ys = self._positions_for(src_cand)
            covered = src_cand[self._in_source_coverage(xs, ys)]
            if covered.size:
                return self._source_tx(frame, covered)
        return IDLE_FRAME

    def _relay_tx(self, elig):
        k = int(elig[self.rng.integers(elig.size)])
        buf = self.buffers[k]
        while True:
            seq = buf.popleft()
            if seq in self.holders:
                break
        hold = self.holders.pop(seq)
        self.buffer_count[hold] -= 1
        self.buffered_relays -= int(np.count_nonzero(self.buffer_count[hold] == 0))
        return FrameOutcome(RELAY_TX, ((seq, self.created_frame.pop(seq)),))

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
        return SOURCE_FRAME

    def census(self) -> tuple:
        return [self.buffered_relays], len(self.holders)


class DenseBaselineMobile(_DenseMobileScheme):
    """BaselineMobile drawing coordinates for every relay a coverage disk can reach."""

    def __init__(self, cfg, rng: np.random.Generator):
        super().__init__(cfg, rng)
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
                if self._in_dest_coverage(xs, ys).any():
                    self.outstanding = None
                    return FrameOutcome(RELAY_TX, ((seq, self.created_frame.pop(seq)),))
            return IDLE_FRAME
        src_cand = np.flatnonzero(self.regions <= self.src_max_region)
        if src_cand.size:
            xs, ys = self._positions_for(src_cand)
            covered = src_cand[self._in_source_coverage(xs, ys)]
            if covered.size:
                seq = self.next_seq
                self.next_seq += 1
                self.outstanding = (seq, covered.astype(np.int32))
                self.created_frame[seq] = frame
                return SOURCE_FRAME
        return IDLE_FRAME

    def census(self) -> tuple:
        if self.outstanding is None:
            return [0], 0
        return [self.outstanding[1].size], 1


# ------------------------------------------------ strip-walking mobile schemes


class _StripMobileScheme:
    """Strip bookkeeping shared by the two strip-walking mobile schemes.

    regions[k] is relay k's strip; strip_relays[r] counts the relays in strip
    r and strip_buffered[r] those with a nonempty buffer (0 for the baseline),
    both kept current in O(movers) per frame. p_src[r] and p_dst[r] are the
    probabilities that a relay of strip r is inside source and destination
    coverage in a frame (entry 0 unused).
    """

    def __init__(self, cfg, rng: np.random.Generator):
        self.K, self.M, self.q = cfg.K, cfg.M, cfg.q
        self.rng = rng
        geom = build_geometry(cfg.R, cfg.M)
        self.p_src, self.p_dst, p_both = coverage_probabilities(
            geom, coverage_radius(cfg.p, cfg.beta, cfg.alpha))
        # coverage reaches strips 1..src_max_region and dest_min_region..M
        self.src_max_region = int(np.flatnonzero(self.p_src)[-1])
        self.dest_min_region = int(np.flatnonzero(self.p_dst)[0])
        # source coverage given no destination coverage; where p_dst = 1 no
        # buffered relay survives phase II, so any value will do
        self.p_src_given_no_dst = np.clip(np.divide(
            self.p_src - p_both, 1.0 - self.p_dst,
            out=np.zeros(self.M + 1), where=self.p_dst < 1.0), 0.0, 1.0)
        self.buffer_count = np.zeros(cfg.K, dtype=np.int32)
        self.place(init_regions(geom, cfg.K, rng))

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


class StripOdwfMobile(_StripMobileScheme):
    """OdwfMobile walking every relay id through its strip."""

    def __init__(self, cfg, rng: np.random.Generator):
        super().__init__(cfg, rng)
        self.bank = IdFifos(self.buffer_count, cfg.buffer_cap)
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        k = self._deliverer()
        if k is not None:
            return self._relay_tx(k)
        covered = self._source_covered()
        if covered is not None:
            return self._source_tx(frame, covered)
        return IDLE_FRAME

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

    def _relay_tx(self, k):
        seq, emptied = self.bank.deliver(k)
        self.strip_buffered -= self._tally(self.regions[emptied])
        return FrameOutcome(RELAY_TX, ((seq, self.created_frame.pop(seq)),))

    def _source_tx(self, frame, covered):
        seq = self.next_seq
        self.next_seq += 1
        self.created_frame[seq] = frame
        fresh = self.bank.add(seq, covered)
        self.strip_buffered += self._tally(self.regions[fresh])
        return SOURCE_FRAME

    def census(self) -> tuple:
        return [int(self.strip_buffered.sum())], len(self.bank.holders)


class StripBaselineMobile(_StripMobileScheme):
    """BaselineMobile walking every relay id through its strip."""

    def __init__(self, cfg, rng: np.random.Generator):
        super().__init__(cfg, rng)
        self.outstanding = None  # (seq, holder id array)
        self.created_frame = {}
        self.next_seq = 0

    def step(self, frame: int) -> FrameOutcome:
        self._walk()
        if self.outstanding is not None:
            seq, hold = self.outstanding
            if (self.rng.random(hold.size) < self.p_dst[self.regions[hold]]).any():
                self.outstanding = None
                return FrameOutcome(RELAY_TX, ((seq, self.created_frame.pop(seq)),))
            return IDLE_FRAME
        covered = self._source_covered()
        if covered is not None:
            seq = self.next_seq
            self.next_seq += 1
            self.outstanding = (seq, covered)
            self.created_frame[seq] = frame
            return SOURCE_FRAME
        return IDLE_FRAME

    def census(self) -> tuple:
        if self.outstanding is None:
            return [0], 0
        return [self.outstanding[1].size], 1
