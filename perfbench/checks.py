"""Output checks computed apart from relaysim.

Every closed form here is written out again from the model rather than
imported from relaysim.analytics, so a bug in the program's analytics cannot
hide a bug in its simulator (selftest.py compares the two on a grid). Each
check returns a list of failure messages; an empty list means the output
passed.

Statistical checks use wide bands (5 sigma for an estimate against its law)
so that a correct program fails them with negligible probability on any seed;
the flow-balance check keeps the 3 sigma band of acceptance criterion 02,
which a stationary run meets with a wide margin because P_SR - P_RD is tied
to the change in packets in flight, not to the phase noise.
"""

from __future__ import annotations

import math

import numpy as np

SOURCE_TX, RELAY_TX, IDLE = 0, 1, 2   # phase codes stored in MetricsTrace
EXACT = 1e-9                          # relative tolerance for float identities
Z_LAW = 5.0                           # band for an estimate against its law
Z_BALANCE = 3.0                       # flow-balance band (criterion 02)
OCCUPANCY_REL = 0.10                  # criterion 02
BASELINE_T_REL = 0.05                 # criterion 04
UNIT_DELAY_SHARE = 0.99               # criterion 04
# The occupancy fixed point is a fluid limit: it holds once many packets are
# buffered, i.e. when the predicted delay 2*c*beta^2/K is long.
OCCUPANCY_MIN_DELAY = 10.0


# ---- closed forms ---------------------------------------------------------

def delta(beta: float, K: float) -> float:
    """P(at least one of K relays connects on a subcarrier), links i.i.d.
    connected with probability 1/beta."""
    if beta == 1.0:
        return 1.0
    return 1.0 - math.exp(K * math.log1p(-1.0 / beta))


def p_rd(beta: float, K: float, N: int) -> float:
    """Relay-transmit frame frequency: a frame relays with probability
    delta^N and, by flow balance, sources as often as it relays."""
    dn = delta(beta, K) ** N
    return dn / (1.0 + dn)


def occupancy_fixed_point(beta: float, K: float, N: int) -> float:
    """Fraction a of relays holding a packet, per subcarrier, at flow balance.

    With a*K relays occupied a frame relays with probability
    y(a) = [1 - (1 - 1/beta)^(a*K)]^N; balance asks y(a) = p_rd. y is
    increasing in a, so bisection on [0, 1] finds the root.
    """
    target = p_rd(beta, K, N)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        y = (1.0 - math.exp(mid * K * math.log1p(-1.0 / beta))) ** N
        if y < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def c_const(N: int) -> float:
    """ln(2^(1/N) / (2^(1/N) - 1))."""
    r = 2.0 ** (1.0 / N)
    return math.log(r / (r - 1.0))


def fixed_rate(p: float, beta: float) -> float:
    """Bits per packet when a link is connected iff its Exp(1) gain clears
    ln(beta): log2(1 + p*ln(beta))."""
    return math.log2(1.0 + p * math.log(beta))


def mobile_rate(N: int, beta: float) -> float:
    return N * math.log2(beta)


def odwf_fixed_T(N: int, p: float, beta: float) -> float:
    return N / 2.0 * fixed_rate(p, beta)


def odwf_mobile_T(N: int, beta: float) -> float:
    return N / 2.0 * math.log2(beta)


def baseline_fixed_T(K: float, N: int, p: float) -> float:
    """Baseline at beta* = sqrt(K)/ln K: one batch of N every two frames at
    the rate of threshold sqrt(K)."""
    return N / 2.0 * math.log2(1.0 + p * math.log(math.sqrt(K)))


def packet_rate(scenario: str, N: int, p: float, beta: float) -> float:
    return fixed_rate(p, beta) if scenario == "fixed" else mobile_rate(N, beta)


def per_injection(scenario: str, N: int) -> int:
    """Packets the source emits in one source-transmit frame."""
    return N if scenario == "fixed" else 1


# ---- helpers --------------------------------------------------------------

def _close(got: float, want: float, rel: float = EXACT) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _balance_sigma(p_sr: float, p_rd_hat: float, frames: int) -> float:
    """Std of P_SR - P_RD for mutually exclusive phase indicators."""
    return math.sqrt((p_sr * (1 - p_sr) + p_rd_hat * (1 - p_rd_hat)
                      + 2 * p_sr * p_rd_hat) / frames)


def _law_checks(scenario, scheme, K, N, p, beta, frames, p_sr, p_rd_hat,
                T, occupancy):
    """Checks shared by traces and CSV rows, on the frequencies they report."""
    bad = []
    if scheme == "odwf":
        sigma = _balance_sigma(p_sr, p_rd_hat, frames)
        if abs(p_sr - p_rd_hat) > Z_BALANCE * sigma:
            bad.append(f"flow balance: |P_SR - P_RD| = {abs(p_sr - p_rd_hat):.5f}"
                       f" > {Z_BALANCE} sigma = {Z_BALANCE * sigma:.5f}")
        want = p_rd(beta, K, N) if scenario == "fixed" else 0.5
        sigma = math.sqrt(want * (1 - want) / frames)
        if abs(p_rd_hat - want) > Z_LAW * sigma:
            bad.append(f"P_RD {p_rd_hat:.5f} vs law {want:.5f} beyond "
                       f"{Z_LAW} sigma")
        # every relay frame delivers one packet per subcarrier (N fixed, 1
        # mobile), so T is exactly rate * packets * P_RD
        want_T = packet_rate(scenario, N, p, beta) * per_injection(scenario, N) * p_rd_hat
        if not _close(T, want_T):
            bad.append(f"T {T!r} != rate * per-frame packets * P_RD {want_T!r}")
        if scenario == "fixed" and 2 * c_const(N) * beta ** 2 / K >= OCCUPANCY_MIN_DELAY:
            want = occupancy_fixed_point(beta, K, N)
            if abs(occupancy - want) > OCCUPANCY_REL * want:
                bad.append(f"occupancy {occupancy:.5f} vs fixed point "
                           f"{want:.5f} beyond {OCCUPANCY_REL:.0%}")
    elif scenario == "fixed":
        want = baseline_fixed_T(K, N, p)
        if abs(T - want) > BASELINE_T_REL * want:
            bad.append(f"baseline T {T:.4f} vs {want:.4f} beyond "
                       f"{BASELINE_T_REL:.0%}")
    return bad


# ---- MetricsTrace ---------------------------------------------------------

def check_trace(cfg, trace) -> list:
    """Exact invariants and laws of one run_once result.

    cfg needs scenario, scheme, K, N, p, beta; trace is a MetricsTrace.
    """
    bad = []
    F = trace.measure_frames
    phase = np.asarray(trace.phase_per_frame)
    delivered = np.asarray(trace.delivered_per_frame)
    in_net = np.asarray(trace.in_network_per_frame)
    delays = np.asarray(trace.per_packet_delay)
    per_tx = per_injection(cfg.scenario, cfg.N)
    rate = packet_rate(cfg.scenario, cfg.N, cfg.p, cfg.beta)
    if not _close(trace.rate, rate):
        bad.append(f"packet rate {trace.rate!r} != {rate!r}")
    # conservation over frames 1..F-1, measured against the state after frame 0
    injected = per_tx * int(np.count_nonzero(phase[1:] == SOURCE_TX))
    out = int(delivered[1:].sum())
    if injected != out + int(in_net[-1]) - int(in_net[0]):
        bad.append(f"conservation: injected {injected} != delivered {out} + "
                   f"change in network {int(in_net[-1]) - int(in_net[0])}")
    if trace.undelivered_at_end != int(in_net[-1]):
        bad.append("undelivered_at_end differs from the last in-network count")
    if delays.size != int(delivered.sum()):
        bad.append(f"{delays.size} delays for {int(delivered.sum())} deliveries")
    if delays.size and int(delays.min()) < 1:
        bad.append(f"delay {int(delays.min())} < 1 frame")
    if np.any(delivered[phase != RELAY_TX] != 0):
        bad.append("packets delivered outside a relay-transmit frame")
    if cfg.scheme == "odwf":
        if np.any(delivered[phase == RELAY_TX] != per_tx):
            bad.append(f"an ODWF relay frame did not deliver {per_tx} packets")
    else:
        cap = cfg.N if cfg.scenario == "fixed" else 1
        if int(in_net.max()) > cap:
            bad.append(f"baseline in-network {int(in_net.max())} > {cap}")
        if cfg.scenario == "fixed" and delays.size:
            share = float(np.mean(delays == 1))
            if share < UNIT_DELAY_SHARE:
                bad.append(f"unit-delay share {share:.4f} < {UNIT_DELAY_SHARE}")
    p_sr = np.count_nonzero(phase == SOURCE_TX) / F
    p_rd_hat = np.count_nonzero(phase == RELAY_TX) / F
    T = rate * int(delivered.sum()) / F
    occupancy = float(np.mean(trace.occupancy_fraction))
    bad += _law_checks(cfg.scenario, cfg.scheme, cfg.K, cfg.N, cfg.p, cfg.beta,
                       F, p_sr, p_rd_hat, T, occupancy)
    return bad


# ---- CSV rows -------------------------------------------------------------

def check_row(row: dict) -> list:
    """Checks on one CSV row of a `both`-mode sweep (strings as read)."""
    if row["status"] != "ok":
        return [f"row {row['row']}: status {row['status']}"]
    scenario, scheme = row["scenario"], row["scheme"]
    K, N = int(row["K"]), int(row["N"])
    p, beta = float(row["p"]), float(row["beta"])
    F = int(row["measure_frames"])
    T, p_sr, p_rd_hat = float(row["T"]), float(row["P_SR_hat"]), float(row["P_RD_hat"])
    undelivered = float(row["undelivered"])
    bad = []

    def pred(col, want):
        if not row[col] or not _close(float(row[col]), want):
            bad.append(f"{col} {row[col]!r} != closed form {want!r}")

    if scheme == "odwf" and scenario == "fixed":
        pred("pred_T", odwf_fixed_T(N, p, beta))
        pred("pred_delta", delta(beta, K))
        pred("pred_P_RD", p_rd(beta, K, N))
        pred("pred_occupancy", occupancy_fixed_point(beta, K, N))
    elif scheme == "odwf":
        pred("pred_T", odwf_mobile_T(N, beta))
    elif scenario == "fixed":
        pred("pred_T", baseline_fixed_T(K, N, p))
    # conservation on replication means: injected - delivered equals
    # undelivered at the end minus the (nonnegative) in-flight count at the
    # start of the window
    rate = packet_rate(scenario, N, p, beta)
    injected = per_injection(scenario, N) * p_sr * F
    delivered = T * F / rate
    slack = 1e-6 * max(injected, 1.0)
    if injected - delivered > undelivered + slack:
        bad.append(f"conservation: injected {injected:.3f} - delivered "
                   f"{delivered:.3f} > undelivered {undelivered}")
    if scheme == "baseline":
        cap = N if scenario == "fixed" else 1
        if undelivered > cap:
            bad.append(f"baseline undelivered {undelivered} > {cap}")
        if delivered - injected > cap + slack:
            bad.append(f"conservation: delivered {delivered:.3f} exceeds "
                       f"injected {injected:.3f} by more than {cap}")
        if row["D"] and float(row["D"]) < 1.0:
            bad.append(f"baseline mean delay {row['D']} < 1")
    bad += _law_checks(scenario, scheme, K, N, p, beta, F, p_sr, p_rd_hat, T,
                       float(row["occupancy_hat"]))
    return [f"row {row['row']}: {msg}" for msg in bad]
