#!/usr/bin/env python3
"""Self-tests of the benchmark's check functions.

    python3 perfbench/selftest.py

Shows that checks.py's closed forms agree with relaysim.analytics on a grid,
that correct outputs pass the checks, and that tampered outputs fail them.
Exits 1 on the first failed self-test. Takes a few seconds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from relaysim import analytics  # noqa: E402
from relaysim.engine import SystemConfig, run_once  # noqa: E402
from relaysim.experiment import emit, parse_spec, run_experiment  # noqa: E402

REL = 1e-9


def expect(ok: bool, what: str):
    if not ok:
        raise AssertionError(what)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(b), 1e-300)


def test_closed_forms_match_analytics():
    for K in (50, 1_000, 10_000, 1_000_000):
        for N in (1, 2, 4, 8):
            expect(close(checks.c_const(N), analytics.c_of(N)), f"c N={N}")
            for beta in (1.5, 10.0, 0.05 * K, 0.2 * K, float(K)):
                expect(close(checks.delta(beta, K), analytics.delta_of(beta, K)),
                       f"delta K={K} beta={beta}")
                expect(close(checks.p_rd(beta, K, N), analytics.p_rd(beta, K, N)),
                       f"P_RD K={K} N={N} beta={beta}")
                occ, _ = analytics.occupancy_alpha(beta, K, N)
                expect(close(checks.occupancy_fixed_point(beta, K, N), occ),
                       f"occupancy K={K} N={N} beta={beta}")
                for p in (1.0, 1e8):
                    pred = analytics.odwf_fixed_prediction(K, N, p, beta)
                    expect(close(checks.odwf_fixed_T(N, p, beta), pred.T),
                           f"fixed ODWF T K={K} N={N} beta={beta} p={p}")
                pred = analytics.odwf_mobile_prediction(K, N, 4.0, beta, 0.1)
                expect(close(checks.odwf_mobile_T(N, beta), pred.T),
                       f"mobile ODWF T K={K} N={N} beta={beta}")
            for p in (1.0, 1e8):
                pred = analytics.baseline_fixed_prediction(K, N, p)
                expect(close(checks.baseline_fixed_T(K, N, p), pred.T),
                       f"baseline T K={K} N={N} p={p}")


def _small_runs():
    common = dict(p=1.0, warmup_frames=2000, measure_frames=4000, seed=3)
    return [
        SystemConfig("fixed", "odwf", K=400, N=2, beta=60.0, **common),
        SystemConfig("fixed", "baseline", K=2000, N=2,
                     beta=math.sqrt(2000) / math.log(2000), **{**common, "p": 1e8}),
        SystemConfig("mobile", "odwf", K=300, N=1, beta=16.0, alpha=4.0, M=5,
                     q=0.1, **common),
        SystemConfig("mobile", "baseline", K=300, N=1, beta=2.0, alpha=4.0,
                     M=5, q=0.1, **common),
    ]


def _trace(cfg):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    return run_once(cfg, rng)


def test_real_traces_pass():
    for cfg in _small_runs():
        problems = checks.check_trace(cfg, _trace(cfg))
        expect(not problems, f"{cfg.scenario} {cfg.scheme}: {problems}")


def test_tampered_trace_fails_conservation():
    for cfg in _small_runs():
        trace = _trace(cfg)
        i = int(np.flatnonzero(trace.phase_per_frame == checks.RELAY_TX)[-1])
        lost = replace(trace, delivered_per_frame=trace.delivered_per_frame.copy())
        lost.delivered_per_frame[i] -= 1
        problems = checks.check_trace(cfg, lost)
        expect(any(p.startswith("conservation") for p in problems),
               f"{cfg.scenario} {cfg.scheme}: a lost delivery passed: {problems}")
        leak = replace(trace, in_network_per_frame=trace.in_network_per_frame.copy())
        leak.in_network_per_frame[-1] += 1
        problems = checks.check_trace(cfg, leak)
        expect(any(p.startswith("conservation") for p in problems),
               f"{cfg.scenario} {cfg.scheme}: a leaked packet passed: {problems}")


def test_tampered_baseline_fails_invariants():
    cfg = _small_runs()[1]
    trace = _trace(cfg)
    late = replace(trace, per_packet_delay=trace.per_packet_delay + 1)
    expect(any("unit-delay" in p for p in checks.check_trace(cfg, late)),
           "baseline delays of 2 frames passed the unit-delay check")
    crowd = replace(trace, in_network_per_frame=trace.in_network_per_frame.copy())
    crowd.in_network_per_frame[:] += cfg.N + 1
    expect(any("in-network" in p for p in checks.check_trace(cfg, crowd)),
           "baseline holding N + 1 packets passed")


def test_unbalanced_phases_fail_flow_balance():
    cfg = _small_runs()[0]
    trace = _trace(cfg)
    phase = trace.phase_per_frame.copy()
    relay = np.flatnonzero(phase == checks.RELAY_TX)
    phase[relay[: relay.size // 5]] = checks.IDLE
    problems = checks.check_trace(cfg, replace(trace, phase_per_frame=phase))
    expect(any(p.startswith("flow balance") for p in problems),
           f"a fifth of relay frames turned idle passed: {problems}")


SPEC = """schema_version = 1
[system]
scenario = fixed
scheme = odwf
K = 2000
N = 2
p = 1.0
beta = 160
warmup_frames = 1500
measure_frames = 3000
seed = 5
[sweep]
beta = 160, 320
"""


def _rows(text):
    table = run_experiment(parse_spec(text))
    out = BENCH / "out" / "selftest.csv"
    out.parent.mkdir(exist_ok=True)
    emit(table, "csv", str(out))
    return list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))


def test_csv_rows_pass_and_tampered_rows_fail():
    rows = _rows(SPEC)
    for row in rows:
        expect(not checks.check_row(row), f"row {row['row']}: {checks.check_row(row)}")
    row = dict(rows[0], pred_P_RD=repr(float(rows[0]["pred_P_RD"]) * (1 + 1e-6)))
    expect(any("pred_P_RD" in p for p in checks.check_row(row)),
           "a perturbed pred_P_RD passed")
    row = dict(rows[0], undelivered="0.0", P_SR_hat=repr(float(rows[0]["P_SR_hat"]) + 0.01))
    expect(any("conservation" in p for p in checks.check_row(row)),
           "injections beyond deliveries with nothing in flight passed")
    row = dict(rows[0], status="buffer_overflow")
    expect(checks.check_row(row), "a buffer_overflow row passed")


def test_benchmark_json_lists_what_run_prints():
    import run
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS),
           "workload names differ")
    expect({m["name"]: m["unit"] for m in doc["end_to_end"]} == dict(run.END_TO_END),
           "end-to-end metrics differ")
    printed = {name: unit for name, _, _, unit in run.per_layer_names()}
    printed["tracing.overhead_s"] = "s"
    expect({m["name"]: m["unit"] for m in doc["per_layer"]} == printed,
           "per-layer metrics differ")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
