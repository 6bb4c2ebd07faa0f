"""Output bytes pinned by sha256: the CLI on short sweeps and the presets,
as CSV and as JSON lines, and run_once series of rows that no spec reaches.

A change that keeps the statistics but draws differently changes these
digests, so a refactor that promises identical output proves it here. Bytes
are promised per numpy version only, so the digest tests run on the numpy
the digests were recorded with and skip on any other.

    PYTHONPATH=src python tests/test_output_bytes.py

prints every digest as it reads now, table by table in the layout below.
"""

import hashlib
import importlib.util
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from relaysim.cli import main
from relaysim.engine import SystemConfig, run_once

recorded_numpy = pytest.mark.skipif(np.__version__ != "2.4.6",
                                    reason="digests recorded with numpy 2.4.6")
PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"

# the four sweeps of perfbench/specs, without their comments, and a sweep
# whose rows reach every status and absent cell: q = 0.001 and q = 0
# overflow the buffer cap at beta = 4, q = 0 has no prediction (and row 4
# is both, so it reads buffer_overflow), beta = 1e80 delivers nothing, so D
# is absent, and two replications give the intervals a width
SPECS = {
    "fixed-baseline-n-sweep": """\
schema_version = 1
[system]
scenario = fixed
scheme = baseline
K = 2000
N = 1
p = 1e8
beta = 5.883690757516976
warmup_frames = 200
measure_frames = 400
replications = 1
seed = 1
[sweep]
N = 1, 2, 4, 8
""",
    "fixed-odwf-beta-sweep": """\
schema_version = 1
[system]
scenario = fixed
scheme = odwf
K = 2000
N = 2
p = 1.0
beta = 40
warmup_frames = 1300
measure_frames = 2000
replications = 1
seed = 1
[sweep]
beta = 40, 80, 160, 320
""",
    "mobile-baseline-q-sweep": """\
schema_version = 1
[system]
scenario = mobile
scheme = baseline
K = 1000
N = 1
p = 1.0
beta = 2
alpha = 4.0
M = 5
q = 0.02
R = 1.0
warmup_frames = 200
measure_frames = 1000
replications = 1
seed = 1
[sweep]
q = 0.02, 0.05, 0.1, 0.2
""",
    "mobile-odwf-q-beta-sweep": """\
schema_version = 1
[system]
scenario = mobile
scheme = odwf
K = 1000
N = 1
p = 1.0
beta = 4
alpha = 4.0
M = 5
q = 0.05
R = 1.0
warmup_frames = 1000
measure_frames = 1000
replications = 1
seed = 1
[sweep]
q = 0.05, 0.2
beta = 4, 16, 64
""",
    "mobile-odwf-cells-branches": """\
schema_version = 1
[system]
scenario = mobile
scheme = odwf
K = 200
N = 1
p = 1.0
beta = 4
q = 0.2
warmup_frames = 100
measure_frames = 300
replications = 2
buffer_cap = 40
seed = 1
[sweep]
q = 0.2, 0.001, 0
beta = 4, 1e80
""",
}

SPEC_DIGESTS = {
    "fixed-baseline-n-sweep": "f64e69df03b160a1",
    "fixed-odwf-beta-sweep": "6b0d11719080d73a",
    "mobile-baseline-q-sweep": "ab5f9fddcdfa7b69",
    "mobile-odwf-q-beta-sweep": "46a689c0814bb1d4",
    "mobile-odwf-cells-branches": "76b58fddeb44a2f9",
}

PRESET_DIGESTS = {
    "fig-fixed-tradeoff": "ec3b60a1dd3c4ecd",
    "fig-mobile-tradeoff": "00375a04f8f2d816",
}

# the same outputs written as JSON lines
JSONL_SPEC_DIGESTS = {
    "mobile-baseline-q-sweep": "5b403388bb7f05a6",
    "mobile-odwf-cells-branches": "fea7a9689899efa0",
}

JSONL_PRESET_DIGESTS = {
    "fig-fixed-tradeoff": "6d59c7fd3974da9d",
    "fig-mobile-tradeoff": "b97cb1e99c048572",
}

K10K = 10_000
# (name, SystemConfig fields): the four benchmark k10k shapes cut to 500 +
# 500 frames, which reach the few-movers walk and ODWF's thinned phase I;
# rows with no and with full mobile coverage; a fixed baseline whose
# source phase takes two chunks of subcarriers, drawn one attempt at a
# time; M = 1000 strips, about one relay each, walked mover by mover
# (2qK = 4) and by the multinomial draw (2qK = 100), with disks of radius
# about 1.01 (ODWF) and 1.02 (baseline) that reach past the middle; a
# frozen walk; and two fixed baselines whose
# relay frames often leave a subcarrier short of a pending packet, so they
# run the bipartite matching: K = 30 relays over N = 3 subcarriers, where
# some matchings leave a packet behind, and N = 70, whose packet masks are
# Python ints split over nine chunks of subcarriers, again one attempt at a
# time
ROWS = (
    ("fixed-odwf-k10k", dict(scenario="fixed", scheme="odwf", K=K10K, N=2, p=1.0,
                             beta=2000.0)),
    ("fixed-baseline-k10k", dict(scenario="fixed", scheme="baseline", K=K10K, N=4,
                                 p=1e8, beta=math.sqrt(K10K) / math.log(K10K))),
    ("mobile-odwf-k10k", dict(scenario="mobile", scheme="odwf", K=K10K, N=1, p=1.0,
                              beta=(K10K / math.log(K10K) ** 2) ** 2, alpha=4.0,
                              M=2, q=1e-4)),
    ("mobile-baseline-k10k", dict(scenario="mobile", scheme="baseline", K=K10K, N=1,
                                  p=1.0, beta=2.0, alpha=4.0, M=2, q=1e-4)),
    ("mobile-odwf-q0.2", dict(scenario="mobile", scheme="odwf", K=1000, N=1, p=1.0,
                              beta=16.0, M=5, q=0.2)),
    ("mobile-odwf-no-coverage", dict(scenario="mobile", scheme="odwf", K=1000, N=1,
                                     p=1.0, beta=1e80, M=5, q=0.05)),
    ("mobile-baseline-full-coverage", dict(scenario="mobile", scheme="baseline",
                                           K=1000, N=1, p=1e300, beta=4.0,
                                           alpha=0.5, M=5, q=0.05)),
    ("fixed-baseline-n12", dict(scenario="fixed", scheme="baseline", K=500, N=12,
                                p=1e8, beta=3.0)),
    *((f"mobile-{scheme}-m1000-{walk}", dict(scenario="mobile", scheme=scheme, K=1000,
                                             N=1, p=p, beta=1.0, M=1000, q=q))
      for scheme, p in (("odwf", 1.05), ("baseline", 1.1))
      for walk, q in (("few", 0.002), ("many", 0.05))),
    ("mobile-odwf-frozen", dict(scenario="mobile", scheme="odwf", K=1000, N=1, p=4.0,
                                beta=2.0, M=5, q=0.0)),
    ("fixed-baseline-partial", dict(scenario="fixed", scheme="baseline", K=30, N=3,
                                    p=1.0, beta=6.0)),
    ("fixed-baseline-n70", dict(scenario="fixed", scheme="baseline", K=20, N=70,
                                p=1.0, beta=1.5)),
)

ROW_DIGESTS = {
    "fixed-odwf-k10k": "b26c290024cc9090",
    "fixed-baseline-k10k": "cd615a9add361257",
    "mobile-odwf-k10k": "8bdfd60108d62e3b",
    "mobile-baseline-k10k": "2c3d812fdce1939e",
    "mobile-odwf-q0.2": "5e7d2aedadab8af5",
    "mobile-odwf-no-coverage": "39b00dd7334f62f5",
    "mobile-baseline-full-coverage": "18e79d33222e6ebc",
    "fixed-baseline-n12": "1330b65b9a390b4a",
    "mobile-odwf-m1000-few": "7dab781fc8956283",
    "mobile-odwf-m1000-many": "4bdd83e0247b8fa4",
    "mobile-baseline-m1000-few": "d5875c3f2fec4093",
    "mobile-baseline-m1000-many": "6bff09f43751cd83",
    "mobile-odwf-frozen": "181511fc1dd3a26c",
    "fixed-baseline-partial": "2be86bf218e938ec",
    "fixed-baseline-n70": "fef84b424d0721c9",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cli_digest(argv, tmp_path) -> str:
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return digest(out.read_bytes())


def sweep_digest(name, tmp_path, *flags) -> str:
    spec = tmp_path / f"{name}.ini"
    spec.write_text(SPECS[name], encoding="utf-8")
    return cli_digest(["sweep", "--spec", str(spec), "--seed", "11", *flags], tmp_path)


def row_digest(fields) -> str:
    cfg = SystemConfig(**fields, warmup_frames=500, measure_frames=500, seed=17)
    trace = run_once(cfg, np.random.default_rng(cfg.seed))
    parts = [repr((trace.rate, trace.undelivered_at_end)).encode()]
    parts += [np.ascontiguousarray(series).tobytes() for series in (
        trace.delivered_per_frame, trace.per_packet_delay, trace.occupancy_fraction,
        trace.in_network_per_frame, trace.phase_per_frame)]
    return digest(b"".join(parts))


@recorded_numpy
@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_bytes(name, tmp_path):
    assert sweep_digest(name, tmp_path) == SPEC_DIGESTS[name]


@recorded_numpy
@pytest.mark.parametrize("name", sorted(JSONL_SPEC_DIGESTS))
def test_sweep_jsonl_bytes(name, tmp_path):
    assert sweep_digest(name, tmp_path, "--format", "jsonl") == JSONL_SPEC_DIGESTS[name]


@recorded_numpy
@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_predict_bytes(name, tmp_path):
    assert cli_digest(["predict", "--preset", name], tmp_path) == PRESET_DIGESTS[name]


@recorded_numpy
@pytest.mark.parametrize("name", sorted(JSONL_PRESET_DIGESTS))
def test_preset_predict_jsonl_bytes(name, tmp_path):
    assert cli_digest(["predict", "--preset", name, "--format", "jsonl"],
                      tmp_path) == JSONL_PRESET_DIGESTS[name]


@recorded_numpy
@pytest.mark.parametrize("name,fields", ROWS, ids=[name for name, _ in ROWS])
def test_run_once_series_bytes(name, fields):
    assert row_digest(fields) == ROW_DIGESTS[name]


def test_k10k_rows_are_the_benchmark_shapes(monkeypatch):
    # perfbench/run.py puts its own directory first on sys.path to import
    # checks and tracing, and its dataclasses look their module up in
    # sys.modules; monkeypatch puts both back
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    shapes = [{key: value for key, value in params.items()
               if key not in ("warmup_frames", "measure_frames")}
              for workload in ("fixed-k10k", "mobile-k10k")
              for params in bench.WORKLOADS[workload]]
    assert [fields for _, fields in ROWS[:4]] == shapes


def current_digests():
    """(table name, {key: digest}) for every table above, as read now."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        return [
            ("SPEC_DIGESTS", {name: sweep_digest(name, tmp_path) for name in SPEC_DIGESTS}),
            ("PRESET_DIGESTS", {name: cli_digest(["predict", "--preset", name], tmp_path)
                                for name in PRESET_DIGESTS}),
            ("JSONL_SPEC_DIGESTS", {name: sweep_digest(name, tmp_path, "--format", "jsonl")
                                    for name in JSONL_SPEC_DIGESTS}),
            ("JSONL_PRESET_DIGESTS", {
                name: cli_digest(["predict", "--preset", name, "--format", "jsonl"], tmp_path)
                for name in JSONL_PRESET_DIGESTS}),
            ("ROW_DIGESTS", {name: row_digest(fields) for name, fields in ROWS}),
        ]


if __name__ == "__main__":
    for table, digests in current_digests():
        print(f"{table} = {{")
        for name, value in digests.items():
            print(f'    "{name}": "{value}",')
        print("}\n")
