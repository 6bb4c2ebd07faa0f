#!/usr/bin/env python3
"""Benchmark of relaysim: host microseconds per simulated frame per scheme.

    python3 perfbench/run.py --workload fixed-k10k --seed 1 --seconds 40 --trace 0

Run from the root of a relaysim checkout; the package is imported from its
src/ directory. One process, no worker threads or processes. A run repeats
whole passes over its workload's operations (one simulated config, or one
sweep row) until the next pass would overrun --seconds, checks every output
against checks.py, and prints one JSON object as its last line.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of tracing.py. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 20261017
SETUP_REPEATS = 3
# fewer passes leave the median to chance
MIN_PASSES = 4
MIN_TRACED_PAIRS = 2
CHUNK_FRAMES = 64
MODULES = ("channel", "mobility", "matching", "protocol", "engine",
           "analytics", "experiment", "cli")
SCHEMES = ("odwf", "baseline")

K10K = 10_000
WORKLOADS = {
    # criterion 02 (ODWF) and criterion 04 (baseline), warm-up pinned; the
    # ODWF warm-up is three predicted delays (2*c*beta^2/K = 980 frames)
    "fixed-k10k": (
        dict(scenario="fixed", scheme="odwf", K=K10K, N=2, p=1.0,
             beta=2000.0, warmup_frames=3000, measure_frames=4000),
        dict(scenario="fixed", scheme="baseline", K=K10K, N=4, p=1e8,
             beta=math.sqrt(K10K) / math.log(K10K), warmup_frames=300,
             measure_frames=700),
    ),
    # criterion 09, top row; the default warm-up would be 138,970 frames.
    # Rows are short so that a run holds 20-30 passes.
    "mobile-k10k": (
        dict(scenario="mobile", scheme="odwf", K=K10K, N=1, p=1.0,
             beta=(K10K / math.log(K10K) ** 2) ** 2, alpha=4.0, M=2,
             q=1e-4, warmup_frames=1000, measure_frames=2000),
        dict(scenario="mobile", scheme="baseline", K=K10K, N=1, p=1.0,
             beta=2.0, alpha=4.0, M=2, q=1e-4, warmup_frames=400,
             measure_frames=1600),
    ),
    # (scheme, spec file under specs/) run through cli.main in `both` mode.
    # The ODWF specs are the sweeps of the two bundled presets with shorter
    # rows: the presets themselves take 8 s a pass, leaving 4 passes to a run.
    "preset-sweep": (
        ("odwf", "fixed-odwf-beta-sweep.ini"),
        ("odwf", "mobile-odwf-q-beta-sweep.ini"),
        ("baseline", "fixed-baseline-n-sweep.ini"),
        ("baseline", "mobile-baseline-q-sweep.ini"),
    ),
}

END_TO_END = (
    ("odwf_us_per_frame", "us"),
    ("baseline_us_per_frame", "us"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric, unit; every one but matching is split by scheme
PER_LAYER = (
    ("channel.connected.calls", "count"),
    ("channel.connected.draws", "count"),
    ("channel.connected.hits", "count"),
    ("channel.connected.s", "s"),
    ("channel.connected.hit_ratio", "ratio"),
    ("mobility.step_regions.calls", "count"),
    ("mobility.step_regions.relays", "count"),
    ("mobility.step_regions.s", "s"),
    ("mobility.sample_positions_in_region.calls", "count"),
    ("mobility.sample_positions_in_region.points", "count"),
    ("mobility.sample_positions_in_region.s", "s"),
    ("mobility.points_per_frame", "points/frame"),
    ("protocol.step.calls", "count"),
    ("protocol.step.s", "s"),
    ("protocol.step.self_s", "s"),
    ("protocol.frames.source_tx", "count"),
    ("protocol.frames.relay_tx", "count"),
    ("protocol.frames.idle", "count"),
    ("protocol.packets.injected", "count"),
    ("protocol.packets.delivered", "count"),
    ("protocol.in_network.peak", "count"),
    ("engine.build_protocol.s", "s"),
    ("engine.run_once.s", "s"),
    ("engine.run_once.self_s", "s"),
    ("engine.summarize.s", "s"),
    ("analytics.predict.calls", "count"),
    ("analytics.predict.s", "s"),
    ("experiment.parse_spec.s", "s"),
    ("experiment.run_experiment.self_s", "s"),
    ("experiment.emit.s", "s"),
    ("experiment.emit.bytes", "bytes"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
)
BASELINE_ONLY = (
    ("matching.max_bipartite_matching.calls", "count"),
    ("matching.max_bipartite_matching.matched", "count"),
    ("matching.max_bipartite_matching.s", "s"),
)


def op_seed(seed: int, index: int) -> int:
    """Seed handed to the program for operation `index` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)[0])


def import_relaysim() -> dict:
    """Import relaysim afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "relaysim" or n.startswith("relaysim.")]:
        del sys.modules[name]
    importlib.import_module("relaysim")
    return {name: importlib.import_module(f"relaysim.{name}") for name in MODULES}


# ---- set-up ---------------------------------------------------------------

@dataclass
class Job:
    scheme: str
    label: str
    config: object = None      # SystemConfig, for the k10k workloads
    argv: list = None          # cli.main arguments, for preset-sweep
    out_path: str = None
    n_rows: int = 1


def set_up(workload: str, seed: int, mods: dict) -> list:
    """Build every spec, config and protocol object of the workload."""
    engine = mods["engine"]
    jobs = []
    configs = []
    if workload == "preset-sweep":
        for i, (scheme, name) in enumerate(WORKLOADS[workload]):
            path = str(BENCH / "specs" / name)
            spec = mods["experiment"].load_spec(path)
            axes = [[(key, v) for v in values] for key, values in spec.sweep]
            configs += [replace(spec.template, **dict(combo))
                        for combo in itertools.product(*axes)]
            out_path = str(OUT / f"{workload}-{i}.csv")
            jobs.append(Job(scheme, f"spec {Path(name).stem}",
                            argv=["sweep", "--spec", path, "--seed", str(op_seed(seed, i)),
                                  "--out", out_path],
                            out_path=out_path, n_rows=spec.n_points))
    else:
        for i, params in enumerate(WORKLOADS[workload]):
            cfg = engine.SystemConfig(**params, seed=op_seed(seed, i))
            configs.append(cfg)
            jobs.append(Job(cfg.scheme, f"{cfg.scenario} {cfg.scheme}", config=cfg))
    for cfg in configs:
        engine.build_protocol(cfg, np.random.default_rng(cfg.seed))
    return jobs


# ---- one pass -------------------------------------------------------------

class HostSpeed:
    """A fixed piece of work, independent of relaysim, that tells how fast
    the host runs at this moment.

    Other tenants of a shared host slow everything this process runs, by up
    to 80 % for tens of seconds at a time. Dividing a piece of the program's
    time by the time of this kernel, timed right after it, takes out most of
    that slowdown; multiplying by REFERENCE_S turns the ratio back into
    seconds on a host that runs the kernel in REFERENCE_S. The kernel is
    small numpy calls between Python statements, like a simulated frame:
    of the kernels tried, its slowdown tracked the program's most closely.
    """

    # the kernel's time between pieces of the program while the 2-vCPU host
    # this was written on was quiet, so that a scaled time then reads about
    # as an unscaled one
    REFERENCE_S = 125e-6

    def __init__(self):
        self.y = np.random.default_rng(12345).random(1000)

    def kernel(self) -> int:
        y, total, seen = self.y, 0, {}
        for i in range(20):
            idx = np.flatnonzero(y < 0.3 + 0.01 * i)
            total += int(idx.size) + int(y[idx[:8]].sum() > 1.0)
            seen[i % 7] = total
        return total

    def factor(self) -> float:
        """REFERENCE_S over the kernel's time now: below 1 on a slow host.
        The timed call is the second, so that what the program left in the
        caches does not count."""
        self.kernel()
        start = time.perf_counter()
        self.kernel()
        return self.REFERENCE_S / (time.perf_counter() - start)

    def scaled(self, seconds: float) -> float:
        return seconds * self.factor()


class FrameClock:
    """Times an operation in pieces of CHUNK_FRAMES frames, each scaled by
    the host's speed right after it.

    engine.build_protocol is wrapped so that the class of each protocol
    object it returns gets its step method wrapped: one counter and, every
    CHUNK_FRAMES frames, two clock reads and two calls of the HostSpeed
    kernel (about 0.25 ms) that fall outside the timed pieces.
    """

    def __init__(self, engine, speed: HostSpeed):
        self.engine = engine
        self.speed = speed
        self._saved = {}
        self.start()

    def start(self):
        self.frames = 0
        self.raw = self.scaled = 0.0
        self.begin = time.perf_counter()

    def cut(self):
        piece = time.perf_counter() - self.begin
        self.raw += piece
        self.scaled += self.speed.scaled(piece)
        self.begin = time.perf_counter()

    def _wrap_step(self, cls):
        step = cls.step

        def timed_step(proto, frame):
            out = step(proto, frame)
            self.frames += 1
            if self.frames % CHUNK_FRAMES == 0:
                self.cut()
            return out

        self._saved[cls] = step
        cls.step = timed_step

    def install(self):
        original = self._original = self.engine.build_protocol

        def build_protocol(*args, **kwargs):
            proto = original(*args, **kwargs)
            if type(proto) not in self._saved:
                self._wrap_step(type(proto))
            return proto

        self.engine.build_protocol = build_protocol

    def uninstall(self):
        self.engine.build_protocol = self._original
        for cls, step in self._saved.items():
            cls.step = step
        self._saved.clear()


@dataclass
class Pass:
    wall: float = 0.0
    raw: dict = field(default_factory=dict)       # job label -> seconds
    scaled: dict = field(default_factory=dict)    # job label -> scaled seconds
    frames: dict = field(default_factory=dict)    # job label -> frames
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    outputs: dict = field(default_factory=dict)   # job label -> CSV bytes


def _check_csv(job: Job, data: bytes):
    """Frames simulated, check messages and failed rows of one CSV output."""
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    if len(rows) != job.n_rows:
        raise RuntimeError(f"{len(rows)} rows, expected {job.n_rows}")
    frames, problems, bad = 0, [], 0
    for row in rows:
        if row["scheme"] != job.scheme:
            raise RuntimeError(f"row {row['row']} is {row['scheme']}")
        frames += (int(row["warmup_frames"]) + int(row["measure_frames"])) \
            * int(row["replications"])
        row_problems = checks.check_row(row)
        bad += bool(row_problems)
        problems += row_problems
    return frames, problems, bad


def run_pass(jobs: list, mods: dict, clock: FrameClock | None,
             tracer: Tracer | None) -> Pass:
    """Run every job once; with a clock, also take each job's scaled time."""
    out = Pass()
    for job in jobs:
        out.attempted += job.n_rows
        if tracer is not None:
            tracer.scheme = job.scheme
        gc.collect()  # same collector state in every pass, so same pauses
        try:
            start = time.perf_counter()
            if clock is not None:
                clock.start()
            if job.config is not None:
                cfg = job.config
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
                trace = mods["engine"].run_once(cfg, rng)
                if clock is not None:
                    clock.cut()
                wall = time.perf_counter() - start
                frames = cfg.warmup_frames + cfg.measure_frames
                problems = checks.check_trace(cfg, trace)
                bad = int(bool(problems))
            else:
                code = mods["cli"].main(job.argv)
                if clock is not None:
                    clock.cut()
                wall = time.perf_counter() - start
                if code != 0:
                    raise RuntimeError(f"cli.main exited {code}")
                data = Path(job.out_path).read_bytes()
                out.outputs[job.label] = data
                frames, problems, bad = _check_csv(job, data)
        except Exception:  # an operation that raises fails; the run goes on
            print(f"operation failed: {job.label}", file=sys.stderr)
            traceback.print_exc()
            out.failed += job.n_rows
            continue
        for msg in problems:
            print(f"check failed: {job.label}: {msg}", file=sys.stderr)
        out.failed += bad
        out.wrong += bad
        out.wall += wall
        out.frames[job.label] = frames
        if clock is not None:
            out.raw[job.label] = clock.raw
            out.scaled[job.label] = clock.scaled
    return out


# ---- metrics --------------------------------------------------------------

def job_times(jobs: list, passes: list, key: str) -> tuple:
    """Median over passes of each job's `raw` or `scaled` seconds, and its
    frames; a job that failed in every pass has no time to report."""
    cost, frames = {}, {}
    for job in jobs:
        done = [getattr(p, key)[job.label] for p in passes
                if job.label in getattr(p, key)]
        if done:
            cost[job.label] = statistics.median(done)
            frames[job.label] = next(p.frames[job.label] for p in passes
                                     if job.label in p.frames)
    return cost, frames


def us_per_frame(jobs: list, cost: dict, frames: dict, scheme: str) -> float:
    labels = [job.label for job in jobs if job.scheme == scheme and job.label in cost]
    return sum(cost[lb] for lb in labels) / sum(frames[lb] for lb in labels) * 1e6


def end_to_end(jobs: list, passes: list, setup_times: list) -> dict:
    cost, frames = job_times(jobs, passes, "scaled")
    return {
        "odwf_us_per_frame": us_per_frame(jobs, cost, frames, "odwf"),
        "baseline_us_per_frame": us_per_frame(jobs, cost, frames, "baseline"),
        "wall_s": sum(cost.values()),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_names():
    for base, unit in PER_LAYER:
        for scheme in SCHEMES:
            yield f"{base}.{scheme}", base, scheme, unit
    for base, unit in BASELINE_ONLY:
        yield f"{base}.baseline", base, "baseline", unit


def per_layer(aggregate: dict) -> dict:
    """Named per-layer values of one traced pass."""
    def get(base, scheme):
        return aggregate.get((base, scheme), 0)
    values = {}
    for name, base, scheme, unit in per_layer_names():
        if base == "channel.connected.hit_ratio":
            draws = get("channel.connected.draws", scheme)
            value = get("channel.connected.hits", scheme) / draws if draws else 0.0
        elif base == "mobility.points_per_frame":
            frames = get("mobility.step_regions.calls", scheme)
            value = (get("mobility.sample_positions_in_region.points", scheme)
                     / frames if frames else 0.0)
        else:
            value = get(base, scheme)
        values[name] = value
    return values


def traced_metrics(passes: list, traced: list):
    """Per-layer values of a traced run, whose passes alternate untraced and
    traced. Counts must repeat exactly; times are the fastest traced pass."""
    units = {name: unit for name, _, _, unit in per_layer_names()}
    values, repeated = {}, True
    for name, unit in units.items():
        series = [t[name] for t in traced]
        if unit == "s":
            values[name] = min(series)
            continue
        if any(v != series[0] for v in series):
            print(f"check failed: {name} differs between traced passes: {series}",
                  file=sys.stderr)
            repeated = False
        values[name] = series[0]
    values["tracing.overhead_s"] = (min(p.wall for p in passes[1::2])
                                    - min(p.wall for p in passes[0::2]))
    units["tracing.overhead_s"] = "s"
    return values, units, repeated


# ---- main -----------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relaysim" / "__init__.py").is_file():
        print(f"error: no relaysim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup_times, raw_setup_times, passes, traced, first_tracer = [], [], [], [], None
    speed = HostSpeed()
    least = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    started = time.perf_counter()
    while True:
        # a fresh set-up before every pass spreads the set-up samples over
        # the run, like the passes themselves
        for _ in range(SETUP_REPEATS if not passes else 1):
            start = time.perf_counter()
            mods = import_relaysim()
            jobs = set_up(args.workload, args.seed, mods)
            raw_setup_times.append(time.perf_counter() - start)
            setup_times.append(speed.scaled(raw_setup_times[-1]))
        if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
            print(f"error: relaysim imported from {mods['cli'].__file__}",
                  file=sys.stderr)
            return 2
        clock = FrameClock(mods["engine"], speed)
        clock.install()
        try:
            passes.append(run_pass(jobs, mods, clock, None))
        finally:
            clock.uninstall()
        if args.trace:
            tracer = Tracer(mods)
            tracer.install()
            try:
                traced_pass = run_pass(jobs, mods, None, tracer)
            finally:
                tracer.uninstall()
            passes.append(traced_pass)
            traced.append(per_layer(tracer.aggregate()))
            if first_tracer is None:
                first_tracer = tracer
        elapsed = time.perf_counter() - started
        n = len(traced or passes)
        if n >= least and elapsed * (n + 1) / n > args.seconds:
            break

    # repeated passes over the same inputs must give the same bytes
    correct = True
    first = passes[0].outputs
    for p in passes[1:]:
        for label, data in p.outputs.items():
            if label in first and data != first[label]:
                print(f"check failed: {label}: output differs from the first pass",
                      file=sys.stderr)
                correct = False
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = correct and not any(p.wrong for p in passes)

    timed = {job.scheme for job in jobs for p in passes if job.label in p.frames}
    if timed != set(SCHEMES):
        print(f"error: every {' and '.join(set(SCHEMES) - timed)} operation failed;"
              " no time to report", file=sys.stderr)
        return 1
    if not args.trace:
        values, units = end_to_end(jobs, passes, setup_times), dict(END_TO_END)
    else:
        values, units, repeated = traced_metrics(passes, traced)
        correct = correct and repeated
        spans_path = OUT / f"spans-{args.workload}.csv"
        first_tracer.write_spans(str(spans_path))
        print(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")

    print(f"workload={args.workload} seed={args.seed} passes={len(traced or passes)}"
          f" trace={args.trace} nproc={os.cpu_count()}"
          f" python={platform.python_version()} numpy={np.__version__}")
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    if not args.trace:
        cost, frames = job_times(jobs, passes, "raw")
        print(f"  unscaled: odwf {us_per_frame(jobs, cost, frames, 'odwf'):.1f} us/frame,"
              f" baseline {us_per_frame(jobs, cost, frames, 'baseline'):.1f} us/frame,"
              f" wall {sum(cost.values()):.3f} s,"
              f" setup {statistics.median(raw_setup_times):.4f} s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
