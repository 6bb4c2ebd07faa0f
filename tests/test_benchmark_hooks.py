"""The benchmark still fits the package: perfbench/tracing.py wraps each
scheme's step once and reads what step() returns, from outside src/, and
perfbench/selftest.py's checks pass."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import relaysim.protocol
from relaysim import channel, cli, engine, experiment
from relaysim.engine import SystemConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SCHEMES = ("OdwfFixed", "BaselineFixed", "OdwfMobile", "BaselineMobile")
CONFIGS = (
    dict(scenario="fixed", scheme="odwf", K=200, N=2, p=1.0, beta=20.0),
    dict(scenario="fixed", scheme="baseline", K=200, N=2, p=1.0, beta=6.0),
    dict(scenario="mobile", scheme="odwf", K=200, N=1, p=1.0, beta=16.0, q=0.1),
    dict(scenario="mobile", scheme="baseline", K=200, N=1, p=1.0, beta=16.0, q=0.1),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_wraps_each_scheme_once_and_restores_it():
    originals = {name: getattr(relaysim.protocol, name).step for name in SCHEMES}
    tracer = load_tracer()({"channel": channel, "protocol": relaysim.protocol,
                            "engine": engine, "experiment": experiment, "cli": cli})
    tracer.install()
    try:
        for i, params in enumerate(CONFIGS):
            tracer.scheme = f"{params['scenario']}-{params['scheme']}"
            # no warm-up, so the trace covers every frame the tracer sees
            cfg = SystemConfig(**params, warmup_frames=0, measure_frames=400, seed=i)
            trace = engine.run_once(cfg, np.random.default_rng(i))
            delivered = int(trace.delivered_per_frame.sum())
            assert delivered > 0
            counts = tracer.aggregate()
            assert counts[("protocol.step.calls", tracer.scheme)] == 400
            assert counts[("protocol.packets.delivered", tracer.scheme)] == delivered
    finally:
        tracer.uninstall()
    for name in SCHEMES:
        assert getattr(relaysim.protocol, name).step is originals[name]


def test_benchmark_selftest_passes():
    # the benchmark's baseline invariants (unit delay, in-network cap) and its
    # closed forms against relaysim.analytics
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
