"""Spans and counters recorded around relaysim's layer boundaries.

The tracer patches module and class attributes from outside the package, so
nothing under src/ changes: install() swaps each boundary function for a
wrapper and uninstall() puts the originals back. Names that protocol.py,
engine.py, experiment.py and cli.py bind at import time are patched where
those modules look them up.

A span is (name, scheme, start, end, parent, run): parent is the index of
the enclosing span (-1 at top level) and run is the id shared by all spans
of one simulated run, i.e. one engine.run_once call (0 outside a run).
Spans stay in memory; write_spans() saves them when the benchmark ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

# (module attribute path, span name) for boundaries that only record time
_TIMED = (
    ("engine.build_protocol", "engine.build_protocol"),
    ("engine.summarize", "engine.summarize"),
    ("experiment.parse_spec", "experiment.parse_spec"),
    ("cli.parse_spec", "experiment.parse_spec"),
    ("cli.run_experiment", "experiment.run_experiment"),
    ("cli.main", "cli.main"),
)
_PREDICTORS = ("odwf_fixed_prediction", "baseline_fixed_prediction",
               "odwf_mobile_prediction", "baseline_mobile_prediction")
_SCHEMES = ("OdwfFixed", "BaselineFixed", "OdwfMobile", "BaselineMobile")


class Tracer:
    def __init__(self, relaysim_modules: dict):
        self.mods = relaysim_modules      # short name -> module object
        self.spans = []
        self.counts = defaultdict(int)    # (metric, scheme) -> count
        self.peaks = defaultdict(int)     # (metric, scheme) -> max
        self.scheme = None                # set by the benchmark per operation
        self._stack = []
        self._run = 0
        self._runs = 0
        self._injected_in_run = 0
        self._delivered_in_run = 0
        self._saved = []

    # ---- recording ----------------------------------------------------

    def _span(self, name, fn, after=None, starts_run=False):
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer_run = self._run
            if starts_run:
                self._runs += 1
                self._run = self._runs
                self._injected_in_run = 0
                self._delivered_in_run = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, self.scheme, start, end, parent, self._run)
                self._run = outer_run
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, metric, amount):
        self.counts[(metric, self.scheme)] += amount

    def _after_connected(self, args, mask):
        self._count("channel.connected.calls", 1)
        self._count("channel.connected.draws", int(args[1]))
        self._count("channel.connected.hits", int(np.count_nonzero(mask)))

    def _after_step_regions(self, args, result):
        self._count("mobility.step_regions.calls", 1)
        self._count("mobility.step_regions.relays", int(args[0].size))

    def _after_sample(self, args, result):
        self._count("mobility.sample_positions_in_region.calls", 1)
        self._count("mobility.sample_positions_in_region.points", int(args[2]))

    def _after_matching(self, args, result):
        self._count("matching.max_bipartite_matching.calls", 1)
        self._count("matching.max_bipartite_matching.matched", int(result[1]))

    def _after_predict(self, args, result):
        self._count("analytics.predict.calls", 1)

    def _after_step(self, args, out):
        # a fresh scheme object starts at next_seq 0 in every run, so its
        # next_seq is the number of packets it injected during this run
        proto = args[0]
        n_out = len(out.delivered)
        self._count("protocol.step.calls", 1)
        self._count(f"protocol.frames.{out.kind}", 1)
        self._count("protocol.packets.injected", proto.next_seq - self._injected_in_run)
        self._count("protocol.packets.delivered", n_out)
        self._injected_in_run = proto.next_seq
        self._delivered_in_run += n_out
        key = ("protocol.in_network.peak", self.scheme)
        in_flight = self._injected_in_run - self._delivered_in_run
        if in_flight > self.peaks[key]:
            self.peaks[key] = in_flight

    def _after_emit(self, args, result):
        self._count("experiment.emit.bytes", os.path.getsize(args[2]))

    # ---- patching -----------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        m = self.mods
        channel, protocol, engine = m["channel"], m["protocol"], m["engine"]
        experiment, cli = m["experiment"], m["cli"]
        cls = channel.FixedLinkSampler
        self._patch(cls, "connected", self._span(
            "channel.connected", cls.connected, self._after_connected))
        self._patch(protocol, "step_regions", self._span(
            "mobility.step_regions", protocol.step_regions,
            self._after_step_regions))
        self._patch(protocol, "sample_positions_in_region", self._span(
            "mobility.sample_positions_in_region",
            protocol.sample_positions_in_region, self._after_sample))
        self._patch(protocol, "max_bipartite_matching", self._span(
            "matching.max_bipartite_matching", protocol.max_bipartite_matching,
            self._after_matching))
        for name in _SCHEMES:
            scheme_cls = getattr(protocol, name)
            self._patch(scheme_cls, "step", self._span(
                "protocol.step", scheme_cls.step, self._after_step))
        self._patch(engine, "run_once", self._span(
            "engine.run_once", engine.run_once, starts_run=True))
        for path, span in _TIMED:
            mod_name, attr = path.split(".")
            self._patch(m[mod_name], attr,
                        self._span(span, getattr(m[mod_name], attr)))
        for name in _PREDICTORS:
            self._patch(experiment, name, self._span(
                "analytics.predict", getattr(experiment, name),
                self._after_predict))
        self._patch(cli, "emit", self._span("experiment.emit", cli.emit,
                                            self._after_emit))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---- reporting ----------------------------------------------------

    def aggregate(self) -> dict:
        """Per (metric, scheme): total and self seconds of every span name,
        plus the counters. Self time is a span's duration minus the
        durations of its direct children, which nest inside it."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, scheme, start, end, parent, _ in self.spans:
            total[(name, scheme)] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for idx, (name, scheme, start, end, _, _) in enumerate(self.spans):
            self_s[(name, scheme)] += end - start - child.get(idx, 0.0)
        out = {}
        for (name, scheme), value in total.items():
            out[(f"{name}.s", scheme)] = value
            out[(f"{name}.self_s", scheme)] = self_s[(name, scheme)]
        out.update(self.counts)
        out.update(self.peaks)
        return out

    def write_spans(self, path: str):
        spans = self.spans
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = spans[0][2] if spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,name,scheme,run,parent,start_us,end_us\n")
            for idx, (name, scheme, start, end, parent, run) in enumerate(spans):
                handle.write(f"{idx},{name},{scheme},{run},{parent},"
                             f"{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f}\n")
