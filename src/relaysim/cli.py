"""Command-line experiment runner.

    relaysim simulate --spec exp.ini --out results.csv
    relaysim predict  --preset fig-fixed-tradeoff --out curves.csv
    relaysim sweep    --spec exp.ini --seed 7 --format jsonl

simulate and predict force the respective mode; sweep runs the mode named in
the spec file (default both). Command-line flags override spec-file values and
the effective values are echoed into the output rows. No environment variable
is consulted. Exit codes: 0 success, 2 bad spec, 3 I/O failure. Errors print
one "error: <category>: <detail>" line to stderr; wall time is logged to
stderr as well so output files stay byte-identical across reruns, and so is
a "relaysim: row i/n" progress line when stderr is a terminal.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from importlib import resources

from .experiment import (FORMATS, check_writable, emit, load_spec, parse_spec,
                         run_experiment)

_PRESET_DIR = resources.files("relaysim.presets")
PRESETS = tuple(sorted(entry.name.removesuffix(".ini") for entry in _PRESET_DIR.iterdir()
                       if entry.name.endswith(".ini")))


def load_preset(name: str):
    return parse_spec((_PRESET_DIR / f"{name}.ini").read_text(encoding="utf-8"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Relay-network simulator and closed-form predictor.")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
            ("simulate", "run Monte Carlo simulations for a spec"),
            ("predict", "evaluate closed-form predictions for a spec"),
            ("sweep", "run the spec in its own mode (default: both)")):
        sub = commands.add_parser(name, help=summary)
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--spec", metavar="FILE", help="experiment spec file")
        source.add_argument("--preset", choices=PRESETS,
                            help="bundled experiment spec")
        sub.add_argument("--seed", type=int, help="override the master seed")
        sub.add_argument("--out", metavar="PATH",
                         help="output file ('-' for stdout, the default)")
        sub.add_argument("--format", choices=FORMATS, dest="out_format",
                         help="override the output format")
    return parser


def _show_progress(row: int, n_rows: int):
    """Overwrite one progress line on a terminal's stderr."""
    end = "\n" if row + 1 == n_rows else ""
    print(f"\rrelaysim: row {row + 1}/{n_rows}", end=end, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = load_preset(args.preset) if args.preset else load_spec(args.spec)
        if args.command in ("simulate", "predict"):
            spec = replace(spec, mode=args.command)
        if args.seed is not None:
            spec = replace(spec, template=replace(spec.template, seed=args.seed))
        if args.out_format is not None:
            spec = replace(spec, out_format=args.out_format)
        if args.out is not None:
            spec = replace(spec, out_path=args.out)
        check_writable(spec.out_path)    # fail before the sweep, not after
        started = time.perf_counter()
        table = run_experiment(spec, _show_progress if sys.stderr.isatty() else None)
        elapsed = time.perf_counter() - started
        print(f"relaysim: {len(table)} rows in {elapsed:.2f} s",
              file=sys.stderr)
        emit(table, spec.out_format, spec.out_path)
    except ValueError as exc:  # SpecError and config-field violations
        print(f"error: spec: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
