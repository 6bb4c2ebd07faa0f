"""Experiment specs, sweep execution, and CSV/JSON-lines emission.

A spec file is flat INI-style text with a top-level schema_version and three
sections:

    schema_version = 1

    [system]            # SystemConfig fields; those with no default required
    scenario = fixed
    scheme = odwf
    K = 2000
    N = 2
    p = 1.0
    beta = 40

    [sweep]             # optional; numeric config fields -> value lists
    beta = 40, 80, 160, 320

    [output]            # optional
    mode = both         # simulate | predict | both
    format = csv        # csv | jsonl
    path = results.csv

Sweep points are the cross product of the axes in declaration order, last
axis fastest. Each point gets its own seed derived from (master seed, row
index), so rows are independent yet the whole table is reproducible byte for
byte. Blank lines, full-line comments (# or ;) and inline comments (# or ;
after whitespace) are ignored.
"""

from __future__ import annotations

import csv
import errno
import io
import itertools
import json
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .analytics import (Prediction, baseline_fixed_prediction,
                        baseline_mobile_prediction, odwf_fixed_prediction,
                        odwf_mobile_prediction)
from .engine import FIXED, MOBILE, ODWF, SystemConfig, run_replicated
from .protocol import BufferOverflowError

SCHEMA_VERSION = 1
MODES = ("simulate", "predict", "both")
FORMATS = ("csv", "jsonl")
DEFAULT_MAX_POINTS = 10_000

# [system] key -> its kind, read from the annotation, in SystemConfig's field
# order; a key is required where its field has no default
_CONFIG_FIELDS = [f for f in fields(SystemConfig) if f.init]
_SYSTEM_KEYS = {f.name: {"str": str, "float": float, "int": int, "int | None": int}[f.type]
                for f in _CONFIG_FIELDS}
_REQUIRED_KEYS = [f.name for f in _CONFIG_FIELDS if f.default is MISSING]
_SWEEPABLE = [key for key, kind in _SYSTEM_KEYS.items()    # numeric but seed/cap
              if kind is not str and key not in ("seed", "buffer_cap")]
_KIND_NAMES = {int: "an integer", float: "a number"}
# [output] key -> (ExperimentSpec field, allowed values or None for any)
_OUTPUT_KEYS = {"mode": ("mode", MODES), "format": ("out_format", FORMATS),
                "path": ("out_path", None)}
_INLINE_COMMENT = re.compile(r"\s[#;].*")   # a comment must follow whitespace

# Emission order; every column is documented in the README format reference.
COLUMNS = (
    "row", "scenario", "scheme", "K", "N", "p", "beta", "alpha", "M", "q", "R",
    "warmup_frames", "measure_frames", "replications", "master_seed", "seed",
    "status",
    "T", "T_ci95", "D", "D_ci95", "P_RD_hat", "P_RD_ci95",
    "P_SR_hat", "P_SR_ci95", "occupancy_hat", "occupancy_ci95", "undelivered",
    "pred_T", "pred_T_max", "pred_T_finite_K", "pred_D", "pred_P_RD",
    "pred_occupancy", "pred_delta", "pred_c", "pred_beta_opt", "pred_validity",
)

STATUS_OK = "ok"
STATUS_OVERFLOW = "buffer_overflow"
STATUS_NO_PREDICTION = "no_prediction"


class SpecError(ValueError):
    """Spec-file problem, anchored to the offending line."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class ExperimentSpec:
    template: SystemConfig
    sweep: tuple          # ((param, (values...)), ...) in declaration order
    mode: str = "both"
    out_format: str = "csv"
    out_path: str | None = None

    @property
    def n_points(self) -> int:
        return math.prod(len(values) for _, values in self.sweep)

    def configs(self) -> list:
        """The configuration of every sweep point, in sweep order, each with
        its row seed derived from the template's master seed."""
        axes = [[(name, value) for value in values] for name, values in self.sweep]
        master_seed = self.template.seed
        return [replace(self.template, **dict(combo), seed=_row_seed(master_seed, row))
                for row, combo in enumerate(itertools.product(*axes))]


def _convert(key: str, raw: str, line: int, kind: type):
    """raw as kind: int, float, or str as it is."""
    try:
        return kind(raw)
    except ValueError:
        raise SpecError(line, f"{key} expects {_KIND_NAMES[kind]}, got {raw!r}") from None


def _scan(text: str):
    """Yield (line_number, section, key, value) for every assignment."""
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = _INLINE_COMMENT.sub("", rawline).strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in ("system", "sweep", "output"):
                raise SpecError(lineno, f"unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise SpecError(lineno, f"expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        yield lineno, section, key.strip(), value.strip()


def parse_spec(text: str) -> ExperimentSpec:
    schema_version = None
    system: dict = {}
    sweep: list = []
    output: dict = {}
    max_points = DEFAULT_MAX_POINTS
    lines: dict = {}    # (section, key) -> the line that sets it, once
    for lineno, section, key, value in _scan(text):
        if (section, key) in lines:
            where = ("sweep axis" if section == "sweep" and key != "max_points"
                     else f"[{section}] key" if section else "key")
            raise SpecError(lineno, f"duplicate {where} {key!r}")
        lines[section, key] = lineno
        if section is None:
            if key != "schema_version":
                raise SpecError(lineno, f"unknown top-level key {key!r} "
                                        "(only schema_version precedes sections)")
            if value != str(SCHEMA_VERSION):
                raise SpecError(lineno, f"unsupported schema_version {value!r}, "
                                        f"this build reads {SCHEMA_VERSION}")
            schema_version = int(value)
        elif section == "system":
            if key not in _SYSTEM_KEYS:
                raise SpecError(lineno, f"unknown [system] key {key!r}")
            system[key] = _convert(key, value, lineno, _SYSTEM_KEYS[key])
        elif section == "sweep" and key == "max_points":
            max_points = _convert(key, value, lineno, int)
            if max_points < 1:
                raise SpecError(lineno, f"max_points must be >= 1, got {max_points}")
        elif section == "sweep":
            if key not in _SWEEPABLE:
                raise SpecError(lineno, f"{key!r} is not a sweepable parameter")
            values = tuple(_convert(key, item.strip(), lineno, _SYSTEM_KEYS[key])
                           for item in value.split(",") if item.strip())
            if not values:
                raise SpecError(lineno, f"sweep axis {key} has no values")
            sweep.append((key, values))
        else:
            if key not in _OUTPUT_KEYS:
                raise SpecError(lineno, f"unknown [output] key {key!r}")
            name, allowed = _OUTPUT_KEYS[key]
            if allowed and value not in allowed:
                raise SpecError(lineno, f"{key} must be one of {allowed}, got {value!r}")
            output[name] = value
    if schema_version is None:
        raise SpecError(None, "missing schema_version (expected before sections)")
    for required in _REQUIRED_KEYS:
        if required not in system:
            raise SpecError(None, f"[system] is missing required key {required!r}")
    try:
        template = SystemConfig(**system)
    except ValueError as exc:    # its message begins with the field it blames
        raise SpecError(lines.get(("system", str(exc).split()[0])), str(exc)) from None
    for key, values in sweep:
        for value in values:
            try:
                replace(template, **{key: value})
            except ValueError as exc:
                raise SpecError(lines["sweep", key], str(exc)) from None
    spec = ExperimentSpec(template=template, sweep=tuple(sweep), **output)
    if spec.n_points > max_points:
        raise SpecError(None, f"sweep has {spec.n_points} points, cap is {max_points}")
    try:
        spec.configs()
    except ValueError as exc:    # values valid alone, not together: the last axis
        raise SpecError(lines["sweep", sweep[-1][0]], str(exc)) from None
    return spec


def load_spec(path) -> ExperimentSpec:
    with open(path, encoding="utf-8") as handle:
        return parse_spec(handle.read())


def _row_seed(master_seed: int, row: int) -> int:
    return int(np.random.SeedSequence([master_seed, row]).generate_state(
        1, np.uint64)[0])


def _predict(cfg: SystemConfig) -> Prediction:
    if cfg.scenario == FIXED:
        if cfg.scheme == ODWF:
            return odwf_fixed_prediction(cfg.K, cfg.N, cfg.p, cfg.beta)
        return baseline_fixed_prediction(cfg.K, cfg.N, cfg.p)
    if cfg.scheme == ODWF:
        return odwf_mobile_prediction(cfg.K, cfg.N, cfg.alpha, cfg.beta, cfg.q)
    return baseline_mobile_prediction(cfg.K, cfg.N, cfg.alpha, cfg.M, cfg.q)


def _config_cells(row: int, cfg: SystemConfig, master_seed: int) -> dict:
    return {key: getattr(cfg, key) for key in _SYSTEM_KEYS if key in COLUMNS
            and (cfg.scenario == MOBILE or key not in ("alpha", "M", "q", "R"))} | {
        "row": row, "warmup_frames": cfg.warmup, "master_seed": master_seed,
        "status": STATUS_OK}


def _simulate_cells(cfg: SystemConfig) -> dict:
    try:
        summary = run_replicated(cfg)
    except BufferOverflowError:
        return {"status": STATUS_OVERFLOW}
    cells = {
        "T": summary.mean_throughput, "T_ci95": summary.throughput_ci95,
        "P_RD_hat": summary.p_rd_hat, "P_RD_ci95": summary.p_rd_ci95,
        "P_SR_hat": summary.p_sr_hat, "P_SR_ci95": summary.p_sr_ci95,
        "occupancy_hat": summary.occupancy,
        "occupancy_ci95": summary.occupancy_ci95,
        "undelivered": summary.undelivered_at_end,
    }
    if summary.mean_delay is not None:
        cells["D"] = summary.mean_delay
        cells["D_ci95"] = summary.delay_ci95
    return cells


def _prediction_cells(cfg: SystemConfig) -> dict:
    try:
        pred = _predict(cfg)
    except (ValueError, OverflowError):  # outside their domain, e.g. alpha < 2, q = 0
        return {"status": STATUS_NO_PREDICTION}
    cells = {
        "pred_T": pred.T, "pred_T_max": pred.T_max,
        "pred_T_finite_K": pred.T_finite_K, "pred_D": pred.D,
        "pred_P_RD": pred.P_RD, "pred_occupancy": pred.occupancy_alpha,
        "pred_delta": pred.delta, "pred_c": pred.c,
        "pred_beta_opt": pred.beta_opt,
    }
    cells = {k: v for k, v in cells.items() if v is not None}
    if not all(map(math.isfinite, cells.values())):    # past the float range
        return {"status": STATUS_NO_PREDICTION}
    if pred.validity:
        cells["pred_validity"] = "|".join(sorted(pred.validity))
    return cells


def run_experiment(spec: ExperimentSpec, progress=None) -> list:
    """One row dict per sweep point, in deterministic sweep order.

    A run that trips the buffer guard yields a row with status
    "buffer_overflow" and absent simulation columns, and a configuration the
    closed forms do not cover yields status "no_prediction" and absent
    prediction columns, instead of aborting the sweep; a row with both reads
    "buffer_overflow". Every row's configuration, warm-up included, is
    built when parse_spec checks the spec, so a row that cannot run is a spec
    error on its line before this is called. progress, if given, is called
    as progress(row_index, n_points) after each row.
    """
    cfgs = spec.configs()
    table = [_config_cells(row, cfg, spec.template.seed) for row, cfg in enumerate(cfgs)]
    for row, (cfg, cells) in enumerate(zip(cfgs, table)):
        if spec.mode in ("predict", "both"):
            cells.update(_prediction_cells(cfg))
        if spec.mode in ("simulate", "both"):
            cells.update(_simulate_cells(cfg))
        if progress is not None:
            progress(row, spec.n_points)
    return table


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"refusing to emit the non-finite float {value!r}")
        return repr(value)  # shortest round-trip decimal
    return str(value)


def emit(table: list, out_format: str, path: str | None) -> None:
    """Write the table as CSV or JSON-lines; path None or "-" means stdout.

    CSV carries every column of COLUMNS in order with absent values as empty
    fields; JSON-lines omits absent keys. Either format raises ValueError on
    a NaN or infinite float before anything is written; no row that
    run_experiment builds holds one.
    Floats are emitted as shortest round-trip decimals, so identical tables
    produce identical bytes. A file is written whole or left as it was (see
    _temp_sibling).
    """
    if not table:
        raise ValueError("refusing to emit an empty table")
    buffer = io.StringIO()
    if out_format == "csv":
        writer = csv.writer(buffer)
        writer.writerow(COLUMNS)
        for cells in table:
            writer.writerow([_cell_text(cells.get(col)) for col in COLUMNS])
    elif out_format == "jsonl":
        for cells in table:
            record = {col: cells[col] for col in COLUMNS if cells.get(col) is not None}
            buffer.write(json.dumps(record, allow_nan=False) + "\n")
    else:
        raise ValueError(f"unknown format {out_format!r}")
    if path is None or path == "-":
        sys.stdout.write(buffer.getvalue())
        return
    target, temp = _temp_sibling(path)
    try:
        with open(temp or target, "x" if temp else "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(buffer.getvalue())
        if temp:
            os.replace(temp, target)
    finally:
        if temp and os.path.exists(temp):    # only after a failure
            os.unlink(temp)


def _temp_sibling(path: str):
    """(target, temp): emit writes temp next to the file path resolves to,
    then renames it over that file, so a failure never leaves it truncated.
    temp is None when the target exists but is no regular file: a device or
    pipe such as /dev/null is written in place, never replaced."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        return target, None
    head, tail = os.path.split(target)
    return target, os.path.join(head, f".{tail}.{os.getpid()}.tmp")


def check_writable(path: str | None) -> None:
    """Raise OSError now if emit could not write path later."""
    if path is None or path == "-":
        return
    target, temp = _temp_sibling(path)
    if temp:
        open(temp, "x").close()
        os.unlink(temp)
    elif os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    elif not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
