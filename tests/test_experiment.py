"""Spec parsing, sweep expansion, row assembly, CSV/JSONL emission."""

import csv
import dataclasses
import io
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.engine import SystemConfig
from relaysim.experiment import (_OUTPUT_KEYS, _SYSTEM_KEYS, COLUMNS, STATUS_NO_PREDICTION,
                                 STATUS_OK, STATUS_OVERFLOW, ExperimentSpec, SpecError,
                                 _row_seed, emit, load_spec, parse_spec, run_experiment)

MINIMAL = """\
schema_version = 1
[system]
scenario = fixed
scheme = odwf
K = 50
N = 2
p = 1.0
beta = 8
"""


def test_parse_minimal_spec_defaults():
    spec = parse_spec(MINIMAL)
    cfg = spec.template
    assert (cfg.scenario, cfg.scheme, cfg.K, cfg.N) == ("fixed", "odwf", 50, 2)
    assert cfg.p == 1.0 and cfg.beta == 8.0
    assert spec.mode == "both" and spec.out_format == "csv"
    assert spec.out_path is None
    assert spec.sweep == () and spec.n_points == 1


def test_parse_full_spec_with_sweep_and_output():
    spec = parse_spec(MINIMAL + """
[sweep]
beta = 8, 16, 32
K = 50, 100
[output]
mode = predict
format = jsonl
path = out.jsonl
""")
    assert spec.sweep == (("beta", (8.0, 16.0, 32.0)), ("K", (50, 100)))
    assert spec.n_points == 6
    assert spec.mode == "predict" and spec.out_format == "jsonl"
    assert spec.out_path == "out.jsonl"


def test_parse_accepts_comments_and_blank_lines():
    spec = parse_spec(MINIMAL.replace("[system]", "# a comment\n\n[system]\n; more"))
    assert spec.template.K == 50


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("schema_version = 1\n", ""), "missing schema_version"),
    (lambda t: t.replace("= 1", "= 9", 1), "unsupported schema_version"),
    (lambda t: "answer = 42\n" + t, "unknown top-level key"),
    (lambda t: t + "[extras]\n", "unknown section"),
    (lambda t: t + "just words\n", "expected key = value"),
    (lambda t: t + "frobnicate = 3\n", "unknown [system] key"),
    (lambda t: t + "K = 60\n", "duplicate [system] key"),
    (lambda t: t.replace("K = 50", "K = fifty"), "K expects an integer"),
    (lambda t: t.replace("p = 1.0", "p = one"), "p expects a number"),
    (lambda t: t + "[sweep]\nscenario = fixed, mobile\n", "not a sweepable"),
    (lambda t: t + "[sweep]\nbeta = 1, 2\nbeta = 3\n", "duplicate sweep axis"),
    (lambda t: t + "[sweep]\nbeta = ,\n", "has no values"),
    (lambda t: t + "[sweep]\nmax_points = many\n", "max_points expects"),
    (lambda t: t + "[output]\nmode = guess\n", "mode must be one of"),
    (lambda t: t + "[output]\nformat = xml\n", "format must be one of"),
    (lambda t: t + "[output]\ncompression = zip\n", "unknown [output] key"),
])
def test_parse_rejects_bad_specs(mangle, needle):
    with pytest.raises(SpecError) as err:
        parse_spec(mangle(MINIMAL))
    assert needle in str(err.value)


@pytest.mark.parametrize("text,needle", [
    ("schema_version = 1\n" + MINIMAL, "duplicate key 'schema_version'"),
    (MINIMAL + "[output]\nmode = simulate\nmode = predict\n",
     "duplicate [output] key 'mode'"),
    (MINIMAL + "[output]\nformat = csv\nformat = jsonl\n",
     "duplicate [output] key 'format'"),
    (MINIMAL + "[output]\npath = a.csv\npath = b.csv\n",
     "duplicate [output] key 'path'"),
    (MINIMAL + "[sweep]\nmax_points = 5\nmax_points = 6\n",
     "duplicate [sweep] key 'max_points'"),
    (MINIMAL + "[sweep]\nmax_points = 0\nbeta = 1\n", "max_points must be >= 1, got 0"),
], ids=["schema_version", "mode", "format", "path", "max_points", "zero_cap"])
def test_parse_anchors_repeated_keys_and_a_bad_cap_to_their_line(text, needle):
    # the last assignment of the key is the offending line
    key = needle.split("'")[1] if "'" in needle else "max_points"
    lines = text.splitlines()
    lineno = max(i for i, line in enumerate(lines, 1) if line.startswith(key))
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert err.value.line == lineno
    assert str(err.value) == f"line {lineno}: {needle}"


def test_parse_missing_required_key():
    with pytest.raises(SpecError, match="missing required key 'beta'"):
        parse_spec(MINIMAL.replace("beta = 8\n", ""))


def test_parse_anchors_config_violations_to_their_line():
    bad = MINIMAL + "q = 0.7\n"
    lineno = bad.splitlines().index("q = 0.7") + 1
    with pytest.raises(SpecError) as err:
        parse_spec(bad)
    assert err.value.line == lineno
    assert str(err.value) == f"line {lineno}: q must be in [0, 1/2], got 0.7"


def test_parse_rejects_non_finite_system_values():
    bad = MINIMAL.replace("beta = 8", "beta = nan")
    lineno = bad.splitlines().index("beta = nan") + 1
    with pytest.raises(SpecError) as err:
        parse_spec(bad)
    assert str(err.value) == f"line {lineno}: beta must be finite, got nan"


def test_parse_anchors_bad_sweep_values_to_the_axis_line():
    bad = MINIMAL + "[sweep]\nK = 50, 60\nbeta = 10, inf\n"
    lineno = bad.splitlines().index("beta = 10, inf") + 1
    with pytest.raises(SpecError) as err:
        parse_spec(bad)
    assert err.value.line == lineno
    assert str(err.value) == f"line {lineno}: beta must be finite, got inf"
    with pytest.raises(SpecError, match=r"^line \d+: N must be >= 1, got 0$"):
        parse_spec(MINIMAL + "[sweep]\nN = 2, 0\n")


def test_parse_anchors_an_overflowing_fixed_rate_to_p_or_the_axis_line():
    # log2(1 + p ln beta) is inf, so the row would read T = inf, T_ci95 = nan
    bad = MINIMAL.replace("p = 1.0", "p = 1e308").replace("beta = 8", "beta = 10")
    lineno = bad.splitlines().index("p = 1e308") + 1
    with pytest.raises(SpecError, match=r"^line \d+: p = 1e\+308 overflows the rate") as err:
        parse_spec(bad)
    assert err.value.line == lineno
    swept = MINIMAL.replace("p = 1.0", "p = 1e306") + "[sweep]\nbeta = 8, 1e300\n"
    with pytest.raises(SpecError, match=r"^line \d+: p = ") as err:
        parse_spec(swept)
    assert err.value.line == swept.splitlines().index("beta = 8, 1e300") + 1


def test_parse_anchors_a_bad_combination_of_sweep_values_to_an_axis_line():
    # p = 1e307 and beta = 1e300 each pass alone, but their rate overflows:
    # the point fails on the line of the last axis, before any row runs
    # (the warm-up is pinned, or beta = 1e300 alone would overflow it)
    bad = MINIMAL + "warmup_frames = 100\n[sweep]\np = 1, 1e307\nbeta = 4, 1e300\n"
    lineno = bad.splitlines().index("beta = 4, 1e300") + 1
    with pytest.raises(SpecError, match=r"^line \d+: p = 1e\+307 overflows the rate") as err:
        parse_spec(bad)
    assert err.value.line == lineno
    parse_spec(bad.replace("1e307", "1e305"))


_VALID = dict(scenario="fixed", scheme="odwf", K=50, N=2, p=1.0, beta=8.0,
              alpha=4.0, M=5, q=0.1, R=1.0, measure_frames=100,
              replications=1, seed=0, buffer_cap=1000)


@pytest.mark.parametrize("key,changes", [
    ("scenario", dict(scenario="fxied")), ("scheme", dict(scheme="dwf")),
    *[(key, {key: "nan"}) for key in ("p", "beta", "alpha", "q", "R")],
    ("K", dict(K=0)), ("N", dict(N=0)), ("p", dict(p=0.0)), ("beta", dict(beta=0.5)),
    ("p", dict(p=1e308, beta=10.0)), ("M", dict(M=1)), ("q", dict(q=0.7)),
    ("alpha", dict(scenario="mobile", alpha=-1.0)),
    ("R", dict(scenario="mobile", R=1e-320)),
    ("warmup_frames", dict(warmup_frames=-1)), ("measure_frames", dict(measure_frames=0)),
    ("replications", dict(replications=0)), ("seed", dict(seed=-1)),
    ("buffer_cap", dict(buffer_cap=0)),
    ("beta", dict(beta=1e200)),
    ("beta", dict(scenario="mobile", beta=1e200, alpha=0.5)),
    ("q", dict(scenario="mobile", q=5e-324)),
    # past int64, where numpy draws fail and a mobile rate N log2(beta)
    # cannot convert N to float
    pytest.param("K", dict(K=10**400), id="K-1e400"),
    pytest.param("K", dict(K=2**63), id="K-2**63"),
    # past the mobile walk's exact range
    pytest.param("K", dict(scenario="mobile", K=2**52 + 1), id="mobile-K-2**52+1"),
    pytest.param("N", dict(scenario="mobile", N=10**400), id="mobile-N-1e400"),
], ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v.values())))
def test_every_config_violation_names_the_field_parse_spec_blames(key, changes):
    # parse_spec anchors a SystemConfig error to the line of the field its
    # message begins with: every check in SystemConfig, the default warm-up
    # included, must begin with the field it blames
    lines = ["schema_version = 1", "[system]"] + [
        f"{name} = {value}" for name, value in {**_VALID, **changes}.items()]
    with pytest.raises(SpecError) as err:
        parse_spec("\n".join(lines) + "\n")
    assert str(err.value).startswith(f"line {err.value.line}: {key} ")
    assert lines[err.value.line - 1].startswith(f"{key} = ")


@pytest.mark.parametrize("template_beta", ["4", "400"])
def test_swept_rows_resolve_their_own_default_warmup(template_beta):
    # the template's warm-up is never carried into a row: each beta gets the
    # default of its own delay scale, 10 * ceil(2 c beta^2 / K) floored at 1000
    text = (MINIMAL.replace("K = 50", "K = 100").replace("N = 2", "N = 1")
            .replace("beta = 8", f"beta = {template_beta}")
            + "[sweep]\nbeta = 4, 400\n[output]\nmode = predict\n")
    table = run_experiment(parse_spec(text))
    assert [cells["warmup_frames"] for cells in table] == [1000, 22_190]


def test_swept_rows_carry_their_own_rate():
    # a row's rate follows its own beta and N: log2(1 + p ln beta) for fixed
    # relays, N log2(beta) for mobile ones
    fixed = parse_spec(MINIMAL.replace("p = 1.0", "p = 3.0") + "[sweep]\nbeta = 4, 400\n")
    assert [cfg.rate for cfg in fixed.configs()] == [
        math.log2(1.0 + 3.0 * math.log(beta)) for beta in (4.0, 400.0)]
    mobile = parse_spec(MINIMAL.replace("scenario = fixed", "scenario = mobile")
                        + "[sweep]\nN = 1, 3\nbeta = 4, 400\n")
    assert [cfg.rate for cfg in mobile.configs()] == [
        N * math.log2(beta) for N in (1, 3) for beta in (4.0, 400.0)]


def test_parse_strips_inline_comments_after_whitespace():
    spec = parse_spec(MINIMAL.replace("K = 50", "K = 50    # relays")
                      .replace("[system]", "[system]  ; section")
                      + "[sweep]\nbeta = 8, 16 # two points\n"
                      + "[output]\npath = a#b;c.csv\n")
    assert spec.template.K == 50
    assert spec.sweep == (("beta", (8.0, 16.0)),)
    assert spec.out_path == "a#b;c.csv"    # no whitespace, so not a comment


def readme_spec_block() -> str:
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return re.search(r"```ini\n(.*?)```", readme.read_text(encoding="utf-8"),
                     re.DOTALL).group(1)


def test_readme_spec_example_parses():
    spec = parse_spec(readme_spec_block())
    assert (spec.template.scenario, spec.template.K, spec.template.beta) == (
        "fixed", 10000, 2000.0)
    assert spec.sweep == (("beta", (500.0, 1000.0, 2000.0)), ("K", (1000, 10000)))
    assert spec.mode == "both" and spec.out_path == "results.csv"


def test_readme_spec_example_names_every_key_the_parser_accepts():
    # the reference block keeps up with the parser: a new key must be shown
    block = readme_spec_block()
    assert parse_spec(block).n_points == 6
    accepted = ["schema_version", *_SYSTEM_KEYS, "max_points", *_OUTPUT_KEYS]
    assert [key for key in accepted if not re.search(rf"\b{key}\b", block)] == []


def test_a_spec_setting_every_config_field_parses_to_that_config():
    values = {"scenario": "mobile", "scheme": "baseline", "K": 60, "N": 3, "p": 2.5,
              "beta": 16.0, "alpha": 3.0, "M": 4, "q": 0.2, "R": 0.5,
              "warmup_frames": 7, "measure_frames": 9, "replications": 2, "seed": 11,
              "buffer_cap": 500}
    assert list(values) == [f.name for f in dataclasses.fields(SystemConfig) if f.init]
    template = parse_spec("schema_version = 1\n[system]\n" + "".join(
        f"{key} = {value}\n" for key, value in values.items())).template
    assert template == SystemConfig(**values)
    # == takes 16 for 16.0, so the kinds are compared apart
    assert [type(getattr(template, key)) for key in values] == list(map(type, values.values()))


def test_parse_enforces_point_cap():
    text = MINIMAL + "[sweep]\nmax_points = 5\nbeta = 1, 2, 3, 4, 5, 6\n"
    with pytest.raises(SpecError, match="sweep has 6 points, cap is 5"):
        parse_spec(text)
    parse_spec(text.replace("max_points = 5", "max_points = 6"))


# every key the parser reads, so a new one is fuzzed too, and one it does not
_SPEC_KEYS = ("schema_version", *_SYSTEM_KEYS, "max_points", *_OUTPUT_KEYS, "bogus")
_SPEC_VALUES = st.one_of(
    st.sampled_from(("1", "0", "-1", "2.5", "1e400", "nan", "-inf", "", "fixed",
                     "mobile", "odwf", "baseline", "both", "jsonl", "4, 8",
                     "1,,2", "3 # note", "1_000", "0x10", "10**3")),
    st.integers(-10**25, 10**25).map(str),
    st.floats().map(repr),
    st.text(max_size=12))
_SPEC_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_SPEC_KEYS), _SPEC_VALUES),
    st.sampled_from(("[system]", "[sweep]", "[output]", "[other]", "[]", "[",
                     "# comment", "; comment", "", "=", "schema_version = 1")),
    st.text(max_size=24))


def _parses_or_says_why(text):
    try:
        spec = parse_spec(text)
    except SpecError as exc:
        assert str(exc)
        return
    # every point run_experiment builds, each with a resolved warm-up
    assert all(cfg.warmup >= 0 for cfg in spec.configs())


@settings(max_examples=200, deadline=None)
@given(st.lists(_SPEC_LINES, max_size=16))
def test_parse_spec_fuzzed_lines_parse_or_raise_spec_errors(lines):
    _parses_or_says_why("\n".join(lines))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), _SPEC_LINES), max_size=6),
       st.sets(st.integers(0, 20), max_size=3))
def test_parse_spec_mutated_valid_spec_parses_or_raises_spec_errors(inserts, drops):
    # a valid spec with lines inserted and dropped reaches the later checks
    lines = (MINIMAL + "[sweep]\nbeta = 4, 8\n[output]\nmode = both\n").splitlines()
    lines = [line for i, line in enumerate(lines) if i not in drops]
    for pos, line in inserts:
        lines.insert(pos, line)
    _parses_or_says_why("\n".join(lines))


def test_load_spec_reads_files(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_spec(path).template.K == 50
    with pytest.raises(OSError):
        load_spec(tmp_path / "absent.ini")


def test_row_seed_is_stable_and_distinct():
    seeds = [_row_seed(123, row) for row in range(50)]
    assert seeds == [_row_seed(123, row) for row in range(50)]
    assert len(set(seeds)) == 50
    assert all(0 <= s < 2**64 for s in seeds)
    assert _row_seed(124, 0) != seeds[0]


def predict_spec(extra=""):
    return parse_spec(MINIMAL + "[sweep]\nbeta = 8, 16, 32\n"
                      "[output]\nmode = predict\n" + extra)


def test_run_experiment_predict_rows():
    table = run_experiment(predict_spec())
    assert [r["row"] for r in table] == [0, 1, 2]
    assert [r["beta"] for r in table] == [8.0, 16.0, 32.0]
    for row, cells in enumerate(table):
        assert cells["status"] == STATUS_OK
        assert cells["master_seed"] == 0
        assert cells["seed"] == _row_seed(0, row)
        assert cells["pred_T"] > 0 and cells["pred_delta"] > 0
        assert "T" not in cells and "D" not in cells      # predict mode
        assert "alpha" not in cells                        # fixed scenario
        assert cells["warmup_frames"] >= 1000


def test_run_experiment_sweep_order_last_axis_fastest():
    spec = parse_spec(MINIMAL + "[sweep]\nK = 50, 100\nbeta = 8, 16\n"
                      "[output]\nmode = predict\n")
    combos = [(r["K"], r["beta"]) for r in run_experiment(spec)]
    assert combos == [(50, 8.0), (50, 16.0), (100, 8.0), (100, 16.0)]


def test_run_experiment_progress_callback():
    calls = []
    run_experiment(predict_spec(), progress=lambda i, n: calls.append((i, n)))
    assert calls == [(0, 3), (1, 3), (2, 3)]


SIM_SMALL = """\
schema_version = 1
[system]
scenario = fixed
scheme = odwf
K = 100
N = 1
p = 1.0
beta = 4
warmup_frames = 50
measure_frames = 300
seed = 11
"""


def test_run_experiment_both_mode_rows():
    table = run_experiment(parse_spec(SIM_SMALL))
    assert len(table) == 1
    cells = table[0]
    assert cells["status"] == STATUS_OK
    assert cells["T"] > 0 and cells["T_ci95"] == 0.0
    assert cells["D"] >= 1.0
    assert 0.0 <= cells["P_RD_hat"] <= 1.0
    assert cells["pred_T"] > 0
    assert cells["measure_frames"] == 300 and cells["warmup_frames"] == 50


def test_run_experiment_mobile_rows_carry_geometry():
    text = SIM_SMALL.replace("scenario = fixed", "scenario = mobile")
    table = run_experiment(parse_spec(text + "[output]\nmode = predict\n"))
    cells = table[0]
    assert (cells["alpha"], cells["M"], cells["q"], cells["R"]) == (4.0, 5, 0.1, 1.0)
    assert cells["pred_validity"] == "orderwise_only"


def test_run_experiment_overflow_yields_marked_row():
    text = """\
schema_version = 1
[system]
scenario = fixed
scheme = odwf
K = 2
N = 2
p = 1.0
beta = 8
buffer_cap = 3
warmup_frames = 0
measure_frames = 4000
[sweep]
beta = 8, 1
"""
    table = run_experiment(parse_spec(text))
    assert table[0]["status"] == STATUS_OVERFLOW
    assert "T" not in table[0] and "D" not in table[0]
    assert table[0]["pred_T"] > 0            # predictions still computed
    assert table[1]["status"] == STATUS_OK   # beta=1 drains instantly
    assert table[1]["T"] == 0.0              # rate log2(1+p*ln 1) is zero


@pytest.mark.parametrize("axis", ["alpha = 4.0, 1.5", "q = 0.1, 0"])
def test_run_experiment_row_outside_the_closed_forms_keeps_the_sweep(axis):
    # the mobile closed forms need alpha >= 2 and q > 0; the simulation
    # does not, so the second row is simulated and marked, not fatal
    text = SIM_SMALL.replace("scenario = fixed", "scenario = mobile")
    table = run_experiment(parse_spec(text + f"[sweep]\n{axis}\n"))
    assert [cells["status"] for cells in table] == [STATUS_OK, STATUS_NO_PREDICTION]
    assert table[0]["pred_T"] > 0
    assert not any(key.startswith("pred_") for key in table[1])
    assert all(cells["T"] >= 0.0 and "P_RD_hat" in cells for cells in table)
    predicted = run_experiment(parse_spec(
        text + f"[sweep]\n{axis}\n[output]\nmode = predict\n"))
    assert predicted[1]["status"] == STATUS_NO_PREDICTION


def test_run_experiment_is_deterministic():
    spec = parse_spec(SIM_SMALL)
    assert run_experiment(spec) == run_experiment(spec)


def test_emit_csv_round_trips(tmp_path):
    table = run_experiment(parse_spec(SIM_SMALL))
    path = tmp_path / "out.csv"
    emit(table, "csv", str(path))
    raw = path.read_bytes()
    assert b"\r\n" in raw
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    assert rows[0] == list(COLUMNS)
    assert len(rows) == 1 + len(table)
    record = dict(zip(rows[0], rows[1]))
    assert record["scenario"] == "fixed"
    assert record["alpha"] == ""                   # absent cell, empty field
    assert float(record["T"]) == table[0]["T"]     # repr round-trips
    assert int(record["seed"]) == table[0]["seed"]


def test_emit_jsonl_omits_absent_keys(tmp_path):
    table = run_experiment(predict_spec())
    path = tmp_path / "out.jsonl"
    emit(table, "jsonl", str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for line, cells in zip(lines, table):
        record = json.loads(line)
        assert "T" not in record and "alpha" not in record
        assert record["pred_T"] == cells["pred_T"]
        assert list(record) == [c for c in COLUMNS if c in record]


@pytest.mark.parametrize("out_format, message", [("jsonl", "not JSON compliant"),
                                                  ("csv", "non-finite float")])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_emit_refuses_a_non_finite_cell_and_writes_nothing(tmp_path, capsys, bad,
                                                           out_format, message):
    # no row run_experiment builds holds one, and JSON has no token for it,
    # so a library caller's table with one fails before anything is written
    table = run_experiment(predict_spec())
    table[1]["pred_T"] = bad
    path = tmp_path / f"out.{out_format}"
    path.write_bytes(b"earlier\n")
    with pytest.raises(ValueError, match=message):
        emit(table, out_format, str(path))
    assert path.read_bytes() == b"earlier\n"
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]
    with pytest.raises(ValueError, match=message):
        emit(table, out_format, None)
    assert capsys.readouterr().out == ""


def test_emit_bytes_identical_across_calls(tmp_path):
    spec = parse_spec(SIM_SMALL)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        emit(run_experiment(spec), "csv", str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_emit_rejects_empty_table_and_bad_format(tmp_path):
    with pytest.raises(ValueError, match="empty table"):
        emit([], "csv", str(tmp_path / "x.csv"))
    with pytest.raises(ValueError, match="unknown format"):
        emit([{"row": 0}], "tsv", str(tmp_path / "x.tsv"))


def test_emit_stdout_when_no_path(capsys):
    emit(run_experiment(predict_spec()), "csv", None)
    out = capsys.readouterr().out
    assert out.startswith(",".join(COLUMNS[:3]))
    assert len(out.splitlines()) == 4
