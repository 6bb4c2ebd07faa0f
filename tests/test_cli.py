"""End-to-end command line behavior: exit codes, overrides, presets."""

import csv
import io
import json
import os
import pathlib

import pytest

import relaysim
from relaysim.cli import PRESETS, load_preset, main
from relaysim.experiment import COLUMNS, _temp_sibling

SPEC = """\
schema_version = 1
[system]
scenario = fixed
scheme = odwf
K = 100
N = 1
p = 1.0
beta = 4
warmup_frames = 50
measure_frames = 200
seed = 3
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SPEC, encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_simulate_writes_csv(spec_file, tmp_path, capsys):
    out = tmp_path / "res.csv"
    assert main(["simulate", "--spec", str(spec_file), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == list(COLUMNS)
    record = dict(zip(rows[0], rows[1]))
    assert float(record["T"]) > 0
    assert record["pred_T"] == ""          # simulate mode: no predictions
    err = capsys.readouterr().err
    assert "1 rows in" in err and "s" in err


class Terminal(io.StringIO):
    def isatty(self):
        return True


def test_progress_goes_to_a_terminal_only(spec_file, tmp_path, capsys, monkeypatch):
    spec_file.write_text(SPEC + "[sweep]\nbeta = 4, 8, 16\n", encoding="utf-8")
    argv = ["sweep", "--spec", str(spec_file)]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert "row 1/3" not in plain.err
    terminal = Terminal()
    monkeypatch.setattr("sys.stderr", terminal)
    assert main(argv) == 0
    assert capsys.readouterr().out == plain.out
    err = terminal.getvalue()
    assert err.startswith("\rrelaysim: row 1/3\rrelaysim: row 2/3\rrelaysim: row 3/3\n")
    assert err.splitlines()[-1].startswith("relaysim: 3 rows in ")
    assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    monkeypatch.undo()
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_predict_skips_simulation_columns(spec_file, tmp_path):
    out = tmp_path / "res.csv"
    assert main(["predict", "--spec", str(spec_file), "--out", str(out)]) == 0
    record = dict(zip(*read_csv(out)[:2]))
    assert record["T"] == "" and record["pred_T"] != ""


def test_sweep_runs_spec_mode_both(spec_file, tmp_path):
    out = tmp_path / "res.csv"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out)]) == 0
    record = dict(zip(*read_csv(out)[:2]))
    assert record["T"] != "" and record["pred_T"] != ""


def test_sweep_runs_a_mobile_row_whose_coverage_vanishes(tmp_path):
    # at beta = 1e80 no strip has a coverage probability above 0: the row
    # idles and reports no delay instead of aborting the sweep
    spec = tmp_path / "mobile.ini"
    spec.write_text(SPEC.replace("scenario = fixed", "scenario = mobile")
                    + "alpha = 4\n[sweep]\nbeta = 16, 1e80\n", encoding="utf-8")
    out = tmp_path / "res.csv"
    assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
    header, first, second = read_csv(out)
    first, second = dict(zip(header, first)), dict(zip(header, second))
    assert first["status"] == second["status"] == "ok"
    assert float(first["T"]) > 0 and first["D"] != ""
    assert float(second["T"]) == 0.0 and second["D"] == ""


@pytest.mark.parametrize("scheme", ["odwf", "baseline"])
@pytest.mark.parametrize("axes", ["R = 1e200, 1e-200", "p = 1e300\nalpha = 0.5"],
                         ids=["R", "radius"])
def test_sweep_runs_mobile_rows_outside_the_float_range(tmp_path, scheme, axes):
    # the coverage laws see R only through (coverage radius)/R: at R = 1e200
    # no relay is ever covered, and at R = 1e-200, or where the radius
    # (p/beta)^(1/alpha) overflows, every relay is in both disks, so source
    # and relay frames alternate: T = rate/2 = 1 and D = 1 exactly
    spec = tmp_path / "mobile.ini"
    spec.write_text(SPEC.replace("scenario = fixed", "scenario = mobile")
                    .replace("scheme = odwf", f"scheme = {scheme}")
                    + f"replications = 2\n[sweep]\n{axes}\n", encoding="utf-8")
    out = tmp_path / "res.csv"
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    header, *rows = read_csv(out)
    rows = [dict(zip(header, row)) for row in rows]
    assert all(row["status"] == "ok" and "nan" not in row.values()
               and "inf" not in row.values() for row in rows)
    *vanishing, full = rows
    assert [(float(row["T"]), row["D"]) for row in vanishing] == [(0.0, "")] * len(vanishing)
    assert (float(full["T"]), float(full["D"]), float(full["T_ci95"])) == (1.0, 1.0, 0.0)


def test_sweep_past_the_float_range_fails_before_any_row(tmp_path, capsys):
    # beta^2 of the default warm-up overflows at beta = 1e200: parsing the
    # spec fails on the beta axis line, naming warmup_frames, and writes nothing
    spec = tmp_path / "exp.ini"
    text = SPEC.replace("warmup_frames = 50\n", "") + "[sweep]\nbeta = 10, 1e200\n"
    spec.write_text(text, encoding="utf-8")
    lineno = text.splitlines().index("beta = 10, 1e200") + 1
    out = tmp_path / "res.csv"
    assert main(["predict", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: spec: line {lineno}: beta ")
    assert err[0].endswith("set warmup_frames")
    assert sorted(os.listdir(tmp_path)) == ["exp.ini"]


def test_relay_count_past_int64_fails_on_its_line(tmp_path, capsys):
    # K = 2**63 would overflow numpy's int64 draws: a spec error on the K
    # line, before any row runs, and nothing written
    spec = tmp_path / "exp.ini"
    text = SPEC.replace("K = 100", f"K = {2**63}")
    spec.write_text(text, encoding="utf-8")
    lineno = text.splitlines().index(f"K = {2**63}") + 1
    out = tmp_path / "res.csv"
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: spec: line {lineno}: K must be < 2**63, got {2**63}"]
    assert sorted(os.listdir(tmp_path)) == ["exp.ini"]


@pytest.mark.parametrize("scenario", ["fixed", "mobile"])
def test_prediction_past_the_float_range_reads_no_prediction(tmp_path, scenario):
    # with the warm-up pinned, the closed forms overflow at beta = 1e200
    # (beta^2, and beta^(4/alpha) at alpha = 2): that row has no prediction
    spec = tmp_path / "exp.ini"
    spec.write_text(SPEC.replace("scenario = fixed", f"scenario = {scenario}")
                    + "alpha = 2\n[sweep]\nbeta = 10, 1e200\n", encoding="utf-8")
    out = tmp_path / "res.csv"
    assert main(["predict", "--spec", str(spec), "--out", str(out)]) == 0
    header, first, second = read_csv(out)
    first, second = dict(zip(header, first)), dict(zip(header, second))
    assert first["status"] == "ok" and float(first["pred_T"]) > 0
    assert second["status"] == "no_prediction" and second["pred_T"] == ""


def test_prediction_that_underflows_reads_no_prediction(tmp_path):
    # the mobile baseline's bounded-regime delay 1/(K q^(M-1)) divides by
    # zero once q^(M-1) underflows: that row has no prediction, the sweep
    # keeps its other rows
    mobile = (SPEC.replace("scenario = fixed", "scenario = mobile")
              .replace("scheme = odwf", "scheme = baseline"))
    rows = {}
    for axis in ("0.05", "0.05, 1e-100"):
        spec = tmp_path / "exp.ini"
        spec.write_text(mobile + f"[sweep]\nq = {axis}\n", encoding="utf-8")
        out = tmp_path / "res.csv"
        assert main(["predict", "--spec", str(spec), "--out", str(out)]) == 0
        rows[axis] = read_csv(out)
    header, first, second = rows["0.05, 1e-100"]
    assert rows["0.05"] == [header, first]    # the first row is intact
    first, second = dict(zip(header, first)), dict(zip(header, second))
    assert first["status"] == "ok" and float(first["pred_D"]) > 0
    assert second["status"] == "no_prediction" and second["q"] == "1e-100"
    assert all(second[col] == "" for col in header if col.startswith("pred_"))


@pytest.mark.parametrize("scheme", ["odwf", "baseline"])
def test_prediction_that_comes_out_infinite_reads_no_prediction(tmp_path, scheme):
    # at p = 1e308 the rate at beta = 4 is finite, but p ln K at the best
    # threshold (beta = K for ODWF, sqrt(K) for the baseline) is not:
    # pred_T_max, and the baseline's pred_T, come out inf
    spec = tmp_path / "exp.ini"
    spec.write_text(SPEC.replace("scheme = odwf", f"scheme = {scheme}")
                    .replace("p = 1.0", "p = 1e308"), encoding="utf-8")
    out = tmp_path / "res.csv"
    assert main(["predict", "--spec", str(spec), "--out", str(out)]) == 0
    header, row = read_csv(out)
    record = dict(zip(header, row))
    assert record["status"] == "no_prediction"
    assert all(record[col] == "" for col in header if col.startswith("pred_"))


def test_seed_and_format_overrides(spec_file, tmp_path):
    out = tmp_path / "res.jsonl"
    code = main(["predict", "--spec", str(spec_file), "--seed", "99",
                 "--out", str(out), "--format", "jsonl"])
    assert code == 0
    record = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert record["master_seed"] == 99
    assert "T" not in record


def test_stdout_is_the_default_sink(spec_file, capsys):
    assert main(["predict", "--spec", str(spec_file)]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == list(COLUMNS) and len(rows) == 2


def test_bad_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(SPEC + "q = 0.7\n", encoding="utf-8")
    assert main(["simulate", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: spec: line")
    assert "q must be in [0, 1/2]" in err


def test_bad_seed_override_exits_2(spec_file, capsys):
    assert main(["predict", "--spec", str(spec_file), "--seed", "-1"]) == 2
    assert "error: spec: seed must be >= 0" in capsys.readouterr().err


def test_missing_spec_file_exits_3(tmp_path, capsys):
    assert main(["simulate", "--spec", str(tmp_path / "nope.ini")]) == 3
    assert capsys.readouterr().err.startswith("error: io:")


def test_unwritable_output_exits_3(spec_file, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "res.csv"
    assert main(["predict", "--spec", str(spec_file),
                 "--out", str(target)]) == 3
    # the failure is the last line on stderr
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: io:")


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_output_fails_before_simulating(spec_file, tmp_path, capsys,
                                                   monkeypatch, where):
    rows = []
    monkeypatch.setattr("relaysim.cli.run_experiment",
                        lambda spec: rows.append(spec) or [])
    target = tmp_path / "no" / "res.csv" if where == "missing_dir" else tmp_path
    assert main(["simulate", "--spec", str(spec_file), "--out", str(target)]) == 3
    assert rows == []
    assert capsys.readouterr().err.startswith("error: io:")


def test_failed_write_leaves_the_old_output_intact(spec_file, tmp_path,
                                                   monkeypatch):
    out = tmp_path / "res.csv"
    out.write_bytes(b"row,T\n0,1.5\n")

    def fail(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("relaysim.experiment.os.replace", fail)
    assert main(["predict", "--spec", str(spec_file), "--out", str(out)]) == 3
    assert out.read_bytes() == b"row,T\n0,1.5\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "res.csv"]


def test_output_through_a_rename_keeps_the_bytes(spec_file, tmp_path, capsys):
    out = tmp_path / "res.csv"
    out.write_text("stale and longer than the new table\n" * 100, encoding="utf-8")
    assert main(["predict", "--spec", str(spec_file), "--out", str(out)]) == 0
    assert main(["predict", "--spec", str(spec_file)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "res.csv"]


def test_devices_are_written_in_place():
    # a device cannot be renamed over, so its path takes no temporary file
    assert _temp_sibling(os.devnull) == (os.path.realpath(os.devnull), None)


def test_spec_and_preset_are_mutually_exclusive(spec_file, capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--spec", str(spec_file), "--preset", PRESETS[0]])
    with pytest.raises(SystemExit):
        main(["simulate"])


def test_presets_load_and_predict(tmp_path):
    for name in PRESETS:
        spec = load_preset(name)
        assert spec.n_points >= 4
        out = tmp_path / f"{name}.csv"
        assert main(["predict", "--preset", name, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + spec.n_points
        for row in rows[1:]:
            record = dict(zip(rows[0], row))
            assert record["pred_T"] != "" and record["status"] == "ok"


def test_presets_are_the_bundled_spec_files():
    bundled = pathlib.Path(relaysim.__file__).resolve().parent / "presets"
    assert PRESETS == tuple(sorted(path.stem for path in bundled.glob("*.ini")))
    assert {"fig-fixed-tradeoff", "fig-mobile-tradeoff"} <= set(PRESETS)
    for name in PRESETS:
        assert load_preset(name).n_points >= 1


def test_preset_predict_is_byte_deterministic(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(["predict", "--preset", PRESETS[0],
                     "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
