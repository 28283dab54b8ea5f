"""End-to-end tests for the command-line runner (in-process, apart from the
fresh-interpreter checks of which modules load)."""

import argparse
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import varlp
from varlp import cli
from varlp.cli import _EXAMPLES, main
from varlp.norms import compile_set

TWO_PIECE = {
    "dimension": 1,
    "domain": [[0.0, 2.0]],
    "pieces": [
        {"box": [[0.0, 1.0]], "kind": "constant", "value": 1.0},
        {"box": [[1.0, 2.0]], "kind": "constant", "value": 2.0},
    ],
}

CONSTANT_TWO = {
    "dimension": 1,
    "domain": [[-1.0, 1.0]],
    "pieces": [{"box": [[-1.0, 1.0]], "kind": "constant", "value": 2.0}],
}

INF_PIECE = {
    "dimension": 1,
    "domain": [[0.0, 2.0]],
    "pieces": [
        {"box": [[0.0, 1.0]], "kind": "constant", "value": "inf"},
        {"box": [[1.0, 2.0]], "kind": "constant", "value": 2.0},
    ],
}


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_norm_interval_route_golden_ratio(tmp_path, capsys):
    spec = write_spec(tmp_path, TWO_PIECE)
    out = tmp_path / "run"
    code = main(["norm", "--spec", spec, "--box", "0,2", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert printed == "%.7f" % golden, f"stdout was {printed!r}"
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "quantity,value"
    assert lines[1].startswith("norm,")
    assert float(lines[1].split(",")[1]) == pytest.approx(golden, rel=1e-8)
    assert (out / "summary.txt").read_text() == (
        "norm = 1.61803399\n"
        "route = interval\n"
        "seed = 0\n"
        "pairing constant K = 2.5\n"
        "duality constant k = 0.5\n"
        "exponent bounds = (1, 2)\n"
    )
    config = json.loads((out / "config.json").read_text())
    assert config["box"] == "0,2" and config["seed"] == 0


def test_norm_inf_exponent_spec(tmp_path, capsys):
    # sup-norm piece next to a p = 2 piece: lambda solves max(1/L, ...) with
    # modular 1/L^2 + [1/L >= ... ]; indicator of the whole box has norm > 1
    spec = write_spec(tmp_path, INF_PIECE)
    out = tmp_path / "run"
    code = main(["norm", "--spec", spec, "--box", "0,2", "--out", str(out)])
    assert code == 0
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert capsys.readouterr().out.strip() == "%.7f" % golden


def test_norm_grid_route_from_csv(tmp_path, capsys):
    from varlp import GridDomain, GridFunction, MeasurableSet

    spec = write_spec(tmp_path, CONSTANT_TWO)
    grid = GridDomain(((-1.0, 1.0),), (256,))
    f = GridFunction.indicator(grid, MeasurableSet.from_box(((-1.0, 1.0),)))
    csv_path = tmp_path / "f.csv"
    f.to_csv(str(csv_path))
    out = tmp_path / "run"
    code = main(["norm", "--spec", spec, "--csv", str(csv_path), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "%.7f" % math.sqrt(2.0), f"stdout was {printed!r}"
    assert "route = grid" in (out / "summary.txt").read_text()


def test_norm_negative_box_syntax(tmp_path, capsys):
    spec = write_spec(tmp_path, CONSTANT_TWO)
    out = tmp_path / "run"
    code = main(["norm", "--spec", spec, "--box=-0.5,0.5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1.0000000"


def test_modular_at_unit_scale(tmp_path, capsys):
    spec = write_spec(tmp_path, TWO_PIECE)
    out = tmp_path / "run"
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    code = main([
        "modular", "--spec", spec, "--box", "0,2",
        "--lam", repr(golden), "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1.0000000"
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "quantity,value"
    assert rows[1].startswith("modular,") and rows[2].startswith("lambda,")


def test_exit_code_2_on_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "run"
    code = main(["norm", "--spec", str(bad), "--box", "0,1", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_2_on_bad_piece_kind(tmp_path, capsys):
    payload = dict(TWO_PIECE)
    payload["pieces"] = [{"box": [[0.0, 2.0]], "kind": "mystery", "value": 2.0}]
    spec = write_spec(tmp_path, payload)
    code = main(["norm", "--spec", spec, "--box", "0,2", "--out", str(tmp_path / "o")])
    assert code == 2


def _bumps(**value):
    """A spec with one bumps piece whose value object is value."""
    return {"dimension": 1, "domain": [[0.0, 2.0]],
            "pieces": [{"box": [[0.0, 2.0]], "kind": "bumps", "value": value}]}


_BUMP = {"base": 1.5, "height": 0.5, "plateau_halfwidth": 0.1, "support_halfwidth": 0.2,
         "centers": {"kind": "power", "rate": 1.0, "count": 1}}


@pytest.mark.parametrize("payload, message", [
    (None, "cannot read spec file "),
    ([TWO_PIECE], "spec root must be an object"),
    ({"dimension": 1, "domain": [[0.0, 2.0]]}, "spec missing field 'pieces'"),
    (dict(TWO_PIECE, dimension="one"), "malformed spec header: "),
    (dict(TWO_PIECE, pieces=[]), "spec needs a nonempty pieces list"),
    (dict(TWO_PIECE, pieces=[[0.0, 2.0]]), "piece entries must be objects, got [0.0, 2.0]"),
    (dict(TWO_PIECE, pieces=[{"box": [[0.0, 2.0]]}]), "piece missing field 'kind'"),
    (dict(TWO_PIECE, pieces=[{"box": [[0.0, 2.0]], "kind": "constant", "value": "big"}]),
     "bad exponent value string 'big'"),
    (dict(TWO_PIECE, pieces=[{"box": [[0.0, 2.0]], "kind": "constant", "value": [2.0]}]),
     "bad exponent value [2.0]"),
    (dict(TWO_PIECE, pieces=[{"box": [[0.0, 2.0]], "kind": "bumps", "value": 2.0}]),
     "bumps piece needs an object under 'value'"),
    (_bumps(**{k: v for k, v in _BUMP.items() if k != "centers"}),
     "bumps piece missing field 'centers'"),
    (_bumps(**dict(_BUMP, height="tall")), "malformed bumps piece: "),
    (_bumps(**dict(_BUMP, direction="sideways")),
     "bump direction must be 'up' or 'down', got 'sideways'"),
], ids=["no-file", "root", "field", "header", "no-pieces", "entry", "kind-field", "value-string",
        "value", "bumps-value", "bumps-field", "bumps-number", "bumps-direction"])
def test_malformed_spec_ends_with_one_error_line(payload, message, tmp_path, capsys):
    spec = str(tmp_path / "missing.json") if payload is None else write_spec(tmp_path, payload)
    out = tmp_path / "run"
    assert main(["norm", "--spec", spec, "--box", "0,2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1, err
    assert not (out / "results.csv").exists()


def test_exit_code_1_without_spec(tmp_path, capsys):
    code = main(["norm", "--box", "0,1", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_1_without_function(tmp_path, capsys):
    spec = write_spec(tmp_path, CONSTANT_TWO)
    code = main(["maximal", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == 1


def test_cells_floor_is_enforced(tmp_path, capsys):
    spec = write_spec(tmp_path, CONSTANT_TWO)
    code = main([
        "maximal", "--spec", spec, "--box", "0,1",
        "--cells", "8", "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "--cells" in capsys.readouterr().err


def test_paircheck_cells_floor_is_64(tmp_path, capsys):
    args = ["paircheck", "--alpha", "0.5", "--count", "2"]
    code = main(args + ["--cells", "63", "--out", str(tmp_path / "low")])
    assert code == 1
    assert "--cells must be at least 64" in capsys.readouterr().err
    assert not (tmp_path / "low" / "results.csv").exists()
    assert main(args + ["--cells", "64", "--out", str(tmp_path / "ok")]) == 0
    assert json.loads((tmp_path / "ok" / "config.json").read_text())["cells"] == 64
    assert (tmp_path / "ok" / "results.csv").exists()


def _no_work(args):
    raise AssertionError("the subcommand must not start")


@pytest.mark.parametrize("argv, flag, low, high", [
    (["example", "EX62"], "--j-max", 2, 10_000),
    (["k0scan", "--spec", "never-read.json"], "--num", 1, 10_000),
    (["paircheck"], "--count", 1, 10_000),
])
def test_count_ranges_refuse_before_any_work(argv, flag, low, high, tmp_path, capsys,
                                             monkeypatch):
    for name in ("_run_example", "_run_k0scan", "_run_paircheck"):
        monkeypatch.setattr(cli, name, _no_work)
    for value in (high + 1, low - 1):
        out = tmp_path / str(value)
        assert main(argv + [flag, str(value), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {flag} must be in {low}..{high}, got {value}" in err, err
        assert not out.exists()


@pytest.mark.parametrize("argv, flag, values", [
    (["example", "L1_FAILURE"], "--rmax", ("3.999", "1000.001")),
    (["blowup"], "--cells-per-radius", ("0", "4097")),
])
def test_grid_size_budgets_refuse_before_any_grid(argv, flag, values, tmp_path, capsys,
                                                  monkeypatch):
    # a value just past either end exits before the run could allocate a grid
    low, high = cli._WORK_RANGES[flag]
    for name in ("_run_example", "_run_blowup"):
        monkeypatch.setattr(cli, name, _no_work)
    for value in values:
        out = tmp_path / value
        assert main(argv + [flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == f"error: {flag} must be in {low}..{high}, got {value}", err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["k0scan", "--vol-min", "0"],
    ["k0scan", "--num", "0"],
    ["blowup", "--cells-per-radius", "0"],
    ["example", "L1_FAILURE", "--rmax", "nan"],
    ["example", "L1_FAILURE", "--rmax", "inf"],
    ["k0scan", "--anchor", "nan"],
    ["k0scan", "--anchor=-inf"],
    ["blowup", "--t", "inf"],
    # the czo kernel |x - y|^(alpha - 1) needs 0 <= alpha < 1
    ["paircheck", "--mode", "czo", "--alpha", "nan"],
    ["paircheck", "--mode", "czo", "--alpha", "inf"],
    ["paircheck", "--mode", "czo", "--alpha", "1"],
    ["paircheck", "--mode", "czo", "--alpha=-0.5"],
    # numpy's generators take no negative seed
    ["paircheck", "--seed", "-1", "--count", "1"],
    ["example", "EX62", "--seed", "-1", "--j-max", "2"],
    # a chain family past the work ceiling: 8e24 and then inf
    ["blowup", "--t", "1e12", "--k", "1"],
    ["blowup", "--t", "1e300", "--k", "1"],
    # a set of measure 1e-310: 1 / measure overflows in the norm's repair
    ["norm", "--box", "0,1e-310"],
    ["k0scan", "--alpha", "0.25", "--vol-min", "1e-320", "--vol-max", "1e-310"],
    # the level-1 cube D spans 48.8 and 95.2 cells
    ["blowup", "--alpha", "0.25", "--t", "4.1", "--k", "2"],
    ["blowup", "--alpha", "0.25", "--t", "9.9", "--k", "2"],
    # a square whose sides are normal floats and whose volume underflows to 0
    ["norm", "--spec", os.path.join(os.path.dirname(__file__), "data", "fourpiece2d.json"),
     "--box", "0,1e-200;0,1e-200"],
    # cells of side 1.25e159, whose area overflows
    ["riesz", "--box=-1e160,1e160;-1e160,1e160", "--cells", "16", "--alpha", "0.5"],
    ["maximal", "--box=-1e160,1e160;-1e160,1e160", "--cells", "16", "--alpha", "0.5"],
])
def test_bad_input_ends_with_an_error_line(argv, tmp_path, capsys):
    if argv[0] in ("k0scan", "norm") and "--spec" not in argv:
        argv = argv + ["--spec", write_spec(tmp_path, TWO_PIECE)]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("argv", [
    ["k0scan", "--alpha", "0.25"],
    ["maximal", "--box", "0,1"],
])
def test_spec_whose_pieces_own_none_of_its_domain_is_refused(argv, tmp_path, capsys):
    spec = write_spec(tmp_path, {"dimension": 1, "domain": [[0.0, 2.0]], "pieces": [
        {"box": [[5.0, 6.0]], "kind": "constant", "value": 2.0}]})
    out = tmp_path / "run"
    assert main(argv + ["--spec", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: no piece owns any part of the exponent's domain\n", err
    assert not (out / "results.csv").exists()


def test_negative_seed_refuses_before_config(tmp_path, capsys):
    for argv in (["paircheck", "--count", "1"], ["example", "EX62", "--j-max", "2"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
        assert not out.exists()


def test_parser_is_built_once_and_leaks_nothing_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    box = ["--box=-0.5,0.5", "--cells", "64"]
    assert main(["maximal", "--policy", "dyadic", "--alpha", "0.5"] + box
                + ["--out", str(tmp_path / "dyadic")]) == 0
    assert main(["maximal"] + box + ["--out", str(tmp_path / "default")]) == 0
    dyadic = json.loads((tmp_path / "dyadic" / "config.json").read_text())
    default = json.loads((tmp_path / "default" / "config.json").read_text())
    assert (dyadic["policy"], dyadic["alpha"]) == ("dyadic", 0.5)
    assert (default["policy"], default["alpha"]) == ("exact", 0.0)
    summary = (tmp_path / "default" / "summary.txt").read_text().splitlines()
    assert summary[:2] == ["policy = exact", "alpha = 0"]


@pytest.mark.parametrize("command", [["norm"], ["modular"],
                                     ["maximal", "--alpha", "0.5", "--cells", "64"],
                                     ["riesz", "--alpha", "0.5", "--cells", "64"]])
def test_box_outside_the_exponent_domain_is_refused(tmp_path, capsys, command):
    args = command + ["--spec", write_spec(tmp_path, TWO_PIECE)]
    out = tmp_path / "run"
    assert main(args + ["--box", "0,3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not inside the exponent's domain ((0.0, 2.0),)" in err, err
    assert not (out / "results.csv").exists()
    assert main(args + ["--box", "0,2", "--out", str(tmp_path / "inside")]) == 0


@pytest.mark.parametrize("command", [["norm"], ["modular"], ["maximal", "--cells", "64"],
                                     ["riesz", "--cells", "64"]])
@pytest.mark.parametrize("spec, box", [("fourpiece2d.json", "0,0.5"),
                                       ("twopiece.json", "0,1;0,1")])
def test_a_box_of_another_dimension_is_refused(command, spec, box, tmp_path, capsys):
    # a 1-D box against a square is not the band [0, 0.5] x [0, 1]
    out = tmp_path / "run"
    argv = command + ["--spec", os.path.join(DATA, spec), "--box", box, "--out", str(out)]
    assert main(argv) == 1
    axes = box.count(";") + 1
    assert capsys.readouterr().err == f"error: a {axes}-D box cannot meet a {3 - axes}-D box\n"
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("y1,value\n0.5,1\n", "unexpected grid csv header"),
    ("x1,value\n0.25,1,3\n0.75,1,3\n", "grid csv column count does not match header"),
    ("x1,value\n0.25,one\n0.75,1\n", "cannot read grid csv"),
    (None, "cannot read grid csv"),
    ("x1,value\n0.5,1\n1.5,1\n3.5,1\n", "axis 1 midpoints are not uniformly spaced"),
    ("x1,x2,value\n0.25,0.25,1\n0.25,0.75,1\n0.75,0.25,1\n",
     "grid csv rows do not form a complete grid"),
    ("x1,x2,value\n0.25,0.25,1\n0.25,0.75,1\n0.75,0.25,1\n0.25,0.25,1\n",
     "grid csv rows do not form a complete grid"),
    ("x1,value\n0.5,1\n", "cannot infer spacing from a single-cell grid"),
    ("x1,x2,value\n0.25,0.5,1\n0.25,1.5,1\n0.75,0.5,1\n0.75,1.5,1\n",
     "grid spacing differs across axes: [0.5, 1.0]"),
    # numpy warns on a body with no rows; a nan value is no missing cell
    ("", "grid csv has no data rows"),
    ("x1,value\n", "grid csv has no data rows"),
    ("x1,value\n0.25,nan\n0.75,1\n", "grid function values must be finite"),
], ids=["header", "columns", "text", "missing", "uneven", "short", "repeated", "one-cell",
        "spacings", "empty", "header-only", "nan"])
def test_malformed_csv_ends_with_one_error_line(text, message, tmp_path, capsys):
    path = tmp_path / "f.csv"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "run"
    argv = ["norm", "--spec", os.path.join(DATA, "twopiece.json"), "--csv", str(path)]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1, err
    assert not (out / "results.csv").exists()


def test_maximal_writes_one_row_per_cell(tmp_path):
    out = tmp_path / "run"
    code = main([
        "maximal", "--box=-0.5,0.5", "--alpha", "0.5",
        "--cells", "64", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "x1,value"
    assert len(lines) == 65
    summary = (out / "summary.txt").read_text()
    assert "policy = exact" in summary
    peak = float(summary.split("max value = ")[1].splitlines()[0])
    assert 0.95 < peak <= 1.0, f"lattice peak {peak} out of range"


def test_riesz_runs_on_indicator(tmp_path):
    out = tmp_path / "run"
    code = main([
        "riesz", "--box=-0.5,0.5", "--alpha", "0.5",
        "--cells", "64", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "x1,value" and len(lines) == 65
    values = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(values > 0.0)


def test_k0scan_output_and_determinism(tmp_path):
    spec = write_spec(tmp_path, TWO_PIECE)
    args = [
        "k0scan", "--spec", spec, "--alpha", "0.25", "--num", "10",
        "--vol-min", "0.001", "--vol-max", "1.9", "--anchor", "0.0",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    res1 = (out1 / "results.csv").read_bytes()
    res2 = (out2 / "results.csv").read_bytes()
    assert res1 == res2, "same config must give byte-identical results"
    assert (out1 / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()
    lines = res1.decode().splitlines()
    assert lines[0] == "center,radius,sample_value"
    assert len(lines) == 11
    summary = (out1 / "summary.txt").read_text()
    assert "sandwich holds = True" in summary
    assert "best sample" in summary


def test_paircheck_maximal_mode(tmp_path):
    out = tmp_path / "run"
    code = main([
        "paircheck", "--alpha", "0.5", "--count", "5",
        "--cells", "128", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "index,t,radius,lhs,rhs,holds"
    assert len(lines) == 6
    assert all(line.rsplit(",", 1)[1] == "1" for line in lines[1:])
    assert "all bounds hold = True" in (out / "summary.txt").read_text()


def test_paircheck_czo_mode(tmp_path):
    out = tmp_path / "run"
    code = main([
        "paircheck", "--alpha", "0.5", "--mode", "czo", "--count", "3",
        "--cells", "256", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    t0 = 2.0 * (1.0 + 2.0 ** 1.5)
    assert ("kernel threshold = %.9g" % t0) in summary


def test_paircheck_same_seed_repeats(tmp_path):
    args = ["paircheck", "--alpha", "0.3", "--count", "4", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_example_hm_counter(tmp_path):
    out = tmp_path / "run"
    code = main(["example", "hm_counter", "--out", str(out)])
    assert code == 0
    text = (out / "results.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "quantity,computed,closed_form"
    big = lines[1].split(",")
    assert big[0] == "containing_mean"
    assert float(big[1]) == pytest.approx(8.0 / 7.0, rel=1e-8)
    assert float(big[1]) == pytest.approx(float(big[2]), rel=1e-8)
    assert (out / "summary.txt").read_text() == (
        "example = HM_COUNTER\n"
        "seed = 0\n"
        "containing-cube mean = 1.14285714\n"
        "subcube mean = 1.28571429\n"
        "monotonicity fails = True\n"
    )


def test_example_l1_failure(tmp_path):
    out = tmp_path / "run"
    code = main([
        "example", "L1_FAILURE", "--alpha", "0", "--rmax", "16",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "window,measured,analytic"
    assert len(lines) == 6  # windows 1, 2, 4, 8, 16
    summary = (out / "summary.txt").read_text()
    assert "measured slope" in summary and "analytic slope" in summary


def test_example_ex62_witnesses(tmp_path):
    out = tmp_path / "run"
    code = main(["example", "EX62", "--j-max", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "j,measure,mean,lambda,modular,mean_ok,beats"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "2" and row[5] == "1" and row[6] == "1"
    summary = (out / "summary.txt").read_text()
    assert "all witnesses beat their scale = True" in summary
    assert "two-sided lower" in summary and "long-interval cap" in summary


def test_example_ex61(tmp_path):
    out = tmp_path / "run"
    assert main(["example", "EX61", "--alpha", "0.25", "--k", "20", "--out", str(out)]) == 0
    assert "window floors hold = True\n" in (out / "summary.txt").read_text()
    assert (out / "results.csv").exists()


def test_example_ex61_needs_an_alpha(tmp_path, capsys):
    # the shared --alpha default, 0, lies outside EX61's range
    out = tmp_path / "run"
    assert main(["example", "EX61", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha" in err, err
    assert not (out / "results.csv").exists()


def test_example_unknown_name(tmp_path, capsys):
    assert tuple(_EXAMPLES) == varlp.EXAMPLE_NAMES
    code = main(["example", "NOPE", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "unknown example" in capsys.readouterr().err


def test_blowup_subcommand(tmp_path):
    out = tmp_path / "run"
    code = main(["blowup", "--k", "3", "--c-scale", "10", "--out", str(out)])
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "k,series,series_over_k,floor"
    assert len(lines) == 4
    for line in lines[1:]:
        _, _, ratio, floor = line.split(",")
        assert float(ratio) == pytest.approx(2.0 / 70.0, rel=1e-6)
        assert float(ratio) >= float(floor)
    summary = (out / "summary.txt").read_text()
    assert "geometry ok = True" in summary
    assert "level 1: ok" in summary


def test_blowup_bad_t_exits_1(tmp_path, capsys):
    code = main(["blowup", "--t", "4", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("c_scale, why", [
    ("1e-320", "the level 1 series term overflows at scale C = 1e-320"),
    ("inf", "scale must be positive and finite, got inf"),
])
def test_blowup_refuses_a_scale_it_cannot_certify(c_scale, why, tmp_path, capsys):
    # C = 1e-320 gives an inf series and floor and C = inf gives 0s: neither is a bound
    out = tmp_path / "o"
    assert main(["blowup", "--alpha", "0.25", "--c-scale", c_scale, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {why}\n"
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("t", ["4.5", "5", "5.5", "7.25"])
def test_blowup_builds_at_a_whole_level_one_cell_count(t, tmp_path):
    assert main(["blowup", "--alpha", "0.25", "--t", t, "--k", "2",
                 "--out", str(tmp_path / "o")]) == 0


def test_every_subcommand_takes_a_seed():
    # the benchmark appends --seed to every README command
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name in sub.choices:
        positional = ["EX61"] if name == "example" else []
        assert parser.parse_args([name, *positional, "--seed", "7"]).seed == 7, name


def _loaded_after(code):
    """The varlp modules, and whether numpy and scipy are loaded, after code
    runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(varlp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
                    " if m.split('.')[0] in ('varlp', 'numpy', 'scipy'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    return ({m for m in loaded if m.startswith("varlp.")},
            "numpy" in loaded, "scipy" in loaded)


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; the runtime must not pull it in
    _, _, scipy = _loaded_after("import varlp.cli")
    assert not scipy, "importing varlp.cli loaded scipy"


def test_import_varlp_loads_only_the_exceptions():
    modules, numpy, _ = _loaded_after("import varlp")
    assert modules == {"varlp.errors"} and not numpy


def test_operator_commands_load_no_norm_stack(tmp_path):
    runs = [["maximal", "--box=-0.5,0.5", "--alpha", "0.5", "--cells", "64"],
            ["riesz", "--box=-0.5,0.5", "--alpha", "0.5", "--cells", "64"],
            ["paircheck", "--alpha", "0.5", "--mode", "maximal", "--count", "2"],
            ["paircheck", "--alpha", "0.5", "--mode", "czo", "--count", "2"]]
    code = "from varlp.cli import main\n" + "".join(
        f"assert main({argv + ['--out', str(tmp_path / str(i))]!r}) == 0\n"
        for i, argv in enumerate(runs))
    modules, _, _ = _loaded_after(code)
    assert {"varlp.cli", "varlp.grid", "varlp.operators"} <= modules
    assert not modules & {"varlp.exponent", "varlp.norms", "varlp.k0", "varlp.constructions"}


def test_norm_command_loads_no_k0_or_construction_code(tmp_path):
    spec = write_spec(tmp_path, TWO_PIECE)
    argv = ["norm", "--spec", spec, "--box", "0,2", "--out", str(tmp_path / "run")]
    modules, _, _ = _loaded_after(f"from varlp.cli import main\nassert main({argv!r}) == 0")
    assert {"varlp.exponent", "varlp.norms"} <= modules
    assert not modules & {"varlp.k0", "varlp.constructions"}


def test_every_public_name_reads_through_its_module(monkeypatch):
    for name in varlp.__all__:
        module = importlib.import_module("varlp." + varlp._MODULE_OF.get(name, "errors"))
        want = module if name == module.__name__.split(".")[1] else getattr(module, name)
        assert getattr(varlp, name) is want, name
    assert set(varlp.__all__) <= set(dir(varlp))
    # a name is never bound in the package, so a wrapper bound in its module
    # (as the benchmark's tracer binds one) is what the package gives
    wrapper = object()
    monkeypatch.setattr(varlp.operators, "fractional_maximal", wrapper)
    assert varlp.fractional_maximal is wrapper
    namespace = {}
    exec("from varlp import *", namespace)
    assert all(namespace[name] is getattr(varlp, name) for name in varlp.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        varlp.no_such_name


def readme_commands():
    """The `varlp` lines of the README's *Command line* block."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line[len("varlp "):] for line in block.splitlines() if line.startswith("varlp ")]


def test_readme_library_example_runs():
    # the block runs against the current API, and every line `expression  # value`
    # gives its value: a prefix for "1.618...", else to 1e-12 ("4/3" is a fraction)
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, note = line.partition("#")
        if not code.strip() or not note or "=" in code:
            continue
        value, want = eval(code, namespace), note.split()[0]
        if want.endswith("..."):
            assert repr(value).startswith(want[:-3]), line
        else:
            assert value == pytest.approx(float(Fraction(want)), rel=1e-12), line
        checked += 1
    assert checked >= 5


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs(command, tmp_path, capsys):
    argv = shlex.split(command)
    spec = write_spec(tmp_path, TWO_PIECE, name="twopiece.json")
    argv = [spec if a == "twopiece.json" else a for a in argv]
    out = tmp_path / argv[argv.index("--out") + 1]
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == 0, capsys.readouterr().err
    for name in ("results.csv", "summary.txt", "config.json"):
        assert (out / name).stat().st_size > 0, name


@pytest.mark.parametrize("argv", [
    ["k0scan", "--spec", "s.json", "--cells", "64"],
    ["example", "HM_COUNTER", "--cells", "64"],
    ["blowup", "--cells", "64"],
    ["paircheck", "--spec", "s.json"],
    ["example", "HM_COUNTER", "--spec", "s.json"],
    # norm and modular read a --box exactly and a --csv on its own grid
    ["norm", "--spec", "s.json", "--box", "0,1", "--cells", "64"],
    ["modular", "--spec", "s.json", "--box", "0,1", "--cells", "64"],
])
def test_flag_the_subcommand_does_not_read_is_rejected(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_subnormal_cell_width_ends_with_an_error_line(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["maximal", "--box=0,2e-310", "--cells", "16", "--alpha", "0", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cell width 1.25e-311 is too small"), err
    assert not (out / "results.csv").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_csv_data_ends_with_an_error_line(tmp_path, capsys):
    # each value is finite, their cumulative is not
    csv_path = tmp_path / "f.csv"
    varlp.GridFunction(varlp.GridDomain(((0.0, 1.0),), (100,)),
                       np.full(100, 1e307)).to_csv(str(csv_path))
    out = tmp_path / "run"
    argv = ["maximal", "--csv", str(csv_path), "--alpha", "0.5", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: the fractional maximal function overflows the float range on this data\n"
    assert not (out / "results.csv").exists()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("argv, golden", [
    (["maximal", "--box=-0.5,0.5", "--alpha", "0.5", "--cells", "256", "--policy", "exact"],
     "maximal"),
    (["example", "L1_FAILURE", "--alpha", "0", "--rmax", "100"], "l1_failure"),
    (["maximal", "--box=-0.5,0.5;-0.5,0.5", "--alpha", "0.5", "--cells", "32",
      "--policy", "exact"], "maximal_2d"),
    (["paircheck", "--alpha", "0.5", "--mode", "maximal", "--count", "25", "--seed", "3"],
     "paircheck_maximal"),
    # at alpha 0 short intervals weigh most, so the one-block prune skips least
    (["paircheck", "--alpha", "0", "--mode", "maximal", "--count", "25", "--cells", "512",
      "--seed", "5"], "paircheck_maximal_a0"),
    (["paircheck", "--alpha", "0.5", "--mode", "czo", "--count", "25", "--seed", "3"],
     "paircheck_czo"),
    (["riesz", "--box=-0.5,0.5", "--alpha", "0.5", "--cells", "256"], "riesz"),
])
def test_maximal_artifacts_match_golden_bytes(argv, golden, tmp_path):
    _assert_golden_bytes(argv, golden, tmp_path)


def _assert_golden_bytes(argv, golden, tmp_path):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 0
    for name in ("results.csv", "summary.txt"):
        with open(os.path.join(GOLDEN, golden, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


# commands whose sets go through the batched norm solve
@pytest.mark.parametrize("argv, golden", [
    (["k0scan", "--spec", os.path.join(os.path.dirname(__file__), "data", "twopiece.json"),
      "--alpha", "0.25", "--num", "50", "--vol-min", "1e-3", "--vol-max", "1e3"], "k0scan"),
    (["blowup", "--alpha", "0.25", "--t", "5", "--k", "4", "--c-scale", "10"], "blowup"),
    (["example", "HM_COUNTER"], "hm_counter"),
    (["example", "EX62", "--j-max", "6"], "ex62"),
    # the examples whose sobolev_dual reads the exponent bounds
    (["example", "EX61", "--alpha", "0.25", "--k", "20"], "ex61"),
    (["example", "EX63", "--alpha", "0.25"], "ex63"),
    (["example", "EX64", "--alpha", "0.25"], "ex64"),
    # single boxes: a family of one
    (["norm", "--spec", os.path.join(os.path.dirname(__file__), "data", "nested17.json"),
      "--box=-1,1"], "norm_nested17"),
    (["norm", "--spec", os.path.join(os.path.dirname(__file__), "data", "cutbump.json"),
      "--box", "0,3"], "norm_cutbump"),
    (["norm", "--spec", os.path.join(os.path.dirname(__file__), "data", "cutbump.json"),
      "--box", "2.0,2.0000000000001"], "norm_cutbump_short"),
    (["norm", "--spec", os.path.join(os.path.dirname(__file__), "data", "flatbump.json"),
      "--box", "0.5,1.5"], "norm_flatbump"),
    (["norm", "--spec", os.path.join(os.path.dirname(__file__), "data", "fourpiece2d.json"),
      "--box", "0.1,0.9;0.1,0.9"], "norm_fourpiece2d_cut"),
    (["modular", "--spec", os.path.join(os.path.dirname(__file__), "data", "fourpiece2d.json"),
      "--box", "0,1;0,1", "--lam", "1.5"], "modular_fourpiece2d"),
])
def test_norm_artifacts_match_golden_bytes(argv, golden, tmp_path):
    _assert_golden_bytes(argv, golden, tmp_path)


def test_underflowing_cell_volume_ends_with_an_error_line(tmp_path, capsys):
    # h = 1.25e-171 is a normal float, but h^2 is 0
    out = tmp_path / "run"
    argv = ["maximal", "--box", "0,2e-170;0,2e-170", "--cells", "16", "--alpha", "0.5",
            "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cell width 1.25e-171 is too small: the cell volume"), err
    assert not (out / "results.csv").exists()


DATA = os.path.join(os.path.dirname(__file__), "data")


def test_norm_on_seventeen_nested_pieces(tmp_path, capsys):
    # 17 nested intervals and a last piece they shadow: the first piece wins
    out = tmp_path / "run"
    argv = ["norm", "--spec", os.path.join(DATA, "nested17.json"), "--box=-1,1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == "1.6943089\n"
    lines = (out / "summary.txt").read_text().splitlines()
    assert "exponent bounds = (1.25, 1.5)" in lines, lines
    assert "route = interval" in lines, lines


def test_norm_on_a_flat_bump(tmp_path, capsys):
    # a bump of height 0 whose support covers the box: p = 2 throughout
    out = tmp_path / "run"
    argv = ["norm", "--spec", os.path.join(DATA, "flatbump.json"), "--box", "0.5,1.5"]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == "1.0000000\n"
    lines = (out / "summary.txt").read_text().splitlines()
    assert "exponent bounds = (2, 2)" in lines, lines


def _square_csv(tmp_path):
    """The indicator of [0, 1]^2 on 256^2 cells, as GridFunction.to_csv writes it."""
    path = tmp_path / "square.csv"
    varlp.GridFunction(varlp.GridDomain(((0.0, 1.0), (0.0, 1.0)), (256, 256)),
                       np.ones((256, 256))).to_csv(str(path))
    return str(path)


def test_modular_on_four_quarters_of_the_square(tmp_path, capsys):
    # 1/4 (2/3)^1.5 + 1/4 (2/3)^2 + 1/4 (2/3)^3 on the finite quarters, and
    # sup |f / lam| = 2/3 over the quarter where p = inf; the quarters are
    # whole cells of the CSV's grid, so both routes give it
    want = 0.25 * sum((2.0 / 3.0) ** q for q in (1.5, 2.0, 3.0)) + 2.0 / 3.0
    spec = ["modular", "--spec", os.path.join(DATA, "fourpiece2d.json"), "--lam", "1.5"]
    for data, route in ((["--box", "0,1;0,1"], "box"), (["--csv", _square_csv(tmp_path)], "grid")):
        out = tmp_path / route
        assert main(spec + data + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == "%.7f\n" % want
        assert "route = " + route in (out / "summary.txt").read_text().splitlines()


@pytest.mark.parametrize("command", ["norm", "modular"])
def test_a_box_that_cuts_cells_compiles_exactly(command, tmp_path):
    # 0.1 and 0.9 cut cells of the power-of-two grids on which the pieces'
    # edges fall, so a painted grid is off by O(h); the box compiles exactly
    spec = os.path.join(DATA, "fourpiece2d.json")
    argv = [command, "--spec", spec, "--box", "0.1,0.9;0.1,0.9"]
    args = cli.build_parser().parse_args(argv + ["--lam", "1.5"] * (command == "modular"))
    _, rows, lines, ok = getattr(cli, args.func)(args)
    p = varlp.load_spec(spec)
    dist = compile_set(p, varlp.MeasurableSet.from_box(((0.1, 0.9), (0.1, 0.9))))
    want = dist.modular(p, 1.5) if command == "modular" else dist.norm(p)
    assert ok and rows[0] == (command, want) and "route = box" in lines


@pytest.mark.parametrize("lam", ["-1.5", "0", "nan", "-inf"])
@pytest.mark.parametrize("route", [
    ["--spec", os.path.join(DATA, "twopiece.json"), "--box", "0,2"],
    ["--spec", os.path.join(DATA, "fourpiece2d.json"), "--csv", None],
], ids=["interval", "grid"])
def test_modular_refuses_a_scale_that_is_not_positive(route, lam, tmp_path, capsys):
    route = [_square_csv(tmp_path) if a is None else a for a in route]
    out = tmp_path / "run"
    assert main(["modular", *route, f"--lam={lam}", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: scale lambda must be positive, got {float(lam)}\n"
    assert captured.out == ""
    assert not (out / "results.csv").exists()


@pytest.mark.filterwarnings("error")
def test_modular_at_a_subnormal_scale_reads_inf_on_both_routes(tmp_path, capsys):
    # --lam scales the compiled input, so |f| / lam overflowing to inf is the
    # modular's value on either route, not a fault of the CSV's data
    spec = ["--spec", os.path.join(DATA, "twopiece.json")]
    mx = tmp_path / "mx"
    assert main(["maximal", *spec, "--box", "0.5,1.5", "--alpha", "0.5", "--cells", "256",
                 "--out", str(mx)]) == 0
    capsys.readouterr()
    for data in (["--csv", str(mx / "results.csv")], ["--box", "0,2"]):
        out = tmp_path / data[0][2:]
        assert main(["modular", *spec, *data, "--lam", "1e-310", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("inf\n", "")
        assert (out / "results.csv").read_text().splitlines()[1] == "modular,inf"


def test_k0scan_on_a_bump_piece_cut_by_a_constant(tmp_path, capsys):
    # the constant owns the bump's plateau, so p_plus is 2, not the shadowed 5
    out = tmp_path / "run"
    argv = ["k0scan", "--spec", os.path.join(DATA, "cutbump.json"), "--alpha", "0.3"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert "exponent bounds = (1.5, 2)" in lines, lines
    assert "pairing constant K = 1.16666667" in lines, lines


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--anchor", "1", "--vol-min", "1e-17", "--vol-max", "1e-10"],
                                   ["--anchor", "1e308", "--vol-max", "1e308"]])
def test_k0scan_refuses_intervals_that_round_to_a_point_or_overflow(flags, tmp_path, capsys):
    # 1 + 1e-17 rounds to 1, and 1e308 + 1e308 is inf
    out = tmp_path / "run"
    argv = ["k0scan", "--spec", os.path.join(DATA, "twopiece.json")] + flags
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: --anchor {float(flags[1])} plus --vol-min rounds to it or plus "
                   f"--vol-max overflows\n"), err
    assert not (out / "results.csv").exists()


def test_k0scan_at_a_jump_reads_no_sliver(tmp_path):
    # every [1, 1 + v] lies in the p = 2 piece, where each sample is 1; an
    # interval built from its center and radius rounds its left end below 1
    # for some v and reads a sliver of the p = 1 piece, where p' = inf
    out = tmp_path / "run"
    argv = ["k0scan", "--spec", os.path.join(DATA, "twopiece.json"), "--anchor", "1",
            "--vol-min", "1e-12", "--vol-max", "1e-11", "--num", "10"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["1"] * 10
    assert [row[2] for row in rows] == ["1"] * 10


def test_runs_shorter_than_1e_12_in_a_bump_base_keep_their_length(tmp_path):
    # [2, 2 + L] with L about 1e-13, and every interval of the scan, lies in
    # the bump piece's base p = 1.5: the norm is L^(2/3), every sample is 1
    spec = os.path.join(DATA, "cutbump.json")
    argv = ["norm", "--spec", spec, "--box", "2.0,2.0000000000001"]
    assert main(argv + ["--out", str(tmp_path / "norm")]) == 0
    lines = (tmp_path / "norm" / "summary.txt").read_text().splitlines()
    norm = float(lines[0].removeprefix("norm = "))
    assert norm == pytest.approx((2.0000000000001 - 2.0) ** (2.0 / 3.0), rel=1e-8), lines
    argv = ["k0scan", "--spec", spec, "--anchor", "2", "--vol-min", "1e-14", "--vol-max", "1e-10",
            "--num", "20", "--alpha", "0.25"]
    out = tmp_path / "k0scan"
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert len(rows) == 20 and all(abs(float(row[2]) - 1.0) <= 1e-12 for row in rows), rows
    assert "sandwich holds = True" in (out / "summary.txt").read_text().splitlines()


def _no_grid(*args, **kwargs):
    raise AssertionError("no grid may be allocated")


@pytest.mark.parametrize("box, ceiling", [("-1,1", 65536), ("-1,1;-1,1", 256),
                                          ("-1,1;-1,1;-1,1", 40)])
def test_cells_ceiling_refuses_before_any_grid(box, ceiling, tmp_path, capsys, monkeypatch):
    # a value just past the ceiling exits before the grid is built
    monkeypatch.setattr(cli, "GridDomain", _no_grid)
    axes = box.count(";") + 1
    for command in ("maximal", "riesz"):
        argv = [command, "--box=" + box, "--cells", str(ceiling + 1)]
        assert main(argv + ["--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == (f"error: --cells {ceiling + 1} on {axes} axes gives more "
                               f"than 65536 cells"), err
        assert not (tmp_path / command / "results.csv").exists()
    with pytest.raises(AssertionError, match="no grid may be allocated"):
        main(["maximal", "--box=" + box, "--cells", str(ceiling), "--out", str(tmp_path / "at")])


def test_cells_ceiling_counts_the_spec_dimension(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "GridDomain", _no_grid)
    spec = write_spec(tmp_path, {"dimension": 2, "domain": [[0.0, 1.0], [0.0, 1.0]],
                                 "pieces": [{"box": [[0.0, 1.0], [0.0, 1.0]],
                                             "kind": "constant", "value": 2.0}]})
    argv = ["maximal", "--spec", spec, "--box", "0,1;0,1", "--cells", "257"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert "error: --cells 257 on 2 axes gives more than 65536 cells" in capsys.readouterr().err


def test_paircheck_cells_ceiling_refuses_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_run_paircheck", _no_work)
    out = tmp_path / "past"
    assert main(["paircheck", "--cells", "16385", "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == "error: --cells must be at most 16384"
    assert not out.exists()
    with pytest.raises(AssertionError, match="must not start"):
        main(["paircheck", "--cells", "16384", "--out", str(tmp_path / "at")])
