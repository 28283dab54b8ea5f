"""End-to-end tests for the command-line runner (in-process, apart from one
fresh-interpreter import check)."""

import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import varlp
from varlp import cli
from varlp.cli import _EXAMPLES, main

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
        "norm", "--spec", spec, "--box", "0,1",
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
])
def test_bad_input_ends_with_an_error_line(argv, tmp_path, capsys):
    if argv[0] == "k0scan":
        argv = argv + ["--spec", write_spec(tmp_path, TWO_PIECE)]
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert not (out / "results.csv").exists()


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


@pytest.mark.parametrize("command", [["norm"], ["modular"], ["maximal", "--alpha", "0.5"],
                                     ["riesz", "--alpha", "0.5"]])
def test_box_outside_the_exponent_domain_is_refused(tmp_path, capsys, command):
    args = command + ["--spec", write_spec(tmp_path, TWO_PIECE), "--cells", "64"]
    out = tmp_path / "run"
    assert main(args + ["--box", "0,3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "not inside the exponent's domain ((0.0, 2.0),)" in err, err
    assert not (out / "results.csv").exists()
    assert main(args + ["--box", "0,2", "--out", str(tmp_path / "inside")]) == 0


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


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; the runtime must not pull it in
    src = os.path.dirname(os.path.dirname(varlp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = "import sys, varlp.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False", "importing varlp.cli loaded scipy"


def readme_commands():
    """The `varlp` lines of the README's *Command line* block."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line[len("varlp "):] for line in block.splitlines() if line.startswith("varlp ")]


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


def test_k0scan_on_a_bump_piece_cut_by_a_constant(tmp_path, capsys):
    # the constant owns the bump's plateau, so p_plus is 2, not the shadowed 5
    out = tmp_path / "run"
    argv = ["k0scan", "--spec", os.path.join(DATA, "cutbump.json"), "--alpha", "0.3"]
    assert main(argv + ["--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert "exponent bounds = (1.5, 2)" in lines, lines
    assert "pairing constant K = 1.16666667" in lines, lines


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
    argv = ["norm", "--spec", spec, "--box", "0,1;0,1", "--cells", "257"]
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
