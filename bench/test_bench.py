"""Tests of the benchmark itself: checks catch wrong results, every metric is
printed by name and unit, and tracing changes no result.

Run with ``python3 -m pytest -q bench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import varlp as V  # noqa: E402
import run as R  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def by_name(ops, name):
    return next(op for op in ops if op.name == name)


@pytest.fixture(scope="module")
def norm_ops():
    return W.norm_solves(0)


@pytest.fixture(scope="module")
def grid_ops():
    return W.grid_operators(0)


@pytest.mark.parametrize("name", ["grid-000", "grid-117", "interval-const-p2-L1e+150",
                                  "interval-const-pinf-L1e-08", "set-norm-2d-07"])
def test_perturbed_norm_is_a_failure(norm_ops, name):
    op = by_name(norm_ops, name)
    lam = op.run()
    assert op.check(lam) is None
    assert op.check(lam * (1.0 + 1e-6)) is not None
    assert op.check(lam * (1.0 - 1e-6)) is not None


def test_perturbed_witness_norm_is_a_failure(norm_ops):
    op = by_name(norm_ops, "witness-EX62-j5")
    lam, scale = op.run()
    assert op.check((lam, scale)) is None
    assert op.check((lam * (1.0 + 1e-6), scale)) is not None
    assert op.check((lam * (1.0 - 1e-6), scale)) is not None


def test_perturbed_k0_sample_is_a_failure(norm_ops):
    op = by_name(norm_ops, "k0scan-twopiece")
    rep = op.run()
    assert op.check(rep) is None
    s = rep.samples[10]
    bad = dataclasses.replace(s, norm_dual=s.norm_dual * (1.0 + 1e-6))
    rep.samples[10] = bad
    assert op.check(rep) is not None


@pytest.mark.parametrize("name", ["maximal-exact-2d-128", "maximal-dyadic-1d-16000",
                                  "maximal-dyadic-2d-256", "maximal-uncentered-1d-2048",
                                  "riesz-2d-48", "riesz-1d-4000"])
def test_perturbed_grid_value_is_a_failure(grid_ops, name):
    op = by_name(grid_ops, name)
    res = op.run()
    assert op.check(res) is None
    flat = res.values.ravel().copy()
    # riesz checks sample rows; the first cell is always one of them
    flat[0] -= 1e-9
    assert op.check(V.GridFunction(res.domain, flat.reshape(res.values.shape))) is not None


def test_perturbed_pair_bound_is_a_failure(grid_ops):
    op = by_name(grid_ops, "pair-004")
    rep = op.run()
    assert op.check(rep) is None
    assert op.check(dataclasses.replace(rep, lhs_min=rep.lhs_min - 1e-9)) is not None
    assert op.check(dataclasses.replace(rep, holds=False)) is not None


def test_known_failures_are_exactly_the_float_range_cases(norm_ops):
    try:
        _, results = R.library_pass(norm_ops)()
    finally:
        shutil.rmtree(W.CLI_DIR, ignore_errors=True)
    failing = {op.name for op, res in zip(norm_ops, results) if op.check(res) is not None}
    assert failing <= W.KNOWN_FLOAT_RANGE_FAILURES
    assert W.KNOWN_FLOAT_RANGE_FAILURES <= {op.name for op in norm_ops}


def test_cli_check_rejects_wrong_output():
    argv = W.cli_argv(W.NORM_CLI[0], 0)
    ok = {"rc": 0, "files": {"results.csv": b"quantity,value\n",
                             "summary.txt": b"norm = 1.61803399\n", "config.json": b"{}"}}
    assert W.cli_check(argv, ok) is None
    assert W.cli_check(argv, dict(ok, rc=1)) is not None
    wrong = {"rc": 0, "files": dict(ok["files"], **{"summary.txt": b"norm = 1.61803401\n"})}
    assert W.cli_check(argv, wrong) is not None
    missing = {"rc": 0, "files": {"results.csv": b"", "summary.txt": b"norm = 1.61803399\n"}}
    assert W.cli_check(argv, missing) is not None


def test_cli_ops_pass_their_checks_and_stay_in_their_layers():
    reached = {}
    for workload in ("grid-operators", "norm-solves"):
        ops = [op for op in W.build(workload, 5) if op.name.startswith("cli-")]
        tr = T.Tracer()
        try:
            with tr:
                for op in ops:
                    op.prepare()
                    assert op.check(op.run()) is None, op.name
        finally:
            shutil.rmtree(W.CLI_DIR, ignore_errors=True)
        reached[workload] = {name for name, *_ in tr.spans}
    assert not any(n.startswith("norms.") for n in reached["grid-operators"])
    assert "constructions.build_l1_failure" in reached["grid-operators"]
    assert {n for n in reached["norm-solves"] if n.startswith("operators.")} <= {
        "operators.make_tu_pair", "operators.verify_tu_pair", "operators.covering_cube",
        "operators.cube_average"}
    assert "constructions.build_blowup" in reached["norm-solves"]


def test_tracer_patches_every_binding():
    orig = V.norms.interval_integral
    with T.Tracer():
        wrapped = V.norms.interval_integral
        assert wrapped is not orig and wrapped.__wrapped__ is orig
        assert V.constructions.interval_integral is wrapped
        assert V.k0.set_norm is V.norms.set_norm is V.set_norm
        assert V.ExponentFunction.values.__wrapped__ is not None
    assert V.norms.interval_integral is orig
    assert V.constructions.interval_integral is orig
    assert not hasattr(V.ExponentFunction.values, "__wrapped__")


@pytest.mark.parametrize("workload", ["grid-operators", "norm-solves"])
def test_tracing_does_not_change_results(workload):
    ops = W.build(workload, 3)
    one_pass = R.library_pass(ops)
    tr = T.Tracer()
    try:
        plain = [R.fingerprint(x) for x in one_pass()[1]]
        with tr:
            traced = [R.fingerprint(x) for x in one_pass()[1]]
    finally:
        shutil.rmtree(W.CLI_DIR, ignore_errors=True)
    assert plain == traced
    metrics = T.layer_metrics(tr, 1)
    busy = "operators.box_sums.calls" if workload == "grid-operators" \
        else "norms.interval_indicator_norm.calls"
    assert metrics[busy] > 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    proc = _run(ROOT, "--workload", "norm-solves", "--seed", "4", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    names = dict(want)
    if trace == "0":
        names.update(R.END_TO_END_UNITS)
    for name, unit in names.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    for failing in W.KNOWN_FLOAT_RANGE_FAILURES:
        assert any(line.startswith(f"FAILED {failing}:") for line in lines)


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "--workload", "grid-operators", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
