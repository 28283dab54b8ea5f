"""Workload inputs and operations, each operation with its own check.

``build(name, seed)`` makes every input from the seed and returns the
operations.  An operation's ``run`` is what gets timed; its ``check`` runs
afterwards, outside the timed region, and returns None or the reason the
result is wrong.  ``run`` looks varlp functions up through the package at
call time, so the tracer's wrappers are seen when they are installed.
Checks use the oracles in ``oracles`` or varlp's public modulars, never
stored outputs.  The README's ``varlp`` commands run in-process through
``varlp.cli.main``; each workload takes the ones that stay inside its layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as O
import varlp as V
import varlp.cli

INF = math.inf
ALPHA = 0.5
# grid results agree with their oracles to ~1e-15; this leaves room for a
# different summation order and still catches a value off by 1e-9
GRID_TOL = 1e-10


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    # untimed, called before every run
    prepare: "Callable[[], None] | None" = None


# Float-range cases that the solver gets wrong on the seed code (it returns
# 0 or inf).  They stay in the workload and count as failures; `correct`
# turns false only when an operation outside this list fails.
KNOWN_FLOAT_RANGE_FAILURES = frozenset(
    ["interval-const-p1-L1e-301", "interval-const-p1-L1.7e+308"]
    + [f"grid-const-p{p}-c{c}" for c in ("1e-300", "1e+308") for p in ("1", "2", "5", "inf")]
)


def _grid(cells):
    """Uniform grid on the unit cube."""
    return V.GridDomain(tuple((0.0, 1.0) for _ in cells), tuple(cells))


def _fn(rng, cells):
    return V.GridFunction(_grid(cells), rng.uniform(0.0, 1.0, cells))


# -- grid-operators ---------------------------------------------------------------


def _maximal_check(f, policy):
    def check(res):
        h = f.domain.h
        want = O.centered_maximal(f.values, h, ALPHA, policy)
        got = res.values
        if got.shape != want.shape:
            return f"shape {got.shape} != {want.shape}"
        err = O.rel_err(got, want)
        if err > GRID_TOL:
            return f"differs from the centered-cube oracle by {err:.3g} (relative)"
        dyadic = O.centered_maximal(f.values, h, ALPHA, "DYADIC")
        if policy == "EXACT" and not (got >= dyadic * (1.0 - 1e-12)).all():
            return "EXACT maximal is below DYADIC somewhere"
        return None

    return check


def _uncentered_check(f):
    def check(res):
        h = f.domain.h
        want = O.uncentered_maximal(f.values, h, ALPHA)
        centered = O.centered_maximal(f.values, h, ALPHA, "EXACT")
        err = O.rel_err(res.values, want)
        if err > GRID_TOL:
            return f"differs from the uncentered oracle by {err:.3g} (relative)"
        if not (res.values >= centered * (1.0 - 1e-12)).all():
            return "uncentered maximal is below the centered EXACT maximal somewhere"
        return None

    return check


def _riesz_check(f, rows):
    def check(res):
        want = O.riesz_rows(f.values, f.domain.box, ALPHA, rows)
        err = O.rel_err(res.values.ravel()[rows], want)
        if err > GRID_TOL:
            return f"differs from the dense pairwise oracle by {err:.3g} (relative)"
        return None

    return check


def _pair_inputs(rng, cells=512):
    """One random function and translate pair, drawn the way `paircheck` draws them."""
    grid = _grid((cells,))
    h = grid.h
    t_hi = 10.0
    mcap = max(2, int((cells - 4) / (t_hi + 3.0)))
    f = V.GridFunction(grid, rng.uniform(0.0, 1.0, cells))
    m = int(rng.integers(2, mcap + 1))
    t = math.ceil(float(rng.uniform(4.0, 10.0)) * m) / m
    span = int(round(t * m)) + 2 * m
    corner = int(rng.integers(0, cells - span))
    pair = V.make_tu_pair(V.Cube((corner * h + m * h,), m * h), t)
    shift = int(round(t * m))
    return f, pair, (corner, corner + 2 * m, corner + shift, corner + shift + 2 * m)


def _pair_check(f, cubes):
    def check(rep):
        lhs, rhs = O.pair_bound(f.values, f.domain.h, ALPHA, *cubes)
        if not rep.holds:
            return "pair bound reports holds = False"
        if O.rel_err(rep.lhs_min, lhs) > GRID_TOL or O.rel_err(rep.rhs, rhs) > GRID_TOL:
            return (f"(lhs_min, rhs) = ({rep.lhs_min!r}, {rep.rhs!r}), "
                    f"oracle ({lhs!r}, {rhs!r})")
        if not lhs >= rhs * (1.0 - 1e-9):
            return "oracle lhs_min is below rhs"
        return None

    return check


def grid_operators(seed):
    rng = np.random.default_rng([seed, 1])
    ops = []

    def maximal(tag, cells, policy):
        f = _fn(rng, cells)
        ops.append(Op(f"maximal-{policy.lower()}-{tag}",
                      lambda: V.fractional_maximal(f, ALPHA, radii=getattr(V, policy)),
                      _maximal_check(f, policy)))

    maximal("1d-6000", (6000,), "EXACT")
    maximal("2d-128", (128, 128), "EXACT")
    maximal("1d-16000", (16000,), "DYADIC")
    maximal("2d-256", (256, 256), "DYADIC")

    fu = _fn(rng, (2048,))
    ops.append(Op("maximal-uncentered-1d-2048",
                  lambda: V.fractional_maximal_uncentered(fu, ALPHA), _uncentered_check(fu)))

    for tag, cells in (("1d-4000", (4000,)), ("2d-48", (48, 48))):
        fr = _fn(rng, cells)
        total = int(np.prod(cells))
        rows = np.unique(np.concatenate([[0, total - 1], rng.integers(0, total, 510)]))
        ops.append(Op(f"riesz-{tag}",
                      (lambda fr=fr: V.riesz_potential(fr, ALPHA)), _riesz_check(fr, rows)))

    for i in range(100):
        f, pair, cubes = _pair_inputs(rng)
        ops.append(Op(f"pair-{i:03d}",
                      (lambda f=f, pair=pair: V.maximal_pair_lower_bound(f, pair, ALPHA)),
                      _pair_check(f, cubes)))
    return ops + cli_ops(GRID_CLI, seed)


# -- norm-solves --------------------------------------------------------------------

EXPONENT_VALUES = (1.0, 1.2, 1.5, 2.0, 3.0, 5.0, INF)

TWOPIECE_JSON = """{
  "dimension": 1,
  "domain": [[0.0, 2.0]],
  "pieces": [
    {"box": [[0.0, 1.0]], "kind": "constant", "value": 1.0},
    {"box": [[1.0, 2.0]], "kind": "constant", "value": 2.0}
  ]
}
"""


def twopiece():
    """The README's two-piece exponent: 1 on [0, 1], 2 on [1, 2]."""
    return V.from_spec(json.loads(TWOPIECE_JSON))


def _grid_solve(rng, cells=4096, pieces=8):
    """Random piecewise-constant exponent with breakpoints on cell edges, and
    random data; returns (f, p, exponent value per cell)."""
    cuts = np.sort(rng.choice(np.arange(1, 64), pieces - 1, replace=False)) / 64.0
    edges = np.concatenate([[0.0], cuts, [1.0]])
    vals = [EXPONENT_VALUES[k] for k in rng.integers(0, len(EXPONENT_VALUES), pieces)]
    p = V.ExponentFunction(
        dimension=1, domain=((0.0, 1.0),),
        pieces=tuple(V.ConstantPiece(((edges[i], edges[i + 1]),), vals[i])
                     for i in range(pieces)))
    mids = (np.arange(cells) + 0.5) / cells
    pcell = np.asarray(vals)[np.searchsorted(edges, mids) - 1]
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    f = V.GridFunction(_grid((cells,)), scale * rng.uniform(0.0, 1.0, cells))
    return f, p, pcell


def _closed_form_check(want):
    def check(lam):
        if not (isinstance(lam, float) and math.isfinite(lam) and lam > 0.0):
            return f"norm {lam!r}, closed form {want!r}"
        err = O.rel_err(lam, want)
        return None if err <= 1e-8 else f"norm {lam!r}, closed form {want!r} (rel {err:.3g})"

    return check


def _interval_norm_check(p, a, b):
    return lambda lam: O.norm_violation(lambda s: V.interval_indicator_modular(p, a, b, s), lam)


def _witness_target(name, spec):
    return V.sobolev_dual(spec.exponent, spec.parameters["alpha"]) if name == "EX63" \
        else V.conjugate(spec.exponent)


def _witness_norm_check(target, a, b):
    base = _interval_norm_check(target, a, b)

    def check(res):
        lam, scale = res
        if not lam >= scale:
            return f"witness norm {lam!r} does not beat its scale {scale!r}"
        return base(lam)

    return check


def _witness_rows_check(rows):
    bad = [r["j"] for r in rows if not (r["norm_beats_lambda"] and r["mean_ok"])]
    return f"witness rows fail their flags at j = {bad}" if bad else None


def _two_sided_check(p):
    def check(rep):
        if not (rep["lower_holds"] and rep["long_cap_holds"]):
            return "two-sided check reports a failed bound"
        for row in rep["rows"]:
            a, b = row["interval"]
            inv = V.mean_inverse_exponent(p, V.MeasurableSet.from_box(((a, b),)))
            lam = row["ratio"] * (b - a) ** inv
            why = O.norm_violation(lambda s: V.interval_indicator_modular(p, a, b, s), lam)
            if why:
                return f"interval ({a!r}, {b!r}): {why}"
        return None

    return check


def _ladder(lo, hi, num=50):
    vols = np.geomspace(lo, hi, num)
    return V.CubeFamily.from_cubes([V.Cube((v / 2.0,), v / 2.0) for v in vols])


def _k0_check(p, alpha, family):
    pc, q = V.conjugate(p), V.sobolev_dual(p, alpha)
    (dlo, dhi), = p.domain

    def check(rep):
        if len(rep.samples) != len(family):
            return f"{len(rep.samples)} samples for {len(family)} sets"
        for s, E in zip(rep.samples, family):
            (a, b), = E.box
            measure = min(b, dhi) - max(a, dlo)
            for name, r, lam in (("p'", pc, s.norm_conjugate), ("q", q, s.norm_dual)):
                why = O.norm_violation(lambda t: V.interval_indicator_modular(r, a, b, t), lam)
                if why:
                    return f"set {s.index} norm in {name}: {why}"
            want = measure ** (alpha - 1.0) * s.norm_conjugate * s.norm_dual
            if O.rel_err(s.value, want) > 1e-12:
                return f"set {s.index}: sample {s.value!r} != {want!r}"
        if rep.best_value != max(s.value for s in rep.samples):
            return "best value is not the largest sample"
        return None

    return check


def _sandwich_check(p, family):
    def check(rep):
        if not rep.all_ok:
            return "sandwich reports all_ok = False"
        for row, E in zip(rep.rows, family):
            (a, b), = E.box
            why = O.norm_violation(lambda t: V.interval_indicator_modular(p, a, b, t), row.norm)
            if why:
                return f"set {row.index}: {why}"
        return None

    return check


def _box_exponent(rng, k=4):
    """k x k constant pieces on the unit square, values from EXPONENT_VALUES."""
    step = 1.0 / k
    vals = [EXPONENT_VALUES[i] for i in rng.integers(0, len(EXPONENT_VALUES), k * k)]
    boxes = [((i * step, (i + 1) * step), (j * step, (j + 1) * step))
             for i in range(k) for j in range(k)]
    p = V.ExponentFunction(dimension=2, domain=((0.0, 1.0), (0.0, 1.0)),
                           pieces=tuple(V.ConstantPiece(b, v) for b, v in zip(boxes, vals)))
    return p, boxes, vals


def _box_norm_check(boxes, vals, box):
    def overlap(b):
        return math.prod(max(0.0, min(hi, bhi) - max(lo, blo))
                         for (lo, hi), (blo, bhi) in zip(box, b))

    vols = [overlap(b) for b in boxes]
    return lambda lam: O.norm_violation(lambda s: O.box_modular(vols, vals, s), lam)


def norm_solves(seed):
    rng = np.random.default_rng([seed, 2])
    ops = []

    for i in range(200):
        f, p, pcell = _grid_solve(rng)
        absf, vol = np.abs(f.values), f.domain.cell_volume
        ops.append(Op(f"grid-{i:03d}",
                      (lambda f=f, p=p: V.luxemburg_norm(f, p)),
                      (lambda lam, absf=absf, pcell=pcell, vol=vol: O.norm_violation(
                          lambda s: O.grid_modular(absf, pcell, vol, s), lam))))

    for length in (1e-301, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1.7e308):
        for pv in (1.0, 2.0, 5.0, INF):
            p = V.ExponentFunction.constant(pv, ((0.0, length),))
            want = 1.0 if pv == INF else length ** (1.0 / pv)
            ops.append(Op(f"interval-const-p{pv:g}-L{length:g}",
                          (lambda p=p, b=length: V.interval_indicator_norm(p, 0.0, b)),
                          _closed_form_check(want)))

    for c in (1e-300, 1e308):
        f = V.GridFunction(_grid((64,)), np.full(64, c))
        for pv in (1.0, 2.0, 5.0, INF):
            p = V.ExponentFunction.constant(pv, ((0.0, 1.0),))
            ops.append(Op(f"grid-const-p{pv:g}-c{c:g}",
                          (lambda f=f, p=p: V.luxemburg_norm(f, p)), _closed_form_check(c)))

    ex62 = V.build_ex62()
    specs = (("EX62", ex62), ("EX63", V.build_ex63(0.25, 1.2, 2.0)),
             ("EX64", V.build_ex64(0.25, 1.2, 2.0)))
    for name, spec in specs:
        target = _witness_target(name, spec)
        for j in range(2, 9):
            a, b = V.witness_interval(spec, j)
            ops.append(Op(f"witness-{name}-j{j}",
                          (lambda spec=spec, j=j: V.witness_norm_check(spec, j)),
                          _witness_norm_check(target, a, b)))
        ops.append(Op(f"witness-rows-{name}",
                      (lambda spec=spec: V.witness_check(spec, range(2, 9))),
                      _witness_rows_check))

    two_seed = int(rng.integers(0, 2 ** 31))
    ops.append(Op("two-sided-EX62",
                  lambda: V.two_sided_interval_check(ex62, seed=two_seed),
                  _two_sided_check(ex62.exponent)))

    tp = twopiece()
    fam_tp, fam_62 = _ladder(1e-3, 1e3), _ladder(1e-3, 1e12)
    ops.append(Op("k0scan-twopiece",
                  lambda: V.k0alpha_constant(tp, 0.25, fam_tp), _k0_check(tp, 0.25, fam_tp)))
    ops.append(Op("k0scan-EX62",
                  lambda: V.k0alpha_constant(ex62.exponent, 0.25, fam_62),
                  _k0_check(ex62.exponent, 0.25, fam_62)))
    ops.append(Op("sandwich-twopiece",
                  lambda: V.norm_harmonic_sandwich(tp, fam_tp), _sandwich_check(tp, fam_tp)))

    p2, boxes, vals = _box_exponent(rng)
    for i in range(50):
        lo = rng.uniform(0.0, 0.9, 2)
        hi = lo + rng.uniform(0.01, 1.0 - lo)
        box = tuple(zip(lo.tolist(), hi.tolist()))
        E = V.MeasurableSet.from_box(box)
        ops.append(Op(f"set-norm-2d-{i:02d}",
                      (lambda E=E: V.set_norm(p2, E)), _box_norm_check(boxes, vals, box)))
    return ops + cli_ops(NORM_CLI, seed)


# -- README commands, in-process --------------------------------------------------

# Split by the layers they reach: GRID_CLI never calls norms, and NORM_CLI
# evaluates no maximal operator, Riesz potential or box sum (`blowup` calls
# only the pair-geometry helpers and cube_average of operators, about 1 ms).
# The README's `k0scan` and `example EX62` are left out because norm-solves
# already runs the same computations as library calls; `example L1_FAILURE`
# runs at --rmax 100 instead of the README's 1000, which alone takes 11 s;
# `example EX61` is left out because it also evaluates an operator, and its
# 0.65 s of norms per pass would halve the samples of every other
# norm-solves operation.
GRID_CLI = (
    "maximal --box=-0.5,0.5 --alpha 0.5 --cells 256 --policy exact --out run3",
    "riesz --box=-0.5,0.5 --alpha 0.5 --cells 256 --out run4",
    "paircheck --alpha 0.5 --mode maximal --count 25 --seed 3 --out run6",
    "paircheck --alpha 0.5 --mode czo --count 25 --out run10",
    "example L1_FAILURE --alpha 0 --rmax 100 --out run8",
)
NORM_CLI = (
    "norm --spec twopiece.json --box 0,2 --out run1",
    "modular --spec twopiece.json --box 0,2 --lam 1.5 --out run2",
    "blowup --alpha 0.25 --t 5 --k 4 --c-scale 10 --out run9",
    "example EX63 --alpha 0.25 --out run12",
    "example EX64 --alpha 0.25 --out run13",
    "example HM_COUNTER --out run14",
)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
CLI_ARTIFACTS = ("results.csv", "summary.txt", "config.json")
# scratch for the commands' artifacts; the benchmark removes it when it ends
CLI_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".bench_work", f"cli-{os.getpid()}")


def cli_argv(line, seed):
    """argv for one README command: --seed from the workload seed, the spec
    file and the output directory under CLI_DIR."""
    argv = line.split()
    if "--seed" in argv:
        argv[argv.index("--seed") + 1] = str(seed)
    else:
        argv += ["--seed", str(seed)]
    if "--spec" in argv:
        argv[argv.index("--spec") + 1] = os.path.join(CLI_DIR, "twopiece.json")
    i = argv.index("--out") + 1
    argv[i] = os.path.join(CLI_DIR, argv[i])
    return argv


def cli_name(argv):
    if argv[0] == "example":
        return "cli-example-" + argv[1]
    if argv[0] == "paircheck":
        return "cli-paircheck-" + argv[argv.index("--mode") + 1]
    return "cli-" + argv[0]


def cli_outcome(out, rc):
    """What one command left behind: exit code and artifact bytes."""
    files = {}
    for name in CLI_ARTIFACTS:
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return {"rc": rc, "files": files}


def cli_check(argv, outcome):
    if outcome["rc"] != 0:
        return f"exit code {outcome['rc']}"
    missing = [n for n in CLI_ARTIFACTS if n not in outcome["files"]]
    if missing:
        return f"missing artifacts {missing}"
    if argv[0] == "norm":
        lines = outcome["files"]["summary.txt"].decode().splitlines()
        value = float(lines[0].split("=", 1)[1])
        if abs(value - GOLDEN_RATIO) > 1e-8 * GOLDEN_RATIO:
            return f"norm summary {lines[0]!r} is not the golden ratio"
    return None


def cli_op(argv):
    out = argv[argv.index("--out") + 1]

    def prepare():
        os.makedirs(CLI_DIR, exist_ok=True)
        spec = os.path.join(CLI_DIR, "twopiece.json")
        if not os.path.exists(spec):
            with open(spec, "w") as fh:
                fh.write(TWOPIECE_JSON)
        shutil.rmtree(out, ignore_errors=True)

    # the timed call includes reading the three small artifacts back
    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = varlp.cli.main(list(argv))
        return cli_outcome(out, rc)

    return Op(cli_name(argv), run, lambda outcome: cli_check(argv, outcome), prepare)


def cli_ops(lines, seed):
    return [cli_op(cli_argv(line, seed)) for line in lines]


def build(name, seed):
    if name == "grid-operators":
        return grid_operators(seed)
    if name == "norm-solves":
        return norm_solves(seed)
    raise KeyError(name)
