"""Command-line experiment runner.

Each subcommand only computes: it returns a header, the result rows, the
summary lines and whether its checks held.  ``main`` writes the three
artifacts into the output directory: a ``config.json`` echo of the parsed
arguments (seed included) before the subcommand runs, then a
``results.csv`` with a header row and 9-significant-digit values and a
``summary.txt`` with the headline numbers and pairing constants.  A run
that raises leaves only ``config.json``.  Identical configurations
produce byte-identical outputs.  Each subcommand accepts only the flags
it reads.  ``norm`` and ``modular`` compile a ``--box`` exactly in any
dimension or a ``--csv`` on its own grid, once, and ``--lam`` scales the
compiled input; ``maximal`` and ``riesz`` paint a ``--box`` onto a grid of
``--cells`` per axis.  Only the grid and operator layers load with this
module: a handler imports the exponent, norm, K0 and construction layers
it calls when it runs, so ``paircheck``, and ``maximal`` and ``riesz``
without a ``--spec``, load none of them, and ``norm`` and ``modular``
load no K0 or construction code.

Exit codes: 0 on success, 1 when a precondition or construction fails or
a subcommand's checks do not hold, 2 when an input file cannot be parsed.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import numpy as np

from .errors import ConstructionError, DomainError, PreconditionError, SpecParseError
from .grid import Cube, GridDomain, GridFunction, MeasurableSet, as_box, box_intersect
from .operators import (
    DYADIC,
    EXACT,
    czo_pair_lower_bound,
    fractional_maximal,
    kernel_threshold,
    make_tu_pair,
    maximal_pair_lower_bound,
    riesz_kernel,
    riesz_potential,
)


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.9g" % float(x)


def _echo_config(args):
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    with open(os.path.join(args.out, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_artifacts(outdir, header, rows, lines):
    """Write results.csv, a row at a time, and summary.txt.  A row is a
    tuple of values, each formatted by _fmt, or a line formatted already."""
    with open(os.path.join(outdir, "results.csv"), "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write((row if isinstance(row, str) else ",".join(_fmt(v) for v in row)) + "\n")
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def _constant_lines(p):
    from .norms import duality_constant, holder_constant

    return [
        "pairing constant K = %.9g" % holder_constant(p),
        "duality constant k = %.9g" % duality_constant(p),
        "exponent bounds = (%s, %s)" % tuple(_fmt(b) for b in p.bounds()),
    ]


def _load_exponent(args, required=True):
    if args.spec is None:
        if required:
            raise PreconditionError("this subcommand needs --spec")
        return None
    from .exponent import load_spec

    return load_spec(args.spec)


def _parse_box(text):
    axes = []
    for part in text.split(";"):
        bits = part.split(",")
        if len(bits) != 2:
            raise SpecParseError(f"box axis needs 'lo,hi', got {part!r}")
        axes.append((float(bits[0]), float(bits[1])))
    return as_box(axes)


def _read_input(args, p):
    """The --csv as a grid function on its own grid, or else the --box as a
    set, which must lie inside the exponent's domain when one is given."""
    if args.csv is not None:
        return GridFunction.from_csv(args.csv)
    if args.box is None:
        raise PreconditionError("provide a function via --csv or --box")
    box = _parse_box(args.box)
    if p is not None and box_intersect(box, p.domain) != box:
        raise PreconditionError(f"--box {box} is not inside the exponent's domain {p.domain}")
    return MeasurableSet.from_box(box)


def _function_on_grid(args, p):
    """The input as a grid function: a --box is painted on a fresh grid."""
    f = _read_input(args, p)
    if isinstance(f, GridFunction):
        return f
    domain = p.domain if p is not None else f.box
    if args.cells ** len(domain) > _MAX_GRID_CELLS:
        raise PreconditionError(f"--cells {args.cells} on {len(domain)} axes gives more than "
                                f"{_MAX_GRID_CELLS} cells")
    return GridFunction.indicator(GridDomain(domain, tuple(args.cells for _ in domain)), f)


def _compiled_input(args, p):
    """(compiled input, route) for norm and modular: a --csv compiles on its
    own grid (route grid), a --box exactly in any dimension (route interval
    on a line, box otherwise)."""
    from .norms import _compile_grid, compile_set

    f = _read_input(args, p)
    if isinstance(f, GridFunction):
        return _compile_grid(f, p), "grid"
    return compile_set(p, f), "interval" if len(f.box) == 1 else "box"


def _grid_output(args, p, g, lines):
    """One row per cell (midpoint coordinates, value), and the summary lines
    followed by the maximum, the integral, the seed and, given an exponent,
    its constants."""
    header = ["x%d" % (i + 1) for i in range(g.domain.dimension)] + ["value"]
    # every value is a float, so each row is one format string applied to
    # Python floats: the digits _fmt would write, without a call per value
    row = ",".join(["%.9g"] * len(header))
    rows = [row % tuple(values) for values in
            np.column_stack([g.domain.points(), g.values.reshape(-1)]).tolist()]
    lines = lines + [
        "max value = %.9g" % float(g.values.max()),
        "integral = %.9g" % g.integral(),
        "seed = %d" % args.seed,
    ]
    if p is not None:
        lines += _constant_lines(p)
    return header, rows, lines, True


# -- subcommands: each returns (header, rows, summary lines, ok) --------------


def _run_norm(args):
    p = _load_exponent(args)
    dist, route = _compiled_input(args, p)
    value = dist.norm(p)
    print("%.7f" % value)
    lines = ["norm = %.9g" % value, "route = " + route, "seed = %d" % args.seed]
    return ["quantity", "value"], [("norm", value)], lines + _constant_lines(p), True


def _run_modular(args):
    p = _load_exponent(args)
    dist, route = _compiled_input(args, p)
    lam = args.lam
    value = dist.modular(p, lam)
    print("%.7f" % value)
    lines = ["modular = %.9g at lambda = %.9g" % (value, lam), "route = " + route,
             "seed = %d" % args.seed]
    rows = [("modular", value), ("lambda", lam)]
    return ["quantity", "value"], rows, lines + _constant_lines(p), True


def _run_maximal(args):
    p = _load_exponent(args, required=False)
    f = _function_on_grid(args, p)
    policy = EXACT if args.policy == "exact" else DYADIC
    mf = fractional_maximal(f, args.alpha, radii=policy)
    return _grid_output(args, p, mf, ["policy = " + args.policy, "alpha = %.9g" % args.alpha])


def _run_riesz(args):
    p = _load_exponent(args, required=False)
    pot = riesz_potential(_function_on_grid(args, p), args.alpha)
    return _grid_output(args, p, pot, ["alpha = %.9g" % args.alpha])


def _run_k0scan(args):
    from .k0 import CubeFamily, k0alpha_constant, norm_harmonic_sandwich

    p = _load_exponent(args)
    if p.dimension != 1:
        raise PreconditionError("the scan subcommand is one-dimensional")
    if not (0.0 < args.vol_min <= args.vol_max < math.inf):
        raise PreconditionError("need 0 < --vol-min <= --vol-max < inf")
    if not math.isfinite(args.anchor):
        raise PreconditionError(f"--anchor must be finite, got {args.anchor}")
    if not args.anchor < args.anchor + args.vol_min <= args.anchor + args.vol_max < math.inf:
        raise PreconditionError(f"--anchor {args.anchor} plus --vol-min rounds to it or plus "
                                f"--vol-max overflows")
    volumes = np.geomspace(args.vol_min, args.vol_max, args.num)
    # boxes, not center and radius: anchor + v/2 - v/2 can round below the
    # anchor and read a sliver of the piece to its left
    family = CubeFamily.from_boxes([((args.anchor, args.anchor + v),) for v in volumes])
    centers = [args.anchor + v / 2.0 for v in volumes]
    radii = [v / 2.0 for v in volumes]
    report = k0alpha_constant(p, args.alpha, family)
    rows = list(zip(centers, radii, report.value.tolist()))
    sandwich = norm_harmonic_sandwich(p, family)
    lines = [
        "alpha = %.9g" % args.alpha,
        "best sample = %.9g at index %d" % (report.best_value, report.best_index),
        "sandwich holds = %s" % sandwich.all_ok,
        "seed = %d" % args.seed,
    ] + _constant_lines(p)
    return ["center", "radius", "sample_value"], rows, lines, True


def _run_paircheck(args):
    rng = np.random.default_rng(args.seed)
    cells = args.cells
    grid = GridDomain(((0.0, 1.0),), (cells,))
    h = grid.h
    rows = []
    kernel = riesz_kernel(args.alpha, 1) if args.mode == "czo" else None
    t0 = kernel_threshold(kernel) if kernel is not None else None
    t_hi = 10.0 if t0 is None else t0 + 6.0
    mcap = max(2, int((cells - 4) / (t_hi + 3.0)))
    for index in range(int(args.count)):
        vals = rng.uniform(0.0, 1.0, cells)
        f = GridFunction(grid, vals)
        m = int(rng.integers(2, mcap + 1))
        t_raw = float(rng.uniform(4.0, 10.0)) if t0 is None else float(
            rng.uniform(t0, t0 + 6.0)
        )
        t = math.ceil(t_raw * m) / m
        span = int(round(t * m)) + 2 * m
        corner = int(rng.integers(0, cells - span))
        base = Cube((corner * h + m * h,), m * h)
        pair = make_tu_pair(base, t)
        if args.mode == "maximal":
            rep = maximal_pair_lower_bound(f, pair, args.alpha)
        else:
            rep = czo_pair_lower_bound(kernel, f, pair)
        rows.append((index, t, m * h, rep.lhs_min, rep.rhs, rep.holds))
    ok = all(bool(r[-1]) for r in rows)
    lines = [
        "mode = " + args.mode,
        "alpha = %.9g" % args.alpha,
        "all bounds hold = %s" % ok,
        "seed = %d" % args.seed,
    ]
    if t0 is not None:
        lines.append("kernel threshold = %.9g" % t0)
    return ["index", "t", "radius", "lhs", "rhs", "holds"], rows, lines, ok


# -- examples: each returns (header, rows, summary lines) ---------------------


def _example_l1_failure(args):
    from . import constructions as cons

    out = cons.build_l1_failure(args.alpha, r_max=args.rmax)
    rows = list(zip(out["ladder"], out["partial_modulars"], out["analytic_partials"]))
    lines = [
        "alpha = %.9g" % args.alpha,
        "measured slope = %.9g" % out["slope"],
        "analytic slope = %.9g" % out["analytic_slope"],
    ]
    return ["window", "measured", "analytic"], rows, lines


def _example_ex61(args):
    from . import constructions as cons

    spec = cons.build_ex61(args.alpha)
    chk = cons.ex61_divergence_check(spec, args.k)
    rows = [
        (k + 1, wp, wo, mp, mo, hn)
        for k, (wp, wo, mp, mo, hn) in enumerate(
            zip(chk["weight_partials"], chk["weight_oracle"],
                chk["maximal_partials"], chk["maximal_oracle"],
                chk["harmonic_numbers"])
        )
    ]
    scan = cons.ex61_interval_constant_scan(spec, min(args.k, 50))
    window_ok = all(w["holds"] for w in chk["window_reports"])
    lines = [
        "alpha = %.9g" % args.alpha,
        "scan best = %.9g over %d samples" % (scan["best"], len(scan["samples"])),
        "window floors hold = %s" % window_ok,
    ] + _constant_lines(spec.exponent)
    header = ["k", "rho_p_partial", "rho_p_oracle", "rho_q_partial", "rho_q_oracle",
              "harmonic"]
    return header, rows, lines


def _witness_table(args, spec):
    """Witness rows j = 2..--j-max of an EX62/EX63/EX64 spec."""
    from . import constructions as cons

    rows_raw = cons.witness_check(spec, range(2, args.j_max + 1))
    rows = [
        (r["j"], r["measure"], r["mean"], r["lambda"], r["modular"],
         r["mean_ok"], r["norm_beats_lambda"])
        for r in rows_raw
    ]
    lines = [
        "all witnesses beat their scale = %s"
        % all(r["norm_beats_lambda"] for r in rows_raw),
    ] + _constant_lines(spec.exponent)
    return ["j", "measure", "mean", "lambda", "modular", "mean_ok", "beats"], rows, lines


def _example_ex62(args):
    from . import constructions as cons

    spec = cons.build_ex62()
    header, rows, lines = _witness_table(args, spec)
    two = cons.two_sided_interval_check(spec, seed=args.seed)
    lines += [
        "two-sided lower = %.9g (holds = %s)" % (two["lower"], two["lower_holds"]),
        "two-sided measured upper = %.9g" % two["measured_upper"],
        "long-interval cap = %.9g (holds = %s)"
        % (two["long_interval_cap"], two["long_cap_holds"]),
    ]
    return header, rows, lines


def _example_ex63(args):
    from . import constructions as cons

    return _witness_table(args, cons.build_ex63(args.alpha, args.p_minus, args.p_plus))


def _example_ex64(args):
    from . import constructions as cons

    return _witness_table(args, cons.build_ex64(args.alpha, args.p_minus, args.p_plus))


def _example_hm_counter(args):
    from . import constructions as cons

    w = cons.hm_counterexample().witnesses
    rows = [("containing_mean", w["mean_big"], w["formula_big"]),
            ("subcube_mean", w["mean_sub"], w["formula_sub"])]
    lines = [
        "containing-cube mean = %.9g" % w["mean_big"],
        "subcube mean = %.9g" % w["mean_sub"],
        "monotonicity fails = %s" % w["monotone_fails"],
    ]
    return ["quantity", "computed", "closed_form"], rows, lines


_EXAMPLES = {
    "L1_FAILURE": _example_l1_failure,
    "EX61": _example_ex61,
    "EX62": _example_ex62,
    "EX63": _example_ex63,
    "EX64": _example_ex64,
    "HM_COUNTER": _example_hm_counter,
}


def _run_example(args):
    name = args.name.upper()
    if name not in _EXAMPLES:
        raise PreconditionError(
            f"unknown example {args.name!r}; choose from {tuple(_EXAMPLES)}"
        )
    header, rows, lines = _EXAMPLES[name](args)
    return header, rows, ["example = " + name, "seed = %d" % args.seed] + lines, True


def _run_blowup(args):
    from . import constructions as cons

    p = _load_exponent(args) if args.spec else cons.default_blowup_exponent()
    fam = cons.build_blowup(p, args.alpha, args.t, args.k,
                            cells_per_radius=args.cells_per_radius)
    geo = cons.check_blowup_geometry(fam)
    series = cons.blowup_modular_growth(fam, args.c_scale)
    k0_family = cons.blowup_family_k0(fam)
    floor = cons.blowup_growth_floor(fam, args.c_scale, family_k0=k0_family)
    rows = [
        (lv.k, s, s / lv.k, floor)
        for lv, s in zip(fam.levels, series)
    ]
    lines = [
        "alpha = %.9g, t = %.9g, scale C = %.9g" % (args.alpha, args.t, args.c_scale),
        "family interval constant = %.9g" % k0_family,
        "certified floor = %.9g" % floor,
        "geometry ok = %s" % geo["ok"],
        "seed = %d" % args.seed,
    ]
    for row in geo["levels"]:
        status = "ok" if row["ok"] else "; ".join(row["issues"])
        lines.append("level %d: %s" % (row["k"], status))
    lines += _constant_lines(p)
    return ["k", "series", "series_over_k", "floor"], rows, lines, geo["ok"]


# -- argument parsing --------------------------------------------------------

# flags shared by several subcommands; each subcommand registers the ones it reads
_SHARED_FLAGS = {
    "--spec": dict(default=None, help="exponent spec JSON path"),
    "--cells": dict(type=int, default=256,
                    help="resolution per axis of the grid a --box is painted on "
                         "(at least 16; at most 65536 cells in all)"),
    "--alpha": dict(type=float, default=0.0, help="fractional order"),
    "--csv": dict(default=None, help="grid function CSV"),
    "--box": dict(default=None, help="indicator box 'lo,hi[;lo,hi]'"),
}
_FUNCTION_INPUT = ("--spec", "--csv", "--box")
_GRID_INPUT = _FUNCTION_INPUT + ("--cells",)

# the flags that set how much work a run does, with the range each must lie
# in; at the top of each range a run still takes seconds.  --rmax and
# --cells-per-radius set a grid's size, and the time grows faster than it
_WORK_RANGES = {"--num": (1, 10_000), "--count": (1, 10_000), "--j-max": (2, 10_000),
                "--rmax": (4, 1000), "--cells-per-radius": (1, 4096)}

# the most cells a grid built from --cells may hold in all, and the most
# paircheck's line may hold.  At these ceilings EXACT maximal takes about
# 0.5 s on a line (0.1 s of it formatting and writing results.csv) and
# 0.6-0.75 s on 256^2 cells (the operator alone takes 8.8 s on 512^2), and
# paircheck with 25 pairs about 0.35-0.45 s in maximal mode and 0.25-0.3 s
# in czo mode, with the interpreter's start, on 2 vCPUs
_MAX_GRID_CELLS = 1 << 16
_MAX_PAIRCHECK_CELLS = 1 << 14


@functools.cache
def build_parser():
    """The parser, built once per process.  Each subcommand's default `func`
    is its handler's name, which main looks up in this module at call time."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="varlp",
        description="Variable-exponent norms, maximal operators, and worked constructions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # no abbreviations: `blowup --cells` would otherwise set --cells-per-radius
    def add(name, func, help, *flags):
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.add_argument("--out", default="varlp-out", help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized parts")
        for flag in flags:
            sp.add_argument(flag, **_SHARED_FLAGS[flag])
        sp.set_defaults(func=func.__name__)
        return sp

    add("norm", _run_norm, "Luxemburg norm of a function", *_FUNCTION_INPUT)

    sp = add("modular", _run_modular, "modular of a scaled function", *_FUNCTION_INPUT)
    sp.add_argument("--lam", type=float, default=1.0, help="scale in rho(f/lam)")

    sp = add("maximal", _run_maximal, "fractional maximal function", *_GRID_INPUT, "--alpha")
    sp.add_argument("--policy", choices=("exact", "dyadic"), default="exact")

    add("riesz", _run_riesz, "fractional integral of a grid function", *_GRID_INPUT,
        "--alpha")

    sp = add("k0scan", _run_k0scan, "normalized norm-product samples over intervals",
             "--spec", "--alpha")
    sp.add_argument("--vol-min", type=float, default=1e-3)
    sp.add_argument("--vol-max", type=float, default=1e3)
    sp.add_argument("--num", type=int, default=50, help="samples (1 to 10000)")
    sp.add_argument("--anchor", type=float, default=0.0)

    sp = add("paircheck", _run_paircheck, "translate-pair lower bounds on random data",
             "--alpha")
    sp.add_argument("--cells", type=int, default=256, help="grid cells (64 to 16384)")
    sp.add_argument("--count", type=int, default=25, help="pairs (1 to 10000)")
    sp.add_argument("--mode", choices=("maximal", "czo"), default="maximal")

    sp = add("example", _run_example, "build a named construction and its checks",
             "--alpha")
    sp.add_argument("name", help="one of %s" % ", ".join(_EXAMPLES))
    sp.add_argument("--k", type=int, default=50, help="partial series length")
    sp.add_argument("--j-max", type=int, default=6, help="last witness index (2 to 10000)")
    sp.add_argument("--rmax", type=float, default=1000.0, help="largest window (4 to 1000)")
    sp.add_argument("--p-minus", type=float, default=1.2)
    sp.add_argument("--p-plus", type=float, default=2.0)

    sp = add("blowup", _run_blowup, "build the chain family and its growth series",
             "--spec", "--alpha")
    sp.add_argument("--t", type=float, default=5.0, help="pair separation parameter")
    sp.add_argument("--k", type=int, default=4, help="deepest chain level")
    sp.add_argument("--cells-per-radius", type=int, default=4, help="1 to 4096")
    sp.add_argument("--c-scale", type=float, default=10.0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.seed < 0:
        print(f"error: --seed must be at least 0, got {args.seed}", file=sys.stderr)
        return 1
    least = 64 if args.subcommand == "paircheck" else 16
    if getattr(args, "cells", least) < least:
        print(f"error: --cells must be at least {least}", file=sys.stderr)
        return 1
    if args.subcommand == "paircheck" and args.cells > _MAX_PAIRCHECK_CELLS:
        print(f"error: --cells must be at most {_MAX_PAIRCHECK_CELLS}", file=sys.stderr)
        return 1
    for flag, (low, high) in _WORK_RANGES.items():
        value = getattr(args, flag[2:].replace("-", "_"), low)
        if not low <= value <= high:
            print(f"error: {flag} must be in {low}..{high}, got {value}", file=sys.stderr)
            return 1
    os.makedirs(args.out, exist_ok=True)
    _echo_config(args)
    try:
        header, rows, lines, ok = globals()[args.func](args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, DomainError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_artifacts(args.out, header, rows, lines)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
