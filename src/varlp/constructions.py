"""Worked exponent constructions and their quantitative checks.

Each builder returns concrete objects (exponents, witness sets, grid
functions) together with the numbers the construction promises:

- ``build_l1_failure``: indicator whose fractional maximal loses the dual
  integrability at the endpoint exponent logarithmically in the window size.
- ``build_blowup``: nested cube chains with paired translates and normalized
  indicators whose dual-scale modulars grow linearly in the chain depth.
- ``build_ex61``: sparse-bump exponent whose indicator-norm product constant
  stays bounded while the fractional maximal has no strong bound.
- ``build_ex62`` / ``build_ex63`` / ``build_ex64``: bump or well trains whose
  interval norms along a witness sequence beat any fixed multiple of
  measure^(1/harmonic mean).
- ``hm_counterexample``: two-dimensional nested squares where a subcube has a
  strictly larger harmonic mean than its containing cube.

Bump trains with centers at   e^k or k^rate reach coordinates where float
spacing exceeds the bump width; witness checks there run through the
exact box compile in ``norms`` and, for per-window operator checks,
through translated local windows, never through global grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, PreconditionError
from .exponent import (
    INF,
    BumpsPiece,
    CenterSequence,
    ConstantPiece,
    ExponentFunction,
    PlateauBump,
    conjugate,
    sobolev_dual,
)
from .grid import Cube, GridDomain, GridFunction, MeasurableSet, _check_order
from .k0 import CubeFamily, _k0_report, k0alpha_constant, minimal_harmonic_mean_cube
from .norms import (
    _compile_family,
    _family_row,
    _harmonic_means,
    compile_set,
    duality_constant,
    harmonic_mean,
    holder_constant,
    interval_integral,
    luxemburg_norm,
)
from .operators import (
    covering_cube,
    cube_average,
    fractional_maximal,
    fractional_maximal_uncentered,
    make_tu_pair,
)

EXAMPLE_NAMES = ("L1_FAILURE", "EX61", "EX62", "EX63", "EX64", "HM_COUNTER")
# half width of the EX61 window |u| <= 4 around one bump, u = x - e^k
_EX61_HALF_WIDTH = 4.0
# slack of the positions and radii check_blowup_geometry compares
_GEOMETRY_TOL = 1e-9
# the most work, 2 * cells_per_radius * rho^2, a chain build may ask for: its
# cube search reads rho = 2^(k-1) (t sqrt(n) + 2) radii over its deepest grid
# of 2 * cells_per_radius * rho cells.  The slowest run it allows timed,
# `varlp blowup --k 5 --t 6 --cells-per-radius 4096`, took 1.5 s with the
# interpreter's start, 0.3 s of it in build_blowup (2 vCPUs)
_MAX_BLOWUP_WORK = 1 << 27


@dataclass
class ExampleSpec:
    """A named worked construction: exponent, parameters, witness objects."""

    name: str
    parameters: dict
    exponent: ExponentFunction
    witnesses: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXAMPLE_NAMES:
            raise PreconditionError(
                f"unknown example {self.name!r}, expected one of {EXAMPLE_NAMES}"
            )


# ---------------------------------------------------------------------------
# endpoint failure of the fractional maximal on L^1
# ---------------------------------------------------------------------------


def l1_failure_maximal_closed_form(x, alpha):
    """Exact centered maximal of the unit-cube indicator at |x| > 1/2 (n = 1).

    The best centered interval reaches exactly across the support, giving
    (2|x| + 1)^(alpha - 1).
    """
    x = np.abs(np.asarray(x, dtype=float))
    return (2.0 * x + 1.0) ** (alpha - 1.0)


def l1_failure_analytic_partial(r, alpha):
    """Closed-form value of the window modular for n = 1.

    integral over 1 <= |x| <= R of ((2|x|+1)^(alpha-1))^(1/(1-alpha)) dx
      = integral of (2|x|+1)^(-1) = log((2R+1)/3),
    independent of alpha (both tails contribute half).
    """
    r = float(r)
    if r <= 1.0:
        return 0.0
    return math.log((2.0 * r + 1.0) / 3.0)


def build_l1_failure(alpha, r_max=1000.0):
    """Indicator of the unit interval plus its window modulars at the dual exponent.

    The grid has 8 cells per unit on [-R, R], R = ceil(r_max).  Returns a
    dict with the grid function, the measured maximal function, the R ladder
    1, 2, 4, ..., r_max, measured and analytic window modulars, and the two
    slopes of the modular against log R (least squares over the ladder tail).
    """
    _check_order(alpha, 1)
    r_max = float(r_max)
    if not (4.0 <= r_max < INF):
        raise PreconditionError(f"window maximum must be finite and at least 4, got {r_max}")
    ladder = [1.0]
    r = 2.0
    while r < r_max:
        ladder.append(r)
        r *= 2.0
    ladder.append(r_max)

    half = math.ceil(r_max) * 1.0
    grid = GridDomain.from_spacing(((-half, half),), 0.125)
    f = GridFunction.indicator(grid, MeasurableSet.from_box(((-0.5, 0.5),)))
    mf = fractional_maximal(f, alpha)

    qexp = 1.0 / (1.0 - alpha)
    x = grid.axis_midpoints(0)
    integrand = mf.values ** qexp
    measured = []
    for r in ladder:
        window = (np.abs(x) >= 1.0) & (np.abs(x) <= r)
        measured.append(float(integrand[window].sum()) * grid.cell_volume)
    analytic = [l1_failure_analytic_partial(r, alpha) for r in ladder]

    # fit the growth over the upper half of the ladder, clear of the window floor
    tail = list(range(len(ladder)))[max(1, len(ladder) - len(ladder) // 2):]
    if len(tail) < 2:
        tail = list(range(len(ladder)))[1:]
    logs = np.log([ladder[i] for i in tail])
    slope_measured = float(np.polyfit(logs, [measured[i] for i in tail], 1)[0])
    slope_analytic = float(np.polyfit(logs, [analytic[i] for i in tail], 1)[0])

    return {
        "f": f,
        "maximal": mf,
        "alpha": alpha,
        "dual_exponent": qexp,
        "ladder": ladder,
        "partial_modulars": measured,
        "analytic_partials": analytic,
        "slope": slope_measured,
        "analytic_slope": slope_analytic,
    }


# ---------------------------------------------------------------------------
# blow-up family: chains of cubes with paired translates
# ---------------------------------------------------------------------------


def blowup_threshold(n, k, alpha):
    """Threshold exponent of level k: (n^2 k + n) / (n^2 k + alpha)."""
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise PreconditionError(f"level index must be a positive integer, got {k}")
    _check_order(alpha, n)
    return (n * n * k + n) / (n * n * k + alpha)


def blowup_threshold_identity_residual(n, k, alpha):
    """Residual of  -n k (1 - 1/beta)(n beta / (n - alpha beta)) + 1.

    Uses the cancelled forms 1 - 1/beta = (n - alpha)/(n^2 k + n) and
    n beta / (n - alpha beta) = (n^2 k + n)/(n k (n - alpha)), which keep the
    product at 1 to rounding error even for large k.
    """
    big = float(n * n * k + n)
    one_minus_inv = (n - alpha) / big
    dual_factor = big / (n * k * (n - alpha))
    return -n * k * one_minus_inv * dual_factor + 1.0


@dataclass
class BlowupLevel:
    """Level k of the family: geometry, grid, and normalized indicator; the
    threshold set {p < beta} is a cell mask on the level's grid."""

    k: int
    beta: float
    threshold_set: MeasurableSet
    big_radius: float
    small_radius: float
    cube_d: Cube
    chain: tuple
    pairs: tuple
    grid: GridDomain
    f: GridFunction
    f_norm: float
    density: float
    density_floor: float


@dataclass
class BlowupFamily:
    p: ExponentFunction
    alpha: float
    t: float
    n: int
    levels: tuple


def default_blowup_exponent():
    """Continuous exponent on [-5, 5] equal to 1 left of 0.25, rising
    smoothly to 2.

    The flat value-1 region gives the level sets full density, so level
    placement is a deterministic scan.
    """
    w = 5.0
    bump = PlateauBump(height=1.0, plateau_halfwidth=0.25, support_halfwidth=0.75)
    centers = CenterSequence(kind="power", rate=1.0, count=1)
    return ExponentFunction(
        dimension=1,
        domain=((-w, w),),
        pieces=(
            BumpsPiece(((0.25, 1.25),), 1.0, bump, centers),
            ConstantPiece(((1.25, w),), 2.0),
            ConstantPiece(((-w, 0.25),), 1.0),
        ),
    )


def _find_flat_unit_region(p, s_ladder):
    """Leftmost center x with p = 1 a.e. on [x - S, x + S], for the largest S."""

    def g(w):
        return np.maximum(w - 1.0, 0.0)

    lo, hi = p.domain[0]
    for s_half in s_ladder:
        if 2.0 * s_half > (hi - lo):
            continue
        step = s_half / 2.0
        count = int(math.floor((hi - lo - 2.0 * s_half) / step)) + 1
        for i in range(count):
            x = lo + s_half + i * step
            excess = interval_integral(p, x - s_half, x + s_half, g)
            if excess <= 1e-12 * 2.0 * s_half:
                return float(x), float(s_half)
    raise ConstructionError(
        "no flat value-1 region found: the exponent needs p = 1 on a set "
        "wide enough for the requested chain"
    )


def build_blowup(p, alpha, t, k_max, cells_per_radius=4):
    """Build the full chain family for levels k = 1 .. k_max.

    Every level carries: threshold set, centered cube D, the radius ladder
    r_j = 2^(j-1) r, the minimal-harmonic-mean anchor cube, the chain sharing
    the anchor corner, translate pairs at parameter t, and the normalized
    indicator of the anchor cube against the threshold set.
    """
    n = p.dimension
    if n != 1:
        raise PreconditionError("chain builds are one-dimensional")
    _check_order(alpha, n)
    if not 4.0 < t < INF:
        raise PreconditionError(f"need finite t > 4, got t = {t}")
    if not (1 <= int(k_max) <= 10):
        raise PreconditionError(f"k_max must be in 1..10, got {k_max}")
    if not cells_per_radius >= 1:
        raise PreconditionError(f"need at least one cell per radius, got {cells_per_radius}")
    k_max = int(k_max)
    sqrt_n = math.sqrt(n)
    width = t * sqrt_n + 2.0
    rho = 2.0 ** (k_max - 1) * width
    # level k's D spans 2^(k-1) level-1 counts; the tolerance of GridDomain.from_spacing
    count = 2.0 * cells_per_radius * width
    if abs(count - round(count)) > 1e-9 * count:
        raise PreconditionError(f"t = {t} puts {count:.9g} cells across the level-1 cube D, "
                                f"not a whole number")
    if 2.0 * cells_per_radius * rho * rho > _MAX_BLOWUP_WORK:
        raise PreconditionError(f"level {k_max} at t = {t}: 2 * cells_per_radius * rho^2 exceeds "
                                f"{_MAX_BLOWUP_WORK} at rho = {rho:.4g} radii")

    s_ladder = [0.49 * 2.0 ** (-i) for i in range(0, 7)]
    x0, s_half = _find_flat_unit_region(p, s_ladder)

    levels = []
    for k in range(1, k_max + 1):
        beta = blowup_threshold(n, k, alpha)
        big_r = s_half / sqrt_n
        small_r = big_r / (2.0 ** (k - 1) * width)
        cube_d = Cube((x0,), big_r)

        h = small_r / float(cells_per_radius)
        grid = GridDomain.from_spacing(cube_d.as_box(), h)

        # flat region, so the level set fills D; assert the density bound
        e_cells = MeasurableSet.from_sublevel(p, beta, grid)
        density = float(e_cells.grid_mask[1].mean())
        density_floor = 1.0 - 2.0 ** (-n * k) * width ** (-n)
        if not density > density_floor:
            raise ConstructionError(
                f"level {k}: threshold-set density {density} is not above "
                f"{density_floor}"
            )

        anchor = minimal_harmonic_mean_cube(p, cube_d, small_r, e_cells)

        # the chain grows away from the anchor corner; pick the side with room
        sign = 1.0 if anchor.center[0] <= x0 else -1.0
        corner = anchor.center[0] - sign * small_r
        chain = []
        pairs = []
        for j in range(1, k + 1):
            r_j = 2.0 ** (j - 1) * small_r
            cube_j = Cube((corner + sign * r_j,), r_j)
            chain.append(cube_j)
            pairs.append(make_tu_pair(cube_j, t, direction=(sign,)))

        indicator = GridFunction.indicator(grid, e_cells.intersect_box(anchor.as_box()))
        if not indicator.values.any():
            raise ConstructionError(f"level {k}: anchor cube misses the threshold set")
        chi_norm = luxemburg_norm(indicator, p)
        f = GridFunction(grid, indicator.values / chi_norm)
        f_norm = luxemburg_norm(f, p)

        levels.append(
            BlowupLevel(
                k=k,
                beta=beta,
                threshold_set=e_cells,
                big_radius=big_r,
                small_radius=small_r,
                cube_d=cube_d,
                chain=tuple(chain),
                pairs=tuple(pairs),
                grid=grid,
                f=f,
                f_norm=f_norm,
                density=density,
                density_floor=density_floor,
            )
        )
    return BlowupFamily(p=p, alpha=alpha, t=float(t), n=n, levels=tuple(levels))


def check_blowup_geometry(fam):
    """Measure every geometric promise of the family; returns a report dict.

    Checks, per level: cubes and partners inside D, pairwise-disjoint
    partners with the (t-4)/2 r gap, the half-measure overlap with the
    threshold set, the density bound, unit norm of the normalized
    indicator, and the dual-exponent cap on D against the threshold set.
    """
    p, alpha, t, n = fam.p, fam.alpha, fam.t, fam.n
    q = sobolev_dual(p, alpha)
    qcap = (n + 1.0) / (n - alpha)
    rows = []
    ok_all = True
    for lv in fam.levels:
        d_lo, d_hi = lv.cube_d.as_box()[0]
        issues = []
        for j, (cube, pair) in enumerate(zip(lv.chain, lv.pairs), start=1):
            for tag, c in (("chain", cube), ("partner", pair.partner)):
                lo, hi = c.as_box()[0]
                if lo < d_lo - _GEOMETRY_TOL or hi > d_hi + _GEOMETRY_TOL:
                    issues.append(f"{tag} {j} leaves D: [{lo}, {hi}]")
            r_j = cube.radius
            if abs(r_j - 2.0 ** (j - 1) * lv.small_radius) > _GEOMETRY_TOL * r_j:
                issues.append(f"chain radius {j} off the doubling ladder")

        for j1 in range(len(lv.pairs)):
            for j2 in range(j1 + 1, len(lv.pairs)):
                a = lv.pairs[j1].partner.as_box()[0]
                b = lv.pairs[j2].partner.as_box()[0]
                gap = max(a[0], b[0]) - min(a[1], b[1])
                need = (t - 4.0) / 2.0 * lv.pairs[j2].partner.radius
                if gap < need - _GEOMETRY_TOL:
                    issues.append(f"partners {j1 + 1},{j2 + 1} gap {gap} < {need}")

        mask_e = lv.threshold_set.mask_on(lv.grid)
        cell = lv.grid.cell_volume
        for j, (cube, pair) in enumerate(zip(lv.chain, lv.pairs), start=1):
            for tag, c in (("chain", cube), ("partner", pair.partner)):
                overlap = float(mask_e[lv.grid.box_cells(c.as_box())].sum()) * cell
                if not overlap > 0.5 * c.volume:
                    issues.append(f"{tag} {j} overlap {overlap} <= half its volume")

        if not lv.density > lv.density_floor:
            issues.append(f"density {lv.density} not above {lv.density_floor}")
        if abs(lv.f_norm - 1.0) > 1e-6:
            issues.append(f"normalized indicator has norm {lv.f_norm}")

        qv = q.values_on(lv.grid, mask_e)[mask_e]
        q_plus = float(qv.max()) if qv.size else 0.0
        if q_plus > qcap + 1e-12:
            issues.append(f"dual exponent {q_plus} above the cap {qcap}")

        resid = abs(blowup_threshold_identity_residual(n, lv.k, alpha))
        if resid > 1e-12:
            issues.append(f"threshold identity residual {resid}")

        ok_all &= not issues
        rows.append({"k": lv.k, "ok": not issues, "issues": issues, "q_plus": q_plus})
    return {"ok": ok_all, "levels": rows}


def blowup_modular_growth(fam, c_scale):
    """Dual-modular series of the scaled maximal lower envelope, per level.

    For each level the maximal function is evaluated through the covering
    cubes of the translate pairs (an exact lower envelope of the uncentered
    maximal), scaled by 1/c_scale, and its dual modular is accumulated over
    the partner cubes against the threshold set.  A scale that is not
    positive and finite, or so small that a level's term overflows, is
    refused: the series would not bound anything.
    """
    _check_scale(c_scale)
    p, alpha, n = fam.p, fam.alpha, fam.n
    q = sobolev_dual(p, alpha)
    series = []
    for lv in fam.levels:
        qv = q.values_on(lv.grid)
        mask_e = lv.threshold_set.mask_on(lv.grid)
        cell = lv.grid.cell_volume
        total = 0.0
        for pair in lv.pairs:
            cover = covering_cube(pair)
            integral = cube_average(lv.f, cover) * cover.volume
            value = cover.volume ** (alpha / n - 1.0) * integral
            cells = lv.grid.box_cells(pair.partner.as_box())
            on_e = mask_e[cells]
            if not on_e.any():
                continue
            with np.errstate(over="ignore"):
                contrib = (value / c_scale) ** qv[cells][on_e]
            total += float(contrib.sum()) * cell
        if not math.isfinite(total):
            raise PreconditionError(f"the level {lv.k} series term overflows at scale "
                                    f"C = {c_scale!r}")
        series.append(total)
    return series


def _check_scale(c_scale):
    if not (c_scale > 0.0 and math.isfinite(c_scale)):
        raise PreconditionError(f"scale must be positive and finite, got {c_scale}")


def blowup_growth_floor(fam, c_scale, family_k0=None):
    """Certified per-level floor of the growth series divided by the level.

    (2^(-alpha-n-5) ((t+2) sqrt(n))^(alpha-n) k / (C K^3 K0))^((n+1)/(n-alpha))
    with K, k the pairing constants of the exponent and K0 the interval
    constant over the chain family (1.0 when not supplied).  A scale that is
    not positive and finite, or a floor that overflows, is refused.
    """
    _check_scale(c_scale)
    p, alpha, t, n = fam.p, fam.alpha, fam.t, fam.n
    kk = holder_constant(p)
    k_small = duality_constant(p)
    k0 = 1.0 if family_k0 is None else float(family_k0)
    try:
        base = (
            2.0 ** (-alpha - n - 5.0)
            * ((t + 2.0) * math.sqrt(n)) ** (alpha - n)
            * k_small
            / (c_scale * kk ** 3 * k0)
        )
        floor = base ** ((n + 1.0) / (n - alpha))
    except (OverflowError, ZeroDivisionError):
        floor = math.inf
    if not math.isfinite(floor):
        raise PreconditionError(f"the growth floor overflows at scale C = {c_scale!r}")
    return floor


def blowup_family_k0(fam):
    """Interval constant of the chain family: the largest normalized product
    of indicator norms over every chain cube and partner cut by its level's
    threshold set.  All the cut sets of all levels compile as one family,
    and the K0 samples of those of positive measure are read at alpha = 0;
    0.0 when no cut set has measure."""
    p = fam.p
    sets = []
    for lv in fam.levels:
        sets += [lv.threshold_set.intersect_box(cube.as_box())
                 for cube in list(lv.chain) + [pr.partner for pr in lv.pairs]]
    compiled = _compile_family(p, sets)
    met = np.flatnonzero(compiled.measure > 0.0)
    report = _k0_report(0.0, p.dimension, compiled.measure[met],
                        compiled.norms(conjugate(p))[met], compiled.norms(p)[met])
    return max(0.0, report.best_value)


# ---------------------------------------------------------------------------
# sparse bumps: bounded norm-product constant, unbounded fractional maximal
# ---------------------------------------------------------------------------


def build_ex61(alpha, count=400):
    """Exponent with plateau bumps at e^k over a constant base.

    Requires 0 < alpha < 1/2.  The base and plateau values are tuned so the
    plateau weight sequence k^(-sigma) has convergent modular while the
    maximal values on the flanking intervals lose summability exactly at the
    harmonic rate.
    """
    if not (0.0 < alpha < 0.5):
        raise PreconditionError(f"need 0 < alpha < 1/2, got {alpha}")
    count = int(count)
    if not (1 <= count <= 500):
        raise PreconditionError(f"center count must be in 1..500, got {count}")
    base = (1.0 + alpha) / (2.0 * alpha * (2.0 - alpha))
    height = (5.0 - 8.0 * alpha + 5.0 * alpha * alpha) / (
        6.0 * alpha * (1.0 - alpha) * (2.0 - alpha)
    )
    top = (2.0 - alpha) / (3.0 * alpha * (1.0 - alpha))
    sigma = 3.0 * alpha * (1.0 - alpha) / (1.0 + alpha)

    hi = math.exp(count) * (1.0 + 1e-9) + 2.0
    box = ((-2.0, hi),)
    piece = BumpsPiece(
        box,
        base,
        PlateauBump(height=height, plateau_halfwidth=0.25, support_halfwidth=0.5),
        CenterSequence(kind="exp", rate=1.0, count=count),
    )
    p = ExponentFunction(dimension=1, domain=box, pieces=(piece,))
    return ExampleSpec(
        name="EX61",
        parameters={"alpha": alpha, "count": count},
        exponent=p,
        witnesses={
            "base": base,
            "height": height,
            "plateau": top,
            "weight_rate": sigma,
            "dual_base": (1.0 + alpha) / (3.0 * alpha * (1.0 - alpha)),
            "modular_rate": (2.0 - alpha) / (1.0 + alpha),
        },
    )


def ex61_local_window(spec):
    """Exponent of one bump in window coordinates u = x - e^k.

    Valid verbatim for every k >= 1 because neighboring bump supports stay
    outside |u| <= _EX61_HALF_WIDTH.
    """
    piece = spec.exponent.pieces[0]
    gap = math.exp(2.0) - math.exp(1.0)
    if _EX61_HALF_WIDTH + piece.bump.support_halfwidth >= gap:
        raise PreconditionError(f"window {_EX61_HALF_WIDTH} reaches the neighboring bump")
    box = ((-_EX61_HALF_WIDTH, _EX61_HALF_WIDTH),)
    local = BumpsPiece(
        box,
        piece.base,
        piece.bump,
        CenterSequence(kind="fixed", positions=(0.0,)),
        direction=piece.direction,
    )
    return ExponentFunction(dimension=1, domain=box, pieces=(local,))


def ex61_sets():
    """Support window, plateau core, and flanking pair of every EX61 bump
    (in window coordinates u = x - e^k, the same for each k)."""
    return {
        "support": (-0.5, 0.5),
        "core": (-0.25, 0.25),
        "flanks": ((-1.5, -0.5), (0.5, 1.5)),
    }


def ex61_divergence_check(spec, big_k, check_levels=6):
    """Partial series of the two modulars: the function itself converges, the
    scaled maximal lower bound diverges harmonically.

    The weight modular partial is sum over k <= K of the exact plateau
    integral; the maximal partial uses the flanking lower bound
    (3^(alpha-1)/2) k^(-sigma), verified cell-by-cell on translated windows
    against the uncentered maximal for the first few levels.
    """
    if spec.name != "EX61":
        raise PreconditionError(f"expected an EX61 spec, got {spec.name}")
    alpha = spec.parameters["alpha"]
    sigma = spec.witnesses["weight_rate"]
    big_k = int(big_k)
    if big_k < 1:
        raise PreconditionError(f"need at least one term, got {big_k}")
    if big_k > spec.parameters["count"]:
        raise PreconditionError(
            f"partial length {big_k} beyond the built center count"
        )

    p_loc = ex61_local_window(spec)
    q_loc = sobolev_dual(p_loc, alpha)
    sets = ex61_sets()

    core = compile_set(p_loc, MeasurableSet.from_box((sets["core"],)))
    flanks = [compile_set(q_loc, MeasurableSet.from_box((ab,))) for ab in sets["flanks"]]

    weight_terms = []
    maximal_terms = []
    oracle_weight = []
    oracle_maximal = []
    q_flank = 1.0 / sigma
    flank_value_base = 3.0 ** (alpha - 1.0) / 2.0
    for k in range(1, big_k + 1):
        w = k ** (-sigma)

        def g_weight(v, w=w):
            return np.where(np.isfinite(v), w ** v, 0.0)

        weight_terms.append(core.integral(p_loc, g_weight))
        oracle_weight.append(0.5 * k ** (-spec.witnesses["modular_rate"]))

        bound = flank_value_base * w

        def g_max(v, bound=bound):
            return np.where(np.isfinite(v), bound ** v, 0.0)

        maximal_terms.append(sum(flank.integral(q_loc, g_max) for flank in flanks))
        oracle_maximal.append(2.0 * flank_value_base ** q_flank / k)

    window_reports = []
    grid = GridDomain.from_spacing(p_loc.domain, (2.0 * _EX61_HALF_WIDTH) / 256)
    for k in range(1, min(check_levels, big_k) + 1):
        w = k ** (-sigma)
        chi = GridFunction.indicator(grid, MeasurableSet.from_box((sets["core"],)))
        fk = GridFunction(grid, w * chi.values)
        mf = fractional_maximal_uncentered(fk, alpha)
        x = grid.axis_midpoints(0)
        flank_mask = (np.abs(x) >= 0.5) & (np.abs(x) <= 1.5)
        floor = flank_value_base * w
        min_on_flanks = float(mf.values[flank_mask].min())
        window_reports.append(
            {
                "k": k,
                "floor": floor,
                "min_measured": min_on_flanks,
                "holds": min_on_flanks >= floor * (1.0 - 1e-9),
            }
        )

    harmonic = np.cumsum(1.0 / np.arange(1.0, big_k + 1.0))
    return {
        "weight_partials": np.cumsum(weight_terms),
        "weight_oracle": np.cumsum(oracle_weight),
        "maximal_partials": np.cumsum(maximal_terms),
        "maximal_oracle": np.cumsum(oracle_maximal),
        "harmonic_numbers": harmonic,
        "flank_exponent": q_flank,
        "flank_base": flank_value_base,
        "window_reports": window_reports,
    }


def ex61_interval_constant_scan(spec, big_k, per_run=None):
    """Normalized norm-product samples over window volumes 1e-3 .. e^K.

    Three families: intervals anchored in the flat region between the first
    two bumps, plateau-centered windows (computed in translated coordinates),
    and long intervals swallowing the first j bumps.  Returns every sample
    and the running best; rerunning with doubled density is the stability
    check.
    """
    if spec.name != "EX61":
        raise PreconditionError(f"expected an EX61 spec, got {spec.name}")
    alpha = spec.parameters["alpha"]
    big_k = int(min(big_k, spec.parameters["count"] - 1))
    density = 1 if per_run is None else int(per_run)
    p = spec.exponent

    def scan(pp, intervals):
        family = CubeFamily.from_boxes([((a, b),) for a, b, _ in intervals])
        report = k0alpha_constant(pp, alpha, family)
        return [{"label": label, "measure": measure, "value": value}
                for (_, _, label), measure, value in zip(intervals, report.measure.tolist(),
                                                         report.value.tolist())]

    base_anchor = math.exp(1.0) + 1.0
    vol_count = 7 * density
    vols = np.geomspace(1e-3, 1.0, vol_count)
    flat = [(base_anchor, base_anchor + vol, f"flat-{vol:.3e}") for vol in vols]
    plateau = [(-vol / 2.0, vol / 2.0, f"plateau-{vol:.3e}") for vol in vols]
    long = [(-1.0, math.exp(float(j)) + 1.5, f"long-{float(j):.2f}")
            for j in np.linspace(1.0, float(big_k), density * big_k)]
    far = scan(p, flat + long)
    samples = far[:len(flat)] + scan(ex61_local_window(spec), plateau) + far[len(flat):]

    best = max(s["value"] for s in samples)
    return {"samples": samples, "best": best}


# ---------------------------------------------------------------------------
# bump and well trains with witness interval sequences
# ---------------------------------------------------------------------------


def _train_exponent(base, height, direction, rate, count):
    """Bump/well train k -> k^rate with unit-width supports, on a domain
    that runs 2 past the first and the last center."""
    top_center = float(count) ** rate
    box = ((-2.0, top_center * (1.0 + 1e-9) + 2.0),)
    piece = BumpsPiece(
        box,
        base,
        PlateauBump(height=height, plateau_halfwidth=0.25, support_halfwidth=0.5),
        CenterSequence(kind="power", rate=rate, count=count),
        direction=direction,
    )
    return ExponentFunction(dimension=1, domain=box, pieces=(piece,))


def build_ex62(count=4 * 10 ** 15):
    """Exponent 6/5 with height-4/5 bumps spreading quadratically.

    Interval norms stay comparable to measure^(1/harmonic mean) while the
    conjugate norms beat every fixed multiple along the witness intervals.
    """
    p = _train_exponent(1.2, 0.8, +1, 2.0, int(count))
    return ExampleSpec(
        name="EX62",
        parameters={"count": int(count)},
        exponent=p,
        witnesses={
            "p_minus": 1.2,
            "p_plus": 2.0,
            "conj_range": (2.0, 6.0),
            "witness_power": 30.0,
            "bumps_power": 15.0,
        },
    )


def _check_train(alpha, p_minus, p_plus):
    """Refuse a train outside 0 < alpha < 1 and 1 < p_minus < p_plus < 1/alpha."""
    if not (0.0 < alpha < 1.0):
        raise PreconditionError(f"need 0 < alpha < 1, got {alpha}")
    if not (1.0 < p_minus < p_plus < 1.0 / alpha):
        raise PreconditionError(f"need 1 < p_minus < p_plus < 1/alpha, "
                                f"got {p_minus}, {p_plus}, 1/{alpha}")


def build_ex63(alpha, p_minus, p_plus, count=10 ** 15):
    """Well train from p_plus down to p_minus spreading at rate p_plus/p_minus.

    The exponent itself keeps the bounded norm-product constant; its
    fractional dual loses it along the witness sequence.
    Requires 1 < p_minus < p_plus < 1/alpha.
    """
    _check_train(alpha, p_minus, p_plus)
    q_minus = 1.0 / (1.0 / p_minus - alpha)
    q_plus = 1.0 / (1.0 / p_plus - alpha)
    beta_p = p_plus / p_minus
    beta_q = q_plus / q_minus
    delta = beta_q / beta_p
    if not delta > 1.0:
        raise ConstructionError(f"rate gap collapsed: delta = {delta}")
    gamma = (1.0 + q_minus) / (1.0 - 2.0 / (delta + 1.0))
    p = _train_exponent(p_plus, p_plus - p_minus, -1, beta_p, int(count))
    return ExampleSpec(
        name="EX63",
        parameters={"alpha": alpha, "p_minus": p_minus, "p_plus": p_plus,
                    "count": int(count)},
        exponent=p,
        witnesses={
            "q_minus": q_minus,
            "q_plus": q_plus,
            "beta_p": beta_p,
            "beta_q": beta_q,
            "delta": delta,
            "gamma": gamma,
            "spacing_rate": beta_p,
            "witness_power": beta_p * gamma,
            "bumps_power": gamma,
            "mean_floor": 0.5 * (q_plus + beta_p * q_minus),
        },
    )


def build_ex64(alpha, p_minus, p_plus, count=10 ** 15):
    """Bump train from p_minus up to p_plus spreading at the conjugate-dual rate.

    The fractional dual keeps the bounded norm-product constant while the
    conjugate exponent loses it along the witness sequence.
    Requires 1 < p_minus < p_plus < 1/alpha.
    """
    _check_train(alpha, p_minus, p_plus)
    conj_plus = p_minus / (p_minus - 1.0)
    conj_minus = p_plus / (p_plus - 1.0)
    beta_conj = p_minus * (p_plus - 1.0) / (p_plus * (p_minus - 1.0))
    beta_dual_conj = (
        p_minus * (p_plus - 1.0 + alpha * p_plus)
        / (p_plus * (p_minus - 1.0 + alpha * p_minus))
    )
    if not beta_conj > beta_dual_conj:
        raise ConstructionError(
            f"rate order failed: {beta_conj} <= {beta_dual_conj}"
        )
    delta = beta_conj / beta_dual_conj
    gamma = (1.0 + conj_minus) / (1.0 - 2.0 / (delta + 1.0))
    p = _train_exponent(p_minus, p_plus - p_minus, +1, beta_dual_conj, int(count))
    return ExampleSpec(
        name="EX64",
        parameters={"alpha": alpha, "p_minus": p_minus, "p_plus": p_plus,
                    "count": int(count)},
        exponent=p,
        witnesses={
            "conj_minus": conj_minus,
            "conj_plus": conj_plus,
            "beta_conj": beta_conj,
            "beta_dual_conj": beta_dual_conj,
            "delta": delta,
            "gamma": gamma,
            "spacing_rate": beta_dual_conj,
            "witness_power": beta_dual_conj * gamma,
            "bumps_power": gamma,
            "mean_floor": 0.5 * (conj_plus + beta_dual_conj * conj_minus),
        },
    )


def witness_interval(spec, j):
    """The j-th witness interval (a, b): measure exactly j^witness_power.
    A length past the float range is refused."""
    power = spec.witnesses["witness_power"]
    try:
        length = float(j) ** power
    except OverflowError:
        raise PreconditionError(f"witness interval {j} is too long: its length "
                                f"{j}^{power!r} overflows") from None
    return (0.75, 0.75 + length)


def _witness_target_exponent(spec):
    """Exponent whose norm blows up along the witness sequence."""
    if spec.name == "EX62":
        return conjugate(spec.exponent)
    if spec.name == "EX63":
        return sobolev_dual(spec.exponent, spec.parameters["alpha"])
    if spec.name == "EX64":
        return conjugate(spec.exponent)
    raise PreconditionError(f"{spec.name} has no witness sequence")


def _witness_scale(target, dist, interval, j):
    """(measure, mean, lambda = j * measure^(1/mean)) of the j-th witness
    interval, its mean read from dist, the interval compiled against target."""
    (a, b), = interval.box
    measure = b - a
    mean = float(_harmonic_means(dist, target, [interval])[0])
    return measure, mean, j * measure ** (1.0 / mean)


def witness_check(spec, j_values):
    """Norm blow-up along the witness intervals.

    For each j: the harmonic mean of the target exponent over the interval,
    the scale lambda = j * measure^(1/mean), and the modular of the scaled
    indicator, which at or above 1 certifies norm >= lambda.  For EX62 the
    mean bound is a fixed threshold (5); for EX63/EX64 the bound is
    (top + rate * bottom)/2 from j >= 2.  Every j is checked, and its
    interval built, before any interval compiles; the intervals compile as
    one family, and each j reads its own row as one compiled set.
    """
    target = _witness_target_exponent(spec)
    mean_floor = 5.0 if spec.name == "EX62" else spec.witnesses["mean_floor"]
    js = [int(j) for j in j_values]
    for j in js:
        if j < 2:
            raise PreconditionError(f"witness indices start at 2, got {j}")
    sets = [MeasurableSet.from_box((witness_interval(spec, j),)) for j in js]
    family = _compile_family(target, sets)
    rows = []
    for r, (j, interval) in enumerate(zip(js, sets)):
        dist = _family_row(family, r)
        measure, mean, lam = _witness_scale(target, dist, interval, j)
        rho = dist.modular(target, lam)
        rows.append(
            {
                "j": j,
                "measure": measure,
                "mean": mean,
                "mean_floor": mean_floor,
                "mean_ok": mean >= mean_floor - 1e-9,
                "lambda": lam,
                "modular": rho,
                "norm_beats_lambda": rho >= 1.0,
            }
        )
    return rows


def witness_norm_check(spec, j):
    """Direct norm solve for one witness index: returns (norm, lambda).
    The mean and the norm read one compiled interval."""
    target = _witness_target_exponent(spec)
    interval = MeasurableSet.from_box((witness_interval(spec, j),))
    dist = compile_set(target, interval)
    return dist.norm(target), _witness_scale(target, dist, interval, j)[2]


def two_sided_interval_check(spec, seed=0):
    """Measured two-sidedness of norm vs measure^(1/harmonic mean) for EX62.

    The lower constant 1/(2K) is certified; the upper constant is measured
    and reported, with the long-interval branch additionally capped by the
    closed-form maximum of x^(2(1 - (6/5) x^-2 ((5/6) x^2 - 2x - 1/6))).
    The 40 intervals are drawn from seed: log-uniform lengths in [1e-2, 1e6]
    from starts uniform in [0, 100].  They compile once, as one family: each
    harmonic mean and each norm is read from the same row, and the norms
    come from one batched solve."""
    if spec.name != "EX62":
        raise PreconditionError(f"two-sided check is the EX62 scan, got {spec.name}")
    p = spec.exponent
    lower = 1.0 / (2.0 * holder_constant(p))
    rng = np.random.default_rng(seed)
    intervals = []
    for _ in range(40):
        length = float(np.exp(rng.uniform(np.log(1e-2), np.log(1e6))))
        start = float(rng.uniform(0.0, 100.0))
        intervals.append((start, start + length))
    xs = np.linspace(1.0, 40.0, 4001)
    with np.errstate(all="ignore"):
        shape = xs ** (2.0 * (1.0 - 1.2 * (xs ** -2.0) * (xs * xs * 5.0 / 6.0 - 2.0 * xs - 1.0 / 6.0)))
    long_cap = float(np.nanmax(shape))
    sets = [MeasurableSet.from_box(((a, b),)) for a, b in intervals]
    compiled = _compile_family(p, sets)
    means, norms = _harmonic_means(compiled, p, sets).tolist(), compiled.norms(p).tolist()
    rows = [{"interval": (a, b), "measure": b - a, "ratio": norm / (b - a) ** (1.0 / mean)}
            for (a, b), mean, norm in zip(intervals, means, norms)]
    measured_upper = max(r["ratio"] for r in rows)
    return {
        "lower": lower,
        "rows": rows,
        "measured_upper": measured_upper,
        "long_interval_cap": long_cap,
        "lower_holds": all(r["ratio"] >= lower * (1.0 - 1e-6) for r in rows),
        "long_cap_holds": all(
            r["ratio"] <= long_cap * (1.0 + 1e-6) for r in rows if r["measure"] >= 1.0
        ),
    }


# ---------------------------------------------------------------------------
# harmonic means are not monotone under cube inclusion
# ---------------------------------------------------------------------------


def hm_counterexample(r=0.75):
    """Two-dimensional nested squares: the harmonic mean over the containing
    cube is smaller than over a subcube touching its corner.

    Exponent: 2 on the centered square of half-width 2r - 1, else 1, on the
    unit-half-width square.  Returns the two cubes, both means (computed and
    closed form)."""
    if not (0.5 < r < 1.0):
        raise PreconditionError(f"need 1/2 < r < 1, got {r}")
    inner = 2.0 * r - 1.0
    outer_box = ((-1.0, 1.0), (-1.0, 1.0))
    inner_box = ((-inner, inner), (-inner, inner))
    p = ExponentFunction(
        dimension=2,
        domain=outer_box,
        pieces=(ConstantPiece(inner_box, 2.0), ConstantPiece(outer_box, 1.0)),
    )
    big = Cube((0.0, 0.0), 1.0)
    sub = Cube((1.0 - r, 1.0 - r), r)
    mean_big = harmonic_mean(p, MeasurableSet.from_cube(big))
    mean_sub = harmonic_mean(p, MeasurableSet.from_cube(sub))
    formula_big = 2.0 / (1.0 + 4.0 * r - 4.0 * r * r)
    formula_sub = 2.0 * r * r / (4.0 * r - 2.0 * r * r - 1.0)
    return ExampleSpec(
        name="HM_COUNTER",
        parameters={"r": r},
        exponent=p,
        witnesses={
            "big_cube": big,
            "sub_cube": sub,
            "mean_big": mean_big,
            "mean_sub": mean_sub,
            "formula_big": formula_big,
            "formula_sub": formula_sub,
            "monotone_fails": mean_sub > mean_big,
        },
    )
