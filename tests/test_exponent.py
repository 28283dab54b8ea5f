"""Exponent functions: pieces, bumps, transforms, and the JSON spec format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varlp import (
    BumpsPiece,
    CenterSequence,
    ConstantPiece,
    DomainError,
    ExponentFunction,
    GridDomain,
    PlateauBump,
    SpecParseError,
    PreconditionError,
    conjugate,
    evaluate,
    from_spec,
    interval_integral,
    lh0_modulus,
    sobolev_dual,
    to_spec,
)
from varlp.exponent import INF, _tf_array

from conftest import FINITE_VALUES, random_piecewise_exponent


# -- plateau bump profile -----------------------------------------------------


def test_profile_plateau_and_support():
    bump = PlateauBump(height=0.8, plateau_halfwidth=0.25, support_halfwidth=0.5)
    d = np.array([0.0, 0.1, 0.25, 0.3, 0.49, 0.5, 0.7, 3.0])
    vals = bump.profile(d)
    assert vals[0] == vals[1] == vals[2] == 0.8, "plateau must sit at full height"
    assert vals[5] == vals[6] == vals[7] == 0.0, "support must end at the halfwidth"
    assert 0.0 < vals[3] < 0.8 and 0.0 < vals[4] < 0.8, "shoulder values stay strictly between"
    mid = bump.profile(np.array([0.375]))[0]
    assert abs(mid - 0.4) < 1e-12, f"cubic shoulder is symmetric at midpoint, got {mid}"


def test_profile_monotone_on_shoulder():
    bump = PlateauBump(height=1.3, plateau_halfwidth=0.1, support_halfwidth=0.6)
    d = np.linspace(0.1, 0.6, 200)
    vals = bump.profile(d)
    assert np.all(np.diff(vals) <= 1e-15), "profile must not increase with distance"


def test_shoulder_integral_matches_dense_quadrature():
    # oracle first: dense midpoint quadrature of g(profile) over one shoulder;
    # the box route reads the interval [c + m, c + s] of p = 1 + bump
    bump = PlateauBump(height=0.8, plateau_halfwidth=0.25, support_halfwidth=0.5)
    xs = np.linspace(0.25, 0.5, 400001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    piece = BumpsPiece(((0.0, 4.0),), 1.0, bump, CenterSequence(kind="fixed", positions=(2.0,)))
    p = ExponentFunction(dimension=1, domain=((0.0, 4.0),), pieces=(piece,))
    for g in (lambda v: v + 1.0, lambda v: (v + 1.2) ** 2, np.exp):
        dense = float(np.sum(g(bump.profile(mids))) * (xs[1] - xs[0]))
        exact = interval_integral(p, 2.25, 2.5, lambda v: g(v - 1.0))
        assert abs(exact - dense) <= 1e-9 * abs(dense), (
            f"shoulder integral {exact} vs dense {dense}"
        )


# -- center sequences ---------------------------------------------------------


def index_range(cs, lo, hi):
    """(k_first, k_last) of the centers in [lo, hi], read through
    _index_ranges on one-element arrays."""
    k_first, k_last = cs._index_ranges(np.array([lo]), np.array([hi]))
    return int(k_first[0]), int(k_last[0])


def test_center_sequence_exponential_positions():
    cs = CenterSequence(kind="exp", rate=1.0, count=400)
    assert cs.position(1) == pytest.approx(math.e)
    assert cs.position(3) == pytest.approx(math.exp(3.0))
    k0, k1 = index_range(cs, 2.0, 60.0)
    assert (k0, k1) == (1, 4), f"centers in [2, 60] should be e^1..e^4, got {(k0, k1)}"


def test_center_sequence_power_huge_count():
    cs = CenterSequence(kind="power", rate=2.0, count=4 * 10 ** 15)
    assert cs.position(10 ** 7) == 1e14
    k0, k1 = index_range(cs, 1e14 - 1e7, 1e14 + 1e7)
    assert k0 == 10 ** 7 and k1 == 10 ** 7, "window around k^2 = 1e14 holds exactly one center"
    lo, hi = index_range(cs, 24.5, 123.0)
    assert (lo, hi) == (5, 11), f"k^2 in (24.5, 123) is k = 5..11, got {(lo, hi)}"


def test_center_sequence_spacing_and_distance():
    cs = CenterSequence(kind="power", rate=2.0, count=1000)
    # gaps k^2 - (k-1)^2 grow with k, so the global minimum is the first gap
    assert cs.min_spacing() == pytest.approx(3.0), "first gap 2^2 - 1^2"
    assert cs.nearest_distance(17.0) == pytest.approx(1.0), "17 sits 1 away from 16"
    single = CenterSequence(kind="fixed", positions=(5.0,))
    assert single.min_spacing() == INF, "one center has no pair spacing"


# -- evaluation and pieces ----------------------------------------------------


def test_evaluate_constant_piece():
    p = ExponentFunction.constant(2.0, ((-1.0, 1.0),))
    assert evaluate(p, 0.3) == 2.0


def test_evaluate_bump_train_plateau_value():
    # base 6/5, bump height 4/5 centered at k^2: plateau value exactly 2
    piece = BumpsPiece(((-2.0, 1e6),), 1.2,
                       PlateauBump(height=0.8, plateau_halfwidth=0.25, support_halfwidth=0.5),
                       CenterSequence(kind="power", rate=2.0, count=10 ** 6))
    p = ExponentFunction(dimension=1, domain=((-2.0, 1e6),), pieces=(piece,))
    assert evaluate(p, 1.0) == pytest.approx(2.0, abs=1e-12), "center of first bump"
    assert evaluate(p, 1.2) == pytest.approx(2.0, abs=1e-12), "still on the plateau"
    assert evaluate(p, 2.5) == pytest.approx(1.2, abs=1e-12), "between bumps"
    assert evaluate(p, 4.0) == pytest.approx(2.0, abs=1e-12), "second bump at 2^2"


def test_evaluate_downward_wells():
    piece = BumpsPiece(((-2.0, 1e6),), 2.0,
                       PlateauBump(height=0.8, plateau_halfwidth=0.25, support_halfwidth=0.5),
                       CenterSequence(kind="power", rate=2.0, count=10 ** 6),
                       direction=-1)
    p = ExponentFunction(dimension=1, domain=((-2.0, 1e6),), pieces=(piece,))
    assert evaluate(p, 1.0) == pytest.approx(1.2, abs=1e-12), "well bottom"
    assert evaluate(p, 2.5) == pytest.approx(2.0, abs=1e-12), "base between wells"
    lo, hi = p.bounds()
    assert (lo, hi) == (pytest.approx(1.2), pytest.approx(2.0))


def test_wells_may_not_cross_one():
    with pytest.raises(SpecParseError):
        BumpsPiece(((0.0, 10.0),), 1.5,
                   PlateauBump(height=0.8, plateau_halfwidth=0.25, support_halfwidth=0.5),
                   CenterSequence(kind="power", rate=2.0, count=10),
                   direction=-1)


def test_domain_error_outside():
    p = ExponentFunction.constant(2.0, ((-1.0, 1.0),))
    from varlp import DomainError
    with pytest.raises(DomainError):
        evaluate(p, 3.0)


# -- conjugation and the fractional dual --------------------------------------


def test_conjugate_closed_forms():
    dom = ((0.0, 1.0),)
    assert evaluate(conjugate(ExponentFunction.constant(2.0, dom)), 0.5) == 2.0
    assert evaluate(conjugate(ExponentFunction.constant(1.0, dom)), 0.5) == INF
    assert evaluate(conjugate(ExponentFunction.constant(1.5, dom)), 0.5) == pytest.approx(3.0)


def test_sobolev_dual_closed_forms():
    dom = ((0.0, 1.0),)
    q = sobolev_dual(ExponentFunction.constant(1.5, dom), 0.5)
    assert evaluate(q, 0.5) == pytest.approx(6.0)
    p = ExponentFunction.constant(10.0 / 7.0, dom)
    q2 = sobolev_dual(p, 0.25)
    assert evaluate(q2, 0.5) == pytest.approx(20.0 / 9.0, rel=1e-14)
    same = sobolev_dual(p, 0.0)
    assert evaluate(same, 0.3) == evaluate(p, 0.3), "alpha = 0 keeps the exponent"


def test_sobolev_dual_precondition():
    p = ExponentFunction.constant(5.0, ((0.0, 1.0),))
    with pytest.raises(PreconditionError):
        sobolev_dual(p, 0.5)  # n/alpha = 2 < 5


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_conjugate_is_an_involution(seed):
    rng = np.random.default_rng(seed)
    p = random_piecewise_exponent(rng, allow_inf=True)
    xs = rng.uniform(-2.0, 2.0, 64)
    orig = p.values(xs)
    back = conjugate(conjugate(p)).values(xs)
    finite = np.isfinite(orig)
    assert np.all(np.abs(back[finite] - orig[finite]) <= 1e-12), "p'' must equal p"
    assert np.all(np.isinf(back[~finite])), "infinity must round-trip"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_conjugate_pointwise_identity(seed):
    rng = np.random.default_rng(seed)
    p = random_piecewise_exponent(rng, allow_inf=True)
    xs = rng.uniform(-2.0, 2.0, 64)
    a = p.values(xs)
    b = conjugate(p).values(xs)
    inv = np.where(np.isinf(a), 0.0, 1.0 / a) + np.where(np.isinf(b), 0.0, 1.0 / b)
    assert np.all(np.abs(inv - 1.0) <= 1e-12), "1/p + 1/p' must be exactly 1"


def test_conjugate_bounds_relation(rng):
    for _ in range(25):
        p = random_piecewise_exponent(rng, allow_inf=True)
        pm, pp = p.bounds()
        cm, cp = conjugate(p).bounds()
        expect_cm = INF if pp == 1.0 else (1.0 if pp == INF else pp / (pp - 1.0))
        expect_cp = INF if pm == 1.0 else (1.0 if pm == INF else pm / (pm - 1.0))
        for got, want in ((cm, expect_cm), (cp, expect_cp)):
            if want == INF:
                assert got == INF
            else:
                assert abs(got - want) <= 1e-9, f"(p')_- = (p_+)' failed: {got} vs {want}"


def _tf_scalar(ops, v):
    """One exponent value through a transform chain, read through _tf_array."""
    return float(_tf_array(ops, (v,))[0])


def _reference_tf_scalar(ops, v):
    """The scalar transform loop that _tf_array replaced."""
    for op in ops:
        if op[0] == "conjugate":
            if v == 1.0:
                v = INF
            elif v == INF:
                v = 1.0
            else:
                v = v / (v - 1.0)
        else:
            _, alpha, n = op
            if alpha == 0.0:
                continue
            den = n - alpha * v
            v = INF if (v == INF or den <= 0.0) else n * v / den
    return v


def test_scalar_transform_matches_replaced_loop():
    conj, sob = ("conjugate",), ("sobolev", 0.25, 1.0)
    chains = [(), (conj,), (conj, conj), (sob,), (sob, conj), (conj, sob),
              (("sobolev", 0.5, 2.0), conj, conj), (("sobolev", 0.0, 1.0),)]
    values = [1.0, 1.0 + 1e-15, 1.2, 1.5, 2.0, 3.0, 3.999999, 4.0, 4.5, 10.0, 1e300, INF]
    for ops in chains:
        for v in values:
            got = _tf_scalar(ops, v)
            assert type(got) is float
            assert got == _reference_tf_scalar(ops, v), (ops, v)


# -- painting onto a grid -----------------------------------------------------


def _assert_paints_like_points(p, grid, where=None):
    """raw_values_on and values_on against raw_values and values at the
    midpoints of the cells in where (every cell when where is None): equal
    bit for bit, or the same DomainError with the same message."""
    pts = grid.points() if where is None else grid.points()[np.ravel(where)]
    for on_grid, at_points in ((p.raw_values_on, p.raw_values), (p.values_on, p.values)):
        try:
            want = at_points(pts)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                on_grid(grid, where)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            continue
        got = on_grid(grid, where)
        assert got.shape == grid.cells
        got = got.ravel() if where is None else got[where]
        assert got.tobytes() == want.tobytes()


def _random_axis_box(rng, grid, axis):
    """(lo, hi) whose ends are grid midpoints, grid cell edges or arbitrary
    points a little past the grid."""
    lo, hi = grid.box[axis]
    h = grid.h
    mids = grid.axis_midpoints(axis)
    while True:
        ends = []
        for _ in range(2):
            kind = rng.integers(0, 3)
            if kind == 0:
                ends.append(float(mids[rng.integers(0, len(mids))]))
            elif kind == 1:
                ends.append(lo + h * float(rng.integers(0, grid.cells[axis] + 1)))
            else:
                ends.append(float(rng.uniform(lo - h, hi + h)))
        if ends[0] != ends[1]:
            return min(ends), max(ends)


def _random_painting_case(rng):
    """A 1-D or 2-D grid (square or not) and a piecewise-constant exponent
    whose domain may be narrower or wider than the grid and whose pieces may
    overlap, leave the domain or leave gaps in it."""
    n = int(rng.integers(1, 3))
    h = 0.125 * float(rng.integers(1, 4))
    cells = tuple(int(c) for c in rng.integers(3, 20, n))
    corner = 0.0625 * rng.integers(-8, 8, n)
    grid = GridDomain(tuple((float(a), float(a) + c * h) for a, c in zip(corner, cells)), cells)
    if rng.random() < 0.3:
        domain = grid.box
    else:
        domain = tuple(_random_axis_box(rng, grid, i) for i in range(n))
    values = FINITE_VALUES + (INF,)
    pieces = [ConstantPiece(tuple(_random_axis_box(rng, grid, i) for i in range(n)),
                            values[rng.integers(0, len(values))])
              for _ in range(int(rng.integers(1, 6)))]
    if rng.random() < 0.6:
        pieces.append(ConstantPiece(domain, values[rng.integers(0, len(values))]))
    return grid, ExponentFunction(dimension=n, domain=domain, pieces=tuple(pieces))


def _transformed(p):
    """p, its conjugate and, where p is bounded, a fractional dual of it."""
    out = [p, conjugate(p)]
    try:
        p_plus = p.bounds()[1]
    except DomainError:  # no piece owns any part of the domain
        return out
    if p_plus < INF:
        out.append(sobolev_dual(p, 0.5 * p.dimension / p_plus))
    return out


def test_painting_matches_points_on_random_pieces(rng):
    for _ in range(300):
        grid, p = _random_painting_case(rng)
        pts = grid.points()
        in_domain = np.ones(len(pts), dtype=bool)
        for axis, (lo, hi) in enumerate(p.domain):
            in_domain &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
        wheres = [None, rng.random(grid.cells) < 0.5,
                  in_domain.reshape(grid.cells) & (rng.random(grid.cells) < 0.7)]
        for q in _transformed(p):
            for where in wheres:
                _assert_paints_like_points(q, grid, where)


def test_painting_edges_on_midpoints_and_overlaps():
    grid = GridDomain(((0.0, 2.0),), (8,))  # midpoints 0.125, 0.375, ..., 1.875
    p = ExponentFunction(dimension=1, domain=((0.125, 1.875),), pieces=(
        ConstantPiece(((0.375, 0.625),), 3.0),  # both ends on midpoints, wins the overlap
        ConstantPiece(((0.0, 0.625),), 1.0),
        ConstantPiece(((0.625, 2.0),), INF),
    ))
    inner = np.zeros(8, dtype=bool)
    inner[1:7] = True
    _assert_paints_like_points(p, GridDomain(((0.125, 1.875),), (7,)))
    _assert_paints_like_points(p, grid)  # the domain ends on midpoints: every cell is in it
    _assert_paints_like_points(p, grid, inner)
    assert p.raw_values_on(grid).tolist() == [1.0, 3.0, 3.0, INF, INF, INF, INF, INF]
    wide = GridDomain(((-0.25, 2.25),), (10,))
    with pytest.raises(DomainError, match="outside domain"):
        p.raw_values_on(wide)
    _assert_paints_like_points(p, wide)
    _assert_paints_like_points(p, wide, np.arange(10) % 9 != 0)
    gap = ExponentFunction(dimension=1, domain=((0.0, 2.0),), pieces=(
        ConstantPiece(((0.0, 0.5),), 2.0), ConstantPiece(((1.0, 2.0),), 1.5)))
    with pytest.raises(DomainError, match="not covered"):
        gap.raw_values_on(grid)
    _assert_paints_like_points(gap, grid)
    _assert_paints_like_points(gap, grid, np.arange(8) != 2)
    with pytest.raises(DomainError, match="grid has 2 axes, expected 1"):
        p.values_on(GridDomain(((0.0, 2.0), (0.0, 2.0)), (8, 8)))


def test_painting_tiled_plane_and_non_square_grids(rng):
    values = (1.0, 1.5, 2.0, 3.0, INF)
    tiles = tuple(ConstantPiece(((i / 8, (i + 1) / 8), (j / 8, (j + 1) / 8)),
                                values[rng.integers(0, len(values))])
                  for i in range(8) for j in range(8))
    p = ExponentFunction(dimension=2, domain=((0.0, 1.0), (0.0, 1.0)), pieces=tiles)
    for grid in (GridDomain(((0.0, 1.0), (0.0, 1.0)), (64, 64)),
                 GridDomain(((0.0, 1.0), (0.25, 0.75)), (48, 24)),
                 GridDomain(((-0.5, 1.5), (0.0, 1.0)), (40, 20))):
        for q in (p, conjugate(p)):
            _assert_paints_like_points(q, grid)
            _assert_paints_like_points(q, grid, rng.random(grid.cells) < 0.3)


def test_painting_bump_pieces():
    from varlp.constructions import build_ex61, default_blowup_exponent, ex61_local_window

    window = ex61_local_window(build_ex61(0.25))
    blowup = default_blowup_exponent()
    grids = {
        window: [GridDomain(((-4.0, 4.0),), (256,)), GridDomain(((-0.5, 0.5),), (7,)),
                 GridDomain(((-5.0, 5.0),), (80,))],
        blowup: [GridDomain(((-5.0, 5.0),), (100,)), GridDomain(((-5.0, 0.0),), (40,)),
                 GridDomain(((0.125, 1.375),), (5,)), GridDomain(((0.0, 6.0),), (24,))],
    }
    for p, cases in grids.items():
        for grid in cases:
            inside = np.abs(grid.axis_midpoints(0)) <= p.domain[0][1]
            for q in (p, conjugate(p), sobolev_dual(p, 0.25)):
                _assert_paints_like_points(q, grid)
                _assert_paints_like_points(q, grid, inside)


# -- log-continuity modulus ---------------------------------------------------


def test_lh0_constant_is_zero():
    p = ExponentFunction.constant(2.0, ((0.0, 1.0),))
    assert lh0_modulus(p, num_pairs=500, seed=3).sup_value == 0.0


def test_lh0_step_diverges_on_shrinking_pairs():
    # the defining quotient along a straddling pair sequence grows without bound
    p = ExponentFunction(
        dimension=1, domain=((-1.0, 1.0),),
        pieces=(ConstantPiece(((-1.0, 0.0),), 1.5), ConstantPiece(((0.0, 1.0),), 2.5)),
    )
    last = 0.0
    for d in (1e-2, 1e-4, 1e-6, 1e-8):
        quot = abs(evaluate(p, -d / 2) - evaluate(p, d / 2)) * (-math.log(d))
        assert quot > last, "quotient must grow as the pair tightens"
        last = quot
    assert last >= 13.8, f"at distance 1e-8 the quotient is -log(1e-8) = {last:.2f} >= 13.8"
    sampled = lh0_modulus(p, num_pairs=4000, seed=0)
    assert sampled.sup_value >= 2.0, "random sampling must catch some straddling pair"
    assert sampled.pairs_used > 0


def test_lh0_bump_train_is_stable_under_refinement():
    piece = BumpsPiece(((-2.0, 30.0),), 1.2,
                       PlateauBump(height=0.8, plateau_halfwidth=0.25, support_halfwidth=0.5),
                       CenterSequence(kind="power", rate=2.0, count=5))
    p = ExponentFunction(dimension=1, domain=((-2.0, 30.0),), pieces=(piece,))
    coarse = lh0_modulus(p, num_pairs=2000, seed=7).sup_value
    fine = lh0_modulus(p, num_pairs=8000, seed=11).sup_value
    assert 0.0 < coarse <= fine * 1.25, "estimates from both runs should be comparable"
    assert fine < 10.0, f"smooth train has a finite modulus, got {fine}"


# -- JSON spec round trip -----------------------------------------------------


def test_spec_round_trip_with_bumps_and_inf():
    spec = {
        "dimension": 1,
        "domain": [[-2.0, 100.0]],
        "pieces": [
            {"box": [[-2.0, 0.0]], "kind": "constant", "value": "inf"},
            {
                "box": [[0.0, 100.0]],
                "kind": "bumps",
                "value": {
                    "base": 1.2,
                    "height": 0.8,
                    "plateau_halfwidth": 0.25,
                    "support_halfwidth": 0.5,
                    "direction": "up",
                    "centers": {"kind": "power", "rate": 2.0, "count": 9},
                },
            },
        ],
    }
    p = from_spec(spec)
    assert evaluate(p, -1.0) == INF
    assert evaluate(p, 4.0) == pytest.approx(2.0)
    again = to_spec(p)
    assert json.dumps(again, sort_keys=True) == json.dumps(
        to_spec(from_spec(again)), sort_keys=True
    ), "serialization must be a fixed point"
    assert again["pieces"][0]["value"] == "inf"


def test_spec_direction_default_and_down():
    base = {
        "dimension": 1,
        "domain": [[0.0, 50.0]],
        "pieces": [{
            "box": [[0.0, 50.0]],
            "kind": "bumps",
            "value": {
                "base": 2.0, "height": 0.5,
                "plateau_halfwidth": 0.25, "support_halfwidth": 0.5,
                "centers": {"kind": "power", "rate": 2.0, "count": 4},
            },
        }],
    }
    p_up = from_spec(json.loads(json.dumps(base)))
    assert evaluate(p_up, 1.0) == pytest.approx(2.5), "direction defaults to up"
    down = json.loads(json.dumps(base))
    down["pieces"][0]["value"]["direction"] = "down"
    p_down = from_spec(down)
    assert evaluate(p_down, 1.0) == pytest.approx(1.5)
    assert to_spec(p_down)["pieces"][0]["value"]["direction"] == "down"


@pytest.mark.parametrize("mutate, message", [
    (lambda s: s.pop("dimension"), "missing dimension"),
    (lambda s: s["pieces"][0].update(kind="wavelet"), "unknown kind"),
    (lambda s: s["pieces"][0].update(value="huge"), "bad value string"),
    (lambda s: s.update(domain=[[1.0, 1.0]]), "degenerate domain"),
    (lambda s: s.update(pieces=[]), "empty pieces"),
])
def test_spec_parse_errors(mutate, message):
    spec = {
        "dimension": 1,
        "domain": [[0.0, 1.0]],
        "pieces": [{"box": [[0.0, 1.0]], "kind": "constant", "value": 2.0}],
    }
    mutate(spec)
    with pytest.raises(SpecParseError):
        from_spec(spec)
    del message


def test_value_below_one_rejected():
    with pytest.raises(SpecParseError):
        ConstantPiece(((0.0, 1.0),), 0.9)
    with pytest.raises(SpecParseError):
        # downward wells from base 1.2 would dip to 0.7 < 1
        BumpsPiece(((0.0, 10.0),), 1.2,
                   PlateauBump(height=0.5, plateau_halfwidth=0.1, support_halfwidth=0.2),
                   CenterSequence(kind="power", rate=2.0, count=3),
                   direction=-1)


def test_bump_geometry_rejected():
    with pytest.raises(SpecParseError):
        # plateau wider than the support makes no geometric sense
        PlateauBump(height=0.5, plateau_halfwidth=0.3, support_halfwidth=0.2)
