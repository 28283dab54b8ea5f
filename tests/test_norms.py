"""Tests for modulars, Luxemburg norms, pairing bounds, and set functionals."""

import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import varlp
from varlp import (
    ConstantPiece,
    Cube,
    DomainError,
    ExponentFunction,
    GridDomain,
    GridFunction,
    MeasurableSet,
    PreconditionError,
    SpecParseError,
    build_ex61,
    build_ex62,
    build_ex63,
    build_ex64,
    conjugate,
    cube_average,
    default_blowup_exponent,
    duality_constant,
    harmonic_mean,
    hm_counterexample,
    holder_constant,
    holder_pairing_check,
    interval_indicator_modular,
    interval_indicator_norm,
    interval_integral,
    load_spec,
    luxemburg_norm,
    mean_inverse_exponent,
    modular,
    set_norm,
    sobolev_dual,
)
from varlp.exponent import (
    INF,
    _TINY,
    BumpsPiece,
    CenterSequence,
    PlateauBump,
    Strata,
    _first_piece_cells,
    _gauss_nodes,
    _owned_parts,
    _tf_array,
    box_intersect,
    box_volume,
    evaluate,
)
from varlp.norms import (
    Distribution,
    _compile_family,
    _mean_inverses,
    _norms,
    compile_set,
)

from conftest import FINITE_VALUES, lambda_scan_norm, random_grid_function, random_piecewise_exponent

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def two_piece_exponent(first, second):
    return ExponentFunction(
        dimension=1,
        domain=((0.0, 2.0),),
        pieces=(ConstantPiece(((0.0, 1.0),), first), ConstantPiece(((1.0, 2.0),), second)),
    )


# -- modular -------------------------------------------------------------------


def test_modular_unit_indicator():
    grid = GridDomain(((0.0, 1.0),), (128,))
    f = GridFunction(grid, np.ones(128))
    p = ExponentFunction.constant(2.0, ((0.0, 1.0),))
    assert modular(f, p) == pytest.approx(1.0, rel=1e-12)


def test_modular_two_piece_at_unit_scale():
    grid = GridDomain(((0.0, 2.0),), (256,))
    f = GridFunction(grid, np.ones(256))
    p = two_piece_exponent(1.0, 2.0)
    assert modular(f, p) == pytest.approx(2.0, rel=1e-12), "1 from the p=1 half, 1 from p=2"


def test_modular_region_restriction():
    # f restricted to a region is f times the region's indicator
    grid = GridDomain(((0.0, 2.0),), (256,))
    f = GridFunction(grid, np.ones(256))
    p = ExponentFunction.constant(2.0, ((0.0, 2.0),))
    left = MeasurableSet.from_box(((0.0, 1.0),))
    restricted = GridFunction(grid, f.values * GridFunction.indicator(grid, left).values)
    assert modular(restricted, p) == pytest.approx(1.0, rel=1e-12)


def test_modular_infinite_piece_uses_sup():
    grid = GridDomain(((0.0, 2.0),), (256,))
    vals = np.ones(256)
    vals[:128] = 0.25
    vals[10] = 0.75  # spike inside the sup stratum
    f = GridFunction(grid, vals)
    p = two_piece_exponent(INF, 2.0)
    assert modular(f, p) == pytest.approx(0.75 + 1.0, rel=1e-12), "sup on the left, integral on the right"


def test_modular_monotone_in_f(rng, unit_grid):
    p_pool = [random_piecewise_exponent(rng, lo=0.0, hi=2.0, allow_inf=True) for _ in range(5)]
    for trial in range(25):
        p = p_pool[trial % len(p_pool)]
        f = random_grid_function(rng, unit_grid)
        bump = random_grid_function(rng, unit_grid, max_val=1.0)
        g = GridFunction(unit_grid, f.values + bump.values)
        assert modular(f, p) <= modular(g, p) + 1e-12, f"trial {trial}: modular must grow with f"


# -- luxemburg norm ------------------------------------------------------------


def test_norm_zero_function(unit_grid):
    f = GridFunction(unit_grid, np.zeros(unit_grid.total_cells))
    p = ExponentFunction.constant(2.0, unit_grid.box)
    assert luxemburg_norm(f, p) == 0.0


def test_norm_constant_exponent_interval():
    grid = GridDomain(((0.0, 4.0),), (512,))
    f = GridFunction(grid, np.ones(512))
    p = ExponentFunction.constant(2.0, ((0.0, 4.0),))
    assert luxemburg_norm(f, p) == pytest.approx(2.0, rel=1e-8), "|[0,4]|^(1/2)"


def test_norm_constant_exponent_closed_form(unit_grid):
    # grid-aligned windows so the discrete measure is exact
    windows = [(0.0, 2.0), (0.5, 1.25), (0.25, 0.75), (1.0, 1.8125)]
    for p0 in FINITE_VALUES:
        p = ExponentFunction.constant(p0, unit_grid.box)
        for a, b in windows:
            f = GridFunction.indicator(unit_grid, MeasurableSet.from_box(((a, b),)))
            want = (b - a) ** (1.0 / p0)
            got = luxemburg_norm(f, p)
            assert got == pytest.approx(want, rel=1e-7), f"p0={p0}, window=({a},{b})"


def test_norm_two_piece_golden_ratio():
    # oracle first: a raw scan of the modular over a fine lambda grid
    grid = GridDomain(((0.0, 2.0),), (256,))
    f = GridFunction(grid, np.ones(256))
    p = two_piece_exponent(1.0, 2.0)
    scanned = lambda_scan_norm(f, p)
    assert scanned == pytest.approx(GOLDEN, rel=1e-5), f"scan oracle {scanned} vs (1+sqrt5)/2"
    got = luxemburg_norm(f, p)
    assert got == pytest.approx(GOLDEN, rel=1e-6), f"norm solver {got} vs {GOLDEN}"
    assert got == pytest.approx(scanned, rel=1e-5)
    # interval route solves the same scalar equation without a grid
    assert interval_indicator_norm(p, 0.0, 2.0) == pytest.approx(GOLDEN, rel=1e-7)


def test_norm_sup_piece_golden_ratio():
    # p = inf on [0,1] contributes 1/lam through the sup, same fixed point
    grid = GridDomain(((0.0, 2.0),), (256,))
    f = GridFunction(grid, np.ones(256))
    p = two_piece_exponent(INF, 2.0)
    scanned = lambda_scan_norm(f, p)
    got = luxemburg_norm(f, p)
    assert got == pytest.approx(GOLDEN, rel=1e-6), f"sup variant {got} vs {GOLDEN}"
    assert got == pytest.approx(scanned, rel=1e-5)
    assert interval_indicator_norm(p, 0.0, 2.0) == pytest.approx(GOLDEN, rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(c=st.floats(min_value=1e-200, max_value=1e200, allow_nan=False, allow_infinity=False))
def test_norm_scaling_homogeneity(c):
    rng = np.random.default_rng(7)
    grid = GridDomain(((0.0, 2.0),), (128,))
    f = random_grid_function(rng, grid)
    p = random_piecewise_exponent(rng, lo=0.0, hi=2.0, allow_inf=True)
    base = luxemburg_norm(f, p)
    scaled = luxemburg_norm(GridFunction(grid, c * f.values), p)
    # abs=0: the default absolute slack would pass any scaled norm below 1e-12
    assert scaled == pytest.approx(c * base, rel=1e-7, abs=0.0), \
        f"gauge must be homogeneous, c={c}"


def test_norm_unit_ball_law(rng, unit_grid):
    for trial in range(20):
        p = random_piecewise_exponent(rng, lo=0.0, hi=2.0, allow_inf=False)
        f = random_grid_function(rng, unit_grid)
        if not f.values.any():
            continue
        lam = luxemburg_norm(f, p)
        at_norm = modular(GridFunction(unit_grid, f.values / lam), p)
        assert at_norm == pytest.approx(1.0, abs=1e-6), f"trial {trial}: rho(f/norm) = {at_norm}"


def test_indicator_unit_ball_identity(rng, unit_grid):
    # sum over E of norm^(-p(x)) h equals 1 once norm is the grid Luxemburg value
    h = unit_grid.cell_volume
    mids = unit_grid.axis_midpoints(0)
    for trial in range(10):
        p = random_piecewise_exponent(rng, lo=0.0, hi=2.0, allow_inf=False)
        a, b = 0.25, 1.75
        E = MeasurableSet.from_box(((a, b),))
        f = GridFunction.indicator(unit_grid, E)
        lam = luxemburg_norm(f, p)
        inside = (mids > a) & (mids < b)
        total = sum(lam ** (-evaluate(p, float(x))) * h for x in mids[inside])
        assert total == pytest.approx(1.0, abs=1e-6), f"trial {trial}: identity sum {total}"


# -- interval engine -----------------------------------------------------------


def bump_train_exponent(base=1.5, height=0.5, count=10):
    piece = BumpsPiece(((0.0, 120.0),), base,
                       PlateauBump(height=height, plateau_halfwidth=0.25, support_halfwidth=0.5),
                       CenterSequence(kind="power", rate=2.0, count=count))
    return ExponentFunction(dimension=1, domain=((0.0, 120.0),), pieces=(piece,))


def test_interval_integral_matches_dense_quadrature():
    p = bump_train_exponent()
    g = lambda v: 0.7 ** v
    a, b = 0.3, 10.7
    exact = interval_integral(p, a, b, g)
    xs = np.linspace(a, b, 200001)
    mids = 0.5 * (xs[:-1] + xs[1:])
    dense = float(np.sum(g(p.values(mids))) * (b - a) / (len(xs) - 1))
    assert exact == pytest.approx(dense, rel=1e-6), f"engine {exact} vs quadrature {dense}"


def test_interval_integral_flat_window_is_closed_form():
    p = bump_train_exponent()
    g = lambda v: 0.5 ** v
    a, b = 5.2, 7.9  # strictly between the bumps at 4 and 9
    assert interval_integral(p, a, b, g) == pytest.approx((b - a) * 0.5 ** 1.5, rel=1e-12)


def test_interval_norm_agrees_with_grid_route():
    p = bump_train_exponent()
    a, b = 0.3, 10.7
    analytic = interval_indicator_norm(p, a, b)
    grid = GridDomain(((a, b),), (4096,))
    f = GridFunction(grid, np.ones(4096))
    sampled = luxemburg_norm(f, p)
    assert sampled == pytest.approx(analytic, rel=1e-3), f"grid {sampled} vs interval {analytic}"


@settings(max_examples=60, deadline=None)
@given(cells=st.integers(4, 64), data=st.data())
def test_grid_route_equals_interval_route_on_cell_aligned_data(cells, data):
    h = 0.125
    cuts = sorted(data.draw(st.sets(st.integers(1, cells - 1), max_size=5)))
    edges = [0] + cuts + [cells]
    values = data.draw(st.lists(st.sampled_from(FINITE_VALUES + (INF,)),
                                min_size=len(edges) - 1, max_size=len(edges) - 1))
    p = ExponentFunction(dimension=1, domain=((0.0, cells * h),), pieces=tuple(
        ConstantPiece(((i * h, j * h),), v) for i, j, v in zip(edges[:-1], edges[1:], values)))
    i0, i1 = sorted(data.draw(st.lists(st.integers(0, cells), min_size=2, max_size=2,
                                       unique=True)))
    a, b = i0 * h, i1 * h
    grid = GridDomain(p.domain, (cells,))
    f = GridFunction.indicator(grid, MeasurableSet.from_box(((a, b),)))
    assert luxemburg_norm(f, p) == pytest.approx(interval_indicator_norm(p, a, b), rel=1e-12)



@settings(max_examples=60, deadline=None)
@given(cells=st.integers(4, 96), seed=st.integers(0, 2 ** 32 - 1),
       decades=st.integers(-30, 30), data=st.data())
def test_norm_is_monotone_in_the_modulus(cells, seed, decades, data):
    # |f| <= |g| cell by cell gives ||f|| <= ||g||, with 1 and inf among the exponents
    h = 0.125
    cuts = sorted(data.draw(st.sets(st.integers(1, cells - 1), min_size=1, max_size=5)))
    edges = [0] + cuts + [cells]
    values = data.draw(st.lists(st.sampled_from(FINITE_VALUES + (INF,)),
                                min_size=len(edges) - 1, max_size=len(edges) - 1))
    one, inf = data.draw(st.permutations(range(len(values))))[:2]
    values[one], values[inf] = 1.0, INF
    p = ExponentFunction(dimension=1, domain=((0.0, cells * h),), pieces=tuple(
        ConstantPiece(((i * h, j * h),), v) for i, j, v in zip(edges[:-1], edges[1:], values)))
    rng = np.random.default_rng(seed)
    grid = GridDomain(p.domain, (cells,))
    g = rng.uniform(-3.0, 3.0, cells) * np.where(rng.random(cells) < 0.2, 0.0, 10.0 ** decades)
    f = g * rng.uniform(0.0, 1.0, cells) * rng.choice([-1.0, 1.0], cells)
    f[rng.random(cells) < 0.2] = 0.0
    small, large = (luxemburg_norm(GridFunction(grid, v), p) for v in (f, g))
    assert small <= large * (1.0 + 1e-12), (small, large)

def test_grid_norm_solves_where_the_grid_leaves_the_domain_only_off_the_support():
    p = two_piece_exponent(1.5, 3.0)  # domain [0, 2]
    wide = GridDomain(((-1.0, 3.0),), (64,))
    narrow = GridDomain(((0.0, 2.0),), (32,))
    support = MeasurableSet.from_box(((0.25, 1.75),))
    f_wide = GridFunction.indicator(wide, support)
    assert luxemburg_norm(f_wide, p) == luxemburg_norm(GridFunction.indicator(narrow, support), p)
    assert luxemburg_norm(f_wide, p) == pytest.approx(interval_indicator_norm(p, 0.25, 1.75),
                                                      rel=1e-12)
    with pytest.raises(DomainError, match="outside domain"):
        luxemburg_norm(GridFunction(wide, np.ones(64)), p)


def test_interval_infinite_exponent_detection():
    p = two_piece_exponent(INF, 2.0)
    for (a, b), has_inf in (((0.0, 0.5), True), ((0.5, 1.5), True), ((1.2, 1.8), False)):
        values = compile_set(p, MeasurableSet.from_box(((a, b),))).values(p)
        assert np.isinf(values).any() == has_inf, (a, b)


# -- constants and pairing -----------------------------------------------------


def test_holder_constant_examples():
    assert holder_constant(ExponentFunction.constant(2.0, ((0.0, 1.0),))) == 1.0
    mixed = ExponentFunction(
        dimension=1,
        domain=((0.0, 3.0),),
        pieces=(ConstantPiece(((0.0, 1.0),), 1.0),
                ConstantPiece(((1.0, 2.0),), 2.0),
                ConstantPiece(((2.0, 3.0),), INF)),
    )
    assert holder_constant(mixed) == 4.0, "all three strata, widest finite spread"
    assert holder_constant(ExponentFunction.constant(1.0, ((0.0, 1.0),))) == 1.0


def test_duality_constant_examples():
    assert duality_constant(ExponentFunction.constant(2.0, ((0.0, 1.0),))) == 1.0
    mixed = ExponentFunction(
        dimension=1,
        domain=((0.0, 3.0),),
        pieces=(ConstantPiece(((0.0, 1.0),), 1.0),
                ConstantPiece(((1.0, 2.0),), 2.0),
                ConstantPiece(((2.0, 3.0),), INF)),
    )
    assert duality_constant(mixed) == pytest.approx(1.0 / 3.0)
    two = two_piece_exponent(1.0, 3.0)
    assert duality_constant(two) == pytest.approx(0.5)
    assert holder_constant(two) == pytest.approx(1.0 - 1.0 / 3.0 + 1.0 + 1.0), "finite spread plus the p=1 stratum"


def test_exponent_whose_pieces_own_none_of_its_domain_has_no_levels():
    p = ExponentFunction(dimension=1, domain=((0.0, 2.0),),
                         pieces=(ConstantPiece(((5.0, 6.0),), 2.0),))
    for read in (ExponentFunction.bounds, ExponentFunction.strata, holder_constant,
                 duality_constant):
        with pytest.raises(DomainError, match="^no piece owns any part of the exponent's domain$"):
            read(p)


def test_pairing_equality_case():
    grid = GridDomain(((0.0, 1.0),), (128,))
    f = GridFunction(grid, np.ones(128))
    p = ExponentFunction.constant(2.0, ((0.0, 1.0),))
    rep = holder_pairing_check(f, f, p)
    assert rep.holds
    assert rep.integral == pytest.approx(1.0, rel=1e-12)
    assert rep.bound == pytest.approx(1.0, rel=1e-7), "K=1 and both norms 1"


def test_pairing_mixed_strata_uses_k_four():
    grid = GridDomain(((0.0, 3.0),), (384,))
    f = GridFunction(grid, np.ones(384))
    p = ExponentFunction(
        dimension=1,
        domain=((0.0, 3.0),),
        pieces=(ConstantPiece(((0.0, 1.0),), 1.0),
                ConstantPiece(((1.0, 2.0),), 2.0),
                ConstantPiece(((2.0, 3.0),), INF)),
    )
    rep = holder_pairing_check(f, f, p)
    assert rep.constant == 4.0
    assert rep.holds, f"|fg| integral {rep.integral} vs bound {rep.bound}"


def test_pairing_random_bump_train(rng):
    p = __import__("varlp").constructions.build_ex62(count=10 ** 6).exponent
    grid = GridDomain(((0.0, 16.0),), (256,))
    for trial in range(30):
        f = random_grid_function(rng, grid)
        g = random_grid_function(rng, grid)
        rep = holder_pairing_check(f, g, p)
        assert rep.constant <= 4.0 + 1e-12
        assert rep.holds, f"trial {trial}: {rep.integral} > {rep.bound}"


def test_pairing_random_piecewise(rng, unit_grid):
    for trial in range(30):
        p = random_piecewise_exponent(rng, lo=0.0, hi=2.0, allow_inf=True)
        f = random_grid_function(rng, unit_grid)
        g = random_grid_function(rng, unit_grid)
        rep = holder_pairing_check(f, g, p)
        assert rep.constant <= 4.0 + 1e-12
        assert rep.holds, f"trial {trial}: {rep.integral} > {rep.bound}"


# -- set functionals -----------------------------------------------------------


def frame_exponent(inner=0.5):
    """Value 2 on a centered sub-square of Q(0,1) in the plane, 1 on the frame."""
    one = 1.0
    pieces = (
        ConstantPiece(((-inner, inner), (-inner, inner)), 2.0),
        ConstantPiece(((-one, -inner), (-one, one)), 1.0),
        ConstantPiece(((inner, one), (-one, one)), 1.0),
        ConstantPiece(((-inner, inner), (-one, -inner)), 1.0),
        ConstantPiece(((-inner, inner), (inner, one)), 1.0),
    )
    return ExponentFunction(dimension=2, domain=((-one, one), (-one, one)), pieces=pieces)


def test_harmonic_mean_constant():
    p = ExponentFunction.constant(3.0, ((0.0, 1.0),))
    E = MeasurableSet.from_box(((0.2, 0.9),))
    assert harmonic_mean(p, E) == pytest.approx(3.0, rel=1e-12)


def test_harmonic_mean_frame_example():
    p = frame_exponent()
    whole = MeasurableSet.from_cube(Cube((0.0, 0.0), 1.0))
    assert harmonic_mean(p, whole) == pytest.approx(8.0 / 7.0, rel=1e-12)
    for center in ((0.1, -0.2), (-0.25, 0.25), (0.0, 0.0)):
        inner = MeasurableSet.from_cube(Cube(center, 0.75))
        assert harmonic_mean(p, inner) == pytest.approx(9.0 / 7.0, rel=1e-12), f"center {center}"


def test_harmonic_mean_frame_closed_forms_other_radius():
    # with the sub-square half-width tied to the probe radius as 2r-1,
    # whole-cube mean is 2/(4r-4r^2+1) and the probe mean 2r^2/(4r-2r^2-1)
    r = 0.6
    p = frame_exponent(inner=2 * r - 1)
    whole = MeasurableSet.from_cube(Cube((0.0, 0.0), 1.0))
    assert harmonic_mean(p, whole) == pytest.approx(2.0 / (4 * r - 4 * r * r + 1), rel=1e-12)
    probe = MeasurableSet.from_cube(Cube((0.05, -0.1), r))
    want = 2 * r * r / (4 * r - 2 * r * r - 1)
    assert harmonic_mean(p, probe) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(18.0 / 17.0)


def test_harmonic_mean_intersects_domain():
    p = ExponentFunction.constant(2.0, ((0.0, 1.0),))
    overhang = MeasurableSet.from_box(((-1.0, 0.5),))
    assert harmonic_mean(p, overhang) == pytest.approx(2.0, rel=1e-12)
    assert mean_inverse_exponent(p, overhang) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DomainError):
        mean_inverse_exponent(p, MeasurableSet.from_box(((2.0, 3.0),)))


def test_set_measure_routes():
    box = MeasurableSet.from_box(((0.0, 1.5), (0.0, 2.0)))
    assert box.measure == pytest.approx(3.0, rel=1e-12)
    grid = GridDomain(((0.0, 2.0), (0.0, 2.0)), (64, 64))
    mask = box.mask_on(grid)
    counted = MeasurableSet(grid_mask=(grid, mask))
    assert counted.measure == pytest.approx(3.0, rel=1e-12), "grid-aligned box counts exactly"


def test_a_box_of_another_dimension_is_refused():
    # zipping the axes read a 1-D box on the square as the band [0, 0.5] x [0, 1]
    square, band = ((0.0, 1.0), (0.0, 1.0)), ((0.0, 0.5),)
    grid = GridDomain(square, (8, 8))
    p = load_spec(os.path.join(os.path.dirname(__file__), "data", "fourpiece2d.json"))
    with pytest.raises(PreconditionError, match="^a 2-D box cannot meet a 1-D box$"):
        box_intersect(square, band)
    with pytest.raises(PreconditionError, match="^a 1-D box on a 2-D grid$"):
        grid.box_cells(band)
    with pytest.raises(PreconditionError, match="^a 1-D box on a 2-D grid$"):
        MeasurableSet.from_box(band).mask_on(grid)
    with pytest.raises(PreconditionError, match="^a 1-D box on a 2-D grid$"):
        cube_average(GridFunction(grid, np.ones((8, 8))), Cube((0.25,), 0.25))
    with pytest.raises(PreconditionError, match="^a 2-D box cannot meet a 1-D box$"):
        MeasurableSet.from_box(square).intersect_box(band)
    with pytest.raises(PreconditionError, match="^a 1-D box on a 2-D grid$"):
        MeasurableSet(grid_mask=(grid, np.ones((8, 8)))).intersect_box(band)
    with pytest.raises(PreconditionError, match="^a 1-D box against a 2-D exponent$"):
        set_norm(p, MeasurableSet.from_box(band))


def test_a_set_needs_a_box_or_a_mask():
    with pytest.raises(PreconditionError, match="^a set needs a box or a cell mask$"):
        MeasurableSet()


def test_a_misshaped_mask_is_refused():
    grid = GridDomain(((0.0, 2.0), (0.0, 1.0)), (8, 4))
    makers = (lambda m: MeasurableSet(grid_mask=(grid, m)),
              lambda m: MeasurableSet(box=((0.0, 1.0), (0.0, 1.0)), grid_mask=(grid, m)))
    for make in makers:
        with pytest.raises(SpecParseError, match="^mask shape does not match grid cells$"):
            make(np.ones((4, 8), dtype=bool))
    E = MeasurableSet(grid_mask=(grid, np.ones((8, 4), dtype=int)))
    assert E.grid_mask[1].dtype == bool and E.measure == 2.0


def test_sets_of_equal_cells_cut_alike():
    # a sublevel set cut to a window and a mask of the same cells are one set
    p = load_spec(os.path.join(os.path.dirname(__file__), "data", "twopiece.json"))
    grid = GridDomain(((0.0, 2.0),), (64,))
    painted = MeasurableSet.from_sublevel(p, 1.5, grid, within=((0.0, 1.0),))
    given = MeasurableSet(grid_mask=(grid, painted.mask_on(grid)))
    boxed = MeasurableSet(box=((0.0, 1.0),), grid_mask=(grid, np.ones(64, dtype=bool)))
    for E in (painted, given, boxed):
        assert E.box is None and E.measure == 1.0
        assert np.array_equal(E.mask_on(grid), np.arange(64) < 32)
        cut = E.intersect_box(((1.5, 2.0),))
        assert cut.box is None and cut.grid_mask is not None and cut.measure == 0.0
        with pytest.raises(PreconditionError, match="^set has no cells on this grid$"):
            harmonic_mean(p, cut)


def test_a_mask_set_keeps_a_read_only_copy_of_its_mask():
    grid = GridDomain(((0.0, 1.0),), (8,))
    mask = np.arange(8) < 4
    E = MeasurableSet(grid_mask=(grid, mask))
    mask[:] = False
    assert E.measure == 0.5
    with pytest.raises(ValueError, match="read-only"):
        E.grid_mask[1][0] = False


def test_grids_with_equal_axes_share_one_read_only_midpoint_array():
    a = GridDomain(((0.0, 2.0), (-1.0, 1.0)), (64, 64))
    b = GridDomain(((0.0, 2.0), (5.0, 7.0)), (64, 64))
    mids = a.axis_midpoints(0)
    assert b.axis_midpoints(0) is mids and b.axis_midpoints(1) is not a.axis_midpoints(1)
    assert mids.tolist() == [0.0 + (i + 0.5) * (2.0 / 64) for i in range(64)]
    with pytest.raises(ValueError, match="read-only"):
        mids[0] = 1.0


def test_sublevel_set_on_a_grid_wider_than_the_domain():
    # p is painted on the window's cells only, so cells outside its domain are fine
    p = two_piece_exponent(1.0, 2.0)
    wide = GridDomain(((-1.0, 3.0),), (64,))
    E = MeasurableSet.from_sublevel(p, 1.5, wide, within=p.domain)
    x = wide.axis_midpoints(0)
    assert np.array_equal(E.mask_on(wide), (x > 0.0) & (x < 1.0))
    assert E.measure == 1.0 and harmonic_mean(p, E) == 1.0
    assert set_norm(p, E) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DomainError):
        MeasurableSet.from_sublevel(p, 1.5, wide)


def test_set_norm_plane_closed_form():
    p = frame_exponent()
    E = MeasurableSet.from_box(((-1.0, 1.0), (-1.0, 1.0)))
    # indicator norm solves 1/lam^2 + 3/lam = 1
    want = (3.0 + math.sqrt(13.0)) / 2.0
    analytic = set_norm(p, E)
    assert analytic == pytest.approx(want, rel=1e-7), f"analytic route {analytic}"
    grid = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (128, 128))
    sampled = luxemburg_norm(GridFunction.indicator(grid, E), p)
    assert sampled == pytest.approx(want, rel=1e-7), f"grid route {sampled}"


def test_set_norm_constant_plane():
    p = ExponentFunction.constant(2.0, ((0.0, 2.0), (0.0, 2.0)))
    E = MeasurableSet.from_box(((0.0, 1.0), (0.0, 2.0)))
    assert set_norm(p, E) == pytest.approx(math.sqrt(2.0), rel=1e-8)


# -- float range ---------------------------------------------------------------


FLOAT_RANGE_CASES = (
    [("grid", c, pv) for c in (1e-300, 1e308) for pv in (1.0, 2.0, 5.0, INF)]
    + [("interval", length, 1.0) for length in (1e-301, 1.7e308)]
)


@pytest.mark.parametrize("route,size,pv", FLOAT_RANGE_CASES)
def test_norm_at_the_ends_of_the_float_range(route, size, pv):
    if route == "grid":
        # constant c on the unit interval: the norm is c for every exponent
        grid = GridDomain(((0.0, 1.0),), (64,))
        p = ExponentFunction.constant(pv, ((0.0, 1.0),))
        got = luxemburg_norm(GridFunction(grid, np.full(64, size)), p)
        want = size
    else:
        # indicator of (0, L) with p = 1: the norm is L
        p = ExponentFunction.constant(pv, ((0.0, size),))
        got = interval_indicator_norm(p, 0.0, size)
        want = size
    assert got == pytest.approx(want, rel=1e-10, abs=0.0), f"{route} {size:g} p={pv}: {got!r}"


@pytest.mark.parametrize("pv", [1.0, 4.0 / 3.0, 2.0, 5.0])
def test_an_interval_whose_reciprocal_length_overflows_has_no_norm(pv):
    # the repair of the root reads (1 / lam)^p = 1 / L, which is inf at 1e-310
    p = ExponentFunction.constant(pv, ((0.0, 1.0),))
    with pytest.raises(PreconditionError, match="^set measure 1e-310 is too small"):
        interval_indicator_norm(p, 0.0, 1e-310)
    assert interval_indicator_norm(p, 0.0, 1e-308) == pytest.approx(1e-308 ** (1.0 / pv),
                                                                     rel=1e-12, abs=0.0)


# -- reference copies of the replaced code ---------------------------------------
#
# The bisection solver, its four modular closures and the interval walker as
# they were before the norms were compiled into atoms.  The new solver is
# pinned to them at 1e-10 relative, with the bisection run at 1e-12.
#
# The first-piece geometry as it was before the elementary cells: the
# inclusion-exclusion volume of a box minus the earlier pieces (at most 16
# of them), the segment walk for intervals, and the level sets built on them.


def seed_box_subtract_volume(box, earlier):
    clipped = [c for c in (box_intersect(box, e) for e in earlier) if c is not None]
    assert len(clipped) <= 16, "the replaced code refused more than 16 overlaps"
    union = 0.0
    for r in range(1, len(clipped) + 1):
        sign = 1.0 if r % 2 == 1 else -1.0
        for combo in itertools.combinations(clipped, r):
            inter = combo[0]
            for c in combo[1:]:
                inter = box_intersect(inter, c)
                if inter is None:
                    break
            if inter is not None:
                union += sign * box_volume(inter)
    return box_volume(box) - union


def seed_segment_subtract(seg, covered):
    out = [seg]
    for clo, chi in covered:
        nxt = []
        for lo, hi in out:
            if chi <= lo or clo >= hi:
                nxt.append((lo, hi))
                continue
            if clo > lo:
                nxt.append((lo, clo))
            if chi < hi:
                nxt.append((chi, hi))
        out = nxt
    return [(lo, hi) for lo, hi in out if hi > lo]


def seed_segment_union(covered, extra):
    out = []
    for lo, hi in sorted(covered + extra):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def seed_effective_segments(p, a, b):
    dom_lo, dom_hi = p.domain[0]
    a2, b2 = max(a, dom_lo), min(b, dom_hi)
    if b2 <= a2:
        return []
    covered, out = [], []
    for piece in p.pieces:
        plo, phi = piece.box[0]
        lo, hi = max(a2, plo), min(b2, phi)
        if hi <= lo:
            continue
        for slo, shi in seed_segment_subtract((lo, hi), covered):
            out.append((piece, slo, shi))
        covered = seed_segment_union(covered, [(lo, hi)])
    total = sum(hi - lo for _, lo, hi in out)
    if total < (b2 - a2) * (1.0 - 1e-9):
        raise DomainError(f"interval ({a2}, {b2}) is not covered by the exponent pieces")
    return out


def seed_box_volumes(p, box):
    """Per piece, the volume of the box (clipped to the domain) it owns."""
    clipped = box_intersect(box, p.domain)
    vols = []
    for i, piece in enumerate(p.pieces):
        region = box_intersect(piece.box, clipped)
        vols.append(0.0 if region is None
                    else seed_box_subtract_volume(region, [q.box for q in p.pieces[:i]]))
    return vols


def _replaced_index_range_in(centers, lo, hi):
    """The replaced CenterSequence.index_range_in: (k_first, k_last) with
    c_k in [lo, hi]; empty when k_last < k_first.

    Inversion of the center map is verified by a short scan so float
    rounding at huge coordinates cannot drop or double-count a center.
    """
    if centers.kind == "fixed":
        pos = np.asarray(centers.positions, dtype=float)
        k_first = int(np.searchsorted(pos, lo, side="left")) + 1
        k_last = int(np.searchsorted(pos, hi, side="right"))
        return k_first, k_last
    a = float(centers.real_index(max(lo, 0.0)))
    b = float(centers.real_index(max(hi, 0.0)))
    k_first = max(1, int(math.floor(a)) - 2)
    while k_first <= centers.count and float(centers.position(k_first)) < lo:
        k_first += 1
    k_last = min(centers.count, int(math.ceil(b)) + 2)
    while k_last >= 1 and float(centers.position(k_last)) > hi:
        k_last -= 1
    return k_first, min(k_last, centers.count)


def _replaced_run(piece, lo, hi):
    """The replaced BumpsPiece.run: split [lo, hi] at the bumps whose
    supports meet it.

    Returns (whole, base_len, windows): the number of bumps whose whole
    support lies in [lo, hi]; the length the supports leave uncovered,
    0 where that is rounding (at most 1e-12 of the length they cover, so
    a run that meets no support keeps hi - lo exactly); and an
    (o0, o1) window for each bump that straddles an end, its support
    meeting [lo, hi] on [c + o0, c + o1] about its center c.  A center
    quantized more coarsely than the bump counts as whole when it lies
    in [lo, hi] (O(1) absolute error).  Supports are pairwise disjoint,
    so at most a couple of bumps straddle each end, and the split does
    not depend on the number of bumps.
    """
    s = piece.bump.support_halfwidth
    k_in_first, k_in_last = _replaced_index_range_in(piece.centers, lo + s, hi - s)
    k_any_first, k_any_last = _replaced_index_range_in(piece.centers, lo - s, hi + s)
    candidates = set(range(k_any_first, min(k_any_first + 4, k_any_last) + 1))
    candidates |= set(range(max(k_any_first, k_any_last - 4), k_any_last + 1))
    whole = max(0, k_in_last - k_in_first + 1)
    base_len = hi - lo - whole * 2.0 * s
    windows = []
    for k in sorted(candidates):
        if k_in_first <= k <= k_in_last:
            continue
        c = float(piece.centers.position(k))
        if not min(hi, c + s) > max(lo, c - s):
            continue
        if np.spacing(abs(c)) > 0.01 * s:
            if lo <= c <= hi:
                base_len -= 2.0 * s
                whole += 1
            continue
        o0, o1 = max(lo - c, -s), min(hi - c, s)
        if o0 < o1:
            base_len -= o1 - o0
            windows.append((o0, o1))
    if not base_len > 1e-12 * (hi - lo - base_len):
        base_len = 0.0
    return whole, base_len, windows


def _replaced_bump_atoms(piece, lo, hi, ws, raws):
    """The replaced exponent._bump_atoms: append the atoms of one bump-piece
    run [lo, hi], split by BumpsPiece.run, and return the raw values at the
    ends of its shoulders.

    Each window gives Gauss nodes per smooth stretch, or one atom of the
    stretch's length at its midpoint where the least node weight is not a
    normal float, so no weight underflows; the whole bumps give one plateau
    atom and one atom per shoulder Gauss node, weighted by their count; the
    base length gives one atom.  Both ends of every shoulder stretch of a
    bump of positive height are returned as raw values; at distance m or s,
    or within rounding of it, they are the plateau value or the base, which
    the profile meets quadratically.  So the base and the plateau value are
    atoms where the run takes them on positive length, and every other value
    it takes lies between the two ends of a shoulder stretch, which is how
    bounds() and strata() read the atoms and ends of the exponent's domain.
    """
    bump = piece.bump
    s, m = bump.support_halfwidth, bump.plateau_halfwidth
    nodes, wts = _gauss_nodes()

    def raw_at(dist):
        return piece.base + piece.direction * bump.profile(dist)

    ends = []
    whole, base_len, windows = _replaced_run(piece, lo, hi)
    for o0, o1 in windows:
        knots = [o0] + [o for o in (-s, -m, m, s) if o0 < o < o1] + [o1]
        for u0, u1 in zip(knots, knots[1:]):
            half, midp = 0.5 * (u1 - u0), 0.5 * (u0 + u1)
            if half * wts[0] < _TINY:  # the end nodes carry the least weight
                ws.append(np.array([u1 - u0]))
                raws.append(raw_at(np.array([abs(midp)])))
            else:
                ws.append(half * wts)
                raws.append(raw_at(np.abs(midp + half * nodes)))
            if m < abs(midp) < s:
                ends += [float(raw_at(abs(u))) for u in (u0, u1)]
    if whole:
        ends += [piece.top, piece.base]
        half, mid = 0.5 * (s - m), 0.5 * (s + m)
        ws.append(np.array([whole * 2.0 * m]))
        raws.append(np.array([piece.top]))
        ws.append((whole * 2.0 * half) * wts)
        raws.append(raw_at(mid + half * nodes))
    if base_len > 0.0:
        ws.append(np.array([base_len]))
        raws.append(np.array([piece.base]))
    return ends if bump.height > 0.0 else []


def seed_full_and_straddling(piece, lo, hi):
    """The replaced BumpsPiece.full_and_straddling: ((k_first, k_last),
    straddlers), the index range of the centers whose whole support lies in
    [lo, hi] and the (k, c_k) whose support crosses an end."""
    s = piece.bump.support_halfwidth
    k_in_first, k_in_last = _replaced_index_range_in(piece.centers, lo + s, hi - s)
    k_any_first, k_any_last = _replaced_index_range_in(piece.centers, lo - s, hi + s)
    candidates = set(range(k_any_first, min(k_any_first + 4, k_any_last) + 1))
    candidates |= set(range(max(k_any_first, k_any_last - 4), k_any_last + 1))
    straddlers = []
    for k in sorted(candidates):
        if k_in_first <= k <= k_in_last:
            continue
        c = float(piece.centers.position(k))
        if min(hi, c + s) > max(lo, c - s):
            straddlers.append((k, c))
    return (k_in_first, k_in_last), straddlers


def seed_support_cover_length(piece, lo, hi):
    """Length of [lo, hi] covered by bump supports (exact up to rounding)."""
    s = piece.bump.support_halfwidth
    (k_in_first, k_in_last), straddlers = seed_full_and_straddling(piece, lo, hi)
    cover = max(0, k_in_last - k_in_first + 1) * 2.0 * s
    for _, c in straddlers:
        cover += max(0.0, min(hi, c + s) - max(lo, c - s))
    return cover


def seed_raw_level_sets(p):
    atoms, intervals = set(), []
    for i, piece in enumerate(p.pieces):
        region = box_intersect(piece.box, p.domain)
        if region is None:
            continue
        eff = seed_box_subtract_volume(region, [q.box for q in p.pieces[:i]])
        if eff <= 1e-12 * box_volume(region):
            continue
        cut = eff < box_volume(region) * (1.0 - 1e-12)
        if isinstance(piece, ConstantPiece):
            atoms.add(piece.value)
            continue
        lo, hi = region[0]
        s = piece.bump.support_halfwidth
        m = piece.bump.plateau_halfwidth
        if cut:
            atoms.add(piece.base)
            if piece.bump.height > 0:
                atoms.add(piece.top)
                intervals.append((piece.base, piece.top))
            continue
        kf, kl = _replaced_index_range_in(piece.centers, lo - s, hi + s)
        touches_support = kl >= kf
        pf, pl = _replaced_index_range_in(piece.centers, lo - m, hi + m)
        touches_plateau = pl >= pf
        cover = seed_support_cover_length(piece, lo, hi) if touches_support else 0.0
        if (hi - lo) - cover > 1e-12 * max(1.0, hi - lo):
            atoms.add(piece.base)
        if piece.bump.height > 0 and touches_plateau:
            atoms.add(piece.top)
        if piece.bump.height > 0 and touches_support:
            intervals.append((piece.base, piece.top))
    return atoms, intervals


def seed_norm_bisect(rho, rel_tol=1e-12):
    hi = 1.0
    for _ in range(4200):
        if rho(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("modular stays above 1, no norm bracket found")
    lo = 0.5 * hi
    for _ in range(4200):
        if rho(lo) > 1.0:
            break
        hi = lo
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def seed_grid_norm(f, p):
    pv = p.values(f.domain.points())
    af = np.abs(f.values).ravel()
    finite = np.isfinite(pv) & (af > 0)
    infty = np.isinf(pv)
    sup = float(af[infty].max()) if infty.any() else 0.0
    af, pv, vol = af[finite], pv[finite], f.domain.cell_volume

    def rho(lam):
        with np.errstate(over="ignore"):
            val = float(((af / lam) ** pv).sum() * vol)
        return val + (sup / lam if sup > 0.0 else 0.0)

    return seed_norm_bisect(rho)


def _tf_scalar(ops, v):
    return float(_tf_array(ops, (v,))[0])


def _seed_g_scalar(g, w):
    return float(g(np.array([w], dtype=float))[0])


def _seed_shoulder_integral(bump, g):
    """The replaced PlateauBump.shoulder_integral: 48-node Gauss-Legendre
    quadrature of g(profile) over one shoulder m <= d <= s."""
    x, w = _gauss_nodes()
    m, s = bump.plateau_halfwidth, bump.support_halfwidth
    half = 0.5 * (s - m)
    mid = 0.5 * (s + m)
    return half * float(np.dot(w, g(bump.profile(mid + half * x))))


def seed_bumps_segment_integral(piece, lo, hi, g, transforms):
    bump = piece.bump
    s, m = bump.support_halfwidth, bump.plateau_halfwidth
    g_base = _seed_g_scalar(g, _tf_scalar(transforms, piece.base))
    g_top = _seed_g_scalar(g, _tf_scalar(transforms, piece.top))

    def g_of_profile(prof):
        return g(_tf_array(transforms, piece.base + piece.direction * prof))

    shoulder = _seed_shoulder_integral(bump, g_of_profile)
    full_int = 2.0 * m * g_top + 2.0 * shoulder
    (kf, kl), straddlers = seed_full_and_straddling(piece, lo, hi)
    n_full = max(0, kl - kf + 1)
    total = 0.0
    base_len = hi - lo
    if n_full:
        base_len -= n_full * 2.0 * s
        total += n_full * full_int
    nodes, wts = _gauss_nodes()
    for _, c in straddlers:
        if np.spacing(abs(c)) > 0.01 * s:
            if lo <= c <= hi:
                base_len -= 2.0 * s
                total += full_int
            continue
        o0, o1 = max(lo - c, -s), min(hi - c, s)
        if o1 <= o0:
            continue
        base_len -= o1 - o0
        knots = [o0] + [o for o in (-s, -m, m, s) if o0 < o < o1] + [o1]
        for u0, u1 in zip(knots, knots[1:]):
            half, midp = 0.5 * (u1 - u0), 0.5 * (u0 + u1)
            d = np.abs(midp + half * nodes)
            total += half * float(np.dot(wts, g_of_profile(bump.profile(d))))
    base_len = max(base_len, 0.0)
    if base_len > 0.0:
        total += base_len * g_base
    return total


def seed_interval_integral(p, a, b, g):
    total = 0.0
    for piece, lo, hi in seed_effective_segments(p, a, b):
        if isinstance(piece, ConstantPiece):
            total += (hi - lo) * _seed_g_scalar(g, _tf_scalar(p.transforms, piece.value))
        else:
            total += seed_bumps_segment_integral(piece, lo, hi, g, p.transforms)
    return total


def seed_interval_has_inf(p, a, b):
    for piece, lo, hi in seed_effective_segments(p, a, b):
        if isinstance(piece, ConstantPiece):
            if _tf_scalar(p.transforms, piece.value) == INF:
                return True
            continue
        if _tf_scalar(p.transforms, piece.base) == INF:
            cover = seed_support_cover_length(piece, lo, hi)
            if (hi - lo) - cover > 1e-12 * max(1.0, hi - lo):
                return True
        if _tf_scalar(p.transforms, piece.top) == INF and piece.bump.height > 0:
            mw = piece.bump.plateau_halfwidth
            kf, kl = _replaced_index_range_in(piece.centers, lo - mw, hi + mw)
            if kl >= kf:
                return True
    return False


def seed_interval_norm(p, a, b):
    has_inf = seed_interval_has_inf(p, a, b)

    def rho(lam):
        log_lam = math.log(lam)

        def g(w):
            out = np.zeros_like(w)
            finite = np.isfinite(w)
            with np.errstate(over="ignore"):
                out[finite] = np.exp(-w[finite] * log_lam)
            return out

        return seed_interval_integral(p, a, b, g) + (1.0 / lam if has_inf else 0.0)

    return seed_norm_bisect(rho)


def seed_box_norm(p, box):
    cells = []
    for i, piece in enumerate(p.pieces):
        region = box_intersect(piece.box, box)
        region = None if region is None else box_intersect(region, p.domain)
        if region is None:
            continue
        vol = seed_box_subtract_volume(region, [q.box for q in p.pieces[:i]])
        if vol > 0.0:
            cells.append((vol, _tf_scalar(p.transforms, piece.value)))
    vols = np.array([v for v, _ in cells])
    ws = np.array([w for _, w in cells])
    finite = np.isfinite(ws)
    has_inf = bool((~finite).any())

    def rho(lam):
        with np.errstate(over="ignore"):
            val = float((vols[finite] * lam ** (-ws[finite])).sum())
        return val + (1.0 / lam if has_inf else 0.0)

    return seed_norm_bisect(rho)


def seed_mask_on(domain, box=None, sublevel=None, mask=None):
    """The cells of domain in box & {p < t} & mask, for sublevel = (p, t),
    from the midpoints; an absent part does not cut."""
    pts = domain.points()
    keep = np.ones(pts.shape[0], dtype=bool)
    if box is not None:
        for axis, (lo, hi) in enumerate(box):
            keep &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
    if sublevel is not None:
        p, thr = sublevel
        keep &= p.values(pts) < thr
    out = keep.reshape(domain.cells)
    if mask is not None:
        out &= mask
    return out


# -- parity with the replaced code ---------------------------------------------


def test_solver_matches_bisection_on_criterion_02_corpus():
    # the inputs of test_criterion_02_bisection_vs_lambda_scan, drawn the same way
    rng = np.random.default_rng(7)
    for trial in range(50):
        p = random_piecewise_exponent(rng)
        grid = GridDomain(p.domain, (128,))
        f = random_grid_function(rng, grid)
        for q in (p, conjugate(p)):
            lam = luxemburg_norm(f, q)
            want = seed_grid_norm(f, q)
            assert lam == pytest.approx(want, rel=1e-10), f"trial {trial}"
            assert modular(GridFunction(grid, f.values / lam), q) <= 1.0, f"trial {trial}"


class _NormRecorder:
    """A compiled set or family that records (q, a, b) for every interval
    norm read from it."""

    def __init__(self, inner, intervals, inputs):
        self.inner, self.intervals, self.inputs = inner, intervals, inputs

    def norm(self, q):
        self.inputs += [(q, a, b) for a, b in self.intervals]
        return self.inner.norm(q)

    def norms(self, q):
        self.inputs += [(q, a, b) for a, b in self.intervals]
        return self.inner.norms(q)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _interval_norm_inputs(monkeypatch):
    """(p, a, b) of every interval norm the norm and construction tests solve."""
    import varlp.constructions as cons
    import varlp.k0 as k0

    inputs = [(two_piece_exponent(1.0, 2.0), 0.0, 2.0),
              (two_piece_exponent(INF, 2.0), 0.0, 2.0),
              (bump_train_exponent(), 0.3, 10.7)]

    def intervals(sets):
        return [E.box[0] for E in sets]

    def record_set(p, E):
        return _NormRecorder(compile_set(p, E), intervals([E]), inputs)

    def record_family(p, sets):
        return _NormRecorder(_compile_family(p, sets), intervals(sets), inputs)

    monkeypatch.setattr(cons, "compile_set", record_set)
    monkeypatch.setattr(cons, "_compile_family", record_family)
    # the EX61 scan compiles its families through k0alpha_constant
    monkeypatch.setattr(k0, "_compile_family", record_family)
    spec62 = cons.build_ex62()
    spec63, spec64 = cons.build_ex63(0.25, 1.2, 2.0), cons.build_ex64(0.25, 1.2, 2.0)
    for sp, j in ((spec62, 2), (spec62, 3), (spec63, 2), (spec64, 2)):
        cons.witness_norm_check(sp, j)
    cons.two_sided_interval_check(spec62)
    cons.ex61_interval_constant_scan(cons.build_ex61(0.25), 20)
    monkeypatch.undo()
    return inputs


def test_solver_matches_bisection_on_interval_corpus(monkeypatch):
    inputs = _interval_norm_inputs(monkeypatch)
    assert len(inputs) > 100
    for p, a, b in inputs:
        lam = interval_indicator_norm(p, a, b)
        want = seed_interval_norm(p, a, b)
        assert lam == pytest.approx(want, rel=1e-10), f"({a}, {b})"
        assert interval_indicator_modular(p, a, b, lam) <= 1.0, f"({a}, {b})"


def test_solver_matches_bisection_on_plane_boxes(rng):
    values = (1.0, 1.5, 2.0, 3.0, 5.0, INF)
    step = 0.25
    boxes = [((i * step, (i + 1) * step), (j * step, (j + 1) * step))
             for i in range(4) for j in range(4)]
    for trial in range(20):
        p = ExponentFunction(
            dimension=2, domain=((0.0, 1.0), (0.0, 1.0)),
            pieces=tuple(ConstantPiece(bx, values[int(k)])
                         for bx, k in zip(boxes, rng.integers(0, len(values), 16))))
        lo = rng.uniform(0.0, 0.9, 2)
        hi = lo + rng.uniform(0.01, 1.0 - lo)
        box = tuple(zip(lo.tolist(), hi.tolist()))
        for q in (p, conjugate(p)):
            lam = set_norm(q, MeasurableSet.from_box(box))
            assert lam == pytest.approx(seed_box_norm(q, box), rel=1e-10), f"trial {trial}"
    p = frame_exponent()
    box = ((-1.0, 1.0), (-1.0, 1.0))
    assert set_norm(p, MeasurableSet.from_box(box)) == pytest.approx(seed_box_norm(p, box),
                                                                     rel=1e-10)


def test_mask_on_matches_replaced_code(rng):
    line = GridDomain(((0.0, 2.0),), (256,))
    plane = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (64, 64))
    flat = GridDomain(((-1.0, 1.0), (-0.5, 0.5)), (40, 20))
    p1 = random_piecewise_exponent(rng, lo=0.0, hi=2.0, allow_inf=True)
    p2 = frame_exponent()
    p2_flat = ExponentFunction(dimension=2, domain=((-1.0, 1.0), (-0.5, 0.5)),
                               pieces=(ConstantPiece(((-1.0, 0.0), (-0.5, 0.5)), 1.5),
                                       ConstantPiece(((0.0, 1.0), (-0.5, 0.5)), 3.0)))
    # (set, domain, box, sublevel, mask): the seed rebuilds each set from its parts
    cases = []
    for domain, p in ((line, p1), (plane, p2), (flat, p2_flat)):
        n = domain.dimension
        mids = [domain.axis_midpoints(i) for i in range(n)]
        boxes = [domain.box,
                 tuple((float(m[3]), float(m[-5])) for m in mids),  # edges on midpoints
                 tuple((float(m[0]) - 0.1, float(m[len(m) // 2])) for m in mids),
                 tuple((lo + 0.3 * (hi - lo), lo + 0.31 * (hi - lo)) for lo, hi in domain.box)]
        mask = rng.random(domain.cells) < 0.5

        def painted(t, box=None):
            # box & {p < t} & mask as one mask set
            E = MeasurableSet.from_sublevel(p, t, domain, within=box)
            both = MeasurableSet(grid_mask=(domain, E.grid_mask[1] & mask))
            return both if box is None else both.intersect_box(box)

        for box in boxes:
            cases.append((MeasurableSet.from_box(box), domain, box, None, None))
            cases.append((MeasurableSet.from_sublevel(p, 2.5, domain, within=box), domain, box,
                          (p, 2.5), None))
            cases.append((MeasurableSet(box=box, grid_mask=(domain, mask)), domain, box, None,
                          mask))
            cases.append((painted(1.6, box), domain, box, (p, 1.6), mask))
        cases.append((MeasurableSet.from_sublevel(p, 2.0, domain), domain, None, (p, 2.0), None))
        cases.append((MeasurableSet(grid_mask=(domain, mask)), domain, None, None, mask))
        cases.append((painted(4.0), domain, None, (p, 4.0), mask))
    for k, (E, domain, *parts) in enumerate(cases):
        got, want = E.mask_on(domain), seed_mask_on(domain, *parts)
        assert got.dtype == want.dtype and got.shape == want.shape, f"case {k}"
        assert np.array_equal(got, want), f"case {k}"


# -- first-piece geometry on elementary cells ------------------------------------


def random_overlapping_line(rng):
    """Up to 8 pieces on [-2, 2] that may overlap, share edges, stick out of
    the domain or leave gaps; constant values include 1 and inf, and about a
    quarter of the pieces are bump trains."""
    pieces, edges = [], [-2.0, 2.0]
    for _ in range(int(rng.integers(1, 9))):
        lo, hi = np.sort(rng.uniform(-2.5, 2.5, 2)).tolist()
        if rng.random() < 0.3:
            lo, hi = sorted((lo, edges[int(rng.integers(0, len(edges)))]))
        if hi - lo < 1e-3:
            continue
        edges += [lo, hi]
        if rng.random() < 0.25:
            centers = CenterSequence("fixed", positions=tuple(
                (np.arange(-2.0, 2.0, 0.5) + rng.uniform(0.0, 0.4)).tolist()))
            pieces.append(BumpsPiece(((lo, hi),), 1.5, PlateauBump(0.5, 0.05, 0.1), centers,
                                     direction=int(rng.choice([1, -1]))))
        else:
            values = FINITE_VALUES + (INF,)
            pieces.append(ConstantPiece(((lo, hi),), values[int(rng.integers(0, len(values)))]))
    if not pieces or rng.random() < 0.5:
        pieces.append(ConstantPiece(((-2.0, 2.0),), 2.0))
    return ExponentFunction(dimension=1, domain=((-2.0, 2.0),), pieces=tuple(pieces))


def random_overlapping_plane(rng, most=12):
    """Up to `most` random boxes in the unit square, often closed by a piece
    over the whole domain."""
    values = FINITE_VALUES + (INF,)
    pieces = []
    for _ in range(int(rng.integers(1, most + 1))):
        lo = rng.uniform(-0.1, 0.9, 2)
        hi = lo + rng.uniform(0.05, 0.6, 2)
        pieces.append(ConstantPiece(tuple(zip(lo.tolist(), hi.tolist())),
                                    values[int(rng.integers(0, len(values)))]))
    if rng.random() < 0.7:
        pieces[-1] = ConstantPiece(((0.0, 1.0), (0.0, 1.0)), pieces[-1].value)
    return ExponentFunction(dimension=2, domain=((0.0, 1.0), (0.0, 1.0)), pieces=tuple(pieces))


def random_tiling(rng, splits=12):
    """The unit square cut by `splits` random guillotine cuts: pieces that
    tile it without overlap, but not as a product grid."""
    boxes = [((0.0, 1.0), (0.0, 1.0))]
    for _ in range(splits):
        box = boxes.pop(int(rng.integers(0, len(boxes))))
        axis = int(rng.integers(0, 2))
        lo, hi = box[axis]
        cut = float(rng.uniform(lo, hi))
        if not lo < cut < hi:
            boxes.append(box)
            continue
        for part in ((lo, cut), (cut, hi)):
            boxes.append(tuple(part if a == axis else ax for a, ax in enumerate(box)))
    values = FINITE_VALUES + (INF,)
    return ExponentFunction(dimension=2, domain=((0.0, 1.0), (0.0, 1.0)), pieces=tuple(
        ConstantPiece(b, values[int(rng.integers(0, len(values)))]) for b in boxes))


def random_box(rng, domain, spill=0.1):
    """A random box meeting the domain, possibly sticking out of it."""
    out = []
    for lo, hi in domain:
        span = hi - lo
        a = float(rng.uniform(lo - spill * span, hi - 0.01 * span))
        out.append((a, float(rng.uniform(max(a, lo) + 0.005 * span, hi + spill * span))))
    return tuple(out)


def line_exponents(rng):
    return [random_overlapping_line(rng) for _ in range(300)] + [
        build_ex61(0.25).exponent, build_ex62().exponent, build_ex63(0.25, 1.2, 2.0).exponent,
        build_ex64(0.25, 1.2, 2.0).exponent, default_blowup_exponent(), bump_train_exponent(),
        two_piece_exponent(INF, 1.0)]


def seed_compile_interval(p, a, b):
    """Atoms of the indicator of [a, b] as the replaced interval walk built
    them: one atom per constant-piece segment, bump atoms per bump segment.
    The shoulder ends that _replaced_bump_atoms returns are kept, so the norms of
    both walks take the same floor where a shoulder ends on a pole."""
    ws, raws, ends = [np.zeros(0)], [np.zeros(0)], []
    for piece, lo, hi in seed_effective_segments(p, a, b):
        if isinstance(piece, ConstantPiece):
            ws.append(np.array([hi - lo]))
            raws.append(np.array([piece.value]))
        else:
            ends += _replaced_bump_atoms(piece, lo, hi, ws, raws)
    w = np.concatenate(ws)
    keep = w > 0.0
    (dom_lo, dom_hi), = p.domain
    return Distribution(p.pieces, w[keep], 1.0, np.concatenate(raws)[keep],
                        max(min(b, dom_hi) - max(a, dom_lo), 0.0), tuple(ends))


def test_interval_segments_match_replaced_code(rng):
    compared = bitwise = batched = 0
    for p in line_exponents(rng):
        piece_edges = [x for piece in p.pieces for x in piece.box[0]]
        for _ in range(20):
            (a, b), = random_box(rng, p.domain)
            if rng.random() < 0.3:  # ends on piece edges
                a, b = sorted((a, piece_edges[int(rng.integers(0, len(piece_edges)))]))
            E = MeasurableSet.from_box(((a, b),))
            try:
                segments = seed_effective_segments(p, a, b)
            except DomainError as exc:
                with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                    compile_set(p, E)
                continue
            want = seed_compile_interval(p, a, b)
            got = compile_set(p, E)
            where = f"{p.pieces} on ({a}, {b})"
            for q in (p, conjugate(p)):
                assert got._split(q)[3] == want._split(q)[3], where
            # the measure sums the owned lengths, which can round apart from
            # the clipped length b - a unless one piece owns all of it
            if len({id(q) for q, _, _ in segments}) == 1:
                assert got.measure == want.measure, where
            assert got.measure == pytest.approx(want.measure, rel=1e-13, abs=0.0), where
            norms = [(got.norm(q), want.norm(q)) for q in (p, conjugate(p))]
            owners = [id(q) for q, _, _ in segments if isinstance(q, ConstantPiece)]
            if len(set(owners)) == len(owners):  # no constant piece owns two runs
                assert all(x == y for x, y in norms), where
                bitwise += 1
            for x, y in norms:
                assert x == pytest.approx(y, rel=1e-13, abs=0.0), where
            # a bump piece that owns two runs splits both in one call
            bumps = [id(q) for q, _, _ in segments if isinstance(q, BumpsPiece)]
            batched += len(set(bumps)) < len(bumps)
            compared += 1
    assert compared > 4000 and bitwise > 4000 and batched > 0


def test_box_volumes_match_replaced_code(rng):
    k = 4
    grid_pieces = tuple(ConstantPiece(((i / k, (i + 1) / k), (j / k, (j + 1) / k)), 1.0 + i + j)
                        for i in range(k) for j in range(k))
    tiled = [ExponentFunction(dimension=2, domain=((0.0, 1.0), (0.0, 1.0)), pieces=grid_pieces),
             frame_exponent(), frame_exponent(0.3)]
    tiled += [random_tiling(rng, int(rng.integers(1, 16))) for _ in range(60)]
    for p in tiled:
        for _ in range(10):
            box = random_box(rng, p.domain)
            dist = compile_set(p, MeasurableSet.from_box(box))
            want = seed_box_volumes(p, box)
            # pieces that tile keep the bits of their overlap volume
            assert np.array_equal(dist.w, [v for v in want if v > 0.0]), f"{p.pieces} on {box}"
            assert dist.raw.tolist() == [q.value for q, v in zip(p.pieces, want) if v > 0.0]
            assert dist.measure == sum(v for v in want if v > 0.0)
    overlapping = [hm_counterexample().exponent] + [random_overlapping_plane(rng) for _ in range(40)]
    overlapping += [random_overlapping_plane(rng, 16) for _ in range(3)]
    for p in overlapping:
        for _ in range(5):
            clipped = box_intersect(random_box(rng, p.domain), p.domain)
            got = _first_piece_cells(p.pieces, clipped)[2]
            np.testing.assert_allclose(got, seed_box_volumes(p, clipped), rtol=1e-12,
                                       atol=1e-12 * box_volume(clipped))


def test_box_route_errors_match_replaced_code():
    holed = ExponentFunction(dimension=2, domain=((0.0, 2.0), (0.0, 1.0)),
                             pieces=(ConstantPiece(((0.0, 1.0), (0.0, 1.0)), 2.0),
                                     ConstantPiece(((1.5, 2.0), (0.0, 1.0)), 3.0)))
    with pytest.raises(DomainError, match="^box is not covered by the exponent pieces$"):
        set_norm(holed, MeasurableSet.from_box(((0.5, 1.8), (0.0, 1.0))))
    with pytest.raises(DomainError, match="^set lies outside the exponent's domain$"):
        set_norm(holed, MeasurableSet.from_box(((3.0, 4.0), (0.0, 1.0))))
    gap = two_piece_exponent(1.0, 2.0)
    gap = ExponentFunction(dimension=1, domain=((0.0, 3.0),), pieces=gap.pieces)
    with pytest.raises(DomainError, match=re.escape("interval (0.5, 2.5) is not covered")):
        interval_indicator_norm(gap, 0.5, 2.5)


def test_interval_that_misses_the_domain_compiles_to_no_atoms():
    p = two_piece_exponent(INF, 1.0)
    dist = compile_set(p, MeasurableSet.from_box(((3.0, 4.0),)))
    assert (dist.w.size, dist.measure, dist.norm(p)) == (0, 0.0, 0.0)
    assert interval_integral(p, 3.0, 4.0, lambda v: np.ones_like(v)) == 0.0
    assert interval_indicator_norm(p, -2.0, -1.0) == 0.0
    # [2, 4] meets the domain [0, 2] in one point only
    assert interval_indicator_modular(p, 2.0, 4.0, 1.0) == 0.0
    assert not np.isinf(compile_set(p, MeasurableSet.from_box(((-2.0, 0.0),))).values(p)).any()


def test_box_of_another_dimension_is_refused():
    plane = hm_counterexample().exponent
    with pytest.raises(PreconditionError, match="^a 1-D box against a 2-D exponent$"):
        interval_indicator_norm(plane, 0.0, 1.0)
    with pytest.raises(PreconditionError, match="^a 2-D box against a 1-D exponent$"):
        set_norm(two_piece_exponent(1.0, 2.0), MeasurableSet.from_box(((0.0, 1.0), (0.0, 1.0))))


def _replaced_raw_level_sets(p):
    """The second walk of the pieces that bounds() and strata() read before
    they read the domain's compile (ExponentFunction._raw_level_sets with
    BumpsPiece.levels and BumpsPiece.ranges): the raw atoms, and the raw
    (low, high) ranges the bump shoulders sweep, taken on positive measure."""
    atoms, ranges = set(), []
    for piece, _, runs in _owned_parts(p.pieces, p.domain):
        if runs is None:
            atoms.add(piece.value)
        for lo, hi in runs or ():
            whole, base_len, windows = _replaced_run(piece, lo, hi)
            m = piece.bump.plateau_halfwidth
            if base_len > 0.0:
                atoms.add(piece.base)
            if piece.bump.height > 0 and (whole or any(min(o1, m) > max(o0, -m)
                                                       for o0, o1 in windows)):
                atoms.add(piece.top)
            swept = [(piece.base, piece.top)] if whole else []
            for o0, o1 in windows:
                dist = [max(-o0, o1), max(o0, -o1, 0.0)]
                values = piece.base + piece.direction * piece.bump.profile(dist)
                swept.append(tuple(values.tolist()))
            for low, high in swept:
                if low == high:
                    atoms.add(low)
                else:
                    ranges.append((low, high))
    return atoms, ranges


def _bounds_and_strata_of_levels(q, atoms, ranges):
    """(bounds(), strata()) of q as the replaced reader took them from raw
    atoms and ranges; None where there is no level."""
    if not atoms and not ranges:
        return None
    ends = np.sort(_tf_array(q.transforms, np.reshape(ranges, (-1, 2))), axis=1).tolist()
    atoms = _tf_array(q.transforms, sorted(atoms)).tolist()
    has_finite = any(1.0 < v < INF for v in atoms) or any(
        hi > 1.0 and lo < INF and hi > lo for lo, hi in ends)
    return ((min(atoms + [lo for lo, _ in ends]), max(atoms + [hi for _, hi in ends])),
            Strata(1.0 in atoms, has_finite, INF in atoms))


def _read_bounds_and_strata(q):
    try:
        return q.bounds(), q.strata()
    except DomainError as exc:
        assert str(exc) == "no piece owns any part of the exponent's domain"
        with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
            q.strata()
        return None


def _level_set_corpus(rng):
    # the replaced code kept every level a bump piece could take once earlier
    # pieces cut into it, and counted plateaus and shoulders that only touch
    # the domain; bump lines are held to dense sampling below instead, and
    # the named ones, which have neither case, still to the replaced code
    lines = line_exponents(rng)
    exponents = [p for p in lines[:300]
                 if not any(isinstance(q, BumpsPiece) for q in p.pieces)] + lines[300:]
    exponents += [random_overlapping_plane(rng) for _ in range(60)]
    exponents += [random_tiling(rng, 10) for _ in range(20)]
    return exponents + [frame_exponent(), hm_counterexample().exponent]


def test_level_sets_match_replaced_code(rng):
    exponents = _level_set_corpus(rng)
    assert len(exponents) > 170
    for p in exponents:
        levels = seed_raw_level_sets(p)
        for q in (p, conjugate(p)):
            assert _read_bounds_and_strata(q) == _bounds_and_strata_of_levels(q, *levels), p.pieces


def _with_duals(p):
    """p, its conjugate, and its fractional duals of the orders that put
    n / alpha at p_plus and at twice p_plus, where such an order is legal."""
    out = [p, conjugate(p)]
    p_plus = p.bounds()[1]
    for alpha in (p.dimension / p_plus, 0.5 * p.dimension / p_plus):
        if 0.0 < alpha < p.dimension:
            out.append(sobolev_dual(p, alpha))
    return out


def test_bounds_and_strata_equal_the_replaced_walk_bitwise(rng):
    exponents = _level_set_corpus(rng) + line_exponents(rng)
    data = pathlib.Path(__file__).parent / "data"
    exponents += [load_spec(path) for path in sorted(data.glob("*.json"))]
    exponents += [spec.exponent for spec in (build_ex61(0.25), build_ex62(),
                                             build_ex63(0.25, 1.2, 2.0), build_ex64(0.25, 1.2, 2.0))]
    exponents += [default_blowup_exponent(), hm_counterexample().exponent]
    # one bump whose base or plateau is 1 on a whole support, inside a
    # shoulder, touching the plateau in one point and on a longer line
    exponents += [ExponentFunction(dimension=1, domain=(domain,),
                                   pieces=(one_bump((0.0, 3.0), *bump),))
                  for domain in ((0.5, 1.5), (0.6, 0.7), (0.0, 0.75), (0.0, 3.0))
                  for bump in ((1.0, 1.0), (2.0, 1.0, -1), (2.0, 0.0))]
    compared = 0
    for p in exponents:
        levels = _replaced_raw_level_sets(p)
        for q in _with_duals(p) if levels != (set(), []) else [p, conjugate(p)]:
            got, want = _read_bounds_and_strata(q), _bounds_and_strata_of_levels(q, *levels)
            # == on floats >= 1 compares their bits
            assert got == want, (p.pieces, q.transforms)
            compared += 1
    assert compared > 1000


def test_one_domain_compile_serves_every_structure_read(monkeypatch):
    # bounds, strata and the pairing constants of p and its conjugate all
    # read one cached compile of the domain, and its arrays are read-only
    p = load_spec(pathlib.Path(__file__).parent / "data" / "cutbump.json")
    box_atoms, calls = varlp.exponent._box_atoms, []

    def counted(pieces, box):
        if box == p.domain:
            calls.append(box)
        return box_atoms(pieces, box)

    monkeypatch.setattr(varlp.exponent, "_box_atoms", counted)
    varlp.exponent._domain_atoms.cache_clear()
    for q in (p, conjugate(p)):
        q.bounds(), q.strata(), holder_constant(q), duality_constant(q)
    assert len(calls) == 1
    raw, ends = varlp.exponent._domain_atoms(p.pieces, p.domain)
    assert not raw.flags.writeable and not ends.flags.writeable
    assert p.bounds() == (1.5, 2.0)


def test_level_sets_match_dense_sampling(rng):
    # every random line whose pieces cover [-2, 2], sampled on 1e5 cells
    grid = GridDomain(((-2.0, 2.0),), (100_000,))
    compared = 0
    for p in line_exponents(rng)[:300]:
        if not _first_piece_cells(p.pieces, p.domain)[1].min() >= 0:
            continue
        for q in (p, conjugate(p)):
            values = q.values_on(grid)
            lo, hi = q.bounds()
            if q is p:
                np.testing.assert_allclose([lo, hi], [values.min(), values.max()], rtol=1e-3,
                                           err_msg=str(p.pieces))
            else:
                assert lo <= values.min() and values.max() <= hi, p.pieces
            assert q.strata() == Strata(bool((values == 1.0).any()),
                                        bool(((values > 1.0) & (values < INF)).any()),
                                        bool((values == INF).any())), p.pieces
        compared += 1
    assert compared > 200


def one_bump(box, base, height, direction=1):
    """A bump piece with one bump of center 1, plateau [0.75, 1.25] and
    support [0.5, 1.5]."""
    return BumpsPiece((box,), base, PlateauBump(height, 0.25, 0.5),
                      CenterSequence("fixed", positions=(1.0,)), direction)


def test_shadowed_base_is_not_a_level():
    # the constants own every cell where the bump piece sits at its base
    p = ExponentFunction(dimension=1, domain=((0.0, 3.0),), pieces=(
        ConstantPiece(((0.0, 0.75),), 3.0), ConstantPiece(((1.25, 3.0),), 3.0),
        one_bump((0.0, 3.0), 1.0, 1.0)))
    assert p.bounds() == (2.0, 3.0)
    assert not p.strata().has_one
    assert holder_constant(p) == pytest.approx(7.0 / 6.0, rel=1e-15)
    assert duality_constant(p) == 1.0


def test_shoulder_only_domain_reads_the_shoulder_range():
    p = ExponentFunction(dimension=1, domain=((0.6, 0.7),),
                         pieces=(one_bump((0.0, 3.0), 1.0, 1.0),))
    # the profile at the farthest and the nearest distance from the center
    want = 1.0 + p.pieces[0].bump.profile([1.0 - 0.6, 1.0 - 0.7])
    assert p.bounds() == tuple(want.tolist())
    assert p.bounds() == pytest.approx((1.352, 1.896), rel=1e-12)
    assert p.strata() == Strata(False, True, False)


@pytest.mark.parametrize("domain, norm", [((0.5, 1.5), 1.0), ((0.6, 0.7), math.sqrt(0.1))],
                         ids=["whole-support", "inside-shoulder"])
def test_flat_bump_is_its_base_level(domain, norm):
    # a bump of height 0 sweeps only its base: on a run its whole support
    # covers, or inside one shoulder, the base is the one level
    p = ExponentFunction(dimension=1, domain=(domain,), pieces=(one_bump((0.0, 3.0), 2.0, 0.0),))
    assert p.bounds() == (2.0, 2.0)
    assert p.strata() == Strata(False, True, False)
    assert holder_constant(p) == 1.0
    assert interval_indicator_norm(p, *domain) == pytest.approx(norm, rel=1e-12)


def test_plateau_touching_one_point_is_not_a_level():
    # a well whose plateau [0.75, 1.25] meets the domain [0, 0.75] in one point
    p = ExponentFunction(dimension=1, domain=((0.0, 0.75),),
                         pieces=(one_bump((0.0, 0.75), 2.0, 1.0, -1),))
    assert p.bounds() == (1.0, 2.0)
    assert p.strata() == Strata(False, True, False)
    assert holder_constant(p) == 1.5
    q = conjugate(p)
    assert np.isfinite(compile_set(q, MeasurableSet.from_box(((0.0, 0.75),))).values(q)).all()
    # no sup term for the null set {q = inf}; dense sampling agrees
    norm = interval_indicator_norm(q, 0.0, 0.75)
    assert norm == pytest.approx(0.99999, abs=1e-5)
    grid = GridDomain(((0.0, 0.75),), (10_000,))
    assert luxemburg_norm(GridFunction(grid, np.ones(10_000)), q) == pytest.approx(norm, rel=1e-5)


@pytest.mark.parametrize("base, height, direction, alpha", [(2.0, 1.0, -1, 0.0),
                                                           (1.5, 0.5, 1, 0.5)],
                         ids=["conjugate", "sobolev"])
def test_a_shoulder_ending_on_a_pole_floors_the_norm_at_one(base, height, direction, alpha):
    # the shoulder on [0.5, 0.75] ends at the plateau on a raw value the read
    # exponent maps to inf (1 for a conjugate, n/alpha = 2 for the dual of
    # order 1/2), which it meets quadratically: the modular is inf for every
    # lam < 1 and 0.75 at lam = 1, so the norm is exactly 1
    p = ExponentFunction(dimension=1, domain=((0.0, 0.75),),
                         pieces=(one_bump((0.0, 0.75), base, height, direction),))
    q = conjugate(p) if alpha == 0.0 else sobolev_dual(p, alpha)
    assert interval_indicator_norm(q, 0.0, 0.75) == 1.0
    for lam in (0.9, 0.999, 0.99999):
        assert interval_indicator_modular(q, 0.0, 0.75, lam) == INF
    assert interval_indicator_modular(q, 0.0, 0.75, 1.0) == pytest.approx(0.75, rel=1e-12)
    # in a family the rows without such an end keep their own norms
    sets = [MeasurableSet.from_box(((0.0, b),)) for b in (0.75, 0.4, 0.6)]
    want = [compile_set(p, E).norm(q) for E in sets]
    assert _compile_family(p, sets).norms(q).tolist() == want
    assert want[0] == 1.0 and max(want[1:]) < 1.0


def test_a_shoulder_ending_within_rounding_of_the_plateau_floors_the_norm():
    # the set [0, 0.85] ends at 0.85 - 1.1 = -0.2500000000000001 from the
    # center, 1.1e-16 short of the plateau edge, where the raw value rounds to
    # the plateau value 1 and the conjugate is inf: the norm is 1, not the
    # 0.9999932715614955 a test for an end at exactly m gave
    well = BumpsPiece(((0.0, 0.85),), 2.0, PlateauBump(1.0, 0.25, 0.5),
                      CenterSequence("fixed", positions=(1.1,)), -1)
    q = conjugate(ExponentFunction(dimension=1, domain=((0.0, 0.85),), pieces=(well,)))
    assert interval_indicator_norm(q, 0.0, 0.85) == 1.0
    assert interval_indicator_modular(q, 0.0, 0.85, 0.99999) == INF


def test_a_coarse_center_counts_as_a_whole_bump():
    # about e^35 the float spacing is 0.25 > 0.01 s, so the center that lies
    # in the interval counts as one whole bump and the rest is base
    lo, hi = 1586013452313430.5, 1586013452313435.8
    assert np.spacing(math.exp(35.0)) == 0.25 and lo < math.exp(35.0) < hi
    piece = BumpsPiece(((0.0, 1e16),), 1.5, PlateauBump(1.0, 0.25, 0.5),
                       CenterSequence("exp", rate=1.0, count=40))
    whole, base_len, _, _, straddles = piece._runs(np.array([lo]), np.array([hi]))
    assert (whole.tolist(), base_len.tolist(), straddles.any()) == ([1], [4.25], False)
    p = ExponentFunction(dimension=1, domain=((0.0, 1e16),), pieces=(piece,))
    norm = interval_indicator_norm(p, lo, hi)
    assert math.isfinite(norm) and norm > 0.0


def test_an_empty_interval_has_norm_zero():
    p = two_piece_exponent(1.5, 3.0)
    for a in (0.0, 0.5, 1.0, 2.0):
        assert interval_indicator_norm(p, a, a) == 0.0


def sliver_exponent():
    """2 on [0, 1 - 1e-14], then inf on the 1e-14 left of [0, 1]."""
    return ExponentFunction(dimension=1, domain=((0.0, 1.0),), pieces=(
        ConstantPiece(((0.0, 1.0 - 1e-14),), 2.0), ConstantPiece(((0.0, 1.0),), INF)))


def test_level_reader_and_box_compiler_agree_on_a_tiny_inf_piece():
    # the inf piece owns 1e-14 of the domain: positive volume, so a level for
    # the level reader (bounds(), strata()) as for the box compiler
    p = sliver_exponent()
    assert p.bounds() == (2.0, INF)
    assert p.strata().has_inf
    assert holder_constant(p) == 2.5
    assert duality_constant(p) == 0.5
    with pytest.raises(PreconditionError, match="p_plus = inf"):
        sobolev_dual(p, 0.25)
    # the 1e-14 inf atom adds a sup term: (1 - 1e-14) / lam^2 + 1 / lam = 1
    assert interval_indicator_norm(p, 0.0, 1.0) == pytest.approx(GOLDEN, rel=1e-12)


def test_strata_and_compiled_domain_agree_on_inf(rng):
    # {q = inf} carries measure for strata() exactly when the compiled
    # domain has a sup term, for every exponent whose pieces cover it
    exponents = line_exponents(rng) + [random_overlapping_plane(rng) for _ in range(60)]
    exponents = [p for p in exponents if _first_piece_cells(p.pieces, p.domain)[1].min() >= 0]
    assert len(exponents) > 250
    for p in exponents + [sliver_exponent()]:
        for q in (p, conjugate(p)):
            dist = compile_set(q, MeasurableSet.from_box(q.domain))
            assert q.strata().has_inf == (dist._split(q)[3] > 0.0), p.pieces


def nested_exponent(count, dimension):
    """count nested cubes, the k-th of half side k / count, valued 2, 1, inf,
    2, 1, ... from the inside out; each wins on its shell."""
    values = (2.0, 1.0, INF)
    pieces = tuple(ConstantPiece(((-k / count, k / count),) * dimension, values[(k - 1) % 3])
                   for k in range(1, count + 1))
    return ExponentFunction(dimension=dimension, domain=((-1.0, 1.0),) * dimension,
                            pieces=pieces)


@pytest.mark.parametrize("count", [17, 64])
@pytest.mark.parametrize("dimension", [1, 2])
def test_nested_pieces_match_closed_forms(count, dimension):
    p = nested_exponent(count, dimension)
    assert p.bounds() == (1.0, INF)
    assert p.strata() == Strata(True, True, True)
    assert holder_constant(p) == 4.0
    # shell k has measure (2k/count)^n - (2(k-1)/count)^n
    shells = [(2.0 * k / count) ** dimension - (2.0 * (k - 1) / count) ** dimension
              for k in range(1, count + 1)]
    ones = math.fsum(shells[1::3])
    twos = math.fsum(shells[0::3])
    # the indicator of the domain: (ones + 1) / lam + twos / lam^2 = 1, with
    # 1 / lam from {p = inf}
    want = 0.5 * (ones + 1.0 + math.sqrt((ones + 1.0) ** 2 + 4.0 * twos))
    if dimension == 1:
        got = interval_indicator_norm(p, -1.0, 1.0)
    else:
        got = set_norm(p, MeasurableSet.from_box(p.domain))
    assert got == pytest.approx(want, rel=1e-12)
    # a last piece over the whole domain is shadowed everywhere
    shadowed = ExponentFunction(dimension=dimension, domain=p.domain,
                                pieces=p.pieces + (ConstantPiece(p.domain, 7.0),))
    assert shadowed.bounds() == (1.0, INF)


@settings(max_examples=60, deadline=None)
@given(cells=st.integers(4, 64), data=st.data())
def test_holder_pairing_holds_on_random_grid_data(cells, data):
    # piecewise-constant exponents on [0, 1] that take the values 1 and inf
    count = data.draw(st.integers(2, 6))
    values = data.draw(st.permutations(
        [1.0, INF] + data.draw(st.lists(st.sampled_from(FINITE_VALUES[1:]),
                                        min_size=count - 2, max_size=count - 2))))
    cuts = sorted(data.draw(st.lists(st.floats(0.01, 0.99), min_size=count - 1,
                                     max_size=count - 1, unique=True)))
    edges = [0.0] + cuts + [1.0]
    p = ExponentFunction(dimension=1, domain=((0.0, 1.0),), pieces=tuple(
        ConstantPiece(((lo, hi),), v) for lo, hi, v in zip(edges, edges[1:], values)))
    grid = GridDomain(((0.0, 1.0),), (cells,))
    data_values = st.lists(st.floats(0.0, 1e3), min_size=cells, max_size=cells)
    f = GridFunction(grid, np.array(data.draw(data_values)))
    g = GridFunction(grid, np.array(data.draw(data_values)))
    report = holder_pairing_check(f, g, p)
    assert report.holds, report


# -- families: many sets, one batched solve ------------------------------------------


def _stack(rows):
    """The solver rows (w, f, v, sup) of several families as one batch,
    padded to the widest row with w = f = 0."""
    width = max(w.shape[1] for w, _, _, _ in rows)

    def pad(x, fill):
        return np.hstack([x, np.full((x.shape[0], width - x.shape[1]), fill)])

    return (np.vstack([pad(w, 0.0) for w, _, _, _ in rows]),
            np.vstack([pad(f, 0.0) for _, f, _, _ in rows]),
            np.vstack([pad(v, 1.0) for _, _, v, _ in rows]),
            np.concatenate([sup for _, _, _, sup in rows]))


def _float_range_rows():
    """(solver rows, closed form or None, table route?) of one interval each:
    constant exponents over the float range, an interval that misses the
    domain, and an interval of a bump train."""
    cases = []
    for length in (1e-300, 1.0, 1e300, 1.7e308):
        for value in (1.0, 2.0, 5.0, INF):
            p = ExponentFunction.constant(value, ((0.0, length),))
            family = _compile_family(p, [MeasurableSet.from_box(((0.0, length),))])
            cases.append((family._split(p), 1.0 if value == INF else length ** (1.0 / value), True))
    p = two_piece_exponent(2.0, INF)
    cases.append((_compile_family(p, [MeasurableSet.from_box(((3.0, 4.0),))])._split(p), 0.0, True))
    bumps = bump_train_exponent()
    family = _compile_family(bumps, [MeasurableSet.from_box(((0.3, 10.7),))])
    cases.append((family._split(bumps), None, False))
    return cases


def test_batch_rows_keep_their_closed_forms_over_the_float_range():
    cases = _float_range_rows()
    batch = _norms(*_stack([rows for rows, _, _ in cases]))
    for k, (rows, closed, table) in enumerate(cases):
        alone = _norms(*rows)[0]
        if closed is not None:
            assert batch[k] == pytest.approx(closed, rel=1e-13, abs=0.0), f"row {k}"
        if table:
            assert batch[k] == alone, f"row {k}: a table row solves bitwise as alone"
        assert batch[k] == pytest.approx(alone, rel=1e-13, abs=0.0), f"row {k}"
    bumps = bump_train_exponent()
    assert batch[-1] == pytest.approx(seed_interval_norm(bumps, 0.3, 10.7), rel=1e-10)


def test_batch_rows_do_not_depend_on_their_order(rng):
    cases = _float_range_rows()
    batch = _norms(*_stack([rows for rows, _, _ in cases]))
    for _ in range(5):
        order = rng.permutation(len(cases))
        shuffled = _norms(*_stack([cases[k][0] for k in order]))
        assert shuffled.tobytes() == batch[order].tobytes()


def test_family_rows_equal_sets_compiled_alone_bitwise(rng):
    p = ExponentFunction(dimension=1, domain=((-2.0, 2.0),), pieces=(
        ConstantPiece(((-1.0, 0.5),), 1.0), ConstantPiece(((0.0, 1.5),), 3.0),
        ConstantPiece(((-2.0, 2.0),), INF)))
    sets = [MeasurableSet.from_box(random_box(rng, p.domain)) for _ in range(40)]
    family = _compile_family(p, sets)
    for q in (p, conjugate(p)):
        got = family.norms(q)
        for k, E in enumerate(sets):
            assert got[k] == _compile_family(p, [E]).norms(q)[0], f"set {k}"
            assert got[k] == pytest.approx(set_norm(q, E), rel=1e-13, abs=0.0), f"set {k}"


def test_family_raises_what_compile_set_raises():
    holed = ExponentFunction(dimension=2, domain=((0.0, 2.0), (0.0, 1.0)),
                             pieces=(ConstantPiece(((0.0, 1.0), (0.0, 1.0)), 2.0),
                                     ConstantPiece(((1.5, 2.0), (0.0, 1.0)), 3.0)))
    gap = ExponentFunction(dimension=1, domain=((0.0, 3.0),),
                           pieces=two_piece_exponent(1.0, 2.0).pieces)
    # the bump lines take the batched line route, where too the first
    # interval the pieces leave a gap in raises; one that misses the domain
    # before it compiles to no atoms
    bump_gap = ExponentFunction(dimension=1, domain=((0.0, 3.0),), pieces=(
        one_bump((0.0, 1.2), 1.5, 1.0), ConstantPiece(((1.5, 3.0),), 2.0)))
    train_gap = ExponentFunction(dimension=1, domain=((-2.0, 1e6),), pieces=(
        ConstantPiece(((-2.0, 0.0),), 3.0),
        BumpsPiece(((10.0, 1e6),), 1.5, PlateauBump(1.0, 0.25, 0.5),
                   CenterSequence("power", rate=2.0, count=1000))))
    cases = [(holed, [((0.1, 0.9), (0.0, 1.0)), ((0.5, 1.8), (0.0, 1.0))]),
             (holed, [((0.1, 0.9), (0.0, 1.0)), ((3.0, 4.0), (0.0, 1.0))]),
             (gap, [((0.5, 1.5),), ((4.0, 5.0),), ((0.5, 2.5),), ((2.5, 2.9),)]),
             # the gap is found before the box of another dimension after it
             (gap, [((0.5, 2.5),), ((0.0, 1.0), (0.0, 1.0))]),
             (bump_gap, [((0.5, 1.1),), ((4.0, 5.0),), ((0.9, 2.0),), ((1.1, 1.4),)]),
             (train_gap, [((20.0, 1e5),), ((-1.0, 5.0),), ((-3.0, 11.0),)])]
    for p, boxes in cases:
        sets = [MeasurableSet.from_box(box) for box in boxes]
        with pytest.raises(DomainError) as alone:
            for E in sets:
                compile_set(p, E)
        with pytest.raises(DomainError, match=f"^{re.escape(str(alone.value))}$"):
            _compile_family(p, sets)


def test_table_rows_of_a_many_piece_plane_match_sets_compiled_alone(rng):
    # 64 nested squares cut the plane into 127^2 cells, so a family of 200
    # boxes reads the level-volume table in several blocks
    p = nested_exponent(64, 2)
    sets = [MeasurableSet.from_box(random_box(rng, p.domain)) for _ in range(200)]
    family = _compile_family(p, sets)
    alone = [_compile_family(p, [E]) for E in sets]
    compiled = [compile_set(p, E) for E in sets]
    for q in (p, conjugate(p)):
        got = family.norms(q)
        for k, E in enumerate(sets):
            assert got[k] == alone[k].norms(q)[0], f"set {k}"
            assert got[k] == pytest.approx(compiled[k].norm(q), rel=1e-13, abs=0.0), f"set {k}"
    for k, dist in enumerate(compiled):
        assert family.measure[k] == pytest.approx(dist.measure, rel=1e-13, abs=0.0), f"set {k}"


def test_table_memory_does_not_grow_with_the_family(rng):
    # one dense boxes x cells table of this family would take 2 x 65 MB
    p = nested_exponent(64, 2)
    sets = [MeasurableSet.from_box(random_box(rng, p.domain)) for _ in range(500)]
    tracemalloc.start()
    try:
        _compile_family(p, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def _random_constant_exponent(rng, dimension):
    """Up to 8 overlapping constant pieces on [-2, 2]^n, values 1 to inf,
    that may stick out of the domain or leave gaps, often closed by a piece
    over the whole domain."""
    values = FINITE_VALUES + (INF,)
    pieces = []
    for _ in range(int(rng.integers(1, 9))):
        lo = rng.uniform(-2.5, 2.0, dimension)
        hi = lo + rng.uniform(1e-3, 2.5, dimension)
        pieces.append(ConstantPiece(tuple(zip(lo.tolist(), hi.tolist())),
                                    values[int(rng.integers(0, len(values)))]))
    if rng.random() < 0.7:
        pieces.append(ConstantPiece(((-2.0, 2.0),) * dimension, values[int(rng.integers(0, 7))]))
    return ExponentFunction(dimension=dimension, domain=((-2.0, 2.0),) * dimension,
                            pieces=tuple(pieces))


def _random_family_boxes(rng, p):
    """Boxes that meet the domain: random ones, tiny ones far from the
    origin, and ones that end on piece edges."""
    boxes = [random_box(rng, p.domain) for _ in range(6)]
    for _ in range(3):
        center = rng.uniform(-1.9, 1.9, p.dimension)
        half = 10.0 ** rng.uniform(-12, -6)
        boxes.append(tuple((c - half, c + half) for c in center.tolist()))
    for _ in range(3):
        piece = p.pieces[int(rng.integers(0, len(p.pieces)))]
        boxes.append(tuple(sorted((x, float(rng.uniform(-2.0, 2.0))))
                           for x, _ in piece.box))
    return [box for box in boxes if all(hi > lo for lo, hi in box)]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dimension=st.sampled_from([1, 2]))
def test_table_rows_match_compile_set(seed, dimension):
    rng = np.random.default_rng(seed)
    p = _random_constant_exponent(rng, dimension)
    sets = []
    for box in _random_family_boxes(rng, p):
        E = MeasurableSet.from_box(box)
        try:
            compile_set(p, E)
        except DomainError:
            continue
        sets.append(E)
    family = _compile_family(p, sets)
    bounded = all(piece.value <= dimension / 0.1 for piece in p.pieces)
    duals = [sobolev_dual(p, 0.1)] if bounded and sets else []
    for q in [p, conjugate(p)] + duals:
        for E, got in zip(sets, family.norms(q)):
            want = compile_set(p, E).norm(q)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), E.box
    compiled = [compile_set(p, E) for E in sets]
    for E, dist, measure in zip(sets, compiled, family.measure):
        assert measure == pytest.approx(dist.measure, rel=1e-13, abs=0.0), E.box
    met = [E for E, dist in zip(sets, compiled) if dist.measure > 0.0]
    if met:
        means = _mean_inverses(_compile_family(p, met), p, met)
        for E, got in zip(met, means):
            assert got == pytest.approx(mean_inverse_exponent(p, E), rel=1e-13, abs=0.0), E.box


def _random_bump_piece(rng, box):
    """One bump train on box: power, exp or fixed centers, raised bumps,
    wells or bumps of height 0; power and exp centers run far past 1e13,
    where the float spacing of a center is coarser than the bump."""
    kind = ("power", "exp", "fixed")[int(rng.integers(0, 3))]
    s = float(rng.uniform(0.05, 0.5))
    if kind == "power":
        rate = float(rng.uniform(1.0, 2.0))
        s = min(s, 0.45 * (2.0 ** rate - 1.0))
        centers = CenterSequence("power", rate=rate, count=int(10.0 ** rng.uniform(0.5, 13.5)))
    elif kind == "exp":
        rate = float(rng.uniform(0.5, 1.2))
        s = min(s, 0.45 * (math.exp(2.0 * rate) - math.exp(rate)))
        centers = CenterSequence("exp", rate=rate, count=int(rng.integers(3, 70)))
    else:
        gaps = rng.uniform(2.05, 6.0, int(rng.integers(1, 12))) * s
        centers = CenterSequence("fixed", positions=tuple(
            (float(rng.uniform(-3.0, 3.0)) + np.cumsum(gaps)).tolist()))
    height = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.1, 3.0))
    direction = int(rng.choice([1, -1]))
    base = float(rng.uniform(1.0, 3.0)) + (height if direction == -1 else 0.0)
    return BumpsPiece((box,), base, PlateauBump(height, s * float(rng.uniform(0.1, 0.9)), s),
                      centers, direction)


def _random_bump_line(rng):
    """A line of up to 1e28 with one or two bump trains and up to three
    constant pieces listed before or after them, which may overlap them,
    stick out of the domain or leave gaps."""
    lo, hi = float(rng.uniform(-3.0, 0.5)), float(10.0 ** rng.uniform(0.5, 28.0))
    pieces = []
    for _ in range(int(rng.integers(1, 3))):
        box = (lo, hi) if rng.random() < 0.5 else tuple(sorted(
            rng.uniform(lo - 1.0, min(hi, 50.0) + 1.0, 2).tolist()))
        pieces.append(_random_bump_piece(rng, box))
    values = FINITE_VALUES + (INF,)
    for _ in range(int(rng.integers(0, 4))):
        a = float(rng.uniform(lo - 1.0, min(hi, 30.0)))
        piece = ConstantPiece(((a, a + float(10.0 ** rng.uniform(-3.0, 1.5))),),
                              values[int(rng.integers(0, len(values)))])
        pieces.insert(int(rng.integers(0, len(pieces) + 1)), piece)
    if rng.random() < 0.7:
        pieces.append(ConstantPiece(((lo, hi),), 2.0))
    return ExponentFunction(dimension=1, domain=((lo, hi),), pieces=tuple(pieces))


def _random_line_intervals(rng, p):
    """Intervals 1e-12 to 1e27 long: anywhere, about the bump centers, from
    piece edges, and straddling or past the ends of the domain."""
    (lo, hi), = p.domain
    centers = [float(piece.centers.position(k)) for piece in p.pieces
               if isinstance(piece, BumpsPiece)
               for k in (1, 2, int(rng.integers(1, piece.centers.count + 1)))]
    edges = [x for piece in p.pieces for x in piece.box[0]]
    starts = [float(rng.uniform(lo - 1.0, min(hi, 60.0))) for _ in range(8)]
    starts += [c + float(rng.uniform(-1.5, 1.5)) for c in centers]
    starts += [edges[int(rng.integers(0, len(edges)))] for _ in range(3)]
    starts += [float(10.0 ** rng.uniform(0.0, math.log10(hi))) for _ in range(4)]
    starts += [lo - float(rng.uniform(0.0, 2.0)), hi - float(rng.uniform(0.0, 2.0)), hi + 1.0]
    out = []
    for a in starts:
        b = a + float(10.0 ** rng.uniform(-12.0, 27.0))
        if rng.random() < 0.3:
            b = a + float(10.0 ** rng.uniform(-12.0, 1.0))
        if b > a:
            out.append((a, b))
    return out


def _replaced_family_rows(p, sets):
    """The per-set compile the batched line route replaces: each set
    compiled alone, its atoms padded into the rows."""
    dists = [compile_set(p, E) for E in sets]
    atoms = max((d.raw.size for d in dists), default=0)
    w, raw = np.zeros((len(dists), atoms)), np.ones((len(dists), atoms))
    ends = np.full((len(dists), max((len(d.ends) for d in dists), default=0)), np.nan)
    for r, d in enumerate(dists):
        w[r, :d.raw.size] = d.w
        raw[r, :d.raw.size] = d.raw
        ends[r, :len(d.ends)] = d.ends
    return w, raw, np.array([d.measure for d in dists]), ends


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=78630)  # draws a run shorter than 1e-12 in a bump base
def test_line_rows_equal_the_replaced_per_set_compile_bitwise(seed):
    rng = np.random.default_rng(seed)
    p = _random_bump_line(rng)
    sets = []
    for interval in _random_line_intervals(rng, p):
        E = MeasurableSet.from_box((interval,))
        try:
            compile_set(p, E)
        except DomainError:
            continue
        sets.append(E)
    if len(sets) < 2:
        return
    family = _compile_family(p, sets)
    for name, want in zip(("w", "raw", "measure", "ends"), _replaced_family_rows(p, sets)):
        got = np.asarray(getattr(family, name))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_line_rows_equal_the_replaced_per_set_compile_on_the_examples():
    rng = np.random.default_rng(5)
    specs = (build_ex61(0.25), build_ex62(), build_ex63(0.25, 1.2, 2.0), build_ex64(0.25, 1.2, 2.0))
    ladder = [(1.0, 1.0 + v) for v in np.geomspace(1e-3, 1e12, 50).tolist()]
    for spec in specs:
        p = spec.exponent
        for intervals in (ladder, _random_line_intervals(rng, p)):
            sets = [MeasurableSet.from_box((iv,)) for iv in intervals]
            family = _compile_family(p, sets)
            for name, want in zip(("w", "raw", "measure", "ends"), _replaced_family_rows(p, sets)):
                got = np.asarray(getattr(family, name))
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (spec.name, name)


def test_line_rows_take_one_midpoint_atom_where_node_weights_underflow():
    # windows a few subnormals wide, where the Gauss weights would round to
    # 0 or lose their bits: each stretch is one atom of its whole length
    piece = BumpsPiece(((-2.0, 5.0),), 1.0, PlateauBump(1.5, 0.25, 0.5),
                       CenterSequence("fixed", positions=(0.0, 2.0)))
    p = ExponentFunction(dimension=1, domain=((-2.0, 5.0),), pieces=(piece,))
    intervals = [(0.0, 1e-323), (-5e-324, 5e-324), (0.0, 3e-322), (-1e-310, 3e-300), (0.1, 2.7)]
    sets = [MeasurableSet.from_box((iv,)) for iv in intervals]
    want = _replaced_family_rows(p, sets)
    assert (want[0] > 0.0).sum(axis=1).tolist()[:4] == [1, 1, 1, 48]
    family = _compile_family(p, sets)
    for name, want in zip(("w", "raw", "measure", "ends"), want):
        got = np.asarray(getattr(family, name))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    # the exponent is 2.5 on the plateau
    for E in sets[:3]:
        assert harmonic_mean(p, E) == 2.5
        assert mean_inverse_exponent(p, E) == 0.4
    assert _mean_inverses(family, p, sets)[:3].tolist() == [0.4] * 3


def test_base_runs_shorter_than_the_old_rounding_floor_keep_their_length():
    # runs of 1e-300 to 1e-12 in a bump base are all base: one atom of the
    # run's length at the base, on the single-set route and the family route
    intervals = [(0.0, v) for v in np.geomspace(1e-300, 1e-12, 41).tolist()]
    intervals += [(2.5, 2.5 + v) for v in np.geomspace(1e-15, 1e-12, 7).tolist()]
    for p in (load_spec(pathlib.Path(__file__).parent / "data" / "cutbump.json"),
              bump_train_exponent(count=9), build_ex62().exponent,
              build_ex63(0.25, 1.2, 2.0).exponent):
        base = p.pieces[-1].base
        # [0, 0.5] and [1.5, 2.6] lie in the base of each
        sets = [MeasurableSet.from_box((iv,)) for iv in intervals]
        for E in sets:
            (lo, hi), = E.box
            dist = compile_set(p, E)
            got = (dist.w.tolist(), dist.raw.tolist(), dist.measure)
            assert got == ([hi - lo], [base], hi - lo), (p.pieces, E.box)
        w, raw, measure, _ = _replaced_family_rows(p, sets)
        family = _compile_family(p, sets)
        assert family.w.tobytes() == w.tobytes() and family.raw.tobytes() == raw.tobytes()
        assert family.measure.tobytes() == measure.tobytes()
        np.testing.assert_allclose(_mean_inverses(family, p, sets), 1.0 / base, rtol=1e-15)
        norms = family.norms(p)
        np.testing.assert_allclose(norms, measure ** (1.0 / base), rtol=1e-12)
        assert norms.tolist() == [compile_set(p, E).norm(p) for E in sets]


def test_bump_runs_split_as_run_splits_each(rng):
    for _ in range(200):
        p = _random_bump_line(rng)
        intervals = np.array(_random_line_intervals(rng, p))
        for piece in p.pieces:
            if not isinstance(piece, BumpsPiece):
                continue
            whole, base_len, o0, o1, straddles = piece._runs(intervals[:, 0], intervals[:, 1])
            for r, (lo, hi) in enumerate(intervals.tolist()):
                want = _replaced_run(piece, lo, hi)
                windows = list(zip(o0[r][straddles[r]].tolist(), o1[r][straddles[r]].tolist()))
                assert (int(whole[r]), float(base_len[r]), windows) == want, (piece, lo, hi)


def _subnormal_step_exponent():
    """2 on [-1, 0], 1 on [0, 1]."""
    return ExponentFunction(dimension=1, domain=((-1.0, 1.0),), pieces=(
        ConstantPiece(((-1.0, 0.0),), 2.0), ConstantPiece(((0.0, 1.0),), 1.0)))


def _log_domain_norm(w1, w2):
    """Bisection oracle for the norm of w1 / lam^2 + w2 / lam = 1, with every
    term read through exp and log, so no term overflows."""
    def rho(t):  # at lam = exp(t)
        return math.exp(math.log(w1) - 2.0 * t) + math.exp(math.log(w2) - t)

    lo, hi = math.log(1e-300), 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if rho(mid) <= 1.0 else (mid, hi)
    return math.exp(hi)


@pytest.mark.parametrize("a", [-1e-310, -1e-315, -5e-324, -1e-305])
def test_a_subnormal_atom_does_not_overflow_the_norm(a):
    # the atom w = -a at p = 2 gives w (1 / lam)^2 with (1 / lam)^2 past the
    # float range at the norm, while the product is about 1
    p = _subnormal_step_exponent()
    norm = interval_indicator_norm(p, a, 1e-300)
    assert norm == pytest.approx(_log_domain_norm(-a, 1e-300), rel=1e-12)
    if a == -1e-305:
        assert norm == 3.162277660168446e-153, "a finite sum keeps its bits"


def test_a_subnormal_atom_does_not_overflow_the_modular():
    p = _subnormal_step_exponent()
    dist = compile_set(p, MeasurableSet.from_box(((-1e-310, 1e-300),)))
    for lam, want in ((1e-155, 1e-310 / 1e-310 + 1e-300 / 1e-155),
                      (2e-155, 1e-310 / 4e-310 + 1e-300 / 2e-155)):
        assert dist.modular(p, lam) == pytest.approx(want, rel=1e-12)
    assert dist.modular(p, 1e-160) == pytest.approx(1e10, rel=1e-12)
    assert dist.modular(p, 1e-310) == INF, "a sum past the float range stays inf"


# a 256^2-cell grid norm solves one row of 65 536 atoms, long enough for a
# threaded BLAS to split its reductions; prints the norms of five lognormal
# data sets, then runs the grid-route CLI norm on a CSV of the indicator of
# the square
_BLAS_PROBE = """
import sys
import numpy as np
from varlp import GridDomain, GridFunction, luxemburg_norm
from varlp.cli import main
from varlp.exponent import load_spec
spec, out = sys.argv[1:]
p = load_spec(spec)
grid = GridDomain(((0.0, 1.0), (0.0, 1.0)), (256, 256))
rng = np.random.default_rng(5)
for _ in range(5):
    f = GridFunction(grid, rng.lognormal(0.0, 1.0, grid.cells))
    print(float(luxemburg_norm(f, p)).hex())
csv = out + ".csv"
GridFunction(grid, np.ones(grid.cells)).to_csv(csv)
sys.exit(main(["norm", "--spec", spec, "--csv", csv, "--out", out]))
"""


def test_grid_norm_bits_do_not_depend_on_blas_threads(tmp_path):
    rng = np.random.default_rng(16)
    edges = np.linspace(0.0, 1.0, 17).tolist()
    pieces = [{"box": [[x0, x1], [y0, y1]], "kind": "constant",
               "value": float(rng.choice(FINITE_VALUES))}
              for x0, x1 in zip(edges, edges[1:]) for y0, y1 in zip(edges, edges[1:])]
    spec = tmp_path / "pieces.json"
    spec.write_text(json.dumps({"dimension": 2, "domain": [[0.0, 1.0], [0.0, 1.0]],
                                "pieces": pieces}))
    src = os.path.dirname(os.path.dirname(varlp.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    runs = []
    for name, env in (("pinned", dict(base, OPENBLAS_NUM_THREADS="1")), ("default", base)):
        out = tmp_path / name
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(spec), str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, [(out / f).read_bytes() for f in ("results.csv",
                                                                       "summary.txt")]))
    assert len(runs[0][0].splitlines()) == 6
    assert runs[0] == runs[1], "BLAS threads changed the bits of a grid norm"
