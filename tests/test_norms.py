"""Tests for modulars, Luxemburg norms, pairing bounds, and set functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varlp import (
    ConstantPiece,
    Cube,
    DomainError,
    ExponentFunction,
    GridDomain,
    GridFunction,
    MeasurableSet,
    conjugate,
    duality_constant,
    harmonic_mean,
    holder_constant,
    holder_pairing_check,
    interval_has_infinite_exponent,
    interval_indicator_norm,
    interval_integral,
    luxemburg_norm,
    mean_inverse_exponent,
    modular,
    set_measure,
    set_norm,
)
from varlp.exponent import INF, BumpsPiece, CenterSequence, PlateauBump, evaluate

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
    grid = GridDomain(((0.0, 2.0),), (256,))
    f = GridFunction(grid, np.ones(256))
    p = ExponentFunction.constant(2.0, ((0.0, 2.0),))
    left = MeasurableSet.from_box(((0.0, 1.0),))
    assert modular(f, p, region=left) == pytest.approx(1.0, rel=1e-12)


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
    assert got == pytest.approx(GOLDEN, rel=1e-6), f"bisection {got} vs {GOLDEN}"
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
@given(c=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False))
def test_norm_scaling_homogeneity(c):
    rng = np.random.default_rng(7)
    grid = GridDomain(((0.0, 2.0),), (128,))
    f = random_grid_function(rng, grid)
    p = random_piecewise_exponent(rng, lo=0.0, hi=2.0, allow_inf=True)
    base = luxemburg_norm(f, p)
    scaled = luxemburg_norm(GridFunction(grid, c * f.values), p)
    assert scaled == pytest.approx(c * base, rel=1e-7), f"gauge must be homogeneous, c={c}"


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


def test_interval_infinite_exponent_detection():
    p = two_piece_exponent(INF, 2.0)
    assert interval_has_infinite_exponent(p, 0.0, 0.5)
    assert interval_has_infinite_exponent(p, 0.5, 1.5)
    assert not interval_has_infinite_exponent(p, 1.2, 1.8)


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
    assert set_measure(box) == pytest.approx(3.0, rel=1e-12)
    grid = GridDomain(((0.0, 2.0), (0.0, 2.0)), (64, 64))
    mask = box.mask_on(grid)
    counted = MeasurableSet.from_mask(grid, mask)
    assert set_measure(counted, grid) == pytest.approx(3.0, rel=1e-12), "grid-aligned box counts exactly"


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
