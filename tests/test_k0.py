"""Tests for K0-type constants, the sandwich, equivalences, and cube search."""

import itertools
import math
import os

import numpy as np
import pytest
from scipy.optimize import brentq

from varlp import (
    ConstructionError,
    Cube,
    CubeFamily,
    DomainError,
    ExponentFunction,
    GridDomain,
    GridFunction,
    MeasurableSet,
    PreconditionError,
    SpecParseError,
    averaging_op,
    averaging_uniform_bound,
    conjugate,
    dual_witness,
    duality_constant,
    harmonic_mean,
    holder_constant,
    k0alpha_constant,
    k0alpha_iff_k0_check,
    load_spec,
    luxemburg_norm,
    minimal_harmonic_mean_cube,
    modular,
    norm_harmonic_sandwich,
    set_norm,
    sobolev_dual,
    subdivision_identity_gap,
)
from varlp.exponent import INF, ConstantPiece
from varlp.k0 import (
    EquivalenceReport,
    EquivalenceRow,
    K0Report,
    K0Sample,
    SandwichRow,
    _cube_mean_reader,
)
from varlp.norms import (
    _compile_family,
    _mean_inverses,
    compile_set,
    mean_inverse_exponent,
)

import varlp.constructions as cx


def two_piece(first, second, split=1.0, hi=2.0):
    return ExponentFunction(
        dimension=1,
        domain=((0.0, hi),),
        pieces=(ConstantPiece(((0.0, split),), first), ConstantPiece(((split, hi),), second)),
    )


def interval_ladder(centers, radii):
    """All intervals (c - r, c + r) over the cross product, one dimension."""
    return CubeFamily(tuple(MeasurableSet.from_box([(c - r, c + r)])
                            for c in centers for r in radii))


def frame_exponent(inner=0.5):
    one = 1.0
    pieces = (
        ConstantPiece(((-inner, inner), (-inner, inner)), 2.0),
        ConstantPiece(((-one, -inner), (-one, one)), 1.0),
        ConstantPiece(((inner, one), (-one, one)), 1.0),
        ConstantPiece(((-inner, inner), (-one, -inner)), 1.0),
        ConstantPiece(((-inner, inner), (inner, one)), 1.0),
    )
    return ExponentFunction(dimension=2, domain=((-one, one), (-one, one)), pieces=pieces)


# -- constants over families ---------------------------------------------------


def test_constant_exponent_samples_are_one():
    p = ExponentFunction.constant(2.0, ((0.0, 10.0),))
    fam = interval_ladder([2.0, 5.0], [0.25, 1.0, 2.0])
    rep = k0alpha_constant(p, 0.3, fam)
    for s in rep.samples:
        assert s.value == pytest.approx(1.0, abs=1e-6), f"sample {s.index}"
    rep0 = k0alpha_constant(p, 0.0, fam)
    for s in rep0.samples:
        assert s.value == pytest.approx(1.0, abs=1e-6)


def test_alpha_zero_reduction_is_exact():
    p = two_piece(1.5, 3.0)
    fam = interval_ladder([0.5, 1.0, 1.5], [0.1, 0.4])
    a = k0alpha_constant(p, 0.0, fam)
    b = k0alpha_constant(p, 0.0, fam)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.value == sb.value, f"alpha=0 must be the plain constant at {sa.index}"
    assert a.best_value == b.best_value


def test_family_monotonicity():
    p = cx.build_ex62(count=10 ** 6).exponent
    small = CubeFamily.from_boxes([((1.0, 5.0),), ((1.0, 17.0),)])
    large = CubeFamily.from_boxes([((1.0, 5.0),), ((1.0, 17.0),), ((1.0, 82.0),), ((0.0, 260.0),)])
    rep_small = k0alpha_constant(p, 0.0, small)
    rep_large = k0alpha_constant(p, 0.0, large)
    assert rep_large.best_value >= rep_small.best_value - 1e-12


def test_conjugation_symmetry():
    p = two_piece(1.5, 3.0)
    fam = CubeFamily.from_boxes([((0.2, 0.9),), ((0.7, 1.6),), ((0.1, 1.9),)])
    a = k0alpha_constant(p, 0.0, fam)
    b = k0alpha_constant(conjugate(p), 0.0, fam)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.value == pytest.approx(sb.value, abs=1e-6), f"at {sa.index}"


def test_best_index_first_tie_wins():
    p = ExponentFunction.constant(2.0, ((0.0, 4.0),))
    fam = CubeFamily.from_boxes([((1.0, 2.0),), ((1.0, 2.0),), ((1.0, 2.0),)])
    rep = k0alpha_constant(p, 0.0, fam)
    assert rep.best_index == 0


def test_k0alpha_requires_dual_feasible_exponent():
    p = ExponentFunction.constant(2.0, ((0.0, 4.0),))
    fam = CubeFamily.from_boxes([((1.0, 2.0),)])
    with pytest.raises(PreconditionError):
        k0alpha_constant(p, 0.6, fam)


def test_bump_train_samples_bounded():
    spec = cx.build_ex61(0.25)
    centers = [math.e ** k for k in (1, 2, 3, 5)]
    radii = list(np.geomspace(0.1, 50.0, 4))
    fam = interval_ladder(centers, radii)
    rep = k0alpha_constant(spec.exponent, 0.25, fam)
    values = [s.value for s in rep.samples]
    assert max(values) <= 1.5, f"bounded family, max sample {max(values)}"
    assert min(values) >= 0.5
    assert rep.best_value == max(values)


# -- averaging operator bounds -------------------------------------------------


def test_averaging_ratio_one_for_constant():
    p = ExponentFunction.constant(2.0, ((0.0, 10.0),))
    grid = GridDomain(((0.0, 10.0),), (500,))
    # endpoints on the cell lattice so discrete and exact measures agree
    fam = CubeFamily.from_boxes([((1.8, 2.2),), ((4.0, 6.0),), ((0.4, 7.6),)])
    rep = averaging_uniform_bound(p, 0.3, fam, grid=grid)
    assert rep.sup_ratio == pytest.approx(1.0, abs=1e-6)
    assert rep.upper_ok and rep.converse_ok


def test_averaging_bound_on_bump_window(rng):
    spec = cx.build_ex61(0.25)
    p_local = cx.ex61_local_window(spec)
    grid = GridDomain(((-4.0, 4.0),), (512,))
    fam = interval_ladder([-2.0, 0.0, 1.0], [0.3, 1.0, 1.9])
    wits = [GridFunction(grid, rng.uniform(0.0, 2.0, 512)) for _ in range(4)]
    rep = averaging_uniform_bound(p_local, 0.25, fam, witnesses=wits, grid=grid)
    assert rep.upper_ok, f"sup {rep.sup_ratio} vs K*K0 {rep.holder * rep.k0alpha}"
    assert rep.sup_ratio <= 4.0 * rep.k0alpha * (1 + 1e-6)
    assert rep.converse_ok, "best K0 sample must stay below 3x the sup ratio"
    assert rep.k0alpha <= 3.0 * rep.sup_ratio * (1 + 1e-6)


def test_averaging_consistency_identity():
    p = two_piece(1.5, 3.0)
    alpha = 0.3
    q = sobolev_dual(p, alpha)
    grid = GridDomain(((0.0, 2.0),), (256,))
    E = MeasurableSet.from_box(((0.25, 1.5),))
    ind = GridFunction.indicator(grid, E)
    averaged = averaging_op(ind, E, alpha)
    scale = (1.5 - 0.25) ** alpha
    assert np.allclose(averaged.values, scale * ind.values, rtol=1e-12), "definition unfolds exactly"
    lhs = luxemburg_norm(averaged, q)
    rhs = scale * luxemburg_norm(ind, q)
    assert lhs == pytest.approx(rhs, rel=1e-7)


# -- sandwich ------------------------------------------------------------------


def test_sandwich_constant_exponent():
    p = ExponentFunction.constant(2.0, ((0.0, 6.0),))
    rep = norm_harmonic_sandwich(p, CubeFamily.from_boxes([((1.0, 5.0),)]))
    row = rep.rows[0]
    assert (rep.holder, rep.duality, rep.k0) == (1.0, 1.0, pytest.approx(1.0, abs=1e-6))
    assert row.lower == pytest.approx(1.0, rel=1e-6)
    assert row.norm == pytest.approx(2.0, rel=1e-7)
    assert row.upper == pytest.approx(4.0, rel=1e-5)
    assert rep.all_ok


def test_sandwich_bump_train_random_intervals(rng):
    p = cx.build_ex62().exponent
    boxes = []
    for _ in range(12):
        c = rng.uniform(0.0, 1e6)
        length = 10.0 ** rng.uniform(-1, 4)
        boxes.append(((c, c + length),))
    rep = norm_harmonic_sandwich(p, CubeFamily.from_boxes(boxes))
    assert rep.all_ok, [row.ok for row in rep.rows]
    for row in rep.rows:
        assert row.lower <= row.norm <= row.upper


def test_sandwich_jump_straddle_direct():
    p = two_piece(1.5, 3.0)
    delta = 0.01
    rep = norm_harmonic_sandwich(p, CubeFamily.from_boxes([((1 - delta, 1 + delta),)]))
    row = rep.rows[0]
    assert row.mean_exponent == pytest.approx(2.0, rel=1e-12), "harmonic mean of 1.5 and 3"
    root = brentq(lambda lam: delta * lam ** -1.5 + delta * lam ** -3.0 - 1.0, 1e-6, 10.0)
    assert row.norm == pytest.approx(root, rel=1e-7), "independent root of the modular equation"
    assert rep.holder == pytest.approx(4.0 / 3.0)
    assert row.ok and rep.all_ok


def _reference_sandwich_rows(p, family):
    """Rows of norm_harmonic_sandwich(p, family) as computed before each set
    was compiled once: the harmonic mean and the norm each compile the set."""
    holder, duality = holder_constant(p), duality_constant(p)
    k0_value = k0alpha_constant(p, 0.0, family).best_value
    rows = []
    for i, E in enumerate(family):
        measure = E.intersect_box(p.domain).measure
        hm = harmonic_mean(p, E)
        norm = set_norm(p, E)
        base = measure ** (0.0 if hm == INF else 1.0 / hm)
        lower = base / (2.0 * holder)
        upper = 2.0 * holder ** 2 * k0_value / duality * base
        ok = lower * (1.0 - 1e-6) <= norm <= upper * (1.0 + 1e-6)
        rows.append(SandwichRow(i, measure, hm, norm, lower, upper, ok))
    return rows


def _sandwich_families():
    rng = np.random.default_rng(20240611)
    boxes = []
    for _ in range(12):
        c = rng.uniform(0.0, 1e6)
        boxes.append(((c, c + 10.0 ** rng.uniform(-1, 4)),))
    volumes = np.geomspace(1e-3, 1e3, 50)
    readme_k0scan = CubeFamily.from_cubes([Cube((v / 2.0,), v / 2.0) for v in volumes])
    return [
        (ExponentFunction.constant(2.0, ((0.0, 6.0),)), CubeFamily.from_boxes([((1.0, 5.0),)])),
        (cx.build_ex62().exponent, CubeFamily.from_boxes(boxes)),
        (two_piece(1.5, 3.0), CubeFamily.from_boxes([((0.99, 1.01),)])),
        (two_piece(1.0, 2.0), readme_k0scan),
    ]


def test_sandwich_rows_match_two_compile_reference():
    for p, family in _sandwich_families():
        got = norm_harmonic_sandwich(p, family).rows
        want = _reference_sandwich_rows(p, family)
        assert got == want, "rows must be bitwise those of the reference"


# -- one family read: parity with the code it replaced --------------------------


def _replaced_k0_report(alpha, p, family, measures, compiled, q_conj, q_dual):
    """The K0^alpha samples as each scan wrote them out before they shared
    one formula."""
    samples = []
    best_value, best_index = -math.inf, -1
    for i, (E, measure, nc, nd) in enumerate(zip(family, measures,
                                                 compiled.norms(q_conj).tolist(),
                                                 compiled.norms(q_dual).tolist())):
        value = measure ** (alpha / p.dimension - 1.0) * nc * nd
        samples.append(K0Sample(i, measure, nc, nd, value))
        if value > best_value:
            best_value, best_index = value, i
    return K0Report(alpha, best_value, best_index, samples)


def _replaced_family_measures(p, family):
    """measure(E cap domain) of every box of the family as the scans read it
    before the compiled rows were its only measure: the volume of the box
    clipped to the domain, which must be positive."""
    measures = []
    for i, E in enumerate(family):
        assert E.is_box(), "the parity families are boxes"
        volume = 1.0
        for (lo, hi), (dlo, dhi) in zip(E.box, p.domain):
            lo, hi = max(lo, dlo), min(hi, dhi)
            if hi <= lo:
                raise DomainError("intersection with box is empty")
            volume *= hi - lo
        if not volume > 0.0:
            raise PreconditionError(f"family set {i} has measure {volume}")
        measures.append(volume)
    return measures


def _replaced_k0alpha_constant(p, alpha, family):
    q = sobolev_dual(p, alpha)
    measures = _replaced_family_measures(p, family)
    compiled = _compile_family(p, family)
    return _replaced_k0_report(alpha, p, family, measures, compiled, conjugate(p), q)


def _replaced_sandwich_rows(p, family, tol=1e-6):
    """norm_harmonic_sandwich's rows with its own K0 maximum and its own
    inversion of the mean of 1/p."""
    holder, duality = holder_constant(p), duality_constant(p)
    measures = _replaced_family_measures(p, family)
    compiled = _compile_family(p, family)
    norms = compiled.norms(p).tolist()
    k0_value = max((measure ** -1.0 * nc * norm for measure, nc, norm
                    in zip(measures, compiled.norms(conjugate(p)).tolist(), norms)),
                   default=-math.inf)
    rows = []
    for i, (E, measure, norm, inv) in enumerate(
            zip(family, measures, norms, _mean_inverses(compiled, p, family).tolist())):
        hm = INF if inv == 0.0 else 1.0 / inv
        base = measure ** (0.0 if hm == INF else 1.0 / hm)
        lower = base / (2.0 * holder)
        upper = 2.0 * holder ** 2 * k0_value / duality * base
        ok = lower * (1.0 - tol) <= norm <= upper * (1.0 + tol)
        rows.append(SandwichRow(i, measure, hm, norm, lower, upper, ok))
    return k0_value, rows


def _replaced_iff_check(p, alpha, family, tol=1e-6, identity_tol=1e-9):
    n = p.dimension
    q = sobolev_dual(p, alpha)
    measures = _replaced_family_measures(p, family)
    compiled = _compile_family(p, family)
    rep_alpha = _replaced_k0_report(alpha, p, family, measures, compiled, conjugate(p), q)
    rep_p = _replaced_k0_report(0.0, p, family, measures, compiled, conjugate(p), p)
    rep_q = _replaced_k0_report(0.0, p, family, measures, compiled, conjugate(q), q)
    c_conv = 4.0 * holder_constant(p) * holder_constant(q)
    rows, converse_ok = [], True
    inverses = zip(_mean_inverses(compiled, p, family).tolist(),
                   _mean_inverses(compiled, q, family).tolist())
    for (sa, sp, sq), (inv_p, inv_q) in zip(zip(rep_alpha.samples, rep_p.samples,
                                                rep_q.samples), inverses):
        gap = abs((1.0 - inv_p) + inv_q - (1.0 - alpha / n))
        forward_ok = (sp.value <= 2.0 * sa.value * (1.0 + tol)
                      and sq.value <= 2.0 * sa.value * (1.0 + tol))
        if sa.value > c_conv * rep_p.best_value * rep_q.best_value * (1.0 + tol):
            converse_ok = False
        rows.append(EquivalenceRow(sa.index, sa.value, sp.value, sq.value,
                                   gap, forward_ok, gap <= identity_tol))
    all_ok = converse_ok and all(r.forward_ok and r.identity_ok for r in rows)
    return EquivalenceReport(rows, c_conv, converse_ok, all_ok)


def _family_read_cases():
    """The sandwich families, the two-piece scan and the EX62-EX64 witness
    intervals, each with an order alpha its fractional dual admits."""
    cases = [(p, family, 0.25) for p, family in _sandwich_families()]
    cases.append((two_piece(1.0, 3.0), interval_ladder([0.5, 1.0, 1.5], [1e-9, 1e-3, 0.4, 2.0]),
                  0.3))
    for spec in (cx.build_ex62(), cx.build_ex63(0.25, 1.2, 2.0), cx.build_ex64(0.25, 1.2, 2.0)):
        family = CubeFamily.from_boxes([(cx.witness_interval(spec, j),) for j in range(2, 9)])
        cases.append((spec.exponent, family, 0.25))
    return cases


def test_family_reads_match_replaced_code_bitwise():
    for p, family, alpha in _family_read_cases():
        sandwich = norm_harmonic_sandwich(p, family)
        assert (sandwich.k0, sandwich.rows) == _replaced_sandwich_rows(p, family)
        for order in (0.0, alpha):
            assert k0alpha_constant(p, order, family) == _replaced_k0alpha_constant(p, order,
                                                                                      family)
        assert k0alpha_iff_k0_check(p, alpha, family) == _replaced_iff_check(p, alpha, family)
        for E in family:
            inv = mean_inverse_exponent(p, E)
            assert harmonic_mean(p, E) == (INF if inv == 0.0 else 1.0 / inv), E.box


def test_harmonic_mean_of_an_infinite_exponent_is_inf():
    p = two_piece(INF, 2.0)
    assert harmonic_mean(p, MeasurableSet.from_box(((0.25, 0.75),))) == INF
    rows = norm_harmonic_sandwich(p, CubeFamily.from_boxes([((0.25, 0.75),), ((0.5, 1.5),)])).rows
    assert [r.mean_exponent for r in rows] == [INF, 1.0 / (0.5 * 0.5)]


# -- equivalence of the constants ----------------------------------------------


def test_iff_check_constant_exponent():
    p = ExponentFunction.constant(2.0, ((0.0, 10.0),))
    fam = interval_ladder([3.0, 6.0], [0.5, 2.0])
    rep = k0alpha_iff_k0_check(p, 0.3, fam)
    assert rep.all_ok and rep.converse_ok
    for row in rep.rows:
        assert row.sample_alpha == pytest.approx(1.0, abs=1e-6)
        assert row.sample_p == pytest.approx(1.0, abs=1e-6)
        assert row.sample_q == pytest.approx(1.0, abs=1e-6)
        assert row.identity_gap <= 1e-9


def test_iff_check_growth_asymmetry_q_side():
    spec = cx.build_ex63(0.25, 1.2, 2.0)
    fam = CubeFamily.from_boxes([(cx.witness_interval(spec, j),) for j in range(2, 6)])
    rep = k0alpha_iff_k0_check(spec.exponent, 0.25, fam)
    assert rep.all_ok and rep.converse_ok
    alpha_vals = [r.sample_alpha for r in rep.rows]
    p_vals = [r.sample_p for r in rep.rows]
    q_vals = [r.sample_q for r in rep.rows]
    for j, (sa, sq) in enumerate(zip(alpha_vals, q_vals), start=2):
        assert sa >= j, f"witness {j}: combined sample {sa}"
        assert sq >= j, f"witness {j}: dual-target sample {sq}"
    assert all(b > a for a, b in zip(q_vals, q_vals[1:])), "unbounded side grows"
    assert max(p_vals) <= 1.5, f"stable side stays put: {p_vals}"


def test_iff_check_growth_asymmetry_p_side():
    spec = cx.build_ex64(0.25, 1.2, 2.0)
    fam = CubeFamily.from_boxes([(cx.witness_interval(spec, j),) for j in range(2, 6)])
    rep = k0alpha_iff_k0_check(spec.exponent, 0.25, fam)
    assert rep.all_ok and rep.converse_ok
    p_vals = [r.sample_p for r in rep.rows]
    q_vals = [r.sample_q for r in rep.rows]
    for j, sp in enumerate(p_vals, start=2):
        assert sp >= j, f"witness {j}: sample {sp}"
    assert all(b > a for a, b in zip(p_vals, p_vals[1:]))
    assert max(q_vals) <= 1.5, f"stable side stays put: {q_vals}"


# -- minimal-mean cube search ---------------------------------------------------


def test_minimal_cube_constant_exponent():
    p = ExponentFunction.constant(2.5, ((0.0, 4.0),))
    E = MeasurableSet.from_box(((0.0, 4.0),))
    q = minimal_harmonic_mean_cube(p, Cube((2.0,), 1.5), 0.5, E)
    assert harmonic_mean(p, MeasurableSet.from_cube(q)) == pytest.approx(2.5, rel=1e-12)


def test_minimal_cube_hugs_low_side():
    p = two_piece(1.5, 3.0, split=2.0, hi=4.0)
    E = MeasurableSet.from_box(((0.0, 4.0),))
    q = minimal_harmonic_mean_cube(p, Cube((2.0,), 1.5), 0.5, E, spacing=0.125)
    assert q.center[0] == pytest.approx(1.0), "leftmost fully-low cube wins"
    got = harmonic_mean(p, MeasurableSet.from_cube(q))
    assert got == pytest.approx(1.5, rel=1e-12)
    # oracle: exhaustive scan over the same lattice
    lattice = np.arange(1.0, 3.0 + 1e-9, 0.125)
    means = [harmonic_mean(p, MeasurableSet.from_box(((c - 0.5, c + 0.5),))) for c in lattice]
    assert got == pytest.approx(min(means), rel=1e-12)


def test_minimal_cube_plane_counterexample():
    # every admissible sub-cube contains the high-exponent square, so the
    # minimal mean over radius 3/4 cubes exceeds the mean over the whole cube
    p = frame_exponent()
    D = Cube((0.0, 0.0), 1.0)
    E = MeasurableSet.from_box(((-1.0, 1.0), (-1.0, 1.0)))
    q = minimal_harmonic_mean_cube(p, D, 0.75, E, spacing=0.125)
    sub_mean = harmonic_mean(p, MeasurableSet.from_cube(q))
    whole_mean = harmonic_mean(p, MeasurableSet.from_cube(D))
    assert sub_mean == pytest.approx(9.0 / 7.0, rel=1e-12)
    assert whole_mean == pytest.approx(8.0 / 7.0, rel=1e-12)
    assert whole_mean < sub_mean, "mean over D undercuts every radius-r sub-cube"


def test_minimal_cube_preconditions():
    p = ExponentFunction.constant(2.0, ((0.0, 4.0),))
    E = MeasurableSet.from_box(((0.0, 4.0),))
    with pytest.raises(PreconditionError):
        minimal_harmonic_mean_cube(p, Cube((2.0,), 1.0), 1.5, E)
    tiny = MeasurableSet.from_box(((1.9, 2.1),))
    with pytest.raises(PreconditionError):
        minimal_harmonic_mean_cube(p, Cube((2.0,), 1.0), 0.25, tiny)


def test_minimal_cube_scaling_guard_catches_a_missed_window():
    # lattice cubes [c - 1/4, c + 1/4] at c = 1/4, 5/4, ... leave gaps; the
    # low window (0.6, 0.9) lies in a gap, and the radius-1/2 cube [0, 1]
    # that holds it beats every lattice cube
    p = ExponentFunction(
        dimension=1,
        domain=((0.0, 4.0),),
        pieces=(ConstantPiece(((0.6, 0.9),), 1.1), ConstantPiece(((0.0, 4.0),), 3.0)),
    )
    D, box = Cube((2.0,), 2.0), MeasurableSet.from_box(((0.0, 4.0),))
    cells = GridDomain(((0.0, 4.0),), (64,))
    # the box compiles exactly; the mask set reads the table on its grid
    for E, grid in ((box, None), (MeasurableSet(grid_mask=(cells, np.ones(64, bool))), cells)):
        with pytest.raises(ConstructionError, match="smaller mean"):
            minimal_harmonic_mean_cube(p, D, 0.25, E, spacing=1.0)
        q = minimal_harmonic_mean_cube(p, D, 0.25, E, spacing=1.0, verify_scaling=False)
        assert q.center[0] in (0.25, 1.25, 2.25, 3.25) and q.radius == 0.25
        assert harmonic_mean(p, MeasurableSet.from_cube(q)) == pytest.approx(3.0, rel=1e-12)
        assert q == _reference_minimal_cube(p, D, 0.25, E, grid=grid, spacing=1.0,
                                            verify_scaling=False)


# -- parity with the replaced per-cube search ------------------------------------


def _reference_center_lattice(x, half_range, spacing):
    if half_range < spacing * 1e-12:
        return np.array([x])
    count = int(math.floor(2.0 * half_range / spacing + 1e-9)) + 1
    return x - half_range + spacing * np.arange(count)


def _reference_max_exponent_on(p, E, grid):
    if E.is_box() and grid is None:
        return float(compile_set(p, E).values(p).max())
    mask = E.mask_on(grid)
    pv = p.values(grid.points()).reshape(grid.cells)
    return float(pv[mask].max()) if mask.any() else -math.inf


def _reference_minimal_cube(p, D, r, E, grid=None, spacing=None, verify_scaling=True):
    """The replaced minimal_harmonic_mean_cube: prefix sums in 1-D on a grid,
    otherwise one compiled set per lattice cube and per sampled m*r cube."""
    n = D.dimension
    R = D.radius
    if not (0.0 < r <= R * (1.0 + 1e-12)):
        raise PreconditionError(f"need 0 < r <= {R}, got r = {r}")
    d_set = E.intersect_box(D.as_box())
    gap = MeasurableSet.from_cube(D).measure - d_set.measure
    if gap >= (2.0 * r) ** n:
        raise PreconditionError(
            f"complement of E in D has measure {gap}, needs < {(2.0 * r) ** n}"
        )
    if _reference_max_exponent_on(p, d_set, grid) == INF:
        raise PreconditionError("exponent must be bounded on D and E")
    if spacing is None:
        spacing = grid.h if grid is not None else r / 8.0
    half = R - r
    axes = [_reference_center_lattice(D.center[i], half, spacing) for i in range(n)]

    best_inv, best_center = -1.0, None
    if n == 1 and grid is not None:
        mask = E.mask_on(grid).astype(float).ravel()
        pv = p.values(grid.points())
        inv = np.where(np.isinf(pv), 0.0, 1.0 / pv) * mask
        s_inv = np.concatenate([[0.0], np.cumsum(inv)])
        s_cnt = np.concatenate([[0.0], np.cumsum(mask)])
        mids = grid.axis_midpoints(0)
        eps = 1e-9 * grid.h
        for y in axes[0]:
            i0 = int(np.searchsorted(mids, y - r - eps, side="left"))
            i1 = int(np.searchsorted(mids, y + r + eps, side="right"))
            cnt = s_cnt[i1] - s_cnt[i0]
            if cnt <= 0:
                continue
            mi = (s_inv[i1] - s_inv[i0]) / cnt
            if mi > best_inv * (1.0 + 1e-15):
                best_inv, best_center = mi, (float(y),)
    else:
        for center in itertools.product(*axes):
            sub = E.intersect_box(Cube(center, r).as_box())
            if grid is None and not sub.is_box():
                raise PreconditionError("grid needed for non-box sets")
            try:
                mi = mean_inverse_exponent(p, sub)
            except PreconditionError:
                continue
            if mi > best_inv * (1.0 + 1e-15):
                best_inv, best_center = mi, center
    if best_center is None:
        raise ConstructionError("no candidate cube met E on the lattice")
    best = Cube(best_center, r)
    best_mean = INF if best_inv == 0.0 else 1.0 / best_inv

    if verify_scaling:
        m = 2
        while m * r <= R * (1.0 + 1e-12):
            half_m = R - m * r
            for i in range(n):
                lat = _reference_center_lattice(D.center[i], half_m, spacing)
                if len(lat) > 9:
                    keep = np.unique(np.linspace(0, len(lat) - 1, 9).astype(int))
                    lat = lat[keep]
                axes_m = [lat if j == i else np.array([D.center[j]]) for j in range(n)]
                for center in itertools.product(*axes_m):
                    sub = E.intersect_box(Cube(center, m * r).as_box())
                    try:
                        mi = mean_inverse_exponent(p, sub)
                    except PreconditionError:
                        continue
                    mean_m = INF if mi == 0.0 else 1.0 / mi
                    if best_mean > mean_m + 1e-9:
                        raise ConstructionError(
                            f"radius-{m}r cube at {center} has smaller mean "
                            f"{mean_m} than the minimum {best_mean}"
                        )
            m += 1
    return best


@pytest.mark.parametrize("alpha", [0.0, 0.25])
def test_minimal_cube_matches_reference_on_blowup_levels(alpha):
    fam = cx.build_blowup(cx.default_blowup_exponent(), alpha, 5.0, 6)
    for lv in fam.levels:
        args = (fam.p, lv.cube_d, lv.small_radius, lv.threshold_set)
        got = minimal_harmonic_mean_cube(*args)
        want = _reference_minimal_cube(*args, grid=lv.grid)
        assert got == want, f"level {lv.k}: anchor {got} vs {want}"


def test_minimal_cube_matches_reference_without_grid():
    whole = MeasurableSet.from_box(((0.0, 4.0),))
    square = MeasurableSet.from_box(((-1.0, 1.0), (-1.0, 1.0)))
    cases = [
        (ExponentFunction.constant(2.5, ((0.0, 4.0),)), Cube((2.0,), 1.5), 0.5, whole, None),
        (two_piece(1.5, 3.0, split=2.0, hi=4.0), Cube((2.0,), 1.5), 0.5, whole, 0.125),
        (two_piece(1.5, 3.0, split=2.3, hi=4.0), Cube((2.0,), 2.0), 0.3, whole, 0.07),
        (two_piece(3.0, 1.2, split=2.7, hi=4.0), Cube((2.0,), 2.0), 0.45, whole, None),
        (frame_exponent(), Cube((0.0, 0.0), 1.0), 0.75, square, 0.125),
        (frame_exponent(0.3), Cube((0.0, 0.0), 1.0), 0.6, square, 0.1),
    ]
    for p, D, r, E, spacing in cases:
        got = minimal_harmonic_mean_cube(p, D, r, E, spacing=spacing)
        want = _reference_minimal_cube(p, D, r, E, spacing=spacing)
        assert got == want, f"anchor {got} vs {want}"


def piece_exponent_2d(k, seed):
    """k x k constant pieces on [-1, 1]^2 with values in [1.1, 2.5], one in
    nine of them raised to 3."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(1.1, 2.5, (k, k))
    vals.flat[rng.choice(k * k, size=k * k // 9, replace=False)] = 3.0
    edges = np.linspace(-1.0, 1.0, k + 1)
    pieces = tuple(
        ConstantPiece(((edges[i], edges[i + 1]), (edges[j], edges[j + 1])), float(vals[i, j]))
        for i in range(k) for j in range(k)
    )
    return ExponentFunction(dimension=2, domain=((-1.0, 1.0), (-1.0, 1.0)), pieces=pieces)


@pytest.mark.parametrize("cells, seed, k, r", [
    (40, 1, 6, 0.55), (48, 2, 7, 0.6), (64, 3, 5, 0.7),
])
def test_minimal_cube_matches_reference_on_2d_grid_sublevel_sets(cells, seed, k, r):
    grid = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (cells, cells))
    D = Cube((0.0, 0.0), 1.0)
    p = piece_exponent_2d(k, seed)
    E = MeasurableSet.from_sublevel(p, 2.8, grid, within=D.as_box())
    got = minimal_harmonic_mean_cube(p, D, r, E)
    want = _reference_minimal_cube(p, D, r, E, grid=grid)

    def per_cube_mean(cube):
        return mean_inverse_exponent(p, E.intersect_box(cube.as_box()))

    assert per_cube_mean(got) == pytest.approx(per_cube_mean(want), rel=1e-12, abs=0.0)
    if got != want:
        assert per_cube_mean(got) == per_cube_mean(want), "centers differ only on a tie"


def _per_cube_means(p, E, axes, r):
    """Each E cap Q compiled alone, nan where that raises (a cube without
    cells of a mask set, or outside its box)."""
    out = np.full(tuple(len(a) for a in axes), np.nan)
    for idx in np.ndindex(out.shape):
        cube = Cube([a[i] for a, i in zip(axes, idx)], r)
        try:
            out[idx] = mean_inverse_exponent(p, E.intersect_box(cube.as_box()))
        except (PreconditionError, DomainError):
            continue
    return out


def _mask_case(dimension):
    """(p, D, r, spacing, grid) with a random mask grid over D."""
    if dimension == 1:
        return (two_piece(1.5, 3.0, split=2.3, hi=4.0), Cube((2.0,), 2.0), 0.3, 0.07,
                GridDomain(((0.0, 4.0),), (64,)))
    return (frame_exponent(0.3), Cube((0.0, 0.0), 1.0), 0.4, 0.1,
            GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (32, 32)))


def _random_mask_case(dimension):
    """(p, E, axes, r): a random mask set over D whose first corner block
    has no cells, so the cubes in it miss E."""
    p, D, _, _, grid = _mask_case(dimension)
    rng = np.random.default_rng(dimension)
    mask = rng.random(grid.cells) < 0.8
    mask[(slice(0, grid.cells[0] // 4),) * dimension] = False
    axes = [np.linspace(lo + 0.1, hi - 0.1, 15) for lo, hi in D.as_box()]
    return p, MeasurableSet(grid_mask=(grid, mask)), axes, 0.1


def _sublevel_case():
    """(p, E, axes, r): dyadic centers and radius put every cube edge exactly
    on a cell midpoint, where mask_on's closed-box rule decides; some cubes
    miss E."""
    grid = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (32, 32))
    p = piece_exponent_2d(6, 1)
    E = MeasurableSet.from_sublevel(p, 2.8, grid, within=((-1.0, 1.0), (-1.0, 1.0)))
    return p, E, [np.arange(-44, 45, 4) / 32.0] * 2, 7.0 / 32.0


def test_cube_mean_reader_matches_per_cube_means():
    # a mask set reads the summed-area table on its own grid
    for p, E, axes, r in (_sublevel_case(), _random_mask_case(1), _random_mask_case(2)):
        got = _cube_mean_reader(p, E)(axes, r)
        want = _per_cube_means(p, E, axes, r)
        assert np.isnan(want).any() and not np.isnan(want).all()
        assert np.array_equal(np.isnan(got), np.isnan(want))
        met = ~np.isnan(want)
        np.testing.assert_allclose(got[met], want[met], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dimension", [1, 2])
def test_minimal_cube_of_a_mask_set_without_grid_matches_per_cube_means(dimension):
    p, D, r, spacing, grid = _mask_case(dimension)
    rng = np.random.default_rng(10 + dimension)
    E = MeasurableSet(grid_mask=(grid, rng.random(grid.cells) < 0.95))
    got = minimal_harmonic_mean_cube(p, D, r, E, spacing=spacing)
    axes = [_reference_center_lattice(D.center[i], D.radius - r, spacing)
            for i in range(dimension)]
    means = _per_cube_means(p, E, axes, r)
    # the table and a per-cube compile round differently, so among cubes
    # that tie up to rounding either may win: the winner's mean is the best
    idx = tuple(int(np.argmin(np.abs(a - c))) for a, c in zip(axes, got.center))
    assert got == Cube([a[i] for a, i in zip(axes, idx)], r)
    assert means[idx] == pytest.approx(np.nanmax(means), rel=1e-12, abs=0.0)


def test_cube_mean_reader_takes_one_radius_per_cube():
    # each cube reads bitwise what a read of its radius alone gives it
    rng = np.random.default_rng(4)
    box = (two_piece(1.5, 3.0, split=2.3, hi=4.0), MeasurableSet.from_box(((0.0, 4.0),)),
           [np.linspace(0.5, 3.5, 13)], 0.2)
    for p, E, axes, r in (_sublevel_case(), _random_mask_case(1), _random_mask_case(2), box):
        means = _cube_mean_reader(p, E)
        shape = tuple(len(a) for a in axes)
        choices = [r, 1.5 * r, 2.0 * r]
        radii = np.array(choices)[rng.integers(0, 3, shape)]
        want = np.zeros(shape)
        for radius in choices:
            want[radii == radius] = means(axes, radius)[radii == radius]
        assert means(axes, radii).tobytes() == want.tobytes()


def _replaced_scaling_check(p, D, r, E, spacing, best_mean):
    """The message of the scaling check before it read all cubes of one
    axis at once: one read per m and axis, in (m, axis, lattice) order."""
    means, n, R = _cube_mean_reader(p, E), D.dimension, D.radius
    for m in range(2, int(R * (1.0 + 1e-12) / r) + 1):
        for i in range(n):
            lat = _reference_center_lattice(D.center[i], R - m * r, spacing)
            lat = lat[np.unique(np.linspace(0, len(lat) - 1, min(len(lat), 9)).astype(int))]
            axes_m = [lat if j == i else np.array([D.center[j]]) for j in range(n)]
            with np.errstate(divide="ignore"):
                mean_m = 1.0 / means(axes_m, m * r)
            beaten = np.argwhere(best_mean > mean_m + 1e-9)
            if len(beaten):
                idx = tuple(beaten[0])
                center = tuple(float(a[k]) for a, k in zip(axes_m, idx))
                return (f"radius-{m}r cube at {center} has smaller mean "
                        f"{mean_m[idx]} than the minimum {best_mean}")
    return None


def test_scaling_check_raises_the_first_cube_in_m_axis_lattice_order():
    # the lattice cubes, 1/2 wide every 1, miss two low windows: the
    # radius-3r cubes along axis 0 catch the first, and the radius-2r cubes
    # along axis 1 the second, which is the first failure in (m, axis) order
    p = ExponentFunction(dimension=2, domain=((-2.0, 2.0), (-2.0, 2.0)), pieces=(
        ConstantPiece(((0.6, 0.9), (0.55, 0.7)), 1.1), ConstantPiece(((-0.4, -0.1), (0.6, 0.9)), 1.2),
        ConstantPiece(((-2.0, 2.0), (-2.0, 2.0)), 3.0)))
    D, r, spacing = Cube((0.0, 0.0), 2.0), 0.25, 1.0
    grid = GridDomain(((-2.0, 2.0), (-2.0, 2.0)), (64, 64))
    for E in (MeasurableSet.from_box(D.as_box()),
              MeasurableSet(grid_mask=(grid, np.ones((64, 64), bool)))):
        best = minimal_harmonic_mean_cube(p, D, r, E, spacing=spacing, verify_scaling=False)
        inv = float(_cube_mean_reader(p, E)([np.array([c]) for c in best.center], r)[0, 0])
        assert inv == pytest.approx(1.0 / 3.0, rel=1e-12)
        want = _replaced_scaling_check(p, D, r, E, spacing, 1.0 / inv)
        assert want.startswith("radius-2r cube at (0.0, 0.5) has smaller mean")
        with pytest.raises(ConstructionError) as info:
            minimal_harmonic_mean_cube(p, D, r, E, spacing=spacing)
        assert str(info.value) == want


def _raised(fn, *args, **kwargs):
    with pytest.raises((PreconditionError, ConstructionError, DomainError)) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def test_minimal_cube_raises_what_the_reference_raises():
    p = ExponentFunction.constant(2.0, ((0.0, 4.0),))
    whole = MeasurableSet.from_box(((0.0, 4.0),))
    unbounded = ExponentFunction(
        dimension=1,
        domain=((0.0, 4.0),),
        pieces=(ConstantPiece(((1.0, 1.5),), INF), ConstantPiece(((0.0, 4.0),), 2.0)),
    )
    grid = GridDomain(((0.0, 4.0),), (64,))
    tiny = MeasurableSet.from_box(((1.9, 2.1),))

    def cells(E):  # the same set as a mask on the grid, which the reference reads there
        return MeasurableSet(grid_mask=(grid, E.mask_on(grid)))

    cases = [
        ((p, Cube((2.0,), 1.0), 1.5, whole), None),
        ((p, Cube((2.0,), 1.0), 0.0, whole), None),
        ((p, Cube((2.0,), 1.0), 0.25, tiny), None),
        ((p, Cube((2.0,), 1.0), 0.25, cells(tiny)), grid),
        ((unbounded, Cube((2.0,), 2.0), 1.0, whole), None),
        ((unbounded, Cube((2.0,), 2.0), 1.0, cells(whole)), grid),
    ]
    for args, grid_arg in cases:
        assert _raised(minimal_harmonic_mean_cube, *args) == _raised(
            _reference_minimal_cube, *args, grid=grid_arg
        ), f"inputs {args} on {grid_arg}"


def test_subdivision_identity_gap_small():
    pj = two_piece(1.5, 3.0)
    E1 = MeasurableSet.from_box(((0.0, 2.0),))
    assert subdivision_identity_gap(pj, Cube((1.0,), 0.8), E1, 4) <= 1e-9
    p2 = frame_exponent()
    E2 = MeasurableSet.from_box(((-1.0, 1.0), (-1.0, 1.0)))
    assert subdivision_identity_gap(p2, Cube((0.1, 0.0), 0.75), E2, 3) <= 1e-9


# -- duality witnesses ----------------------------------------------------------


def test_dual_witness_unit_modular():
    grid = GridDomain(((0.0, 2.0),), (256,))
    p = two_piece(1.5, 2.5)
    E = MeasurableSet.from_box(((0.25, 1.75),))
    g = dual_witness(p, E, grid)
    assert modular(g, p) == pytest.approx(1.0, abs=1e-6)
    integral = float(g.values.sum()) * grid.cell_volume
    assert integral == pytest.approx(set_norm(conjugate(p), E), rel=1e-6)


def test_dual_witness_declines_huge_conjugate():
    grid = GridDomain(((0.0, 2.0),), (64,))
    p = ExponentFunction.constant(1.004, ((0.0, 2.0),))
    E = MeasurableSet.from_box(((0.25, 1.75),))
    assert dual_witness(p, E, grid) is None


def _random_constant_exponent(rng, n):
    """Constant pieces on a random k^n grid of the unit cube (k <= 8), each
    with a random value in [1.2, 4]."""
    cuts = [np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, k - 1)), [1.0]))
            for k in rng.integers(1, 9, n)]
    pieces = tuple(
        ConstantPiece(tuple((float(c[i]), float(c[i + 1])) for c, i in zip(cuts, idx)),
                      float(rng.uniform(1.2, 4.0)))
        for idx in itertools.product(*(range(len(c) - 1) for c in cuts)))
    return ExponentFunction(dimension=n, domain=((0.0, 1.0),) * n, pieces=pieces)


def test_family_measures_are_the_compiled_rows():
    # every K0 reader takes its measures from the family's one compile; they
    # agree with the clipped box volume to rounding
    rng = np.random.default_rng(24)
    for trial in range(24):
        n = 1 + trial % 2
        p = _random_constant_exponent(rng, n)
        centers = rng.uniform(0.0, 1.0, (30, n))
        radii = 10.0 ** rng.uniform(-9.0, 0.3, (30, n))
        family = CubeFamily.from_boxes([tuple(zip(c - r, c + r)) for c, r in zip(centers, radii)])
        measures = [s.measure for s in k0alpha_constant(p, 0.0, family).samples]
        compiled = _compile_family(p, family)
        assert np.array(measures).tobytes() == compiled.measure.tobytes()
        assert [r.measure for r in norm_harmonic_sandwich(p, family).rows] == measures
        clipped = np.prod(np.minimum(centers + radii, 1.0) - np.maximum(centers - radii, 0.0),
                          axis=1)
        np.testing.assert_allclose(measures, clipped, rtol=1e-14, atol=0.0)
    # a mask set's measure counts its cells, as E.measure does
    p = two_piece(1.5, 3.0)
    mask = MeasurableSet.from_sublevel(p, 2.0, GridDomain(((0.0, 2.0),), (64,)),
                                       within=((0.5, 1.5),))
    family = CubeFamily([MeasurableSet.from_box(((0.25, 1.75),)), mask])
    assert [s.measure for s in k0alpha_constant(p, 0.0, family).samples] == [1.5, mask.measure]


def test_family_measures_of_a_box_outside_the_domain_raise():
    # an interval that misses the domain compiles to measure 0, and every
    # K0 reader refuses it, on the table route and on the bump route
    bumps = load_spec(os.path.join(os.path.dirname(__file__), "data", "cutbump.json"))
    for p in (two_piece(1.5, 3.0), bumps):
        family = CubeFamily.from_boxes([((0.5, 1.0),), ((3.5, 4.0),)])
        for read in (lambda: k0alpha_constant(p, 0.25, family),
                     lambda: norm_harmonic_sandwich(p, family),
                     lambda: k0alpha_iff_k0_check(p, 0.25, family)):
            with pytest.raises(DomainError, match="^set lies outside the exponent's domain$"):
                read()


def test_measurable_set_refuses_a_degenerate_box():
    # every constructor validates the box, so a set of measure nan or
    # below 0 cannot reach a family
    for box in (((math.nan, 1.0),), ((0.0, math.inf),), ((1.0, 0.5),), ((0.0, 1.0), (0.5, 0.5))):
        for make in (MeasurableSet, MeasurableSet.from_box):
            with pytest.raises(SpecParseError, match="^degenerate box axis"):
                make(box=box)


@pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
def test_cube_refuses_a_non_finite_center(center):
    for point in ((center,), (0.0, center)):
        with pytest.raises(SpecParseError, match="cube center must be finite"):
            Cube(point, 0.5)
