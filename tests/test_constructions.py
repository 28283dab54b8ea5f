"""Tests for the packaged worked examples: threshold exponent families,
the failure of the endpoint maximal bound, staircase exponents with
growing witnesses, and the harmonic-mean monotonicity probe."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import zeta

from varlp import (
    ConstructionError,
    GridFunction,
    MeasurableSet,
    PreconditionError,
    conjugate,
    luxemburg_norm,
)
from varlp import constructions
from varlp.constructions import (
    EXAMPLE_NAMES,
    ExampleSpec,
    blowup_family_k0,
    blowup_growth_floor,
    blowup_modular_growth,
    blowup_threshold,
    blowup_threshold_identity_residual,
    build_blowup,
    build_ex61,
    build_ex62,
    build_ex63,
    build_ex64,
    build_l1_failure,
    check_blowup_geometry,
    default_blowup_exponent,
    ex61_divergence_check,
    ex61_interval_constant_scan,
    ex61_local_window,
    ex61_sets,
    hm_counterexample,
    l1_failure_maximal_closed_form,
    two_sided_interval_check,
    witness_check,
    witness_interval,
    witness_norm_check,
    _witness_target_exponent,
)
from varlp.exponent import ConstantPiece, ExponentFunction, sobolev_dual
from varlp.norms import (
    _compile_family,
    _mean_inverses,
    compile_set,
    interval_indicator_modular,
    interval_integral,
    mean_inverse_exponent,
)


@pytest.fixture(scope="module")
def blowup_family():
    return build_blowup(default_blowup_exponent(), 0.0, 5.0, 4)


@pytest.fixture(scope="module")
def blowup_family_quarter():
    return build_blowup(default_blowup_exponent(), 0.25, 5.0, 3)


@pytest.fixture(scope="module")
def spec61():
    return build_ex61(0.25)


@pytest.fixture(scope="module")
def spec62():
    return build_ex62()


@pytest.fixture(scope="module")
def spec63():
    return build_ex63(0.25, 1.2, 2.0)


@pytest.fixture(scope="module")
def spec64():
    return build_ex64(0.25, 1.2, 2.0)


# -- threshold exponents --------------------------------------------------------


def test_threshold_closed_form():
    assert blowup_threshold(1, 1, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert blowup_threshold(2, 3, 0.5) == pytest.approx(14.0 / 12.5, abs=1e-15)
    # general shape (n^2 k + n) / (n^2 k + alpha)
    for n in (1, 2, 3):
        for k in (1, 7, 40):
            for alpha in (0.0, 0.25, 0.9 * n):
                want = (n * n * k + n) / (n * n * k + alpha)
                got = blowup_threshold(n, k, alpha)
                assert got == pytest.approx(want, rel=1e-14), f"n={n} k={k} a={alpha}"


def test_threshold_identity_residual_small():
    for n in (1, 2, 3):
        for k in (1, 2, 10, 100, 1000):
            for alpha in (0.0, 0.25, 0.5, 0.9 * n):
                res = blowup_threshold_identity_residual(n, k, alpha)
                assert abs(res) <= 1e-12, f"residual {res} at n={n} k={k} a={alpha}"


def test_threshold_decreasing_in_k():
    vals = [blowup_threshold(2, k, 0.3) for k in range(1, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1.0


# -- default ramp exponent ------------------------------------------------------


def test_default_exponent_profile():
    p = default_blowup_exponent()
    assert p.bounds() == (1.0, 2.0)
    assert p.domain == ((-5.0, 5.0),)
    low = p.values(np.array([-4.0, -1.0, 0.0, 0.25]))
    assert np.all(low == 1.0), f"flat region broken: {low}"
    high = p.values(np.array([1.25, 3.0, 4.9]))
    assert np.all(high == 2.0), f"upper region broken: {high}"
    ramp = p.values(np.linspace(0.25, 1.25, 401))
    assert np.all(np.diff(ramp) >= -1e-12), "ramp not monotone"
    steps = np.abs(np.diff(p.values(np.linspace(0.2, 1.3, 2201))))
    assert steps.max() < 0.01, f"jump in ramp: {steps.max()}"


# -- blow-up families -----------------------------------------------------------


def test_blowup_level_invariants(blowup_family):
    fam = blowup_family
    assert fam.alpha == 0.0 and fam.n == 1 and fam.t == 5.0
    assert len(fam.levels) == 4
    for lv in fam.levels:
        k = lv.k
        assert lv.beta == pytest.approx((k + 1) / k, rel=1e-14)
        assert lv.f_norm == pytest.approx(1.0, rel=1e-6)
        assert len(lv.chain) == k
        assert len(lv.pairs) == k
        assert 0.0 < lv.small_radius <= lv.big_radius
        assert lv.density >= lv.density_floor > 0.9


def test_blowup_pairs_separated(blowup_family):
    # distinct partner cubes of one level stay apart by a t-controlled gap
    for lv in blowup_family.levels:
        partners = [pr.partner for pr in lv.pairs]
        for i in range(len(partners)):
            for j in range(i + 1, len(partners)):
                a, b = partners[i], partners[j]
                gap = max(
                    abs(ca - cb) for ca, cb in zip(a.center, b.center)
                ) - (a.radius + b.radius)
                assert gap > 0.0, f"level {lv.k}: partners {i},{j} touch"


def test_blowup_geometry_report(blowup_family):
    rep = check_blowup_geometry(blowup_family)
    assert rep["ok"] is True
    assert [row["k"] for row in rep["levels"]] == [1, 2, 3, 4]
    for row in rep["levels"]:
        assert row["ok"] and not row["issues"]
        assert row["q_plus"] <= 2.0 + 1e-12  # (n + 1)/(n - alpha) at alpha = 0


def test_blowup_geometry_flags_tampering(blowup_family):
    fam = blowup_family
    lv = fam.levels[0]
    pr = lv.pairs[0]
    moved = dataclasses.replace(pr, t=pr.t + 13.0 / (pr.base.radius * math.sqrt(fam.n)))
    bad_lv = dataclasses.replace(lv, pairs=(moved,) + tuple(lv.pairs[1:]))
    bad = dataclasses.replace(fam, levels=(bad_lv,) + tuple(fam.levels[1:]))
    rep = check_blowup_geometry(bad)
    assert rep["ok"] is False
    assert rep["levels"][0]["issues"], "tampered pair not reported"


def test_blowup_growth_rate(blowup_family):
    series = blowup_modular_growth(blowup_family, 10.0)
    want = 2.0 / ((5.0 + 2.0) * 10.0)
    for k, s in enumerate(series, start=1):
        assert s / k == pytest.approx(want, rel=1e-6), f"k={k}: {s / k} vs {want}"
    assert all(a < b for a, b in zip(series, series[1:]))


def test_blowup_growth_rate_quarter(blowup_family_quarter):
    series = blowup_modular_growth(blowup_family_quarter, 10.0)
    want = (2.0 / 7.0) * 10.0 ** (-4.0 / 3.0)
    for k, s in enumerate(series, start=1):
        assert s / k == pytest.approx(want, rel=1e-6), f"k={k}: {s / k} vs {want}"


def test_blowup_growth_floor(blowup_family):
    series = blowup_modular_growth(blowup_family, 10.0)
    floor = blowup_growth_floor(blowup_family, 10.0)
    assert floor > 0.0
    for k, s in enumerate(series, start=1):
        assert s / k >= floor


def test_blowup_growth_vanishes_at_large_scale(blowup_family):
    series = blowup_modular_growth(blowup_family, 1e9)
    assert max(series) < 1e-8
    floor = blowup_growth_floor(blowup_family, 1e9)
    for k, s in enumerate(series, start=1):
        assert s / k >= floor


@pytest.mark.parametrize("c_scale", [math.inf, math.nan, 0.0, -1.0])
def test_blowup_refuses_a_scale_that_is_not_positive_and_finite(blowup_family, c_scale):
    # C = inf would give a series of 0 and a floor of 0
    with pytest.raises(PreconditionError, match="positive and finite"):
        blowup_modular_growth(blowup_family, c_scale)
    with pytest.raises(PreconditionError, match="positive and finite"):
        blowup_growth_floor(blowup_family, c_scale)


def test_blowup_refuses_a_scale_whose_series_or_floor_overflows(blowup_family):
    # C = 1e-320 would give an inf series and an inf floor
    with pytest.raises(PreconditionError, match="level 1 series term overflows"):
        blowup_modular_growth(blowup_family, 1e-320)
    with pytest.raises(PreconditionError, match="growth floor overflows"):
        blowup_growth_floor(blowup_family, 1e-320)
    # C * K^3 * K0 underflows to 0 here: the floor overflows, not divides by 0
    with pytest.raises(PreconditionError, match="growth floor overflows"):
        blowup_growth_floor(blowup_family, 5e-324, family_k0=0.1)


def test_blowup_family_k0_near_one(blowup_family):
    val = blowup_family_k0(blowup_family)
    assert 1.0 - 1e-6 <= val <= 1.0 + 1e-6, f"family constant {val}"


def _replaced_blowup_family_k0(fam):
    """blowup_family_k0 as it was before each cut set was compiled once: a
    grid indicator per cube and two grid norm solves."""
    pc = conjugate(fam.p)
    best = 0.0
    for lv in fam.levels:
        mask_e = lv.threshold_set.mask_on(lv.grid)
        for cube in list(lv.chain) + [pr.partner for pr in lv.pairs]:
            inside = MeasurableSet.from_cube(cube).mask_on(lv.grid) & mask_e
            measure = float(inside.sum()) * lv.grid.cell_volume
            if measure <= 0.0:
                continue
            chi = GridFunction(lv.grid, inside.astype(float))
            best = max(best, luxemburg_norm(chi, fam.p) * luxemburg_norm(chi, pc) / measure)
    return best


def test_blowup_family_k0_matches_replaced_code(blowup_family, blowup_family_quarter):
    third = build_blowup(default_blowup_exponent(), 0.5, 6.0, 5, cells_per_radius=3)
    for fam in (blowup_family, blowup_family_quarter, third):
        assert blowup_family_k0(fam) == _replaced_blowup_family_k0(fam)


def test_blowup_parameter_windows():
    p = default_blowup_exponent()
    with pytest.raises(PreconditionError):
        build_blowup(p, 0.0, 4.0, 2)
    with pytest.raises(PreconditionError):
        build_blowup(p, 0.0, 5.0, 11)
    with pytest.raises(PreconditionError, match="cell per radius"):
        build_blowup(p, 0.0, 5.0, 2, cells_per_radius=0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_blowup_refuses_a_non_finite_t(t):
    # t = inf would make the small radius 0 and the level grid's spacing 0
    with pytest.raises(PreconditionError, match="need finite t > 4"):
        build_blowup(default_blowup_exponent(), 0.0, t, 2)


def test_blowup_needs_flat_region():
    flat = ExponentFunction(
        dimension=1,
        domain=((-5.0, 5.0),),
        pieces=(ConstantPiece(((-5.0, 5.0),), 1.5),),
    )
    with pytest.raises(ConstructionError):
        build_blowup(flat, 0.0, 5.0, 2)


# -- failure of the endpoint maximal bound --------------------------------------


def test_l1_closed_form_values():
    xs = np.array([0.75, 1.0, 2.0, 5.0, 20.0])
    for alpha in (0.0, 0.5):
        want = (2.0 * xs + 1.0) ** (alpha - 1.0)
        got = l1_failure_maximal_closed_form(xs, alpha)
        assert np.allclose(got, want, rtol=1e-14)


def test_l1_maximal_matches_closed_form():
    res = build_l1_failure(0.5, r_max=60.0)
    grid = res["maximal"].domain
    mids = grid.axis_midpoints(0)
    vals = res["maximal"].values
    for x in (2.0, 5.0, 20.0, 50.0):
        i = int(np.argmin(np.abs(mids - x)))
        want = l1_failure_maximal_closed_form(mids[i], 0.5)
        ratio = vals[i] / want
        # the lattice supremum sits just below the continuum value
        assert 0.9 <= ratio <= 1.005, f"x={x}: ratio {ratio}"


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_l1_partials_track_analytic(alpha):
    res = build_l1_failure(alpha, r_max=200.0)
    partials = np.asarray(res["partial_modulars"])
    analytic = np.asarray(res["analytic_partials"])
    assert partials[0] == 0.0 and analytic[0] == 0.0
    assert np.all(np.diff(partials) > 0.0), "partial modulars must grow"
    rel = np.abs(partials[2:] - analytic[2:]) / analytic[2:]
    assert rel.max() < 0.05, f"worst tracking error {rel.max()}"
    slope, want = res["slope"], res["analytic_slope"]
    assert abs(slope - want) <= 0.2 * abs(want), f"slope {slope} vs {want}"


@pytest.mark.parametrize("r_max", [3.5, math.nan, math.inf])
def test_l1_window_maximum_must_be_finite_and_at_least_four(r_max):
    with pytest.raises(PreconditionError, match="finite and at least 4"):
        build_l1_failure(0.0, r_max=r_max)


def test_l1_ladder_and_spec():
    res = build_l1_failure(0.0, r_max=16.0)
    assert res["ladder"][0] == 1.0 and res["ladder"][-1] == 16.0
    assert res["alpha"] == 0.0


# -- single-bump ladder with slow divergence ------------------------------------


def test_ex61_witness_formulas(spec61):
    w = spec61.witnesses
    assert w["base"] == pytest.approx(10.0 / 7.0, rel=1e-12)
    assert w["plateau"] == pytest.approx(28.0 / 9.0, rel=1e-12)
    assert w["weight_rate"] == pytest.approx(0.45, rel=1e-12)
    assert w["dual_base"] == pytest.approx(20.0 / 9.0, rel=1e-12)
    assert w["modular_rate"] == pytest.approx(1.4, rel=1e-12)


def test_ex61_formulas_other_alpha():
    sp = build_ex61(0.1)
    a = 0.1
    w = sp.witnesses
    assert w["base"] == pytest.approx((1 + a) / (2 * a * (2 - a)), rel=1e-12)
    assert w["plateau"] == pytest.approx((2 - a) / (3 * a * (1 - a)), rel=1e-12)
    assert w["weight_rate"] == pytest.approx(3 * a * (1 - a) / (1 + a), rel=1e-12)
    assert w["modular_rate"] == pytest.approx((2 - a) / (1 + a), rel=1e-12)


def test_ex61_parameter_window():
    with pytest.raises(PreconditionError):
        build_ex61(0.6)
    with pytest.raises(PreconditionError):
        build_ex61(0.0)


def test_ex61_sets_geometry():
    sets = ex61_sets()
    lo, hi = sets["support"]
    clo, chi = sets["core"]
    assert lo < clo < chi < hi
    (f1lo, f1hi), (f2lo, f2hi) = sets["flanks"]
    assert f1hi == lo and f2lo == hi, "flanks must sit against the support"
    assert (f1hi - f1lo) == pytest.approx(f2hi - f2lo)


def test_ex61_divergence_weight_series(spec61):
    div = ex61_divergence_check(spec61, 12)
    rate = spec61.witnesses["modular_rate"]
    oracle = 0.5 * np.cumsum(np.arange(1, 13, dtype=float) ** (-rate))
    got = np.asarray(div["weight_partials"])
    assert np.allclose(got, oracle, rtol=1e-9), "weight partial sums drifted"
    # the exponent-weighted series stays below half the full zeta value
    assert got[-1] < 0.5 * zeta(rate)
    assert np.allclose(div["weight_oracle"], oracle, rtol=1e-9)


def test_ex61_divergence_maximal_floor(spec61):
    div = ex61_divergence_check(spec61, 12)
    base = div["flank_base"]
    expo = div["flank_exponent"]
    assert base == pytest.approx((3.0 ** (-0.75)) / 2.0, rel=1e-12)
    assert expo == pytest.approx(1.25 / 0.5625, rel=1e-12)
    harm = np.asarray(div["harmonic_numbers"])
    assert harm[0] == 1.0 and harm[3] == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
    floor = 0.5 * base**expo * harm
    got = np.asarray(div["maximal_partials"])
    assert np.all(got >= floor), "maximal partial sums fell below the floor"
    assert np.all(np.diff(got) > 0.0)
    for row in div["window_reports"]:
        assert row["holds"], f"window level {row['k']} failed"
        assert row["min_measured"] >= row["floor"]


def test_ex61_divergence_first_term(spec61):
    div = ex61_divergence_check(spec61, 1)
    assert div["weight_partials"][0] == pytest.approx(0.5, abs=1e-12)
    assert len(div["maximal_partials"]) == 1
    assert div["maximal_partials"][0] > 0.0


def test_ex61_interval_scan(spec61):
    scan = ex61_interval_constant_scan(spec61, 20)
    rows = scan["samples"]
    labels = {r["label"].split("-")[0] for r in rows}
    assert labels == {"flat", "plateau", "long"}
    flat = [r["value"] for r in rows if r["label"].startswith("flat")]
    assert max(abs(v - 1.0) for v in flat) < 1e-6
    values = [r["value"] for r in rows]
    assert scan["best"] == pytest.approx(max(values), rel=1e-12)
    assert 1.0 <= scan["best"] < 1.5


# -- staircase exponents with growing witnesses ---------------------------------


def test_ex62_witness_values(spec62):
    w = spec62.witnesses
    assert w["p_minus"] == 1.2 and w["p_plus"] == 2.0
    assert w["conj_range"] == (2.0, 6.0)
    assert w["witness_power"] == 30.0
    assert w["bumps_power"] == 15.0
    lo, hi = spec62.exponent.bounds()
    assert lo == pytest.approx(1.2) and hi == pytest.approx(2.0)


def test_ex63_witness_values(spec63):
    w = spec63.witnesses
    assert w["q_minus"] == pytest.approx(12.0 / 7.0, rel=1e-12)
    assert w["q_plus"] == pytest.approx(4.0, rel=1e-12)
    assert w["beta_p"] == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert w["beta_q"] == pytest.approx(7.0 / 3.0, rel=1e-12)
    assert w["gamma"] == pytest.approx(114.0 / 7.0, rel=1e-9)
    assert w["witness_power"] == pytest.approx(190.0 / 7.0, rel=1e-9)
    assert w["mean_floor"] == pytest.approx(24.0 / 7.0, rel=1e-12)


def test_ex64_witness_values(spec64):
    w = spec64.witnesses
    assert w["conj_minus"] == pytest.approx(2.0, rel=1e-12)
    assert w["conj_plus"] == pytest.approx(6.0, rel=1e-9)
    assert w["beta_conj"] == pytest.approx(3.0, rel=1e-9)
    assert w["beta_dual_conj"] == pytest.approx(1.8, rel=1e-12)
    assert w["gamma"] == pytest.approx(12.0, rel=1e-9)
    assert w["witness_power"] == pytest.approx(21.6, rel=1e-9)
    assert w["mean_floor"] == pytest.approx(4.8, rel=1e-9)


def test_witness_interval_lengths(spec62, spec63):
    for sp in (spec62, spec63):
        power = sp.witnesses["witness_power"]
        for j in (2, 3):
            lo, hi = witness_interval(sp, j)
            assert hi - lo == pytest.approx(float(j) ** power, rel=1e-12)


@pytest.mark.parametrize("build, p_plus, j_max, first", [
    (build_ex63, 1.21, 2, 2),  # witness power 1529.9: 2^power overflows
    (build_ex64, 1.21, 6, 4),  # witness power 570.5: 4^power overflows
    (build_ex63, 1.2000001, 6, 2),
    (build_ex64, 1.2000001, 6, 2),
])
def test_witness_whose_length_overflows_is_refused_before_any_compile(build, p_plus, j_max,
                                                                     first, monkeypatch):
    def no_compile(*args):
        raise AssertionError("compiled a witness interval")

    monkeypatch.setattr(constructions, "_compile_family", no_compile)
    monkeypatch.setattr(constructions, "compile_set", no_compile)
    sp = build(0.25, 1.2, p_plus)
    message = f"^witness interval {first} is too long: its length {first}\\^.* overflows$"
    with pytest.raises(PreconditionError, match=message):
        witness_check(sp, range(2, j_max + 1))
    with pytest.raises(PreconditionError, match=message):
        witness_norm_check(sp, first)


def test_witness_rows_hold(spec62, spec63, spec64):
    for sp in (spec62, spec63, spec64):
        rows = witness_check(sp, (2, 3, 4))
        floor = sp.witnesses.get("mean_floor")
        for row in rows:
            assert row["mean_ok"], f"{sp.name} j={row['j']}: mean too small"
            assert row["norm_beats_lambda"], f"{sp.name} j={row['j']}: norm route"
            assert row["mean"] >= row["mean_floor"] - 1e-9
            if floor is not None:
                assert row["mean_floor"] >= floor - 1e-9


def test_witness_rows_match_two_compile_reference(spec62, spec63, spec64):
    """The mean and the modular read one compiled interval; before, each
    compiled it again."""
    for sp in (spec62, spec63, spec64):
        target = _witness_target_exponent(sp)
        for row in witness_check(sp, range(2, 12)):
            a, b = witness_interval(sp, row["j"])
            inv_mean = mean_inverse_exponent(target, MeasurableSet.from_box(((a, b),)))
            mean = math.inf if inv_mean == 0.0 else 1.0 / inv_mean
            lam = row["j"] * (b - a) ** (1.0 / mean)
            assert (row["mean"], row["lambda"]) == (mean, lam), (sp.name, row["j"])
            assert row["modular"] == interval_indicator_modular(target, a, b, lam)


def test_ex61_partials_match_per_term_compile_reference(spec61):
    """The core and the flanks are compiled once for all k; before, each
    term compiled them again."""
    div = ex61_divergence_check(spec61, 20, check_levels=1)
    p_loc = ex61_local_window(spec61)
    q_loc = sobolev_dual(p_loc, spec61.parameters["alpha"])
    sets = ex61_sets()
    weight, maximal = [], []
    for k in range(1, 21):
        w = k ** (-spec61.witnesses["weight_rate"])
        bound = div["flank_base"] * w
        weight.append(interval_integral(p_loc, *sets["core"],
                                        lambda v: np.where(np.isfinite(v), w ** v, 0.0)))
        maximal.append(sum(interval_integral(q_loc, a, b,
                                             lambda v: np.where(np.isfinite(v), bound ** v, 0.0))
                           for a, b in sets["flanks"]))
    assert div["weight_partials"].tobytes() == np.cumsum(weight).tobytes()
    assert div["maximal_partials"].tobytes() == np.cumsum(maximal).tobytes()


def _replaced_witness_scale(target, spec, j):
    """The witness interval, its mean and lambda as witness_check and
    witness_norm_check each wrote them out."""
    a, b = witness_interval(spec, j)
    interval = MeasurableSet.from_box(((a, b),))
    dist = compile_set(target, interval)
    inv_mean = float(_mean_inverses(dist, target, [interval]))
    mean = math.inf if inv_mean == 0.0 else 1.0 / inv_mean
    return dist, b - a, mean, j * (b - a) ** (1.0 / mean)


def _replaced_two_sided_rows(p, intervals):
    sets = [MeasurableSet.from_box(((a, b),)) for a, b in intervals]
    compiled = _compile_family(p, sets)
    rows = []
    for (a, b), inv_mean, norm in zip(intervals, _mean_inverses(compiled, p, sets).tolist(),
                                      compiled.norms(p).tolist()):
        mean = 1.0 / inv_mean
        rows.append({"interval": (a, b), "measure": b - a,
                     "ratio": norm / (b - a) ** (1.0 / mean)})
    return rows


def test_witness_reads_match_replaced_code_bitwise(spec62, spec63, spec64):
    for sp in (spec62, spec63, spec64):
        target = _witness_target_exponent(sp)
        for row in witness_check(sp, range(2, 12)):
            dist, measure, mean, lam = _replaced_witness_scale(target, sp, row["j"])
            want = (measure, mean, lam, dist.modular(target, lam))
            assert (row["measure"], row["mean"], row["lambda"], row["modular"]) == want
        for j in (2, 3, 5):
            dist, _, _, lam = _replaced_witness_scale(target, sp, j)
            assert witness_norm_check(sp, j) == (dist.norm(target), lam), (sp.name, j)


def test_two_sided_rows_match_replaced_code_bitwise(spec62):
    # the check draws its own 40 intervals from the seed; four seeds give 160
    p = spec62.exponent
    for seed in range(4):
        rows = two_sided_interval_check(spec62, seed=seed)["rows"]
        assert rows == _replaced_two_sided_rows(p, [row["interval"] for row in rows]), seed


def _replaced_ex61_scan(spec, big_k, per_run):
    """ex61_interval_constant_scan before it read its samples through
    k0alpha_constant: its own product measure^(alpha - 1) * ||.||_q * ||.||_p'."""
    alpha = spec.parameters["alpha"]
    big_k = int(min(big_k, spec.parameters["count"] - 1))

    def scan(pp, intervals):
        sets = [MeasurableSet.from_box(((a, b),)) for a, b, _ in intervals]
        compiled = _compile_family(pp, sets)
        norms_q = compiled.norms(sobolev_dual(pp, alpha)).tolist()
        norms_pc = compiled.norms(conjugate(pp)).tolist()
        return [{"label": label, "measure": b - a, "value": (b - a) ** (alpha - 1.0) * nq * npc}
                for (a, b, label), nq, npc in zip(intervals, norms_q, norms_pc)]

    anchor = math.exp(1.0) + 1.0
    vols = np.geomspace(1e-3, 1.0, 7 * per_run)
    flat = [(anchor, anchor + vol, f"flat-{vol:.3e}") for vol in vols]
    plateau = [(-vol / 2.0, vol / 2.0, f"plateau-{vol:.3e}") for vol in vols]
    long = [(-1.0, math.exp(float(j)) + 1.5, f"long-{float(j):.2f}")
            for j in np.linspace(1.0, float(big_k), per_run * big_k)]
    far = scan(spec.exponent, flat + long)
    return far[:len(flat)] + scan(ex61_local_window(spec), plateau) + far[len(flat):]


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_ex61_scan_matches_replaced_code(alpha):
    # the product now runs measure * ||.||_p' * ||.||_q: a value may move by one rounding
    spec = build_ex61(alpha)
    for per_run in (1, 2):
        got = ex61_interval_constant_scan(spec, 50, per_run)["samples"]
        want = _replaced_ex61_scan(spec, 50, per_run)
        assert [(s["label"], s["measure"]) for s in got] == [(s["label"], s["measure"])
                                                             for s in want]
        for s, w in zip(got, want):
            assert abs(s["value"] - w["value"]) <= 2.3e-16 * w["value"], s["label"]


def test_witness_norm_dual_route(spec62, spec63, spec64):
    # independent lower-bound route: dual pairing beats lambda by factor j
    for sp, j in ((spec62, 2), (spec62, 3), (spec63, 2), (spec64, 2)):
        dual_val, lam = witness_norm_check(sp, j)
        assert lam > 0.0
        assert dual_val >= j * lam, f"{sp.name} j={j}: {dual_val} < {j} * {lam}"


def test_ex62_two_sided_bounds(spec62):
    rep = two_sided_interval_check(spec62)
    assert rep["lower"] == pytest.approx(0.375, rel=1e-12)
    assert rep["lower_holds"] and rep["long_cap_holds"]
    assert rep["measured_upper"] <= rep["long_interval_cap"]
    assert rep["rows"], "expected at least one sampled interval"
    for row in rep["rows"]:
        assert row["ratio"] >= rep["lower"] - 1e-9


def test_ex63_ex64_parameter_windows():
    with pytest.raises(PreconditionError):
        build_ex63(0.25, 1.2, 5.0)
    with pytest.raises(PreconditionError):
        build_ex64(0.25, 1.0, 2.0)


# -- harmonic mean counterexample ------------------------------------------------


def test_hm_counterexample_default():
    sp = hm_counterexample()
    w = sp.witnesses
    assert sp.name == "HM_COUNTER"
    assert w["mean_big"] == pytest.approx(8.0 / 7.0, rel=1e-12)
    assert w["mean_sub"] == pytest.approx(9.0 / 7.0, rel=1e-12)
    assert w["mean_big"] == pytest.approx(w["formula_big"], rel=1e-12)
    assert w["mean_sub"] == pytest.approx(w["formula_sub"], rel=1e-9)
    assert w["monotone_fails"] is True
    big, sub = w["big_cube"], w["sub_cube"]
    for c in sub.center:
        assert abs(c) + sub.radius <= big.radius + 1e-12, "sub cube escapes"


def test_hm_counterexample_other_radius():
    sp = hm_counterexample(0.6)
    r = 0.6
    w = sp.witnesses
    assert w["mean_big"] == pytest.approx(2.0 / (4 * r - 4 * r * r + 1), rel=1e-9)
    assert w["mean_sub"] == pytest.approx(2 * r * r / (4 * r - 2 * r * r - 1), rel=1e-9)
    assert w["mean_sub"] > w["mean_big"]


def test_hm_parameter_window():
    with pytest.raises(PreconditionError):
        hm_counterexample(0.4)
    with pytest.raises(PreconditionError):
        hm_counterexample(1.0)


# -- catalog ----------------------------------------------------------------------


def test_example_catalog_names():
    assert EXAMPLE_NAMES == (
        "L1_FAILURE",
        "EX61",
        "EX62",
        "EX63",
        "EX64",
        "HM_COUNTER",
    )


def test_example_spec_rejects_unknown_name():
    with pytest.raises(PreconditionError):
        ExampleSpec(name="BOGUS", parameters={}, exponent=None, witnesses={})
