"""Tests for averaging, maximal, and potential operators plus pair geometry."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from varlp import (
    Cube,
    DYADIC,
    DomainError,
    EXACT,
    ExponentFunction,
    FractionalKernel,
    GridDomain,
    GridFunction,
    MeasurableSet,
    PreconditionError,
    SpecParseError,
    TUPair,
    averaging_op,
    box_sums,
    covering_cube,
    cube_average,
    czo_pair_lower_bound,
    fractional_maximal,
    fractional_maximal_uncentered,
    kernel_sign_coherent,
    kernel_threshold,
    luxemburg_norm,
    make_tu_pair,
    maximal_pair_lower_bound,
    riesz_gamma,
    riesz_kernel,
    riesz_potential,
)
from varlp import operators
from varlp.operators import _self_cell_integral, _uncentered_on


def line_grid(lo, hi, cells):
    return GridDomain(((float(lo), float(hi)),), (cells,))


def indicator_on(grid, a, b):
    return GridFunction.indicator(grid, MeasurableSet.from_box(((a, b),)))


# -- reference copies of the per-radius, per-row and pairwise implementations --
#
# The operators now share one half-cell cumulative, one uncentered table and one
# FFT; these are the direct implementations they replaced, kept as oracles.


def ref_axis_box_sum(arr, axis, m):
    c = arr.shape[axis]
    pad_shape = list(arr.shape)
    pad_shape[axis] = 1
    cum = np.concatenate([np.zeros(pad_shape), np.cumsum(arr, axis=axis)], axis=axis)

    def interp(z):
        z = np.clip(z, 0.0, float(c))
        k = np.minimum(np.floor(z).astype(int), c - 1)
        frac = z - k
        lo = np.take(cum, k, axis=axis)
        hi = np.take(cum, k + 1, axis=axis)
        shape = [1] * arr.ndim
        shape[axis] = len(z)
        return lo + frac.reshape(shape) * (hi - lo)

    j = np.arange(c)
    return interp(j + 0.5 + m) - interp(j + 0.5 - m)


def ref_box_sums(f, m):
    arr = f.values
    for axis in range(arr.ndim):
        arr = ref_axis_box_sum(arr, axis, float(m))
    return arr * f.domain.cell_volume


def ref_fractional_maximal(f, alpha, policy):
    n = f.domain.dimension
    h = f.domain.h
    absf = GridFunction(f.domain, np.abs(f.values))
    m_max = max(f.domain.cells)
    if policy == EXACT:
        radii = list(range(1, m_max + 1))
    else:
        radii = [1]
        while radii[-1] < m_max:
            radii.append(2 * radii[-1])
    best = np.full(f.domain.cells, -np.inf)
    for m in radii:
        np.maximum(best, (2.0 * m * h) ** (alpha - n) * ref_box_sums(absf, m), out=best)
    return np.maximum(best, 0.0)


def ref_uncentered(f, alpha):
    h = f.domain.h
    vals = np.abs(f.values)
    n_cells = vals.shape[0]
    cum = np.concatenate([[0.0], np.cumsum(vals)]) * h
    best = np.zeros(n_cells)
    b = np.arange(n_cells)
    for a in range(n_cells):
        lengths = (b[a:] - a + 1.0) * h
        va = (cum[b[a:] + 1] - cum[a]) * lengths ** (alpha - 1.0)
        suf = np.maximum.accumulate(va[::-1])[::-1]
        np.maximum(best[a:], suf, out=best[a:])
    return best


def ref_riesz(f, alpha):
    """Dense pairwise kernel: midpoint rule off the diagonal, exact self-cell."""
    n = f.domain.dimension
    pts = f.domain.points()
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    with np.errstate(divide="ignore"):
        kern = d ** (alpha - n) * f.domain.cell_volume
    np.fill_diagonal(kern, _self_cell_integral(alpha, n, f.domain.h))
    return (riesz_gamma(alpha, n) * (kern @ f.values.ravel())).reshape(f.domain.cells)


def ref_riesz_fft(f, alpha):
    """riesz_potential as it built its own kernel before it read the cached
    spectrum: h |z| at every index of the grid doubled in every axis (offset
    -k at an index k < c, 2c - k from c on), its power times the cell
    volume, the exact self-cell integral at offset 0, and one zero-padded
    FFT convolution written out."""
    dom = f.domain
    n = dom.dimension
    ks = [np.arange(2 * c) for c in dom.cells]
    offsets = np.meshgrid(*[np.where(k < c, -k, 2 * c - k) for k, c in zip(ks, dom.cells)],
                          indexing="ij")
    dist = dom.h * np.sqrt(sum(o.astype(float) ** 2 for o in offsets))
    origin = (0,) * n
    dist[origin] = 1.0
    kern = dist ** (alpha - n) * dom.cell_volume
    kern[origin] = _self_cell_integral(alpha, n, dom.h)
    shape = tuple(2 * c for c in dom.cells)
    core = tuple(slice(0, c) for c in dom.cells)
    fpad = np.zeros(shape)
    fpad[core] = f.values
    conv = np.fft.irfftn(np.fft.rfftn(fpad) * np.fft.rfftn(kern), s=shape, axes=tuple(range(n)))
    return riesz_gamma(alpha, n) * conv[core]


# large enough that the maximal's radii span several blocks
PARITY_GRIDS = [
    GridDomain(((0.0, 1.0),), (1100,)),
    GridDomain(((0.0, 1.0), (0.0, 1.0)), (80, 80)),
    GridDomain(((0.0, 1.0), (0.0, 2.0 / 3.0)), (96, 64)),
]
PARITY_IDS = ["1d", "2d-square", "2d-96x64"]


def random_paircheck_pair(rng, cells=512):
    """A random function and translate pair, drawn as `varlp paircheck` draws them."""
    grid = line_grid(0.0, 1.0, cells)
    h = grid.h
    mcap = max(2, int((cells - 4) / (10.0 + 3.0)))
    f = GridFunction(grid, rng.uniform(0.0, 1.0, cells))
    m = int(rng.integers(2, mcap + 1))
    t = math.ceil(float(rng.uniform(4.0, 10.0)) * m) / m
    span = int(round(t * m)) + 2 * m
    corner = int(rng.integers(0, cells - span))
    return f, make_tu_pair(Cube((corner * h + m * h,), m * h), t)


# -- box sums ------------------------------------------------------------------


@pytest.mark.parametrize("grid", PARITY_GRIDS, ids=PARITY_IDS)
def test_box_sums_match_reference_bitwise(grid, rng):
    f = GridFunction(grid, rng.uniform(-1.0, 3.0, grid.cells))
    radii = (1, 2, 5, 17)
    for m in radii:
        assert np.array_equal(box_sums(f, m), ref_box_sums(f, m)), f"m={m}"
    stacked = box_sums(f, np.array(radii))
    assert stacked.shape == (len(radii),) + grid.cells
    for got, m in zip(stacked, radii):
        assert np.array_equal(got, ref_box_sums(f, m)), f"stacked m={m}"


@pytest.mark.parametrize("cells", [(1, 5), (2, 3), (3, 1), (3, 2, 2), (7, 5, 4)],
                         ids=lambda cells: "x".join(map(str, cells)))
def test_stacked_box_sums_match_reference_bitwise(cells, rng):
    # radii below, at and past every axis length, and past twice the longest
    # axis, on data from about 1e-30 to 1e30
    grid = GridDomain(tuple((0.0, float(c)) for c in cells), cells)
    radii = (1, 2, 3, 4, 5, 6, 7, 9, 15, 40)
    signs = rng.choice([-1.0, 1.0], size=cells)
    for values in (rng.uniform(-1.0, 3.0, cells), signs * rng.lognormal(0.0, 20.0, cells)):
        f = GridFunction(grid, values)
        for got, m in zip(box_sums(f, np.array(radii)), radii):
            assert np.array_equal(got, ref_box_sums(f, m)), f"m={m}"


def test_stacked_box_sums_of_overflowing_data_raise_as_reference():
    # the values and their sums along the first two axes are finite, the
    # sums along the third are not
    grid = GridDomain(((0.0, 4.0), (0.0, 6.0), (0.0, 6.0)), (4, 6, 6))
    f = GridFunction(grid, np.full(grid.cells, 3e306))
    radii = (1, 3, 6)
    with np.errstate(over="ignore", invalid="ignore"):
        want = [ref_box_sums(f, m) for m in radii]
    assert not all(np.isfinite(w).all() for w in want)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="^a box sum overflows the float range"):
            box_sums(f, np.array(radii))


def test_box_sums_reject_other_radii():
    f = GridFunction(line_grid(0.0, 1.0, 16), np.ones(16))
    for m in (0.5, 1.5, [1, 2.5], 0.7, 0.0, -1.0, math.inf, math.nan, np.array([1.0, 2.25]),
              np.ones((2, 2))):
        with pytest.raises(PreconditionError):
            box_sums(f, m)


def test_box_sums_matches_direct_window(rng):
    grid = line_grid(0.0, 1.0, 64)
    vals = rng.uniform(0.0, 3.0, 64)
    f = GridFunction(grid, vals)
    h = grid.cell_volume
    for m in (1, 2, 5, 17):
        got = box_sums(f, m)
        for j in (0, 1, 30, 62, 63):
            lo, hi = j - m, j + m
            # full cells strictly inside, half weight for the two edge cells
            inner = vals[max(lo + 1, 0):min(hi, 64)].sum()
            edges = 0.0
            if 0 <= lo < 64:
                edges += 0.5 * vals[lo]
            if 0 <= hi < 64:
                edges += 0.5 * vals[hi]
            want = (inner + edges) * h
            assert got[j] == pytest.approx(want, rel=1e-12), f"m={m}, j={j}"


def test_box_sums_two_dimensional(rng):
    grid = GridDomain(((0.0, 1.0), (0.0, 1.0)), (16, 16))
    vals = rng.uniform(0.0, 1.0, (16, 16))
    f = GridFunction(grid, vals)
    got = box_sums(f, 1)
    h2 = grid.cell_volume
    # full cells strictly inside, half weight along each edge, quarter weight
    # at the corners
    weights = np.outer([0.5, 1.0, 0.5], [0.5, 1.0, 0.5])
    want = (weights * vals[4:7, 7:10]).sum() * h2
    assert got[5, 8] == pytest.approx(want, rel=1e-12)


# -- averaging operator --------------------------------------------------------


def test_averaging_indicator_alpha_zero():
    grid = line_grid(0.0, 2.0, 128)
    Q = Cube((1.0,), 0.5)
    f = GridFunction.indicator(grid, MeasurableSet.from_cube(Q))
    out = averaging_op(f, MeasurableSet.from_cube(Q), alpha=0.0)
    assert np.array_equal(out.values, f.values), "averaging an indicator over itself is itself"


def test_averaging_unit_cube_half_power():
    grid = line_grid(0.0, 2.0, 128)
    Q = Cube((0.5,), 0.5)
    f = GridFunction.indicator(grid, MeasurableSet.from_cube(Q))
    out = averaging_op(f, MeasurableSet.from_cube(Q), alpha=0.5)
    inside = f.values > 0
    assert np.allclose(out.values[inside], 1.0), "|Q| = 1 so the weight is 1"


def test_averaging_wide_cube_value():
    grid = line_grid(0.0, 2.0, 128)
    f = indicator_on(grid, 0.0, 1.0)
    out = averaging_op(f, MeasurableSet.from_cube(Cube((1.0,), 1.0)), alpha=0.5)
    inside = out.values > 0
    assert np.allclose(out.values[inside], math.sqrt(2.0) * 0.5), "2^(1/2) * mean 1/2"
    assert inside.sum() == 128, "supported on all of the averaging cube"


def test_averaging_empty_intersection_raises():
    grid = line_grid(0.0, 2.0, 64)
    f = GridFunction(grid, np.ones(64))
    with pytest.raises(DomainError):
        averaging_op(f, MeasurableSet.from_cube(Cube((5.0,), 0.5)), alpha=0.0)


@pytest.mark.parametrize("alpha", [-0.5, 1.0, 2.0, math.nan])
def test_averaging_refuses_alpha_outside_zero_to_n(alpha):
    grid = line_grid(0.0, 2.0, 64)
    f = GridFunction(grid, np.ones(64))
    with pytest.raises(PreconditionError, match=r"^need 0 <= alpha < n = 1, got alpha = "):
        averaging_op(f, MeasurableSet.from_cube(Cube((1.0,), 0.5)), alpha=alpha)


def test_cube_average_uses_unclipped_measure():
    grid = line_grid(0.0, 2.0, 128)
    f = GridFunction(grid, np.ones(128))
    # half of Q(1.5, 1) hangs outside the grid: integral 1.5... no, [0.5,2.5] clips to [0.5,2]
    assert cube_average(f, Cube((1.5,), 1.0)) == pytest.approx(1.5 / 2.0, rel=1e-9)


@pytest.mark.parametrize("grid", [line_grid(-1.0, 2.0, 96),
                                  GridDomain(((0.0, 1.0), (0.0, 1.5)), (40, 60))],
                         ids=["1d", "2d"])
def test_cube_average_matches_mask_route_bitwise(grid, rng):
    # the cells of the cube's box, summed in C order, as the full-grid mask read them
    f = GridFunction(grid, rng.uniform(-1.0, 2.0, grid.cells))
    lo = np.array([b[0] for b in grid.box])
    hi = np.array([b[1] for b in grid.box])
    for trial in range(600):
        center = rng.uniform(lo - 0.3, hi + 0.3)
        if trial % 3 == 0:  # faces on cell midpoints
            center = lo + (rng.integers(0, grid.cells) + 0.5) * grid.h
        radius = grid.h * (rng.integers(1, 20) if trial % 3 == 0 else rng.uniform(0.2, 20.0))
        cube = Cube(tuple(center), float(radius))
        mask = MeasurableSet.from_cube(cube).mask_on(grid)
        want = float(f.values[mask].sum()) * grid.cell_volume / cube.volume
        got = cube_average(f, cube)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), trial

# -- fractional maximal --------------------------------------------------------


def test_maximal_indicator_interior_alpha_zero():
    grid = line_grid(-2.0, 2.0, 256)
    f = indicator_on(grid, -0.5, 0.5)
    out = fractional_maximal(f, 0.0)
    mids = grid.axis_midpoints(0)
    interior = np.abs(mids) < 0.4
    assert np.allclose(out.values[interior], 1.0), "small cubes around interior points average to 1"


def test_maximal_closed_form_off_support():
    # M of the centered unit-interval indicator at x > 1/2 is (2x+1)^(alpha-1)
    grid = line_grid(-8.0, 8.0, 1024)
    f = indicator_on(grid, -0.5, 0.5)
    alpha = 0.5
    out = fractional_maximal(f, alpha)
    mids = grid.axis_midpoints(0)
    idx = int(np.argmin(np.abs(mids - 1.5)))
    x = mids[idx]
    want = (2.0 * x + 1.0) ** (alpha - 1.0)
    assert out.values[idx] == pytest.approx(want, rel=1e-2), f"x={x}"
    assert out.values[idx] == pytest.approx(0.5, abs=0.02)
    for target in (2.5, 4.0, 6.5):
        idx = int(np.argmin(np.abs(mids - target)))
        x = mids[idx]
        want = (2.0 * x + 1.0) ** (alpha - 1.0)
        assert out.values[idx] == pytest.approx(want, rel=1e-2), f"x={x}"


def test_uncentered_maximal_power_lower_bound():
    # the uncentered sup at |x| > 1/2 dominates 2^(alpha-1) |x|^(alpha-1)
    grid = line_grid(-8.0, 8.0, 1024)
    f = indicator_on(grid, -0.5, 0.5)
    for alpha in (0.0, 0.3, 0.5):
        out = fractional_maximal_uncentered(f, alpha)
        mids = grid.axis_midpoints(0)
        away = np.abs(mids) >= 0.7
        bound = 2.0 ** (alpha - 1.0) * np.abs(mids[away]) ** (alpha - 1.0)
        assert np.all(out.values[away] >= bound), (
            f"alpha={alpha}: min slack {(out.values[away] - bound).min()}"
        )


def test_uncentered_dominates_centered(rng):
    grid = line_grid(0.0, 4.0, 128)
    for trial in range(10):
        f = GridFunction(grid, rng.uniform(0.0, 2.0, 128))
        cen = fractional_maximal(f, 0.4)
        unc = fractional_maximal_uncentered(f, 0.4)
        assert np.all(unc.values >= cen.values - 1e-12), f"trial {trial}"


def test_dyadic_exact_sandwich(rng):
    grid = line_grid(0.0, 4.0, 128)
    for trial in range(20):
        alpha = rng.uniform(0.0, 0.95)
        f = GridFunction(grid, rng.uniform(0.0, 3.0, 128))
        dy = fractional_maximal(f, alpha, radii=DYADIC).values
        ex = fractional_maximal(f, alpha, radii=EXACT).values
        assert np.all(dy <= ex * (1 + 1e-12)), f"trial {trial}: dyadic radii are a subset"
        assert np.all(ex <= 2.0 ** (1.0 - alpha) * dy * (1 + 1e-12)), (
            f"trial {trial}: doubling gap exceeded, alpha={alpha}"
        )


def test_maximal_monotone_and_homogeneous(rng):
    grid = line_grid(0.0, 4.0, 128)
    for trial in range(10):
        f_vals = rng.uniform(0.0, 2.0, 128)
        g_vals = f_vals + rng.uniform(0.0, 1.0, 128)
        alpha = rng.uniform(0.0, 0.9)
        mf = fractional_maximal(GridFunction(grid, f_vals), alpha).values
        mg = fractional_maximal(GridFunction(grid, g_vals), alpha).values
        assert np.all(mf <= mg + 1e-12), f"trial {trial}: monotone"
        c = float(rng.uniform(0.1, 50.0))
        mcf = fractional_maximal(GridFunction(grid, c * f_vals), alpha).values
        assert np.allclose(mcf, c * mf, rtol=1e-12), f"trial {trial}: homogeneous, c={c}"


def test_maximal_sublinear_on_indicators():
    grid = line_grid(0.0, 4.0, 256)
    fa = indicator_on(grid, 0.5, 1.25)
    fb = indicator_on(grid, 2.0, 3.5)
    both = GridFunction(grid, fa.values + fb.values)
    alpha = 0.5
    msum = fractional_maximal(both, alpha).values
    parts = fractional_maximal(fa, alpha).values + fractional_maximal(fb, alpha).values
    assert np.all(msum <= parts + 1e-12)


def l1_failure_indicator(r_max):
    """The `example L1_FAILURE` input: the unit interval's indicator on [-R, R]."""
    grid = GridDomain.from_spacing(((-r_max, r_max),), 0.125)
    return indicator_on(grid, -0.5, 0.5)


def maximal_inputs():
    """(id, make) pairs: make(rng) gives a function.  Past the random parity
    grids come 1-D inputs on which the line search skips radii, or must not."""
    for name, grid in zip(PARITY_IDS, PARITY_GRIDS):
        yield name, lambda rng, grid=grid: GridFunction(grid, rng.uniform(-1.0, 2.0, grid.cells))
    rng = np.random.default_rng(7)
    fixed = [
        ("l1-failure", l1_failure_indicator(100.0)),
        ("zeros", GridFunction(line_grid(0.0, 1.0, 300), np.zeros(300))),
        ("negative-zeros", GridFunction(line_grid(0.0, 1.0, 300), np.full(300, -0.0))),
        # values from about 1e-30 to 1e30
        ("lognormal", GridFunction(line_grid(0.0, 1.0, 700), rng.lognormal(0.0, 20.0, 700))),
    ] + [
        (f"cells-{cells}", GridFunction(line_grid(0.0, 1.0, cells), rng.uniform(-1.0, 2.0, cells)))
        for cells in (1, 2, 3)
    ] + [
        ("spacing-0.0875", GridFunction(line_grid(-3.0, 40.75, 500), rng.uniform(0.0, 1.0, 500))),
        ("spacing-3.75", GridFunction(line_grid(0.0, 1500.0, 400), rng.uniform(0.0, 1.0, 400))),
        # DYADIC radii run to 128
        ("cells-100", GridFunction(line_grid(0.0, 1.0, 100), rng.uniform(-1.0, 2.0, 100))),
        # the support-covering seeds: a support that reaches the right end, so
        # the window edges past it read the padded end sample, and one cell
        ("support-at-end", GridFunction(line_grid(0.0, 1.0, 400),
                                        np.where(np.arange(400) >= 330, rng.uniform(0.5, 2.0, 400), 0.0))),
        ("single-cell", GridFunction(line_grid(0.0, 1.0, 301), np.eye(1, 301, 117)[0] * 3.0)),
        ("negative-zeros-one-cell", GridFunction(line_grid(0.0, 1.0, 300),
                                                 np.where(np.arange(300) == 41, 0.75, -0.0))),
    ]
    for name, f in fixed:
        yield name, lambda rng, f=f: f


MAXIMAL_INPUTS = list(maximal_inputs())
# the 1-D inputs that are small enough for bounds of one radius
LINE_INPUTS = [(name, make) for name, make in MAXIMAL_INPUTS
               if name in ("l1-failure", "lognormal", "cells-3", "support-at-end", "single-cell",
                           "negative-zeros-one-cell")]


@pytest.mark.parametrize("make", [make for _, make in MAXIMAL_INPUTS],
                         ids=[name for name, _ in MAXIMAL_INPUTS])
@pytest.mark.parametrize("policy", [EXACT, DYADIC])
def test_maximal_matches_reference_bitwise(make, policy, rng, monkeypatch):
    # the small block evaluates the radii in chunks of a few cells
    for block in (operators._BLOCK_VALUES, 2000):
        monkeypatch.setattr(operators, "_BLOCK_VALUES", block)
        for alpha in (0.0, 0.5, 0.9):
            f = make(rng)
            got = fractional_maximal(f, alpha, radii=policy).values
            want = ref_fractional_maximal(f, alpha, policy)
            assert got.tobytes() == want.tobytes(), f"block={block}, alpha={alpha}"


def count_window_cells(monkeypatch):
    """Count the cells of every window sum the line search evaluates, one
    radius at a time, in a block of consecutive radii or one radius per cell."""
    counted = [0]
    window, windows, gather = operators._window, operators._windows, operators._gather_windows

    def counting(mid, pad, m, lo, hi, out):
        counted[0] += hi - lo
        return window(mid, pad, m, lo, hi, out)

    def counting_block(rows, pad, m, lo, hi, out):
        counted[0] += len(out) * (hi - lo)
        return windows(rows, pad, m, lo, hi, out)

    def counting_gather(mid, pad, m, out):
        counted[0] += len(out)
        return gather(mid, pad, m, out)

    monkeypatch.setattr(operators, "_window", counting)
    monkeypatch.setattr(operators, "_windows", counting_block)
    monkeypatch.setattr(operators, "_gather_windows", counting_gather)
    return counted


def test_line_maximal_skips_most_windows_of_an_indicator(monkeypatch):
    f = l1_failure_indicator(100.0)
    cells = f.values.size
    counted = count_window_cells(monkeypatch)
    got = fractional_maximal(f, 0.0).values
    assert got.tobytes() == ref_fractional_maximal(f, 0.0, EXACT).tobytes()
    # bounds included, about half of the cells * radii that every radius takes
    assert counted[0] < 3 * cells * cells // 4, counted[0]


@pytest.mark.parametrize("name, alpha, share", [("uniform", 0.5, 0.10), ("l1-failure", 0.0, 0.20)])
def test_line_maximal_evaluates_a_small_share_of_the_windows(name, alpha, share, rng, monkeypatch):
    # the support-covering seeds are nearly the final max on both inputs
    if name == "uniform":
        f = GridFunction(line_grid(0.0, 1.0, 6000), rng.uniform(0.0, 1.0, 6000))
    else:
        f = l1_failure_indicator(100.0)
    cells = f.values.size
    counted = count_window_cells(monkeypatch)
    got = fractional_maximal(f, alpha).values
    assert got.tobytes() == ref_fractional_maximal(f, alpha, EXACT).tobytes()
    # bounds and seeds included
    assert counted[0] <= share * cells * cells, counted[0] / cells / cells


@pytest.mark.parametrize("make", [make for _, make in LINE_INPUTS],
                         ids=[name for name, _ in LINE_INPUTS])
def test_line_maximal_in_small_bound_blocks_matches_reference_bitwise(make, rng, monkeypatch):
    # a bound per radius or per three radii, and chunks of a few cells
    for radii, block in ((1, 1 << 18), (3, 40)):
        monkeypatch.setattr(operators, "_BOUND_RADII", radii)
        monkeypatch.setattr(operators, "_BLOCK_VALUES", block)
        for alpha in (0.0, 0.5):
            f = make(rng)
            got = fractional_maximal(f, alpha).values
            want = ref_fractional_maximal(f, alpha, EXACT)
            assert got.tobytes() == want.tobytes(), f"radii={radii}, alpha={alpha}"


def test_line_maximal_with_a_rising_scale_matches_reference_bitwise():
    # the scales come from Python ** and are not proven to fall: a block whose
    # scale rises above its cells' seeds must still bound the cells whose
    # window covers the support
    f = indicator_on(line_grid(0.0, 1.0, 300), 0.45, 0.55)
    radius_list = list(range(1, 301))
    scales = np.array([(2.0 * m / 300.0) ** -0.5 for m in radius_list])
    scales[200] *= 10.0
    got = operators._line_maximal(f.values, radius_list, scales, f.domain.cell_volume)
    want = np.zeros(300)
    for m, scale in zip(radius_list, scales):
        np.maximum(want, scale * ref_box_sums(f, m), out=want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("values, hi", [(1e307, 1.0), (1e306, 1000.0)],
                         ids=["cumulative-overflows", "products-overflow"])
def test_line_maximal_of_overflowing_data_raises_as_reference(values, hi, monkeypatch):
    f = GridFunction(line_grid(0.0, hi, 100), np.full(100, values))
    counted = count_window_cells(monkeypatch)
    for alpha in (0.0, 0.5):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SpecParseError, match="must be finite"):
                GridFunction(f.domain, ref_fractional_maximal(f, alpha, EXACT))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="maximal function overflows"):
                fractional_maximal(f, alpha)
    if values == 1e307:
        # a cumulative that is not finite prunes nothing
        assert counted[0] == 2 * 100 * 100


@pytest.mark.parametrize("dimension, call, what", [
    (1, lambda f: fractional_maximal(f, 0.5), "the fractional maximal function"),
    (1, lambda f: fractional_maximal(f, 0.5, radii=DYADIC), "the fractional maximal function"),
    (2, lambda f: fractional_maximal(f, 0.5), "a box sum"),
    (1, lambda f: fractional_maximal_uncentered(f, 0.5), "the uncentered maximal function"),
    (1, lambda f: maximal_pair_lower_bound(f, make_tu_pair(Cube((0.1,), 0.02), 5.0), 0.5),
     "the uncentered maximal function"),
    (1, lambda f: riesz_potential(f, 0.5), "the Riesz potential"),
    (2, lambda f: riesz_potential(f, 0.5), "the Riesz potential"),
    (1, lambda f: box_sums(f, 1), "a box sum"),
    (2, lambda f: box_sums(f, [1, 3]), "a box sum"),
    (1, lambda f: averaging_op(f, MeasurableSet.from_cube(Cube((0.5,), 0.5))),
     "the averaging operator"),
    (2, lambda f: averaging_op(f, MeasurableSet.from_cube(Cube((0.5, 0.5), 0.5)), 0.5),
     "the averaging operator"),
    (1, lambda f: cube_average(f, Cube((0.5,), 0.5)), "the cube average"),
    (2, lambda f: cube_average(f, Cube((0.5, 0.5), 0.5)), "the cube average"),
    # the 16 base cells sum to 1.6e308, within range, and the kernel exceeds 1
    (1, lambda f: czo_pair_lower_bound(riesz_kernel(0.5, 1), f,
                                       make_tu_pair(Cube((0.1,), 0.08), 4.0)),
     "the kernel integral"),
], ids=["maximal-1d", "maximal-dyadic", "maximal-2d", "uncentered", "pair-bound", "riesz-1d",
        "riesz-2d", "box-sums-1d", "box-sums-2d", "averaging-1d", "averaging-2d",
        "cube-average-1d", "cube-average-2d", "czo-pair-bound"])
def test_overflow_of_finite_data_is_a_precondition_failure(dimension, call, what):
    # 100 cells of 1e307: every value is finite, their sum is not
    grid = GridDomain(((0.0, 1.0),) * dimension, (100,) if dimension == 1 else (10, 10))
    f = GridFunction(grid, np.full(grid.cells, 1e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError,
                           match=f"^{what} overflows the float range on this data$"):
            call(f)


@pytest.mark.parametrize("dimension, call, message", [
    (2, lambda f: fractional_maximal_uncentered(f, 0.5),
     "uncentered maximal is implemented in one dimension"),
    (2, lambda f: maximal_pair_lower_bound(f, make_tu_pair(Cube((0.1, 0.1), 0.02), 5.0), 0.5),
     "pair lower bound is implemented in one dimension"),
    (3, lambda f: riesz_potential(f, 0.5), "potential is implemented for dimensions 1 and 2"),
    (2, lambda f: czo_pair_lower_bound(riesz_kernel(0.5, 1), f,
                                       make_tu_pair(Cube((0.1, 0.1), 0.02), 5.0)),
     "kernel dimension does not match the grid"),
], ids=["uncentered-plane", "pair-bound-plane", "riesz-3d", "czo-kernel-line-on-plane"])
def test_operator_outside_its_dimensions_is_refused(dimension, call, message):
    grid = GridDomain(((0.0, 1.0),) * dimension, (8,) * dimension)
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        call(GridFunction(grid, np.ones(grid.cells)))


@pytest.mark.parametrize("cells", [2, 16])
def test_subnormal_cell_width_raises_precondition(cells):
    grid = line_grid(0.0, 2e-310, cells)
    f = GridFunction(grid, np.ones(cells))
    with pytest.raises(PreconditionError, match="cell width"):
        fractional_maximal(f, 0.0)
    with pytest.raises(PreconditionError, match="cell width"):
        fractional_maximal_uncentered(f, 0.0)
    plane = GridDomain(((0.0, 2e-210), (0.0, 2e-210)), (cells, cells))
    with pytest.raises(PreconditionError, match="cell width"):
        fractional_maximal(GridFunction(plane, np.ones((cells, cells))), 0.5)


def test_pair_bound_on_subnormal_cells_raises_precondition():
    grid = line_grid(0.0, 2e-310, 64)
    h = grid.h
    pair = make_tu_pair(Cube((3.0 * h,), 2.0 * h), 5.0)
    with pytest.raises(PreconditionError, match="cell width"):
        maximal_pair_lower_bound(GridFunction(grid, np.ones(64)), pair, 0.0)


def test_uncentered_matches_reference_bitwise(rng):
    # 1200 cells take the table in several blocks of rows
    for cells in (1, 7, 300, 1200):
        grid = line_grid(0.0, 3.0, cells)
        for alpha in (0.0, 0.5, 0.8):
            f = GridFunction(grid, rng.uniform(-1.0, 2.0, cells))
            got = fractional_maximal_uncentered(f, alpha).values
            assert np.array_equal(got, ref_uncentered(f, alpha)), f"cells={cells}, alpha={alpha}"



def count_table_entries(monkeypatch):
    """Count the entries of every uncentered table block or gathered tile
    that is computed."""
    counted = [0]
    interval_values, tile_values = operators._interval_values, operators._tile_values

    def counting(cum, weight, r0, r1, s, e):
        counted[0] += (r1 - r0) * (e - s)
        return interval_values(cum, weight, r0, r1, s, e)

    def counting_tiles(cum, weight, a, b):
        counted[0] += np.broadcast(a, b).size
        return tile_values(cum, weight, a, b)

    monkeypatch.setattr(operators, "_interval_values", counting)
    monkeypatch.setattr(operators, "_tile_values", counting_tiles)
    return counted


def test_uncentered_computes_a_third_of_the_table_at_most(rng, monkeypatch):
    cells = 2048
    f = GridFunction(line_grid(0.0, 1.0, cells), rng.uniform(0.0, 1.0, cells))
    counted = count_table_entries(monkeypatch)
    got = fractional_maximal_uncentered(f, 0.5).values
    assert got.tobytes() == ref_uncentered(f, 0.5).tobytes()
    # every column from the first row of each block on, as without the floor
    rows = operators._BLOCK_VALUES // cells
    whole = sum((min(r0 + rows, cells) - r0) * (cells - r0) for r0 in range(0, cells, rows))
    assert counted[0] <= whole // 3, counted[0] / whole


def uncentered_inputs(cells, rng):
    """Lognormal, indicator, single-spike and all-zero data on a line."""
    spike = np.zeros(cells)
    spike[cells // 3] = 2.5
    return {"lognormal": rng.lognormal(0.0, 20.0, cells),
            "indicator": (np.abs(np.arange(cells) - 0.6 * cells) < 5) * 1.0,
            "spike": spike, "zeros": np.zeros(cells)}


def test_uncentered_in_many_row_blocks_matches_reference_bitwise(rng, monkeypatch):
    # blocks of 3 rows: the prefix/suffix floor and the column bounds prune
    cells = 90
    monkeypatch.setattr(operators, "_BLOCK_VALUES", 3 * cells)
    grid = line_grid(0.0, 2.0, cells)
    for name, values in uncentered_inputs(cells, rng).items():
        f = GridFunction(grid, values)
        for alpha in (0.0, 0.5, 0.9):
            want = ref_uncentered(f, alpha)
            got = fractional_maximal_uncentered(f, alpha).values
            assert got.tobytes() == want.tobytes(), f"{name}, alpha={alpha}"
            for lo, hi in [(0, 7), (0, 1), (cells - 7, cells), (cells - 1, cells), (40, 52)]:
                assert_run_matches_reference(f, alpha, lo, hi)


def assert_run_matches_reference(f, alpha, lo, hi):
    got = _uncentered_on(f, alpha, lo, hi)
    want = ref_uncentered(f, alpha)[lo:hi]
    assert got.tobytes() == want.tobytes(), f"alpha={alpha}, run {lo}..{hi}: {got} vs {want}"


def test_uncentered_blocks_around_the_run_match_reference_bitwise(rng, monkeypatch):
    # 30 columns from lo = 10 give blocks of 4 rows: boundaries at 4 and 8 fall
    # before lo, the block 8..12 straddles it and 12, 16, 20, 24 fall in the run
    monkeypatch.setattr(operators, "_BLOCK_VALUES", 120)
    grid = line_grid(0.0, 2.0, 40)
    for alpha in (0.0, 0.5, 0.9):
        f = GridFunction(grid, rng.uniform(-1.0, 2.0, 40))
        assert_run_matches_reference(f, alpha, 10, 25)
        assert_run_matches_reference(f, alpha, 0, 40)


@pytest.mark.parametrize("block", [operators._BLOCK_VALUES, 7])
def test_uncentered_runs_at_the_ends_match_reference_bitwise(block, rng, monkeypatch):
    monkeypatch.setattr(operators, "_BLOCK_VALUES", block)
    cells = 33
    f = GridFunction(line_grid(0.0, 1.0, cells), rng.uniform(0.0, 1.0, cells))
    for lo, hi in [(0, 9), (0, 1), (20, cells), (cells - 1, cells), (0, cells), (16, 17)]:
        assert_run_matches_reference(f, 0.5, lo, hi)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["zero", "negative-zero"])
def test_uncentered_zero_data_matches_reference_bitwise(sign):
    f = GridFunction(line_grid(0.0, 1.0, 50), np.full(50, sign * 0.0))
    for alpha in (0.0, 0.5):
        for lo, hi in [(0, 50), (12, 30), (49, 50)]:
            assert_run_matches_reference(f, alpha, lo, hi)


@pytest.mark.parametrize("cells", [1, 2])
def test_uncentered_on_one_and_two_cells_matches_reference_bitwise(cells, rng):
    grid = line_grid(0.0, 1.0, cells)
    for values in (rng.uniform(0.0, 2.0, cells), np.zeros(cells), np.array([-0.0, 3.0][:cells])):
        f = GridFunction(grid, values)
        for lo in range(cells):
            for hi in range(lo + 1, cells + 1):
                assert_run_matches_reference(f, 0.5, lo, hi)


def paircheck_runs(rng, count):
    """(f, lo, hi): the partner-cube runs of random `varlp paircheck` pairs
    on 512 cells, where every table is one block of rows."""
    for _ in range(count):
        f, pair = random_paircheck_pair(rng)
        run, = f.domain.box_cells(pair.partner.as_box())
        yield f, run.start, run.stop


def test_one_block_pair_runs_match_reference_bitwise(rng):
    for f, lo, hi in paircheck_runs(rng, 20):
        want = {alpha: ref_uncentered(f, alpha)[lo:hi] for alpha in (0.0, 0.5, 0.9)}
        for alpha, values in want.items():
            got = _uncentered_on(f, alpha, lo, hi)
            assert got.tobytes() == values.tobytes(), f"alpha={alpha}, run {lo}..{hi}"


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_one_block_runs_match_reference_bitwise(alpha, rng):
    # the covering entry, the tiles before the run and the run's columns skip
    # against each of these; runs at both ends, of one cell and of all cells
    cells = 512
    grid = line_grid(0.0, 1.0, cells)
    inputs = uncentered_inputs(cells, rng)
    inputs["cubic-ramp"] = (np.arange(cells) / cells) ** 3
    inputs["short-indicator"] = ((np.arange(cells) >= 100) & (np.arange(cells) < 103)) * 1.0
    inputs["negative-zeros"] = np.full(cells, -0.0)
    inputs["uniform"] = rng.uniform(0.0, 1.0, cells)
    # a prefix [0, 255] or a suffix [256, n - 1] beats every interval that
    # holds the run's last or first cell
    inputs["step-down"] = (np.arange(cells) < 256) * 1.0
    inputs["step-up"] = (np.arange(cells) >= 256) * 1.0
    runs = [(0, cells), (0, 1), (0, 40), (1, cells), (300, cells), (cells - 1, cells), (101, 102),
            (137, 210), (20, 30), (450, 500), (200, 257), (255, 300)]
    for name, values in inputs.items():
        f = GridFunction(grid, values)
        want = ref_uncentered(f, alpha)
        for lo, hi in runs:
            got = _uncentered_on(f, alpha, lo, hi)
            assert got.tobytes() == want[lo:hi].tobytes(), f"{name}, run {lo}..{hi}"


def test_one_block_pair_runs_compute_a_quarter_of_the_table_at_most(rng, monkeypatch):
    counted = count_table_entries(monkeypatch)
    whole = 0
    for f, lo, hi in paircheck_runs(rng, 100):
        _uncentered_on(f, 0.5, lo, hi)
        whole += hi * (f.values.size - lo)
    # about 7% on these pairs
    assert counted[0] <= whole // 4, counted[0] / whole


def test_maximal_rejects_bad_alpha():
    grid = line_grid(0.0, 1.0, 32)
    f = GridFunction(grid, np.ones(32))
    with pytest.raises(PreconditionError):
        fractional_maximal(f, 1.0)
    with pytest.raises(PreconditionError):
        fractional_maximal(f, -0.1)
    with pytest.raises(PreconditionError):
        fractional_maximal(f, 0.5, radii="OTHER")


# -- riesz potential -----------------------------------------------------------


def test_riesz_gamma_value():
    got = riesz_gamma(0.5, 1)
    assert got == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
    # independent route through the gamma function
    for alpha, n in ((0.5, 1), (0.3, 1), (0.8, 2), (1.5, 2)):
        want = gamma((n - alpha) / 2.0) / (2.0 ** alpha * math.pi ** (n / 2.0) * gamma(alpha / 2.0))
        assert riesz_gamma(alpha, n) == pytest.approx(want, rel=1e-12), f"alpha={alpha}, n={n}"


def test_riesz_potential_interval_closed_form():
    # I_alpha of an interval indicator integrates the kernel exactly; the
    # singular kernel limits midpoint quadrature to O(h^alpha), so check a
    # measured error level and that refinement actually shrinks it
    a, b, alpha = 0.5, 1.5, 0.5

    def closed(x, g):
        if a < x < b:
            return g * ((x - a) ** alpha + (b - x) ** alpha) / alpha
        far, near = max(abs(x - a), abs(x - b)), min(abs(x - a), abs(x - b))
        return g * (far ** alpha - near ** alpha) / alpha

    def worst_error(cells):
        grid = line_grid(0.0, 2.0, cells)
        f = indicator_on(grid, a, b)
        out = riesz_potential(f, alpha)
        g = riesz_gamma(alpha, 1)
        mids = grid.axis_midpoints(0)
        rels = []
        for target in (0.75, 1.0, 1.3, 0.2, 1.9):
            idx = int(np.argmin(np.abs(mids - target)))
            x = float(mids[idx])
            want = closed(x, g)
            rels.append(abs(float(out.values[idx]) - want) / want)
        return max(rels)

    coarse, fine = worst_error(160), worst_error(640)
    assert coarse < 6e-3, f"coarse-grid relative error {coarse}"
    assert fine < 2.5e-3, f"fine-grid relative error {fine}"
    assert fine < 0.8 * coarse, f"no convergence: {coarse} -> {fine}"


def test_riesz_potential_zero_and_preconditions():
    grid = line_grid(0.0, 1.0, 32)
    zero = GridFunction(grid, np.zeros(32))
    assert np.all(riesz_potential(zero, 0.5).values == 0.0)
    f = GridFunction(grid, np.ones(32))
    with pytest.raises(PreconditionError):
        riesz_potential(f, 0.0)
    with pytest.raises(PreconditionError):
        riesz_potential(f, 1.0)


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-160, 1e160, 1e300])
def test_riesz_potential_is_homogeneous_at_extreme_scales(s):
    # I_alpha(chi(./s)) = s^alpha I_alpha chi: the kernel reads |x - y|
    # without squaring the offsets, whose squares leave the float range
    alpha = 0.5
    unit = indicator_on(line_grid(-1.0, 1.0, 64), -0.5, 0.5)
    scaled = GridFunction(line_grid(-s, s, 64), unit.values)
    np.testing.assert_allclose(riesz_potential(scaled, alpha).values / s ** alpha,
                               riesz_potential(unit, alpha).values, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("cells", [(1500,), (40, 40), (50, 18)], ids=["1d", "2d-square", "2d-50x18"])
def test_riesz_matches_dense_oracle(cells, rng):
    grid = GridDomain(tuple((0.0, c / 40.0) for c in cells), cells)
    for alpha in (0.3, 0.5, 0.9):
        pos = GridFunction(grid, rng.uniform(0.0, 1.0, cells))
        got, want = riesz_potential(pos, alpha).values, ref_riesz(pos, alpha)
        assert np.max(np.abs(got - want) / want) <= 1e-12, f"positive data, alpha={alpha}"
        signed = GridFunction(grid, rng.uniform(-1.0, 1.0, cells))
        got, want = riesz_potential(signed, alpha).values, ref_riesz(signed, alpha)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (
            f"signed data, alpha={alpha}"
        )


def test_riesz_potential_matches_replaced_kernel_build(rng):
    # on a line the cached riesz_kernel spectrum holds the bits of the
    # replaced build, so the potential does too
    for cells in (256, 1000, 4000):
        f = GridFunction(line_grid(-0.5, 0.5, cells), rng.uniform(0.0, 1.0, cells))
        for alpha in (0.25, 0.5, 0.9):
            got, want = riesz_potential(f, alpha).values, ref_riesz_fft(f, alpha)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()], (
                f"{cells} cells, alpha={alpha}")
    # in the plane the kernel reads the norm of h z, not h times the norm of z
    for c in (48, 64, 100, 256):
        plane = GridDomain(((-0.5, 0.5), (-0.5, 0.5)), (c, c))
        f = GridFunction(plane, rng.uniform(0.0, 1.0, (c, c)))
        for alpha in (0.5, 1.5):
            got, want = riesz_potential(f, alpha).values, ref_riesz_fft(f, alpha)
            assert np.max(np.abs(got - want) / want) <= 1e-15, f"{c}^2 cells, alpha={alpha}"


def test_riesz_potential_reuses_the_cached_kernel_spectrum():
    operators._kernel_spectrum.cache_clear()
    ones, twos = (GridFunction(line_grid(0.0, 1.0, 300), np.full(300, v)) for v in (1.0, 2.0))
    first = riesz_potential(ones, 0.5).values
    info = operators._kernel_spectrum.cache_info()
    # an equal grid and order read the spectrum the first call computed
    assert riesz_kernel(0.5, 1) is riesz_kernel(0.5, 1)
    assert riesz_potential(twos, 0.5).values.tolist() == (2.0 * first).tolist()
    assert operators._kernel_spectrum.cache_info().hits == info.hits + 1
    # the pair bound's spectrum of the same kernel and grid is 0 at offset 0,
    # an entry of its own
    pair = make_tu_pair(Cube((0.1,), 0.05), 8.0)
    want = czo_pair_lower_bound(riesz_kernel(0.5, 1), ones, pair).lhs_min
    assert operators._kernel_spectrum.cache_info().currsize == info.currsize + 1
    operators._kernel_spectrum.cache_clear()
    assert czo_pair_lower_bound(riesz_kernel(0.5, 1), ones, pair).lhs_min.hex() == want.hex()


def test_riesz_potential_runs_past_twenty_thousand_cells():
    grid = line_grid(0.0, 1.0, 20001)
    f = GridFunction(grid, np.ones(20001))
    out = riesz_potential(f, 0.5).values
    # the potential of the indicator of [0, 1] is symmetric and largest at the center
    assert out.shape == (20001,)
    assert np.allclose(out, out[::-1], rtol=1e-12)
    assert int(np.argmax(out)) == 10000


def test_maximal_below_potential(rng):
    # M_alpha f <= c I_alpha f with c = 2^(alpha-n) n^((n-alpha)/2) / gamma(alpha, n)
    grid = line_grid(0.0, 2.0, 128)
    alpha = 0.5
    c = 2.0 ** (alpha - 1.0) / riesz_gamma(alpha, 1)
    worst = 0.0
    for trial in range(5):
        f = GridFunction(grid, rng.uniform(0.0, 2.0, 128))
        m = fractional_maximal(f, alpha).values
        pot = riesz_potential(f, alpha).values
        ratio = float(np.max(m / pot))
        worst = max(worst, ratio)
        assert ratio <= c * 1.05, f"trial {trial}: sampled ratio {ratio} vs {c}"
    assert worst > 0.0


# -- pair geometry -------------------------------------------------------------


def test_make_tu_pair_line():
    pair = make_tu_pair(Cube((0.0,), 1.0), 4.0)
    assert pair.partner.center == pytest.approx((4.0,))
    assert pair.partner.radius == 1.0
    assert pair == TUPair(Cube((0.0,), 1.0), 4.0, (1.0,))


def test_make_tu_pair_plane_scales_with_dimension():
    pair = make_tu_pair(Cube((0.0, 0.0), 1.0), 5.0)
    assert pair.partner.center[0] == pytest.approx(5.0 * math.sqrt(2.0))
    assert pair.partner.center[1] == pytest.approx(0.0)
    assert pair == TUPair(Cube((0.0, 0.0), 1.0), 5, (1.0, 0.0))


def test_make_tu_pair_zero_shift_and_direction():
    pair = make_tu_pair(Cube((1.0,), 2.0), 0.0)
    assert pair.partner.center == pytest.approx((1.0,))
    with pytest.raises(PreconditionError):
        make_tu_pair(Cube((0.0, 0.0), 1.0), 4.0, direction=(1.0, 1.0))
    with pytest.raises(PreconditionError, match="unit vector"):
        TUPair(Cube((0.0,), 1.0), 4.0, (1.0, 0.0))
    # the partner is computed from base, t and direction, never given
    with pytest.raises(TypeError):
        TUPair(Cube((0.0,), 1.0), 4.0, (1.0,), Cube((3.5,), 1.0))


def test_covering_cube_contains_both():
    pair = make_tu_pair(Cube((0.0,), 1.0), 4.0)
    cover = covering_cube(pair)
    assert cover.radius == pytest.approx(3.0), "(t+2) r sqrt(n) / 2"
    assert cover.center == pytest.approx((2.0,))
    for point in (-1.0, 1.0, 3.0, 5.0):
        assert abs(point - cover.center[0]) <= cover.radius


# -- maximal pair lemma --------------------------------------------------------


def test_pair_bound_indicator_alpha_zero():
    grid = line_grid(-4.0, 8.0, 384)
    f = indicator_on(grid, -1.0, 1.0)
    pair = make_tu_pair(Cube((0.0,), 1.0), 4.0)
    rep = maximal_pair_lower_bound(f, pair, 0.0)
    assert rep.rhs == pytest.approx(1.0 / 3.0, rel=1e-9), "((t+2)/2)^(-1) with unit average"
    assert rep.holds, f"lhs_min {rep.lhs_min} vs rhs {rep.rhs}"


def test_pair_bound_zero_function():
    grid = line_grid(-4.0, 8.0, 192)
    f = GridFunction(grid, np.zeros(192))
    rep = maximal_pair_lower_bound(f, make_tu_pair(Cube((0.0,), 1.0), 4.0), 0.0)
    assert rep.lhs_min == 0.0 and rep.rhs == 0.0 and rep.holds


def test_pair_bound_random_support(rng):
    grid = line_grid(-4.0, 10.0, 448)
    mids = grid.axis_midpoints(0)
    inside = np.abs(mids) < 1.0
    pair = make_tu_pair(Cube((0.0,), 1.0), 6.0)
    for trial in range(10):
        vals = np.zeros(448)
        vals[inside] = rng.uniform(0.0, 2.0, int(inside.sum()))
        rep = maximal_pair_lower_bound(GridFunction(grid, vals), pair, 0.5)
        assert rep.holds, f"trial {trial}: lhs {rep.lhs_min} rhs {rep.rhs}"


def test_pair_bound_matches_reference_bitwise(rng):
    for trial in range(200):
        # every twentieth draw on a grid long enough for several blocks of table rows
        f, pair = random_paircheck_pair(rng, cells=2048 if trial % 20 == 0 else 512)
        rep = maximal_pair_lower_bound(f, pair, 0.5)
        pmask = MeasurableSet.from_cube(pair.partner).mask_on(f.domain)
        want = float(ref_uncentered(f, 0.5)[pmask].min())
        assert rep.lhs_min == want, f"trial {trial}: {rep.lhs_min!r} vs {want!r}"


def test_pair_bound_needs_separation():
    grid = line_grid(-4.0, 8.0, 192)
    f = GridFunction(grid, np.ones(192))
    with pytest.raises(PreconditionError):
        maximal_pair_lower_bound(f, make_tu_pair(Cube((0.0,), 1.0), 3.0), 0.0)


# -- czo pair lemma ------------------------------------------------------------


def test_kernel_threshold_power_kernel():
    kern = riesz_kernel(0.5, 1)
    t0 = kernel_threshold(kern)
    assert t0 == pytest.approx(2.0 * (1.0 + 2.0 ** 1.5), rel=1e-12), "just above 7.65"
    # a kernel with a huge lower constant falls back to the floor of 4
    fat = FractionalKernel(fn=kern.fn, alpha=0.5, c0=1.0, delta=1.0, lower=100.0, dimension=1)
    assert kernel_threshold(fat) == 4.0


def test_czo_pair_bound_holds_for_riesz():
    grid = line_grid(-4.0, 12.0, 512)
    f = indicator_on(grid, -1.0, 1.0)
    kern = riesz_kernel(0.5, 1)
    pair = make_tu_pair(Cube((0.0,), 1.0), 8.0)
    rep = czo_pair_lower_bound(kern, f, pair)
    assert rep.applicable
    want_rhs = 2.0 ** (1.0 - 0.5 - 1.0) * 8.0 ** (0.5 - 1.0) * 2.0 ** 0.5
    assert rep.rhs == pytest.approx(want_rhs, rel=1e-9)
    assert rep.holds, f"lhs {rep.lhs_min} vs rhs {rep.rhs}"


def test_czo_pair_below_threshold_not_applicable():
    grid = line_grid(-4.0, 12.0, 256)
    f = indicator_on(grid, -1.0, 1.0)
    rep = czo_pair_lower_bound(riesz_kernel(0.5, 1), f, make_tu_pair(Cube((0.0,), 1.0), 5.0))
    assert not rep.applicable, "t below the threshold makes no claim"


def test_czo_degenerate_kernel_not_applicable():
    grid = line_grid(-4.0, 12.0, 256)
    f = indicator_on(grid, -1.0, 1.0)
    kern = riesz_kernel(0.5, 1)
    flat = FractionalKernel(fn=kern.fn, alpha=0.5, c0=1.0, delta=1.0, lower=0.0, dimension=1)
    rep = czo_pair_lower_bound(flat, f, make_tu_pair(Cube((0.0,), 1.0), 8.0))
    assert not rep.applicable and not rep.holds
    assert rep.t0 == math.inf


def test_kernel_sign_coherent_on_valid_pair():
    kern = riesz_kernel(0.5, 1)
    pair = make_tu_pair(Cube((0.0,), 1.0), 8.0)
    assert kernel_sign_coherent(kern, pair)


def _wavy_kernel(z):
    """The profile of a 1-D kernel that changes sign across a pair."""
    return np.cos(3.0 * z[..., 0])


def test_kernel_sign_coherent_matches_one_point_loop():
    def one_point_loop(kernel, pair, samples=200, seed=0):
        # kernel_sign_coherent as it was, one partner sample per kernel call
        rng = np.random.default_rng(seed)
        n = pair.base.dimension
        qb, pb = np.asarray(pair.base.as_box()), np.asarray(pair.partner.as_box())
        x = rng.uniform(qb[:, 0], qb[:, 1], size=(samples, n))
        y = rng.uniform(pb[:, 0], pb[:, 1], size=(samples, n))
        signs = set()
        for yi in y[: min(samples, 40)]:
            v = kernel(x, yi[None])
            signs.update(np.sign(v[v != 0.0]).tolist())
        return len(signs) <= 1

    wavy = FractionalKernel(fn=_wavy_kernel, alpha=0.5, c0=1.0, delta=1.0, lower=1.0,
                            dimension=1)
    answers = []
    for kernel in (riesz_kernel(0.5, 1), riesz_kernel(0.0, 1), wavy):
        for t in (5.0, 8.0, 12.0):
            for samples, seed in ((200, 0), (7, 3), (1000, 11)):
                pair = make_tu_pair(Cube((0.0,), 1.0), t)
                got = kernel_sign_coherent(kernel, pair, samples=samples, seed=seed)
                assert got == one_point_loop(kernel, pair, samples=samples, seed=seed)
                answers.append(got)
    plane = make_tu_pair(Cube((0.5, 2.0), 0.25), 9.0)
    assert kernel_sign_coherent(riesz_kernel(0.5, 2), plane)
    assert True in answers and False in answers


@pytest.mark.parametrize("n", [1, 2])
def test_riesz_kernel_block_matches_one_point_calls(n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, (300, n))
    ys = rng.uniform(2.0, 5.0, (37, n))
    # a partner point on a cell of x gives the kernel's inf at alpha < n
    ys[5] = x[17]
    for alpha in (0.0, 0.5, 0.8 * n):
        kern = riesz_kernel(alpha, n)
        rows = np.concatenate([kern(x, y[None]) for y in ys])
        block = kern(x, ys)
        assert block.shape == (37, 300)
        assert np.array_equal(block.view(np.int64), rows.view(np.int64))


def ref_czo_pair_lower_bound(kernel, f, pair):
    """czo_pair_lower_bound as it was with full-grid masks and points, for
    applicable kernels: (lhs_min, rhs)."""
    n = f.domain.dimension
    q = pair.base
    alpha = kernel.alpha
    rhs = (2.0 ** (n - alpha - 1.0) * kernel.lower * (abs(pair.t) * math.sqrt(n)) ** (alpha - n)
           * q.volume ** (alpha / n) * cube_average(f, q))
    qmask = MeasurableSet.from_cube(q).mask_on(f.domain)
    pmask = MeasurableSet.from_cube(pair.partner).mask_on(f.domain)
    pts = f.domain.points()
    fvals = f.values.ravel()
    qsel = qmask.ravel()
    xq, fq = pts[qsel], fvals[qsel]
    lhs_min = math.inf
    for y in pts[pmask.ravel()]:
        val = float(np.dot(kernel(xq, y[None])[0], fq)) * f.domain.cell_volume
        lhs_min = min(lhs_min, abs(val))
    return lhs_min, rhs


def ref_czo_pair_fft_lhs_min(kernel, f, pair):
    """lhs_min of czo_pair_lower_bound as one convolution written out on the
    grid doubled in every axis: f on the base cells (0 elsewhere), and at each
    index m of an axis of c cells K at the offset x - y congruent to -m modulo
    2c, taken in (-c, c], times the cell volume, with 0 at offset 0."""
    dom = f.domain
    shape = tuple(2 * c for c in dom.cells)
    fpad = np.zeros(shape)
    qmask = MeasurableSet.from_cube(pair.base).mask_on(dom)
    fpad[tuple(slice(0, c) for c in dom.cells)] = np.where(qmask, f.values, 0.0)
    offsets = []
    for c in dom.cells:
        r = -np.arange(2 * c) % (2 * c)
        offsets.append(np.where(r > c, r - 2 * c, r))
    z = dom.h * np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    with np.errstate(divide="ignore"):
        kpad = kernel.fn(z) * dom.cell_volume
    kpad[(0,) * dom.dimension] = 0.0
    axes = tuple(range(dom.dimension))
    conv = np.fft.irfftn(np.fft.rfftn(fpad) * np.fft.rfftn(kpad), s=shape, axes=axes)
    tq = conv[tuple(slice(0, c) for c in dom.cells)]
    pmask = MeasurableSet.from_cube(pair.partner).mask_on(dom)
    return float(np.abs(tq[pmask]).min())


def test_czo_pair_bound_matches_reference_bitwise(tmp_path, monkeypatch):
    from varlp import cli

    calls = []

    def record(kernel, f, pair):
        rep = czo_pair_lower_bound(kernel, f, pair)
        calls.append((kernel, f, pair, rep))
        return rep

    monkeypatch.setattr(cli, "czo_pair_lower_bound", record)
    for seed, alpha in ((0, 0.5), (3, 0.25), (7, 0.8)):
        argv = ["paircheck", "--mode", "czo", "--alpha", str(alpha), "--seed", str(seed),
                "--out", str(tmp_path / str(seed))]
        cli.main(argv)
    assert len(calls) == 75
    # the rhs is the per-point reference's; lhs_min is the written-out
    # convolution's, so the FFT path reads its cells and offsets as that does
    for kernel, f, pair, rep in calls:
        assert rep.rhs == ref_czo_pair_lower_bound(kernel, f, pair)[1]
        assert rep.lhs_min.hex() == ref_czo_pair_fft_lhs_min(kernel, f, pair).hex()


def test_czo_pair_bound_across_chunks_matches_reference_bitwise():
    # the partner cells are read in one convolution from a spectrum shared by
    # the pairs of a check: the bits of a pair do not depend on that sharing,
    # nor on f outside the base cube
    line = line_grid(-4.0, 12.0, 512)
    f = GridFunction(line, np.random.default_rng(2).uniform(0.0, 1.0, 512))
    plane = GridDomain(((0.0, 8.0), (0.0, 4.0)), (64, 32))
    g = GridFunction(plane, np.random.default_rng(5).uniform(0.0, 1.0, (64, 32)))
    cases = [(riesz_kernel(0.5, 1), f, make_tu_pair(Cube((0.0,), 1.0), 8.0)),
             (riesz_kernel(0.5, 1), f, make_tu_pair(Cube((2.0,), 0.5), -9.0)),
             (riesz_kernel(0.5, 2), g, make_tu_pair(Cube((0.5, 2.0), 0.25), 9.0)),
             (riesz_kernel(0.5, 2), g, make_tu_pair(Cube((7.0, 1.0), 0.25), 9.0,
                                                   (-math.sqrt(0.5), math.sqrt(0.5))))]
    for kernel, h, pair in cases:
        want = ref_czo_pair_fft_lhs_min(kernel, h, pair)
        assert want == pytest.approx(ref_czo_pair_lower_bound(kernel, h, pair)[0],
                                     rel=1e-12, abs=0.0)
        only_base = GridFunction(h.domain, np.where(
            MeasurableSet.from_cube(pair.base).mask_on(h.domain), h.values, 7.0))
        operators._kernel_spectrum.cache_clear()
        fresh = czo_pair_lower_bound(kernel, h, pair).lhs_min
        for got in (fresh, czo_pair_lower_bound(kernel, h, pair).lhs_min,
                    czo_pair_lower_bound(kernel, only_base, pair).lhs_min):
            assert got.hex() == want.hex()


def test_czo_pair_bound_matches_reference(tmp_path, monkeypatch):
    from varlp import cli

    calls = []

    def record(kernel, f, pair):
        rep = czo_pair_lower_bound(kernel, f, pair)
        calls.append((kernel, f, pair, rep))
        return rep

    monkeypatch.setattr(cli, "czo_pair_lower_bound", record)
    # pairs drawn as `paircheck` draws them, where the FFT rounding relative to
    # the partner values is largest at alpha 0 on the finest line
    for alpha in (0.0, 0.25, 0.5, 0.8, 0.95):
        for cells in (256, 4096, 16384):
            argv = ["paircheck", "--mode", "czo", "--alpha", str(alpha), "--cells", str(cells),
                    "--seed", "3", "--out", str(tmp_path / f"{alpha}-{cells}")]
            cli.main(argv)
    assert len(calls) == 5 * 3 * 25
    # a plane pair reads its two blocks of cells in row-major order
    plane = GridDomain(((0.0, 8.0), (0.0, 4.0)), (64, 32))
    f = GridFunction(plane, np.random.default_rng(5).uniform(0.0, 1.0, (64, 32)))
    kern = riesz_kernel(0.5, 2)
    pair = make_tu_pair(Cube((0.5, 2.0), 0.25), 9.0)
    calls.append((kern, f, pair, czo_pair_lower_bound(kern, f, pair)))
    for kernel, f, pair, rep in calls:
        lhs_min, rhs = ref_czo_pair_lower_bound(kernel, f, pair)
        assert rep.rhs == rhs
        assert rep.lhs_min == pytest.approx(lhs_min, rel=1e-12, abs=0.0)
    with pytest.raises(PreconditionError, match="pair cubes contain no grid cells"):
        czo_pair_lower_bound(kern, f, make_tu_pair(Cube((0.5, 2.0), 0.25), 40.0))
    # cubes that share a cell would read the kernel's pole
    line = line_grid(0.0, 1.0, 256)
    g = GridFunction(line, np.ones(256))
    for t in (0.0, 1.0):
        with pytest.raises(PreconditionError, match="^pair cubes share grid cells at t = "):
            czo_pair_lower_bound(riesz_kernel(0.5, 1), g, make_tu_pair(Cube((0.3,), 0.05), t))


def test_czo_kernel_spectrum_cache_keeps_each_kernel_and_grid_apart():
    wavy = FractionalKernel(fn=_wavy_kernel, alpha=0.5, c0=1.0, delta=1.0, lower=1.0,
                            dimension=1)
    cases = []
    for cells in (256, 512):
        f = GridFunction(line_grid(0.0, 1.0, cells),
                         np.random.default_rng(cells).uniform(0.0, 1.0, cells))
        pair = make_tu_pair(Cube((0.1,), 0.05), 8.0)
        for kernel in (riesz_kernel(0.5, 1), wavy):
            operators._kernel_spectrum.cache_clear()
            cases.append((kernel, f, pair, czo_pair_lower_bound(kernel, f, pair).lhs_min))
    operators._kernel_spectrum.cache_clear()
    for _ in range(2):
        for kernel, f, pair, want in cases + cases[::-1]:
            assert czo_pair_lower_bound(kernel, f, pair).lhs_min.hex() == want.hex()
    assert operators._kernel_spectrum.cache_info().currsize == 4
    spectrum = operators._kernel_spectrum(wavy, cases[0][1].domain, 0.0)
    with pytest.raises(ValueError, match="read-only"):
        spectrum[0] = 0.0


def test_averaging_op_of_a_subnormal_set_raises_precondition():
    # measure 2e-311 makes the normalizer measure^(alpha/n - 1) overflow
    line = GridDomain(((0.0, 2e-300),), (2,))
    ones = GridFunction(line, np.ones(2))
    with pytest.raises(PreconditionError,
                       match="^the averaging operator overflows the float range on this data$"):
        averaging_op(ones, MeasurableSet.from_cube(Cube((5e-301,), 1e-311)))


def test_underflowing_cell_volume_raises_precondition():
    # h = 1.25e-171 is a normal float, but h^2 underflows to 0
    plane = GridDomain(((0.0, 2e-170), (0.0, 2e-170)), (16, 16))
    ones = GridFunction(plane, np.ones((16, 16)))
    p = ExponentFunction.constant(2.0, plane.box)
    runs = {"maximal": lambda: fractional_maximal(ones, 0.5),
            "box_sums": lambda: box_sums(ones, 1),
            "riesz": lambda: riesz_potential(ones, 0.5),
            "norm": lambda: luxemburg_norm(ones, p),
            "cube_average": lambda: cube_average(ones, Cube((1e-170, 1e-170), 5e-171))}
    for name, run in runs.items():
        with pytest.raises(PreconditionError, match="cell width 1.25e-171 is too small"):
            run()


def test_cube_average_of_an_underflowing_cube_raises_precondition():
    # normal cells, but the cube volume (2e-170)^2 underflows to 0
    plane = GridDomain(((0.0, 1.0), (0.0, 1.0)), (10, 10))
    ones = GridFunction(plane, np.ones((10, 10)))
    with pytest.raises(PreconditionError,
                       match="^cube radius 1e-170 is too small: the cube volume underflows$"):
        cube_average(ones, Cube((0.05, 0.05), 1e-170))
