"""Averaging, fractional maximal and potential operators on grid functions.

Centered box integrals read one cumulative per axis, sampled at whole and
half cells: a cube centered at a cell midpoint whose radius is a whole or
half-whole number of cells has its faces on those positions, where the
cumulative of cell-constant data is exact, so every radius is two slices of
the same samples.  The uncentered maximal reads one table of lattice-interval
values through running maxima, and the Riesz potential is one FFT
convolution with the cell-offset kernel.  Everything uses the zero-extension
convention: a function is 0 outside its grid, and cube normalizers are never
clipped at the domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DomainError, PreconditionError
from .exponent import _gauss_nodes
from .grid import Cube, GridFunction, MeasurableSet

EXACT = "EXACT"
DYADIC = "DYADIC"

# values per block of stacked radii or of uncentered-table rows: 2 MiB of
# doubles, which measured faster than 4x larger or smaller blocks
_BLOCK_VALUES = 1 << 18


def _half_cumulative(arr, pad):
    """Cumulative of arr along its last axis at whole and at half cells.

    Returns `whole`, the samples at z = 0, 1, ..., c cells, and `mid`, those at
    z = 1/2, 3/2, ..., c - 1/2.  Each is lo + frac * (hi - lo) between the
    whole-cell cumulatives around z, with frac = 1 at the right end, so both
    are exact for cell-constant data.  Both carry `pad` copies of the end
    values on each side, so that windows past the grid saturate, matching
    extension of the data by zero.
    """
    cum = np.cumsum(arr, axis=-1)
    lo = np.concatenate([np.zeros(arr.shape[:-1] + (1,)), cum[..., :-1]], axis=-1)
    step = cum - lo
    # frac = 0 stays in the arithmetic, so each sample keeps the bits of linear
    # interpolation at z
    whole = np.concatenate([lo + 0.0 * step, lo[..., -1:] + 1.0 * step[..., -1:]], axis=-1)
    mid = lo + 0.5 * step
    left = np.repeat(whole[..., :1], pad, axis=-1)
    right = np.repeat(whole[..., -1:], pad, axis=-1)
    return (np.concatenate([left, whole, right], axis=-1),
            np.concatenate([left, mid, right], axis=-1))


def _window(whole, mid, pad, d, lo, hi, out):
    """Sums over the index windows [j + 1/2 - d/2, j + 1/2 + d/2], for cells
    j = lo .. hi-1 along the last axis, from the samples of _half_cumulative
    padded by `pad` >= (d + 1) // 2; written to out."""
    # window edges sit on half cells for whole radii, on whole cells otherwise
    src = whole if d % 2 else mid
    right, left = pad + (d + 1) // 2, pad - d // 2
    return np.subtract(src[..., right + lo:right + hi], src[..., left + lo:left + hi], out=out)


def _axis_box_sums(arr, doubled, stacked):
    """Window sums along the last axis, one slab per doubled radius d.  A
    `stacked` arr already holds one slab per radius along its first axis;
    otherwise all radii share one cumulative."""
    c = arr.shape[-1]
    # a window of 2c half cells or more covers the grid from every cell
    doubled = np.minimum(doubled, 2 * c)
    out = np.empty((len(doubled),) + (arr.shape[1:] if stacked else arr.shape))
    if not stacked:
        pad = (int(doubled.max(initial=0)) + 1) // 2
        whole, mid = _half_cumulative(arr, pad)
    for i, d in enumerate(doubled):
        if stacked:
            pad = (d + 1) // 2
            whole, mid = _half_cumulative(arr[i], pad)
        _window(whole, mid, pad, d, 0, c, out[i])
    return out


def box_sums(f, m):
    """Integral of f over the cube of index-radius m centered at every cell.

    m is a positive whole or half-whole number of cells, or a 1-D array of such
    radii; an array gives the sums for each radius stacked along a new first
    axis.
    """
    radii = np.asarray(m, dtype=float)
    doubled = 2.0 * radii.reshape(-1)
    if radii.ndim > 1 or not np.all(
        np.isfinite(doubled) & (doubled > 0.0) & (doubled == np.floor(doubled))
    ):
        raise PreconditionError(f"box radii must be positive multiples of half a cell, got {m!r}")
    arr = f.values
    # no window needs more than twice the longest axis; the cap keeps the cast exact
    doubled = np.minimum(doubled, 2.0 * max(arr.shape)).astype(np.int64)
    # axis by axis in order, each axis moved last while its windows are summed
    for axis in range(arr.ndim):
        stacked = axis > 0
        sums = _axis_box_sums(np.moveaxis(arr, axis + stacked, -1), doubled, stacked)
        arr = np.moveaxis(sums, -1, axis + 1)
    arr *= f.domain.cell_volume
    return arr if radii.ndim else arr[0]


def averaging_op(f, E, alpha=0.0):
    """Averaging operator: measure(E)^(alpha/n) times the mean of f over E, on E.

    The mean uses the full (unclipped) measure of E in the normalizer while
    the integral runs over the part of E inside the grid, so the result
    agrees with applying the whole-space operator to the zero-extended f.
    """
    if isinstance(E, Cube):
        E = MeasurableSet.from_cube(E)
    n = f.domain.dimension
    mask = E.mask_on(f.domain)
    if not mask.any():
        raise DomainError("averaging set does not meet the grid")
    measure = E.measure_exact() if E.is_box() else E.measure_on(f.domain)
    if measure <= 0.0:
        raise PreconditionError("averaging set must have positive measure")
    integral = float(f.values[mask].sum()) * f.domain.cell_volume
    out = np.zeros_like(f.values)
    out[mask] = measure ** (alpha / n - 1.0) * integral
    return GridFunction(f.domain, out)


def _radius_list(policy, m_max):
    if policy == EXACT:
        return list(range(1, m_max + 1))
    if policy == DYADIC:
        radii = []
        m = 1
        while m < m_max:
            radii.append(m)
            m *= 2
        radii.append(m)
        return radii
    raise PreconditionError(f"unknown radius policy {policy!r}")


def _overflow(h, what):
    return PreconditionError(f"cell width {h!r} is too small: {what} overflows")


def _line_maximal(absf, radius_list, scales, volume):
    """Max over the radii of (window sum * volume) * scale at every cell of a
    line, skipping the blocks of radii that cannot raise it (see
    fractional_maximal)."""
    c = absf.shape[0]
    radius_list = np.asarray(radius_list)
    # a window of c cells or more covers the grid from every cell
    doubled = 2 * np.minimum(radius_list, c)
    pad = int(doubled.max()) // 2
    whole, mid = _half_cumulative(absf, pad)
    # whole radii read mid only, padded with the ends of whole
    prune = np.isfinite(mid).all() and (mid[1:] >= mid[:-1]).all() and scales.min() > 0.0
    # the powers of two and the last radius
    seeded = (radius_list & (radius_list - 1)) == 0
    seeded[-1] = True
    first, rest = np.flatnonzero(seeded), np.flatnonzero(~seeded)
    size = max(1, _BLOCK_VALUES // c)
    blocks = [(first[k:k + size], False) for k in range(0, len(first), size)]
    blocks += [(rest[k:k + size], prune) for k in reversed(range(0, len(rest), size))]
    best = np.zeros(c)
    bound = np.empty(c)
    for radii, bounded in blocks:
        lo, hi = 0, c
        if bounded:
            _window(whole, mid, pad, doubled[radii[-1]], 0, c, bound)
            bound *= volume
            bound *= scales[radii].max()
            live = ~(bound <= best)
            if not live.any():
                continue
            lo, hi = int(live.argmax()), c - int(live[::-1].argmax())
        sums = np.empty((len(radii), hi - lo))
        for row, i in zip(sums, radii):
            _window(whole, mid, pad, doubled[i], lo, hi, row)
        sums *= volume
        sums *= scales[radii, None]
        np.maximum(best[lo:hi], sums.max(axis=0), out=best[lo:hi])
    return best


def fractional_maximal(f, alpha, radii=EXACT):
    """Centered fractional maximal function on the grid.

    Takes the sup of measure(Q)^(alpha/n - 1) * integral of |f| over Q over
    axis-parallel cubes Q centered at each cell midpoint whose radius is a
    whole number of cells (all of them for EXACT, powers of two for DYADIC).
    Radii stop once the cube swallows the whole grid from any position.

    On a line every radius is two slices of one half-cell cumulative.  The
    powers of two and the last radius are evaluated first, at every cell.
    The other radii follow in blocks from the largest down, and a block is
    evaluated only on the cells from the first to the last where its bound,
    (window sum at its largest radius * cell volume) * its largest scale, is
    not <= the max so far; a block with no such cell is skipped.  The bound
    is exact: the windows are differences of one array that never decreases,
    so no window shrinks as the radius grows, and a float product of
    nonnegative factors never shrinks as a factor grows.  Where the
    cumulative is not finite and nondecreasing, or a scale underflows to 0, a
    product could be nan and nothing is skipped.  Either way the result is
    bitwise that of evaluating every radius at every cell.  In higher
    dimensions blocks of radii go through box_sums.
    """
    n = f.domain.dimension
    if not (0.0 <= alpha < n):
        raise PreconditionError(f"need 0 <= alpha < n = {n}, got alpha = {alpha}")
    h = f.domain.h
    radius_list = _radius_list(radii, max(f.domain.cells))
    try:
        scales = np.array([(2.0 * m * h) ** (alpha - n) for m in radius_list])
    except OverflowError:
        raise _overflow(h, "the cube normalizer (2 m h)^(alpha - n)") from None
    absf = GridFunction(f.domain, np.abs(f.values))
    if n == 1:
        return GridFunction(f.domain, _line_maximal(absf.values, radius_list, scales,
                                                    f.domain.cell_volume))
    block = max(1, _BLOCK_VALUES // f.domain.total_cells)
    best = np.zeros(f.domain.cells)
    for start in range(0, len(radius_list), block):
        sums = box_sums(absf, radius_list[start:start + block])
        sums *= scales[start:start + block].reshape((-1,) + (1,) * n)
        np.maximum(best, sums.max(axis=0), out=best)
    return GridFunction(f.domain, best)


def _toeplitz(vec, start, shape):
    """Read-only view whose entry (i, k) is vec[start - i + k]."""
    step = vec.strides[0]
    return as_strided(vec[start:], shape=shape, strides=(-step, step), writeable=False)


def _uncentered_on(f, alpha, lo, hi):
    """Uncentered fractional maximal of a 1-D grid function at cells lo .. hi-1.

    With F(a, b) the value of the lattice interval of cells a .. b, the result
    at cell j is the max of F over a <= j <= b.  The table of F over rows a < hi
    and columns b >= lo is built in blocks of rows.  F depends on the length
    only through b - a, so the weights are a Toeplitz view of one vector
    indexed by n_cells - 1 + b - a, and 0 where b < a, where there is no
    interval.  Rows a < lo hold intervals only and only their column max is
    read, so they fold into the carried column max.  The rows from lo on take
    a running max down a, carried from block to block; row j then masks its
    columns b < j through a second Toeplitz view and takes its max.
    """
    if not (0.0 <= alpha < 1.0):
        raise PreconditionError(f"need 0 <= alpha < 1, got {alpha}")
    h = f.domain.h
    n_cells = f.values.shape[0]
    cum = np.concatenate([[0.0], np.cumsum(np.abs(f.values))]) * h
    with np.errstate(over="ignore"):
        weight = np.concatenate([np.zeros(n_cells - 1),
                                 ((np.arange(n_cells) + 1.0) * h) ** (alpha - 1.0)])
    # the one-cell interval has the largest weight
    if not math.isfinite(weight[n_cells - 1]):
        raise _overflow(h, "the interval weight (length)^(alpha - 1)")
    # a min with -inf masks an entry and a min with +inf keeps its bits; adding
    # -inf instead would turn an overflowed +inf entry into nan
    ceiling = np.concatenate([np.full(n_cells - 1, -np.inf), np.full(n_cells, np.inf)])
    out = np.empty(hi - lo)
    carry = np.full(n_cells - lo, -np.inf)
    rows = max(1, _BLOCK_VALUES // (n_cells - lo))
    for r0 in range(0, hi, rows):
        r1 = min(r0 + rows, hi)
        c0 = max(r0, lo)
        table = cum[c0 + 1:] - cum[r0:r1, None]
        table *= _toeplitz(weight, n_cells - 1 + c0 - r0, table.shape)
        if r0 < c0:
            np.maximum(carry, table[:c0 - r0].max(axis=0), out=carry)
        if c0 < r1:
            # entries with b < a stay finite, and the running max carries them
            # only to entries with b < a, which the row max masks
            run = table[c0 - r0:]
            np.maximum(run[0], carry[c0 - lo:], out=run[0])
            np.maximum.accumulate(run, axis=0, out=run)
            carry[c0 - lo:] = run[-1]
            k = r1 - c0
            np.minimum(run[:, :k], _toeplitz(ceiling, n_cells - 1, (k, k)), out=run[:, :k])
            out[c0 - lo:r1 - lo] = run.max(axis=1)
    return out


def fractional_maximal_uncentered(f, alpha):
    """Uncentered fractional maximal function, one dimension only.

    The sup runs over all intervals with endpoints on the grid lattice that
    contain the evaluation cell; this under-estimates the continuum sup, so
    lower bounds verified against it are genuine.
    """
    if f.domain.dimension != 1:
        raise PreconditionError("uncentered maximal is implemented in one dimension")
    return GridFunction(f.domain, _uncentered_on(f, alpha, 0, f.domain.cells[0]))


def riesz_gamma(alpha, n):
    """Normalizing constant of the fractional integral kernel."""
    if not (0.0 < alpha < n):
        raise PreconditionError(f"need 0 < alpha < n = {n}, got alpha = {alpha}")
    return math.gamma((n - alpha) / 2.0) / (
        math.pi ** (n / 2.0) * 2.0 ** alpha * math.gamma(alpha / 2.0)
    )


def _self_cell_integral(alpha, n, h):
    """Integral of |u|^(alpha - n) over one grid cell centered at the origin."""
    if n == 1:
        return 2.0 * (h / 2.0) ** alpha / alpha
    # n == 2: polar integration over the square, using its dihedral symmetry
    nodes, wts = _gauss_nodes()
    theta = (math.pi / 8.0) * (nodes + 1.0)
    r_edge = h / (2.0 * np.cos(theta))
    return (math.pi / 8.0) * float(np.dot(wts, 8.0 * r_edge ** alpha / alpha))


def riesz_potential(f, alpha):
    """Fractional integral of f: convolution with the normalized power kernel.

    Midpoint quadrature off the diagonal plus the exact self-cell integral, in
    dimension 1 or 2.  On a uniform grid the kernel depends only on the cell
    offset, so the sum is one convolution, taken by FFT on a grid padded to
    twice the size in every axis so that no offset wraps around.
    """
    n = f.domain.dimension
    if n > 2:
        raise PreconditionError("potential is implemented for dimensions 1 and 2")
    gamma = riesz_gamma(alpha, n)
    h = f.domain.h
    cells = f.domain.cells
    shape = tuple(2 * c for c in cells)
    axes = tuple(range(n))
    # index i along an axis stands for offset i, index s - i for offset -i
    offsets = np.meshgrid(*[np.minimum(np.arange(s), s - np.arange(s)) for s in shape],
                          indexing="ij")
    dist = h * np.sqrt(sum(o.astype(float) ** 2 for o in offsets))
    origin = (0,) * n
    dist[origin] = 1.0
    kern = dist ** (alpha - n) * f.domain.cell_volume
    kern[origin] = _self_cell_integral(alpha, n, h)
    spectrum = np.fft.rfftn(f.values, s=shape, axes=axes) * np.fft.rfftn(kern, axes=axes)
    out = np.fft.irfftn(spectrum, s=shape, axes=axes)[tuple(slice(0, c) for c in cells)]
    return GridFunction(f.domain, gamma * out)


# -- positioned cube pairs ---------------------------------------------------


@dataclass(frozen=True)
class TUPair:
    """A cube and its translate by t * r * sqrt(n) in a unit direction."""

    base: Cube
    partner: Cube
    t: float
    direction: tuple


def make_tu_pair(cube, t, direction=None):
    n = cube.dimension
    if direction is None:
        direction = tuple(1.0 if i == 0 else 0.0 for i in range(n))
    u = np.asarray(direction, dtype=float)
    if u.shape != (n,) or abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise PreconditionError("direction must be a unit vector of matching dimension")
    shift = t * cube.radius * math.sqrt(n) * u
    partner = Cube(tuple(np.asarray(cube.center) + shift), cube.radius)
    return TUPair(cube, partner, float(t), tuple(u))


def verify_tu_pair(pair, tol=1e-10):
    """Recover (t, u) from the stored cubes and compare with the stored values."""
    q, pt = pair.base, pair.partner
    if abs(q.radius - pt.radius) > tol * q.radius:
        return False
    n = q.dimension
    d = np.asarray(pt.center) - np.asarray(q.center)
    dist = float(np.linalg.norm(d))
    t = dist / (q.radius * math.sqrt(n))
    if abs(t - abs(pair.t)) > tol * max(1.0, abs(pair.t)):
        return False
    if dist > 0:
        u = d / dist
        sign = 1.0 if pair.t >= 0 else -1.0
        if np.max(np.abs(u - sign * np.asarray(pair.direction))) > tol:
            return False
    return True


def covering_cube(pair):
    """Smallest construction cube containing the pair: centered between the
    two cubes with radius (t + 2) r sqrt(n) / 2."""
    q, pt = pair.base, pair.partner
    center = tuple(0.5 * (np.asarray(q.center) + np.asarray(pt.center)))
    radius = (abs(pair.t) + 2.0) * q.radius * math.sqrt(q.dimension) / 2.0
    return Cube(center, radius)


def cube_average(f, cube):
    """Mean of f over a cube, zero-extension convention (unclipped measure)."""
    cells = f.values[f.domain.box_cells(cube.as_box())]
    integral = float(cells.ravel().sum()) * f.domain.cell_volume
    return integral / cube.volume


@dataclass(frozen=True)
class PairBoundReport:
    lhs_min: float
    rhs: float
    factor: float
    holds: bool


def maximal_pair_lower_bound(f, pair, alpha):
    """Check the transfer bound: on the partner cube, the uncentered maximal
    function dominates ((t+2) sqrt(n) / 2)^(alpha-n) |Q|^(alpha/n) avg_Q f."""
    n = f.domain.dimension
    if n != 1:
        raise PreconditionError("pair lower bound is implemented in one dimension")
    if pair.t < 4.0:
        raise PreconditionError(f"pair bound needs t >= 4, got t = {pair.t}")
    q = pair.base
    factor = ((pair.t + 2.0) * math.sqrt(n) / 2.0) ** (alpha - n)
    rhs = factor * q.volume ** (alpha / n) * cube_average(f, q)
    # a cube's cells on a line are one run, so only that run is evaluated
    run, = f.domain.box_cells(pair.partner.as_box())
    if not run.start < run.stop:
        raise PreconditionError("partner cube contains no grid cells")
    lhs_min = float(_uncentered_on(f, alpha, run.start, run.stop).min())
    return PairBoundReport(lhs_min, rhs, factor, lhs_min >= rhs * (1.0 - 1e-9))


@dataclass(frozen=True)
class FractionalKernel:
    """Kernel of fractional order: |K(x,y)| <= c0 / |x-y|^(n-alpha), with a
    Holder-type smoothness constant c0 at exponent delta, and a one-direction
    nondegeneracy floor a (K at least a / |x-y|^(n-alpha) along `direction`)."""

    fn: callable
    alpha: float
    c0: float
    delta: float
    lower: float
    dimension: int

    def __call__(self, x_pts, y):
        return self.fn(np.asarray(x_pts, dtype=float), np.asarray(y, dtype=float))


def riesz_kernel(alpha, n):
    """The positive power kernel |x - y|^(alpha - n) as a FractionalKernel."""

    def fn(x_pts, y):
        d = np.linalg.norm(x_pts.reshape(-1, n) - y.reshape(1, n), axis=1)
        with np.errstate(divide="ignore"):
            return d ** (alpha - n)

    return FractionalKernel(fn=fn, alpha=alpha, c0=1.0, delta=1.0, lower=1.0, dimension=n)


def kernel_threshold(kernel, n=None):
    """Separation threshold t0 past which the pair lower bound applies."""
    n = kernel.dimension if n is None else n
    a, c0, delta, alpha = kernel.lower, kernel.c0, kernel.delta, kernel.alpha
    if a <= 0:
        raise PreconditionError("kernel has no nondegeneracy floor (lower <= 0)")
    return max(4.0, (2.0 * c0 * (1.0 + 2.0 ** (n - alpha + delta)) / a) ** (1.0 / delta))


@dataclass(frozen=True)
class CZOPairReport:
    t0: float
    applicable: bool
    lhs_min: float
    rhs: float
    holds: bool


def czo_pair_lower_bound(kernel, f, pair):
    """Check the singular-integral transfer bound on a separated pair.

    For |t| at least the kernel threshold t0, the integral of K(x, y) f(x)
    over the base cube has, at every y in the partner cube, absolute value at
    least 2^(n-alpha-1) a (|t| sqrt(n))^(alpha-n) |Q|^(alpha/n) avg_Q f.
    """
    n = f.domain.dimension
    if kernel.dimension != n:
        raise PreconditionError("kernel dimension does not match the grid")
    if kernel.lower <= 0:
        # degenerate kernel: no nondegeneracy floor, the bound makes no claim
        return CZOPairReport(math.inf, False, 0.0, 0.0, False)
    t0 = kernel_threshold(kernel)
    applicable = abs(pair.t) >= t0
    q = pair.base
    alpha = kernel.alpha
    rhs = (
        2.0 ** (n - alpha - 1.0)
        * kernel.lower
        * (abs(pair.t) * math.sqrt(n)) ** (alpha - n)
        * q.volume ** (alpha / n)
        * cube_average(f, q)
    )
    blocks = [f.domain.box_cells(cube.as_box()) for cube in (q, pair.partner)]
    if any(s.start >= s.stop for cells in blocks for s in cells):
        raise PreconditionError("pair cubes contain no grid cells")
    # the midpoints of each block in row-major order, as in GridDomain.points
    xq, yp = (np.stack([m.ravel() for m in np.meshgrid(
        *[f.domain.axis_midpoints(axis)[s] for axis, s in enumerate(cells)], indexing="ij")],
        axis=-1) for cells in blocks)
    fq = f.values[blocks[0]].ravel()
    lhs_min = math.inf
    for y in yp:
        val = float(np.dot(kernel(xq, y), fq)) * f.domain.cell_volume
        lhs_min = min(lhs_min, abs(val))
    holds = applicable and lhs_min >= rhs * (1.0 - 1e-6)
    return CZOPairReport(t0, applicable, lhs_min, rhs, holds)


def kernel_sign_coherent(kernel, pair, samples=200, seed=0):
    """Whether K(x, y) keeps one sign for x in the base cube, y in the partner."""
    rng = np.random.default_rng(seed)
    n = pair.base.dimension
    qb = np.asarray(pair.base.as_box())
    pb = np.asarray(pair.partner.as_box())
    x = rng.uniform(qb[:, 0], qb[:, 1], size=(samples, n))
    y = rng.uniform(pb[:, 0], pb[:, 1], size=(samples, n))
    signs = set()
    for yi in y[: min(samples, 40)]:
        v = kernel(x, yi)
        signs.update(np.sign(v[v != 0.0]).tolist())
    return len(signs) <= 1
