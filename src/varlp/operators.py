"""Averaging, fractional maximal and potential operators on grid functions.

Centered box integrals read one cumulative per axis, sampled at whole and
half cells: a cube centered at a cell midpoint whose radius is a whole or
half-whole number of cells has its faces on those positions, where the
cumulative of cell-constant data is exact, so every radius is two slices of
the same samples, and a run of consecutive radii on a line is two strided
views of them.  The axis being summed is moved first and the samples are
laid out along it, so each slice is a block of whole rows.  Axes after the
first hold one slab per radius and sample each slab at the one parity its
radius reads, with no padded copy: a window edge past the grid reads the
end sample.  On a line the centered maximal seeds each cell at the least
radius whose window covers the support of the data, and evaluates the other
radii only on the runs of cells where an exact bound can beat the max so far.
The uncentered maximal reads one table of lattice-interval values through
running maxima; on a table of many blocks of rows, the prefix and suffix
intervals give every cell a floor, and a block computes only the columns
that can beat it.  On a table of one block, the largest prefix or suffix
interval that covers the whole run is a floor for all of its cells, and
only the tiles of earlier rows and the columns of the run's rows whose
bound can beat it are computed.  Both maximals skip only values that are
<= a value they compute, so their results are bitwise those of the full
search.  The Riesz potential
is one FFT convolution with the cell-offset kernel.  Everything uses the
zero-extension convention: a function is 0 outside its grid, and cube
normalizers are never clipped at the domain boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, PreconditionError
from .exponent import _gauss_nodes
from .grid import Cube, GridFunction, MeasurableSet

EXACT = "EXACT"
DYADIC = "DYADIC"

# values per block of window sums (radii x cells) or of uncentered-table
# rows: 2 MiB of doubles, which measured faster than 4x larger or smaller blocks
_BLOCK_VALUES = 1 << 18
# kernel values per block of partner rows.  The distances take about four
# temporaries of the block's size, so a block of _BLOCK_VALUES left the cache:
# on the 16 384-cell czo paircheck (25 pairs), blocks of 2^18, 2^16, 2^14 and
# 2^13 values took 0.49-0.52, 0.43-0.44, 0.34-0.42 and 0.43-0.45 s at a peak
# of 46.8, 39.4, 37.3 and 37.1 MB, against 0.56-0.70 s and 37.0 MB one partner
# cell at a time (2 vCPUs)
_KERNEL_VALUES = 1 << 14
# radii per bounded block of the 1-D centered search.  Each bound is one
# window over the whole line, and a wider block has a looser bound: on 6 000
# cells of uniform random data, blocks of 32, 64 and 128 radii evaluate 6%,
# 7% and 10% of the cells x radii, and on a line of 65 536 ones EXACT took
# 0.57-0.65 s, 0.37 s and 0.38-0.43 s (2 vCPUs)
_BOUND_RADII = 64
# cells per side of the square tiles that bound the rows before the run in a
# one-block uncentered table.  On 100 pairs drawn as `paircheck` draws them
# (512 cells, alpha 0.5), tiles of 8, 16 and 32 cells computed 4.5%, 6.6%
# and 17.9% of the table, in 0.64, 0.63 and 0.80 of the full table's time;
# at alpha 0, where little prunes, the bounds cost 1.09, 1.05 and 1.04 times
# it (2 vCPUs)
_TILE = 16


def _half_cumulative(arr, pad, parity=None):
    """Cumulative of arr along its first axis at whole and at half cells.

    Returns `whole`, the samples at z = 0, 1, ..., c cells, and `mid`, those at
    z = 1/2, 3/2, ..., c - 1/2.  Each is lo + frac * (hi - lo) between the
    whole-cell cumulatives around z, with frac = 1 at the right end, so both
    are exact for cell-constant data.  Both carry `pad` >= 1 copies of the end
    values whole[0] and whole[c] on each side, so that windows past the grid
    saturate, matching extension of the data by zero.  Given the `parity` of
    a doubled radius, only the samples its windows read are built (`whole`
    for 1, `mid` for 0) and the other is None.  The samples are contiguous
    whatever the layout of arr, so a window is a slice of whole rows.
    """
    c = arr.shape[0]
    cum = np.empty((c + 1,) + arr.shape[1:])
    cum[0] = 0.0
    np.cumsum(arr, axis=0, out=cum[1:])
    lo = cum[:-1]
    step = cum[1:] - lo
    # frac = 0 stays in the arithmetic, so each sample keeps the bits of linear
    # interpolation at z
    first = lo[:1] + 0.0 * step[:1]
    last = lo[-1:] + 1.0 * step[-1:]
    samples = []
    for odd in (1, 0):
        if parity is not None and parity != odd:
            samples.append(None)
            continue
        out = np.empty((c + odd + 2 * pad,) + arr.shape[1:])
        core = out[pad:pad + c]
        np.multiply(step, 0.0 if odd else 0.5, out=core)
        np.add(lo, core, out=core)
        out[:pad] = first
        out[pad + c:] = last
        samples.append(out)
    return tuple(samples)


def _window(whole, mid, pad, d, lo, hi, out):
    """Sums over the index windows [j + 1/2 - d/2, j + 1/2 + d/2], for cells
    j = lo .. hi-1 along the first axis, from the samples of _half_cumulative
    padded by `pad`; written to out.  A pad of (d + 1) // 2 or more holds
    every edge, and a window edge past a shorter pad reads the end sample."""
    # window edges sit on half cells for whole radii, on whole cells otherwise
    src = whole if d % 2 else mid
    right, left = pad + (d + 1) // 2, pad - d // 2
    # the left edges of the cells before `start` and the right edges of the
    # cells from `stop` on lie past the samples: at most three runs of cells
    start, stop = min(max(-left, lo), hi), max(min(len(src) - right, hi), lo)
    if start == lo and stop == hi:
        return np.subtract(src[right + lo:right + hi], src[left + lo:left + hi], out=out)
    first, second = sorted((start, stop))
    for a, b in (lo, first), (first, second), (second, hi):
        if a < b:
            np.subtract(src[right + a:right + b] if a < stop else src[-1:],
                        src[left + a:left + b] if a >= start else src[:1], out=out[a - lo:b - lo])
    return out


def _windows(rows, pad, d, lo, hi, out):
    """The sums of _window on a line for the consecutive whole radii d/2,
    d/2 + 1, ..., one row of out each, as one difference of two blocks of
    `rows`, whose row r is mid[r:r + c] for the samples `mid` padded by
    `pad` >= the largest radius.  Right edges step +1 cell from row to row,
    left edges -1."""
    m, k = d // 2, len(out)
    right = rows[pad + m:pad + m + k, lo:hi]
    left = rows[pad - m - k + 1:pad - m + 1, lo:hi][::-1]
    return np.subtract(right, left, out=out)


def _axis_box_sums(arr, doubled, stacked):
    """Window sums along the first axis of each slab, one slab per doubled
    radius d.  A `stacked` arr already holds one slab per radius along its
    first axis, and each slab is sampled at the one parity its radius reads;
    otherwise all radii share one cumulative."""
    c = arr.shape[stacked]
    # a window of 2c half cells or more covers the grid from every cell
    doubled = np.minimum(doubled, 2 * c)
    out = np.empty((len(doubled),) + (arr.shape[1:] if stacked else arr.shape))
    if not stacked:
        whole, mid = _half_cumulative(arr, 1)
    for i, d in enumerate(doubled.tolist()):
        if stacked:
            whole, mid = _half_cumulative(arr[i], 1, d % 2)
        _window(whole, mid, 1, d, 0, c, out[i])
    return out


def _overflows(what):
    return PreconditionError(f"{what} overflows the float range on this data")


def _finite(out, what):
    """out, unless a sum or product of finite data overflowed on the way."""
    if not np.isfinite(out).all():
        raise _overflows(what)
    return out


def box_sums(f, m):
    """Integral of f over the cube of index-radius m centered at every cell.

    m is a positive whole or half-whole number of cells, or a 1-D array of such
    radii; an array gives the sums for each radius stacked along a new first
    axis.  The first axis reads one cumulative shared by every radius.  Each
    later axis sums the slab of each radius on its own: one cumulative, the
    samples at whole cells for half radii or at half cells for whole radii,
    and at most three subtractions, the cells whose window runs past the
    grid reading the end samples.  Data whose cumulative leaves the float
    range is refused.
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
    # axis by axis in order, each axis moved first in its slab while its
    # windows are summed
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in range(arr.ndim):
            stacked = axis > 0
            sums = _axis_box_sums(np.moveaxis(arr, axis + stacked, stacked), doubled, stacked)
            arr = np.moveaxis(sums, 1, axis + 1)
        arr *= f.domain.cell_volume
    _finite(arr, "a box sum")
    return arr if radii.ndim else arr[0]


@np.errstate(over="ignore", invalid="ignore")
def _integral(values, cell_volume):
    """The sum of a 1-D array of cell values times the cell volume, inf or
    nan where finite values overflow."""
    return float(values.sum()) * cell_volume


def averaging_op(f, E, alpha=0.0):
    """Averaging operator: measure(E)^(alpha/n) times the mean of f over E, on E.

    The mean uses the full (unclipped) measure of E in the normalizer while
    the integral runs over the part of E inside the grid, so the result
    agrees with applying the whole-space operator to the zero-extended f.
    Data on which the value leaves the float range is refused.
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
    integral = _integral(f.values[mask], f.domain.cell_volume)
    try:
        scale = measure ** (alpha / n - 1.0)
    except OverflowError:  # the normalizer of a set of subnormal measure
        raise _overflows("the averaging operator") from None
    value = scale * integral
    if not math.isfinite(value):
        raise _overflows("the averaging operator")
    out = np.zeros_like(f.values)
    out[mask] = value
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


def _gather_windows(mid, pad, d, out):
    """The sums of _window on a line with one doubled whole radius d[j] per
    cell j, from the samples `mid` padded by `pad` >= every radius: the same
    subtraction of the same two samples that _windows takes."""
    cells = np.arange(len(d))
    m = d // 2
    return np.subtract(mid[pad + m + cells], mid[pad - m + cells], out=out)


def _runs(live):
    """The (start, stop) pairs of the runs of True in a 1-D boolean array."""
    edges = [0] + (np.flatnonzero(live[1:] != live[:-1]) + 1).tolist() + [len(live)]
    first = 0 if live[0] else 1
    return list(zip(edges[first:-1:2], edges[first + 1::2]))


def _line_maximal(absf, radius_list, scales, volume):
    """Max over the radii of (window sum * volume) * scale at every cell of a
    line, skipping the cells and radii that cannot raise it (see
    fractional_maximal)."""
    c = absf.shape[0]
    radius_list = np.asarray(radius_list)
    # a window of c cells or more covers the grid from every cell
    doubled = 2 * np.minimum(radius_list, c)
    pad = int(doubled.max()) // 2
    # whole radii read mid only
    _, mid = _half_cumulative(absf, pad, 0)
    rows = sliding_window_view(mid, c)
    best = np.zeros(c)

    def evaluate(radii, runs):
        # a run of consecutive radii is one difference of two blocks of rows;
        # a power of two taken out of the other radii breaks their run
        span = doubled[radii].tolist()
        starts = [0] + [i for i in range(1, len(span)) if span[i] - span[i - 1] != 2]
        stops = starts[1:] + [len(span)]
        chunk = max(1, _BLOCK_VALUES // len(span))
        for lo, hi in runs:
            for a in range(lo, hi, chunk):
                b = min(a + chunk, hi)
                sums = np.empty((len(span), b - a))
                for i, k in zip(starts, stops):
                    _windows(rows, pad, span[i], a, b, sums[i:k])
                sums *= volume
                sums *= scales[radii, None]
                np.maximum(best[a:b], sums.max(axis=0), out=best[a:b])

    prune = np.isfinite(mid).all() and (mid[1:] >= mid[:-1]).all() and scales.min() > 0.0
    # the powers of two and the last radius
    seeded = (radius_list & (radius_list - 1)) == 0
    seeded[-1] = True
    evaluate(np.flatnonzero(seeded), [(0, c)])
    support = np.flatnonzero(absf) if prune and not seeded.all() else ()
    if len(support):
        # the least radius whose window covers the support from each cell
        first, last = int(support[0]), int(support[-1])
        cells = np.arange(c)
        cover = np.maximum(last - cells, cells - first) + 1
        seed = np.searchsorted(radius_list, cover)
        sums = _gather_windows(mid, pad, doubled[seed], np.empty(c))
        sums *= volume
        sums *= scales[seed]
        np.maximum(best, sums, out=best)
        # least[i] is the least scale of the seeds from the least one to i
        least_seed = int(seed.min())
        least = np.minimum.accumulate(scales[least_seed:])
    # the other radii from the largest down, in blocks of consecutive radii
    # between two seeded ones
    rest = np.flatnonzero(~seeded)
    bound = np.empty(c)
    for between in reversed(np.split(rest, np.flatnonzero(np.diff(rest) != 1) + 1)):
        for k in reversed(range(0, len(between), _BOUND_RADII)):
            radii = between[k:k + _BOUND_RADII]
            runs = [(0, c)]
            if prune:
                top = scales[radii].max()
                bounded = [(0, c)]
                r = int(radii[0])
                if len(support) and r >= least_seed and least[r - least_seed] >= top:
                    # the cells seeded at or below the block, at scales >= the
                    # block's, sum their seed's window at every radius of it, so
                    # their bounds are <= their seeds' values: they are the cells
                    # whose window at the block's least radius covers the support
                    m = int(radius_list[r])
                    closed = max(last + 1 - m, 0), min(first + m, c)
                    bounded = [(a, b) for a, b in ((0, closed[0]), (closed[1], c)) if a < b]
                runs = []
                for a, b in bounded:
                    part = _window(None, mid, pad, int(doubled[radii[-1]]), a, b, bound[a:b])
                    part *= volume
                    part *= top
                    runs += [(a + s, a + e) for s, e in _runs(~(part <= best[a:b]))]
            evaluate(radii, runs)
    return best


def fractional_maximal(f, alpha, radii=EXACT):
    """Centered fractional maximal function on the grid.

    Takes the sup of measure(Q)^(alpha/n - 1) * integral of |f| over Q over
    axis-parallel cubes Q centered at each cell midpoint whose radius is a
    whole number of cells (all of them for EXACT, powers of two for DYADIC).
    Radii stop once the cube swallows the whole grid from any position.

    On a line every radius is two slices of one half-cell cumulative, and a
    run of consecutive radii is one subtraction of two strided views of it,
    one row per radius.  The powers of two and the last radius are evaluated
    first, at every cell.  Each cell is then seeded at the least listed
    radius whose window covers [first nonzero cell, last nonzero cell]:
    past it the window sum no longer changes while the scale falls, so no
    larger radius beats the seed.  The seed takes the same samples and
    the same float operations as the search, so it is bitwise one of its
    values.  The other radii follow in blocks of at most _BOUND_RADII
    consecutive radii from the largest down.  A block is evaluated only on
    the runs of cells where its bound, (window sum at its largest radius *
    cell volume) * its largest scale, is not <= the max so far, in chunks of
    cells that keep each evaluation at _BLOCK_VALUES values.  The cells
    whose window at the block's least radius covers the support take no
    bound when no scale of the block exceeds the least scale of their seeds:
    their window sum is their seed's, so the bound cannot beat the seed.
    The bound is exact: the windows are differences of one array that never
    decreases, so no window shrinks as the radius grows, and a float
    product of nonnegative factors never shrinks as a factor grows.  Where the
    cumulative is not finite and nondecreasing, or a scale underflows to 0,
    a product could be nan: nothing is seeded or skipped.  DYADIC radii are
    all powers of two and take neither.  Either way the result is bitwise
    that of evaluating every radius at every cell.  In higher dimensions
    each block of radii is one call of box_sums.  Data on which a window sum
    or a scaled value leaves the float range is refused.
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
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 1:
            best = _line_maximal(absf.values, radius_list, scales, f.domain.cell_volume)
        else:
            block = max(1, _BLOCK_VALUES // f.domain.total_cells)
            best = np.zeros(f.domain.cells)
            for start in range(0, len(radius_list), block):
                sums = box_sums(absf, radius_list[start:start + block])
                sums *= scales[start:start + block].reshape((-1,) + (1,) * n)
                np.maximum(best, sums.max(axis=0), out=best)
    return GridFunction(f.domain, _finite(best, "the fractional maximal function"))


def _toeplitz(vec, start, shape):
    """View whose entry (i, k) is vec[start - i + k]."""
    step = vec.strides[0]
    # np.ndarray checks that the view stays inside vec, as as_strided does
    # not, at a fifth of its cost
    return np.ndarray(shape, vec.dtype, vec, start * step, (-step, step))


def _interval_values(cum, weight, r0, r1, s, e):
    """The table of F(a, b) = (cum[b + 1] - cum[a]) * weight[n_cells - 1 + b - a]
    over rows a = r0 .. r1-1 and columns b = s .. e-1, the weights read
    through a Toeplitz view."""
    table = cum[s + 1:e + 1] - cum[r0:r1, None]
    table *= _toeplitz(weight, len(cum) - 2 + s - r0, table.shape)
    return table


def _tile_values(cum, weight, a, b):
    """F(a, b), as in _interval_values, for index arrays a <= b that
    broadcast."""
    return (cum[1:][b] - cum[a]) * weight[len(cum) - 2:][b - a]


def _carry_tiles(cum, weight, widest, threshold, lo, carry):
    """Fold the rows a < lo of the table into the column max `carry` of the
    columns lo .. n_cells-1, computing only the tiles of at most _TILE x
    _TILE entries whose bound is not <= threshold, in one gather; widest[k]
    is the largest weight of any length > k.  When more than a quarter of
    the tiles are live, fold nothing and return False: whole rows then cost
    less than the gather."""
    n_cells = len(cum) - 1
    rows, cols = min(_TILE, lo), min(_TILE, n_cells - lo)
    # the last tile of rows and of columns ends at the edge of the block, and
    # may overlap the one before it
    r0 = np.minimum(np.arange(0, lo, rows), lo - rows)
    c0 = np.minimum(np.arange(lo, n_cells, cols), n_cells - cols)
    # the entries of a tile are at least c0 - (r0 + rows) + 2 long
    bound = cum[c0 + cols] - cum[r0, None]
    bound *= widest[c0 - r0[:, None] - rows + 1]
    ti, tj = np.nonzero(~(bound <= threshold))
    if 4 * len(ti) > bound.size:
        return False
    if len(ti):
        a = r0[ti, None] + np.arange(rows)[:, None, None]
        b = c0[tj, None] + np.arange(cols)
        np.maximum.at(carry, b - lo, _tile_values(cum, weight, a, b).max(axis=0))
    return True


@functools.lru_cache(maxsize=4)
def _interval_weights(n_cells, h, alpha):
    """The read-only vectors of the uncentered table on n_cells cells of
    width h: `weight`, 0 at the n_cells - 1 entries before the weights
    ((k + 1) h)^(alpha - 1) of the lengths k + 1; `ceiling`, -inf and then
    +inf at the same places; and `widest`, whose entry k is the largest
    weight of any length > k.  A pair check reads them once for all its
    pairs."""
    weight = np.concatenate([np.zeros(n_cells - 1),
                             ((np.arange(n_cells) + 1.0) * h) ** (alpha - 1.0)])
    # a min with -inf masks an entry and a min with +inf keeps its bits; adding
    # -inf instead would turn an overflowed +inf entry into nan
    ceiling = np.concatenate([np.full(n_cells - 1, -np.inf), np.full(n_cells, np.inf)])
    widest = np.maximum.accumulate(weight[n_cells - 1:][::-1])[::-1]
    for vec in (weight, ceiling, widest):
        vec.flags.writeable = False
    return weight, ceiling, widest


@np.errstate(over="ignore", invalid="ignore")
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

    When the cumulative is finite, the prefix intervals [0, b] and the
    suffix intervals [a, n - 1], computed with the table's own operations,
    are entries the result can skip against.  When the table spans more than
    one block of rows, they give each cell a floor: the largest of them that
    contains it.  A block of rows r0 .. r1-1 then computes only the columns
    b whose bound, (cum[b + 1] - cum[r0]) * (the largest weight of any
    length its entries can have), is not <= the least floor of the cells
    from max(r0, lo) to min(b, hi - 1), the only cells its entries and the
    carried max serve from this block on; in a block that holds rows from
    lo on, a column whose carried max is not <= that floor is computed too.

    One block of rows takes the largest of the prefix intervals with
    b >= hi - 1 and the suffix intervals with a <= lo: the covering entry
    G0, which contains every cell of the run, so G0 is the floor of every
    cell.  The rows a < lo are cut into tiles of _TILE x _TILE entries; a tile
    of rows r0 .. r1-1 and columns c0 .. c1-1 is bounded by (cum[c1] -
    cum[r0]) * (the largest weight of any length > c0 - r1 + 1), and only
    the tiles whose bound is not <= G0 are computed, in one gather, and
    folded into the carried max.  The rows of the run then compute only the
    columns whose bound, (cum[b + 1] - cum[lo]) * (the largest weight of any
    length >= max(1, b - hi + 2)), or carried max is not <= G0.  Where more than a quarter of the tiles are live, the
    whole block is computed instead, and so is a run from cell 0, whose one
    block is the whole table.

    Either way a skipped entry or carried max is <= the floor of every cell
    it could raise, so the max of the floor and the rows' maxima is bitwise
    the max over the whole table.  Data on which an interval value leaves
    the float range is refused.
    """
    if not (0.0 <= alpha < 1.0):
        raise PreconditionError(f"need 0 <= alpha < 1, got {alpha}")
    h = f.domain.h
    n_cells = f.values.shape[0]
    cum = np.concatenate([[0.0], np.cumsum(np.abs(f.values))]) * h
    weight, ceiling, widest = _interval_weights(n_cells, h, alpha)
    # the one-cell interval has the largest weight
    if not math.isfinite(weight[n_cells - 1]):
        raise _overflow(h, "the interval weight (length)^(alpha - 1)")
    out = np.empty(hi - lo)
    carry = np.full(n_cells - lo, -np.inf)
    rows = max(1, _BLOCK_VALUES // (n_cells - lo))
    one_block = rows >= hi
    prune = math.isfinite(cum[-1]) and (lo > 0 or not one_block)
    if prune:
        lengths = weight[n_cells - 1:]
        prefix = (cum[1:] - cum[0]) * lengths
        suffix = (cum[-1] - cum[:-1]) * lengths[::-1]
        if one_block:
            # G0, the largest prefix or suffix interval that covers the run
            covering = max(prefix[hi - 1:].max(), suffix[:lo + 1].max())
            prune = _carry_tiles(cum, weight, widest, covering, lo, carry)
            floor = np.full(hi - lo, covering)
        else:
            floor = np.maximum(np.maximum.accumulate(prefix[::-1])[::-1],
                               np.maximum.accumulate(suffix))[lo:hi]
    if prune:
        out[:] = floor
        # widest[pad + k] is the largest weight of any length >= k + 1, and
        # the pad entries before it repeat the largest weight of all
        pad = min(rows, hi)
        widest = np.concatenate([np.full(pad, widest[0]), widest])
    # the rows a < lo of one block are folded into carry already
    for r0 in range(lo if prune and one_block else 0, hi, rows):
        r1 = min(r0 + rows, hi)
        c0 = max(r0, lo)
        spans = [(c0, n_cells)]
        if prune:
            # the entries of column b in this block are at least b - r1 + 2 long
            bound = cum[c0 + 1:] - cum[r0]
            bound *= widest[pad + c0 - r1 + 1:pad + n_cells - r1 + 1]
            if c0 < r1:
                np.maximum(bound, carry[c0 - lo:], out=bound)
            least = np.minimum.accumulate(floor[c0 - lo:])
            dead = np.empty(n_cells - c0, dtype=bool)
            np.less_equal(bound[:hi - c0], least, out=dead[:hi - c0])
            np.less_equal(bound[hi - c0:], least[-1], out=dead[hi - c0:])
            spans = [(c0 + s, c0 + e) for s, e in _runs(~dead)]
        for s, e in spans:
            table = _interval_values(cum, weight, r0, r1, s, e)
            cols = slice(s - lo, e - lo)
            if r0 < c0:
                np.maximum(carry[cols], table[:c0 - r0].max(axis=0), out=carry[cols])
            if c0 < r1:
                # entries with b < a stay finite, and the running max carries
                # them only to entries with b < a, which the row max masks
                run = table[c0 - r0:]
                np.maximum(run[0], carry[cols], out=run[0])
                np.maximum.accumulate(run, axis=0, out=run)
                carry[cols] = run[-1]
                k = min(r1, e) - s
                if k > 0:
                    np.minimum(run[:, :k], _toeplitz(ceiling, n_cells - 1 + s - c0, (r1 - c0, k)),
                               out=run[:, :k])
                if prune:
                    np.maximum(out[c0 - lo:r1 - lo], run.max(axis=1), out=out[c0 - lo:r1 - lo])
                else:
                    out[c0 - lo:r1 - lo] = run.max(axis=1)
    return _finite(out, "the uncentered maximal function")


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
    twice the size in every axis so that no offset wraps around.  Data on
    which the transform leaves the float range is refused.
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
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfftn(f.values, s=shape, axes=axes) * np.fft.rfftn(kern, axes=axes)
        out = np.fft.irfftn(spectrum, s=shape, axes=axes)[tuple(slice(0, c) for c in cells)]
        out = gamma * out
    return GridFunction(f.domain, _finite(out, "the Riesz potential"))


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
    """Mean of f over a cube, zero-extension convention (unclipped measure).
    Data on which the mean leaves the float range is refused, and so is a
    cube whose volume underflows to 0."""
    cells = f.values[f.domain.box_cells(cube.as_box())]
    integral = _integral(cells.ravel(), f.domain.cell_volume)
    volume = cube.volume
    if not volume > 0.0:
        raise PreconditionError(f"cube radius {cube.radius!r} is too small: the cube volume "
                                f"underflows")
    average = integral / volume
    if not math.isfinite(average):
        raise _overflows("the cube average")
    return average


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
    nondegeneracy floor a (K at least a / |x-y|^(n-alpha) along `direction`).

    Called on points x (m of them, one per row) and one point y, it returns
    the m values K(x, y); called on a (k, n) block of points y, it returns
    the (k, m) matrix whose row i is K(x, y_i), bitwise the one-point call."""

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
    if not (0.0 <= alpha < n):
        raise PreconditionError(f"need 0 <= alpha < n = {n}, got alpha = {alpha}")

    def fn(x_pts, y):
        d = np.linalg.norm(x_pts.reshape(-1, n) - y.reshape(-1, 1, n), axis=-1)
        with np.errstate(divide="ignore"):
            d **= alpha - n
        return d if y.ndim == 2 else d[0]

    return FractionalKernel(fn=fn, alpha=alpha, c0=1.0, delta=1.0, lower=1.0, dimension=n)


def _kernel_rows(kernel, x_pts, ys):
    """K(x, y) for each point y of ys, as blocks of rows of at most
    _KERNEL_VALUES values."""
    rows = max(1, _KERNEL_VALUES // len(x_pts))
    for lo in range(0, len(ys), rows):
        yield kernel(x_pts, ys[lo:lo + rows])


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
    Data on which the integral leaves the float range while the kernel is
    finite is refused.
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
    volume = f.domain.cell_volume
    lhs_min = math.inf
    # one dot per row: a matrix product does not give the row dots' bits
    with np.errstate(over="ignore", invalid="ignore"):
        for kmat in _kernel_rows(kernel, xq, yp):
            for kern in kmat:
                val = float(np.dot(kern, fq)) * volume
                if not math.isfinite(val) and np.isfinite(kern).all():
                    raise _overflows("the kernel integral")
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
    for v in _kernel_rows(kernel, x, y[:40]):
        signs.update(np.sign(v[v != 0.0]).tolist())
    return len(signs) <= 1
