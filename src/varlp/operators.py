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


def _axis_box_sums(arr, doubled, stacked):
    """Sums over the index windows [j + 1/2 - d/2, j + 1/2 + d/2] along the last
    axis, one slab per doubled radius d.  A `stacked` arr already holds one slab
    per radius along its first axis; otherwise all radii share one cumulative."""
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
        # window edges sit on half cells for whole radii, on whole cells otherwise
        src = whole if d % 2 else mid
        hi, lo = pad + (d + 1) // 2, pad - d // 2
        np.subtract(src[..., hi:hi + c], src[..., lo:lo + c], out=out[i])
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


def fractional_maximal(f, alpha, radii=EXACT):
    """Centered fractional maximal function on the grid.

    Takes the sup of measure(Q)^(alpha/n - 1) * integral of |f| over Q over
    axis-parallel cubes Q centered at each cell midpoint whose radius is a
    whole number of cells (all of them for EXACT, powers of two for DYADIC).
    Radii stop once the cube swallows the whole grid from any position.
    """
    n = f.domain.dimension
    if not (0.0 <= alpha < n):
        raise PreconditionError(f"need 0 <= alpha < n = {n}, got alpha = {alpha}")
    h = f.domain.h
    absf = GridFunction(f.domain, np.abs(f.values))
    radius_list = _radius_list(radii, max(f.domain.cells))
    block = max(1, _BLOCK_VALUES // f.domain.total_cells)
    best = np.zeros(f.domain.cells)
    for start in range(0, len(radius_list), block):
        ms = radius_list[start:start + block]
        scale = np.array([(2.0 * m * h) ** (alpha - n) for m in ms]).reshape((-1,) + (1,) * n)
        sums = box_sums(absf, ms)
        sums *= scale
        np.maximum(best, sums.max(axis=0), out=best)
    return GridFunction(f.domain, best)


def _uncentered_on(f, alpha, lo, hi):
    """Uncentered fractional maximal of a 1-D grid function at cells lo .. hi-1.

    With F(a, b) the value of the lattice interval of cells a .. b, the result
    at cell j is the max of F over a <= j <= b.  The table of F over rows a < hi
    and columns b >= lo is built in blocks of rows: a running max down a,
    carried from block to block, then a running max from the right along b,
    read on the diagonal.
    """
    if not (0.0 <= alpha < 1.0):
        raise PreconditionError(f"need 0 <= alpha < 1, got {alpha}")
    h = f.domain.h
    n_cells = f.values.shape[0]
    cum = np.concatenate([[0.0], np.cumsum(np.abs(f.values))]) * h
    # F depends on the length only through b - a, so the powers are taken once;
    # entries with b < a, where there is no interval, are masked instead
    weight = ((np.arange(n_cells) + 1.0) * h) ** (alpha - 1.0)
    out = np.empty(hi - lo)
    carry = np.full(n_cells - lo, -np.inf)
    rows = max(1, _BLOCK_VALUES // (n_cells - lo))
    for r0 in range(0, hi, rows):
        r1 = min(r0 + rows, hi)
        c0 = max(r0, lo)
        a = np.arange(r0, r1)[:, None]
        b = np.arange(c0, n_cells)
        table = (cum[b + 1] - cum[a]) * weight[np.maximum(b - a, 0)]
        table[:, :r1 - c0][b[:r1 - c0] < a] = -np.inf
        np.maximum.accumulate(table, axis=0, out=table)
        np.maximum(table, carry[c0 - lo:], out=table)
        carry[c0 - lo:] = table[-1]
        if c0 < r1:
            suffix = np.maximum.accumulate(table[c0 - r0:, ::-1], axis=1)[:, ::-1]
            k = np.arange(r1 - c0)
            out[c0 - lo:r1 - lo] = suffix[k, k]
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
    mask = MeasurableSet.from_cube(cube).mask_on(f.domain)
    integral = float(f.values[mask].sum()) * f.domain.cell_volume
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
    qmask = MeasurableSet.from_cube(q).mask_on(f.domain)
    pmask = MeasurableSet.from_cube(pair.partner).mask_on(f.domain)
    if not pmask.any() or not qmask.any():
        raise PreconditionError("pair cubes contain no grid cells")
    pts = f.domain.points()
    fvals = f.values.ravel()
    qsel = qmask.ravel()
    xq, fq = pts[qsel], fvals[qsel]
    lhs_min = math.inf
    for y in pts[pmask.ravel()]:
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
