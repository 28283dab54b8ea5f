"""Reference computations that do not call into varlp.

Each oracle works from the mathematical definition of the quantity, with
its own indexing and quadrature, so a change to how varlp computes a
result cannot move the oracle with it.  Grid conventions follow the
package docs: functions are constant on the cells of a uniform grid and
zero outside it, cubes are centered at cell midpoints with a whole number
of cells as radius, and cube normalizers are never clipped.
"""

from __future__ import annotations

import math

import numpy as np

# a norm lambda passes when rho(f/lambda) <= 1 + RHO_SLACK and
# rho(f/(lambda (1 - NORM_GAP))) > 1; the slack only absorbs summation order
RHO_SLACK = 1e-12
NORM_GAP = 1e-7


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    with np.errstate(invalid="ignore"):
        err = np.abs(got - want) / scale
    return float(np.max(np.where(np.isnan(err), np.inf, err)))


# -- centered fractional maximal ---------------------------------------------


def _window_sums(arr, m, axis):
    """Integral (in cell units) over [j + 1/2 - m, j + 1/2 + m] along one axis:
    cells j-m+1 .. j+m-1 count fully, cells j-m and j+m by half."""
    a = np.moveaxis(arr, axis, 0)
    n = a.shape[0]
    cum = np.concatenate([np.zeros((1,) + a.shape[1:]), np.cumsum(a, axis=0)])
    j = np.arange(n)
    full = cum[np.clip(j + m, 0, n)] - cum[np.clip(j - m + 1, 0, n)]
    shape = (n,) + (1,) * (a.ndim - 1)
    left = np.where((j - m >= 0).reshape(shape), a[np.clip(j - m, 0, n - 1)], 0.0)
    right = np.where((j + m < n).reshape(shape), a[np.clip(j + m, 0, n - 1)], 0.0)
    return np.moveaxis(full + 0.5 * (left + right), 0, axis)


def radii(policy, cells):
    """Cube radii in cells: all of 1..max(cells), or powers of two up to the
    first one that reaches max(cells)."""
    top = max(cells)
    if policy == "EXACT":
        return list(range(1, top + 1))
    out = [1]
    while out[-1] < top:
        out.append(out[-1] * 2)
    return out


def centered_maximal(values, h, alpha, policy):
    """sup over centered cubes Q of |Q|^(alpha/n - 1) * integral of |f| over Q."""
    absf = np.abs(np.asarray(values, dtype=float))
    n = absf.ndim
    best = np.zeros(absf.shape)
    for m in radii(policy, absf.shape):
        s = absf
        for axis in range(n):
            s = _window_sums(s, m, axis)
        np.maximum(best, (2.0 * m * h) ** (alpha - n) * s * h ** n, out=best)
    return best


# -- uncentered fractional maximal (one dimension) ----------------------------


def uncentered_maximal(values, h, alpha):
    """sup over lattice intervals [a, b+1) containing the cell of
    (length)^(alpha - 1) * integral of |f|, as a full (a, b) table."""
    v = np.abs(np.asarray(values, dtype=float))
    n = v.shape[0]
    cum = np.concatenate([[0.0], np.cumsum(v)]) * h
    a = np.arange(n)[:, None]
    b = np.arange(n)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        table = (cum[None, 1:] - cum[:-1, None]) * ((b - a + 1.0) * h) ** (alpha - 1.0)
    table[b < a] = -np.inf
    # best interval starting at a that reaches at least cell j
    reach = np.maximum.accumulate(table[:, ::-1], axis=1)[:, ::-1]
    # then the best start a <= j
    return np.diagonal(np.maximum.accumulate(reach, axis=0)).copy()


def pair_bound(values, h, alpha, base_lo, base_hi, partner_lo, partner_hi):
    """(lhs_min, rhs) of the translate-pair bound for cube indices [lo, hi).

    t comes back from the cell offsets: the partner is the base moved by
    t * radius * sqrt(n), and the factor is ((t + 2) / 2)^(alpha - 1) in 1-D.
    """
    v = np.asarray(values, dtype=float)
    cells = base_hi - base_lo
    t = (partner_lo - base_lo) / (cells / 2.0)
    factor = ((t + 2.0) / 2.0) ** (alpha - 1.0)
    length = cells * h
    avg = float(v[base_lo:base_hi].sum()) * h / length
    rhs = factor * length ** alpha * avg
    mf = uncentered_maximal(v, h, alpha)
    return float(mf[partner_lo:partner_hi].min()), rhs


# -- Riesz potential ----------------------------------------------------------


def riesz_constant(alpha, n):
    return math.gamma((n - alpha) / 2.0) / (
        math.pi ** (n / 2.0) * 2.0 ** alpha * math.gamma(alpha / 2.0))


def self_cell_integral(alpha, n, h):
    """Integral of |u|^(alpha - n) over the cell centered at 0."""
    if n == 1:
        return 2.0 * (h / 2.0) ** alpha / alpha
    # polar coordinates over the 8 congruent triangles of the square
    x, w = np.polynomial.legendre.leggauss(64)
    theta = (math.pi / 8.0) * (x + 1.0)
    r_edge = h / (2.0 * np.cos(theta))
    return 8.0 * (math.pi / 8.0) * float(np.dot(w, r_edge ** alpha / alpha))


def riesz_rows(values, box, alpha, rows):
    """Dense pairwise quadrature of the Riesz potential at the flat cell
    indices `rows`: midpoint rule off the diagonal, exact self-cell."""
    v = np.asarray(values, dtype=float)
    n = v.ndim
    cells = v.shape
    h = (box[0][1] - box[0][0]) / cells[0]
    axes = [lo + (np.arange(c) + 0.5) * h for (lo, _), c in zip(box, cells)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    flat = v.ravel()
    rows = np.asarray(rows)
    d = np.sqrt(((pts[rows][:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    d[np.arange(len(rows)), rows] = 1.0
    kern = d ** (alpha - n) * h ** n
    kern[np.arange(len(rows)), rows] = self_cell_integral(alpha, n, h)
    return riesz_constant(alpha, n) * (kern @ flat)


# -- modulars -------------------------------------------------------------------


def grid_modular(absf, p, cell_volume, lam):
    """Integral of (|f|/lam)^p over finite p plus sup of |f|/lam over {p = inf}."""
    finite = np.isfinite(p)
    with np.errstate(over="ignore"):
        val = float(((absf[finite] / lam) ** p[finite]).sum() * cell_volume)
    if (~finite).any():
        val += float(absf[~finite].max()) / lam
    return val


def box_modular(vols, ps, lam):
    """Modular of the indicator over pieces of volume vols with exponents ps."""
    vols = np.asarray(vols, dtype=float)
    ps = np.asarray(ps, dtype=float)
    finite = np.isfinite(ps)
    with np.errstate(over="ignore"):
        val = float((vols[finite] * lam ** (-ps[finite])).sum())
    return val + (1.0 / lam if (~finite & (vols > 0)).any() else 0.0)


def norm_violation(rho, lam):
    """None when lam is the Luxemburg norm for the modular rho, else why not."""
    if not (math.isfinite(lam) and lam > 0.0):
        return f"norm {lam!r} is not a positive finite number"
    at = rho(lam)
    if not at <= 1.0 + RHO_SLACK:
        return f"rho(f/lam) = {at!r} > 1 at lam = {lam!r}"
    below = rho(lam * (1.0 - NORM_GAP))
    if not below > 1.0:
        return f"rho(f/(lam (1 - {NORM_GAP}))) = {below!r} <= 1: lam too large"
    return None
