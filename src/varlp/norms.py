"""Modulars, Luxemburg norms, pairing constants and harmonic means.

Every set or grid function is first compiled against an exponent into a
:class:`Distribution`: atoms that each carry a measure, a value of |f| and
a pre-transform exponent value.  Three routes compile:

* a grid function: one atom per cell with f != 0 (midpoint sampling, exact
  for piecewise-constant data aligned with the cells);
* the indicator of a box in any dimension, intervals included: the box is
  cut into the cells each piece owns, where pieces may overlap and the
  first one listed wins.  A constant piece gives one atom, the volume it
  owns.  A bump piece (one dimension only) gives, per run of cells it owns,
  the base length, the plateaus and shoulder Gauss nodes of the fully
  contained bumps weighted by their count, and Gauss nodes across the few
  bumps that straddle an end.  The walk does not depend on the number of
  bumps, so intervals of length 1e27 containing 1e13 bumps are fine;
* the set {p = inf}, which enters the modular as one atom with exponent 1
  and weight sup |f| over it (1 for an indicator).

An integral of g(p) over a compiled set is the sum of w_i g(v_i) over its
atoms.  The Luxemburg norm lam = exp(t) solves
logsumexp(a_i - v_i t) = 0 with a_i = log w_i + v_i log|f_i|.  The left
side is convex and decreasing in t (the modular is log-convex in log lam;
Cruz-Uribe and Fiorenza, Variable Lebesgue Spaces, 2013, ch. 2), so
Newton's method started at the left end max a_i / v_i climbs monotonically
to the root, at any scale a float can hold.  Conjugate and fractional-dual
exponents share the pieces of their base exponent and differ only in how
the exponent values are transformed, so one compiled set serves all of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .exponent import (
    INF,
    ConstantPiece,
    _first_piece_cells,
    _gauss_nodes,
    _tf_array,
    box_intersect,
    box_volume,
    conjugate,
)

# Newton from the left end reaches machine precision in a handful of steps;
# the cap only turns a broken invariant into an error instead of a hang
_NEWTON_STEPS = 200
_CONTRACT_STEPS = 64


# -- compiled distributions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class Distribution:
    """Exponent values over one set or grid function, compiled once.

    Atom i carries the measure ``w[i]``, the value ``f[i]`` of |f| and the
    pre-transform exponent value ``raw[i]``; ``w`` and ``f`` may be scalars
    shared by all atoms.  The sup of |f| over {p = inf} is read from the
    atoms themselves, unless ``inf_raw`` is given: then the compiled set is
    an indicator and {p = inf} has positive measure exactly when one of
    those pre-transform values maps to inf.  ``measure`` is the measure of
    the compiled set (for a grid function, of the cells where f != 0).

    Every read takes the exponent q to apply.  q must share the pieces of
    the compiled exponent; it may be that exponent, its conjugate or its
    fractional dual.
    """

    pieces: tuple
    w: object
    f: object
    raw: np.ndarray
    measure: float
    inf_raw: np.ndarray | None = None

    def values(self, q):
        """The exponent q on every atom."""
        if q.pieces != self.pieces:
            raise PreconditionError("exponent does not share the compiled pieces")
        return _tf_array(q.transforms, self.raw)

    def _split(self, q):
        """(w, f, v) on the atoms where q is finite, and sup |f| over {q = inf}."""
        v = self.values(q)
        finite = np.isfinite(v)
        if self.inf_raw is not None:
            sup = float(np.isinf(_tf_array(q.transforms, self.inf_raw)).any())
        else:
            sup = float(np.broadcast_to(self.f, v.shape)[~finite].max(initial=0.0))
        if finite.all():
            return self.w, self.f, v, sup
        return _atoms_where(self.w, finite), _atoms_where(self.f, finite), v[finite], sup

    def integral(self, q, g):
        """Integral of g(q) over the compiled set: the sum of w_i g(q_i).

        g is a vectorized nonnegative function of the exponent values; it
        sees inf where q is infinite and should map it to something finite.
        """
        return float(np.sum(self.w * g(self.values(q))))

    def modular(self, q, lam):
        """Modular of f / lam in q."""
        if not lam > 0.0:
            raise PreconditionError(f"scale lambda must be positive, got {lam}")
        return _modular(*self._split(q), lam)

    def norm(self, q):
        """Luxemburg norm in q: the least lam with modular(q, lam) <= 1."""
        w, f, v, sup = self._split(q)
        if v.size == 0 and sup == 0.0:
            return 0.0
        a = np.log(w) + v * np.log(f)
        exps = v
        if sup > 0.0:
            a = np.append(a, math.log(sup))
            exps = np.append(v, 1.0)
        with np.errstate(over="ignore"):
            lam = float(np.exp(_log_norm(a, exps)))
        # rho(c lam) <= c^(-min q) rho(lam) for c >= 1: rounding in the log
        # domain is repaired upward until the modular itself is at most 1
        v_min = float(exps.min())
        for _ in range(_CONTRACT_STEPS):
            rho = _modular(w, f, v, sup, lam)
            if rho <= 1.0:
                return lam
            with np.errstate(over="ignore"):
                up = lam * rho ** (1.0 / v_min)
            lam = up if up > lam else float(np.nextafter(lam, INF))
        raise ArithmeticError(f"no scale with modular <= 1 found near {lam}")


def _atoms_where(x, keep):
    return x[keep] if np.ndim(x) else x


def _modular(w, f, v, sup, lam):
    with np.errstate(over="ignore"):
        return float(np.sum(w * (f / lam) ** v)) + sup / lam


def _log_norm(a, v):
    """Root t of logsumexp(a - v t) = 0 for exponents v >= 1.

    The function is convex and decreasing and is nonnegative at the start
    max a / v, so every Newton step stays left of the root; iteration stops
    when the step no longer moves t or t reaches the root.
    """
    t = float(np.max(a / v))
    for _ in range(_NEWTON_STEPS):
        e = a - v * t
        top = float(e.max())
        z = np.exp(e - top)
        s = float(z.sum())
        value = top + math.log(s)
        if value <= 0.0:
            return t
        nxt = t + value * s / float(np.dot(v, z))
        if not nxt > t:
            return t
        t = nxt
    raise ArithmeticError("Newton iteration for the norm did not settle")


# -- grid route -------------------------------------------------------------


def _compile_cells(p, domain, keep, f):
    """One atom per grid cell where keep holds; f is |f| on those cells."""
    raw = p.raw_values_on(domain, keep)[keep]
    return Distribution(p.pieces, domain.cell_volume, f, raw,
                        int(np.count_nonzero(keep)) * domain.cell_volume)


def _compile_grid(f, p, region=None):
    """One atom per cell of f where f != 0, optionally within a region."""
    af = np.abs(f.values)
    keep = af > 0.0
    if region is not None:
        keep &= region.mask_on(f.domain)
    return _compile_cells(p, f.domain, keep, af[keep])


def modular(f, p, region=None):
    """Modular of a grid function: integral of |f|^p plus sup of |f| over {p = inf}."""
    return _compile_grid(f, p, region).modular(p, 1.0)


def luxemburg_norm(f, p, region=None):
    """Luxemburg norm of a grid function: inf of lam with modular(f/lam) <= 1."""
    return _compile_grid(f, p, region).norm(p)


# -- pairing constants ------------------------------------------------------


def holder_constant(p):
    """Constant K with integral |fg| <= K * norm_p(f) * norm_conjugate(g).

    Built from the global exponent bounds and which of the three level
    regions ({p = 1}, {1 < p < inf}, {p = inf}) carry positive measure.
    Always at most 4.
    """
    s = p.strata()
    lo, hi = p.bounds()
    total = 0.0
    if s.has_finite:
        total += 1.0 / lo - (0.0 if hi == INF else 1.0 / hi) + 1.0
    if s.has_inf:
        total += 1.0
    if s.has_one:
        total += 1.0
    return total


def duality_constant(p):
    """Constant k <= 1 with k * norm(f) <= sup over unit-norm g of integral fg.

    The reciprocal counts how many of the three level regions are charged,
    so k is at least 1/3.
    """
    return 1.0 / p.strata().count


@dataclass(frozen=True)
class PairingReport:
    integral: float
    f_norm: float
    g_norm: float
    constant: float
    bound: float
    holds: bool


def holder_pairing_check(f, g, p, tol=1e-6):
    """Check integral |f g| <= K * norm_p(f) * norm_p'(g) on a shared grid."""
    if f.domain.box != g.domain.box or f.domain.cells != g.domain.cells:
        raise PreconditionError("pairing check needs both functions on the same grid")
    lhs = float((np.abs(f.values) * np.abs(g.values)).sum()) * f.domain.cell_volume
    const = holder_constant(p)
    fn = luxemburg_norm(f, p)
    gn = luxemburg_norm(g, conjugate(p))
    bound = const * fn * gn
    return PairingReport(lhs, fn, gn, const, bound, lhs <= bound * (1.0 + tol))


# -- indicator norms and means for boxes and general sets -------------------


def _bump_atoms(piece, lo, hi, ws, raws, inf_raw):
    """Append the atoms of one bump-piece segment [lo, hi].

    The fully contained bumps give one plateau atom and one atom per
    shoulder Gauss node, weighted by their count; each straddling window
    gives Gauss nodes per smooth stretch; what is left is the base length.
    Bumps whose center coordinates are quantized more coarsely than the
    bump itself count as whole when the center lies in [lo, hi] (O(1)
    absolute error).  The base and the plateau value go to inf_raw when
    they are attained on positive measure.
    """
    bump = piece.bump
    s, m = bump.support_halfwidth, bump.plateau_halfwidth
    nodes, wts = _gauss_nodes()

    def raw_at(dist):
        return piece.base + piece.direction * bump.profile(dist)

    (kf, kl), straddlers = piece.full_and_straddling(lo, hi)
    n_full = max(0, kl - kf + 1)
    cover = n_full * 2.0 * s
    base_len = hi - lo - n_full * 2.0 * s
    for _, c in straddlers:
        cover += max(0.0, min(hi, c + s) - max(lo, c - s))
        if np.spacing(abs(c)) > 0.01 * s:
            if lo <= c <= hi:
                base_len -= 2.0 * s
                n_full += 1
            continue
        o0, o1 = max(lo - c, -s), min(hi - c, s)
        if o1 <= o0:
            continue
        base_len -= o1 - o0
        knots = [o0] + [o for o in (-s, -m, m, s) if o0 < o < o1] + [o1]
        for u0, u1 in zip(knots, knots[1:]):
            half, midp = 0.5 * (u1 - u0), 0.5 * (u0 + u1)
            ws.append(half * wts)
            raws.append(raw_at(np.abs(midp + half * nodes)))
    if n_full:
        half, mid = 0.5 * (s - m), 0.5 * (s + m)
        ws.append(np.array([n_full * 2.0 * m]))
        raws.append(np.array([piece.top]))
        ws.append((n_full * 2.0 * half) * wts)
        raws.append(raw_at(mid + half * nodes))
    if base_len > 0.0:
        ws.append(np.array([base_len]))
        raws.append(np.array([piece.base]))
    if (hi - lo) - cover > 1e-12 * max(1.0, hi - lo):
        inf_raw.append(piece.base)
    if bump.height > 0:
        pf, pl = piece.centers.index_range_in(lo - m, hi + m)
        if pl >= pf:
            inf_raw.append(piece.top)


def _compile_box(p, box):
    """Atoms of the indicator of a box clipped to the exponent's domain.

    Each elementary cell of the box goes to the first piece listed whose
    closed box covers it (see _first_piece_cells).  A constant piece gives
    one atom, the volume it owns; a bump piece, which lives on a line, gives
    the atoms of _bump_atoms for each run of cells it owns, left to right.
    Atoms keep the order of the pieces.  An interval that misses the domain
    compiles to no atoms; a box in higher dimension that misses it is an
    error.
    """
    if len(box) != p.dimension:
        raise PreconditionError(f"a {len(box)}-D box against a {p.dimension}-D exponent")
    clipped = box_intersect(box, p.domain)
    if clipped is None:
        if p.dimension > 1:
            raise DomainError("set lies outside the exponent's domain")
        return Distribution(p.pieces, np.zeros(0), 1.0, np.zeros(0), 0.0, np.zeros(0))
    edges, owner, volumes = _first_piece_cells(p.pieces, clipped)
    measure = sum((v for v in volumes if v > 0.0), 0.0)
    if measure < box_volume(clipped) * (1.0 - 1e-9):
        if p.dimension > 1:
            raise DomainError("box is not covered by the exponent pieces")
        (a, b), = clipped
        raise DomainError(f"interval ({a}, {b}) is not covered by the exponent pieces")
    ws, raws, inf_raw = [], [], []
    bumped = False
    for k, (piece, v) in enumerate(zip(p.pieces, volumes)):
        if not v > 0.0:
            continue
        if isinstance(piece, ConstantPiece):
            ws.append(v)
            raws.append(piece.value)
            inf_raw.append(piece.value)
            continue
        bumped = True
        start = 0
        for owned_by, run in itertools.groupby(owner.tolist()):
            stop = start + len(list(run))
            if owned_by == k:
                _bump_atoms(piece, edges[0][start], edges[0][stop], ws, raws, inf_raw)
            start = stop
    # without bump atoms the constant atoms make one array in one step
    stack = np.hstack if bumped else np.array
    w, raw = stack(ws), stack(raws).astype(float, copy=False)
    keep = w > 0.0
    return Distribution(p.pieces, w[keep], 1.0, raw[keep], measure, np.array(inf_raw, dtype=float))


def interval_integral(p, a, b, g):
    """Integral over [a, b] of g(p(x)) for a one-dimensional exponent.

    g is a vectorized nonnegative function of the transformed exponent
    values and must map the value inf to something finite (or the result
    is inf).
    """
    return _compile_box(p, ((a, b),)).integral(p, g)


def interval_has_infinite_exponent(p, a, b):
    """Whether the transformed exponent equals inf on positive measure in [a, b]."""
    return _compile_box(p, ((a, b),))._split(p)[3] > 0.0


def interval_indicator_modular(p, a, b, lam):
    """Modular of (indicator of [a, b]) / lam via the box route."""
    return _compile_box(p, ((a, b),)).modular(p, lam)


def interval_indicator_norm(p, a, b):
    """Luxemburg norm of the indicator of [a, b] via the box route."""
    if b <= a:
        return 0.0
    return _compile_box(p, ((a, b),)).norm(p)


def _set_grid(E, grid):
    """The grid a non-box set is rasterized on: its own mask grid, else grid."""
    domain = E.grid_mask[0] if E.grid_mask is not None else grid
    if domain is None:
        raise PreconditionError("a non-box set needs an evaluation grid")
    return domain


def compile_set(p, E, grid=None):
    """Distribution of the indicator of a measurable set against p.

    Boxes, intervals included, compile exactly from the cells each piece
    owns (see _compile_box); anything else is rasterized on its own mask
    grid or on the given grid.
    """
    if E.is_box():
        return _compile_box(p, E.box)
    domain = _set_grid(E, grid)
    return _compile_cells(p, domain, E.mask_on(domain), 1.0)


def set_measure(E, grid=None):
    """Lebesgue measure of a measurable set, exact for boxes."""
    if E.is_box():
        return E.measure_exact()
    return E.measure_on(_set_grid(E, grid))


def set_norm(p, E, grid=None):
    """Luxemburg norm of the indicator of a measurable set (see compile_set)."""
    return compile_set(p, E, grid).norm(p)


def _inverse(v):
    with np.errstate(divide="ignore"):
        return np.where(np.isinf(v), 0.0, 1.0 / v)


def _mean_inverse(dist, p, E):
    """Average of 1/p over the set E compiled into dist, with 1/inf = 0."""
    if dist.measure <= 0.0:
        if E.is_box():
            raise DomainError("set lies outside the exponent's domain")
        raise PreconditionError("set has no cells on this grid")
    return dist.integral(p, _inverse) / dist.measure


def mean_inverse_exponent(p, E, grid=None):
    """Average of 1/p over the set (clipped to the exponent's domain),
    with 1/inf = 0."""
    return _mean_inverse(compile_set(p, E, grid), p, E)


def harmonic_mean(p, E, grid=None):
    """Harmonic mean exponent of the set: reciprocal of the average of 1/p."""
    inv = mean_inverse_exponent(p, E, grid)
    return INF if inv == 0.0 else 1.0 / inv
