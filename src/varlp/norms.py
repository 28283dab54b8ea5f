"""Modulars, Luxemburg norms, pairing constants and harmonic means.

Every set or grid function is first compiled against an exponent into a
:class:`Distribution`: atoms that each carry a measure, a value of |f| and
a pre-transform exponent value.  Two routes compile:

* a grid function: one atom per cell with f != 0 (midpoint sampling, exact
  for piecewise-constant data aligned with the cells);
* the indicator of a box in any dimension, intervals included: row 0 of
  the box compiled as a family of one (exponent._family_atoms), where
  pieces may overlap and the first one listed wins.  A constant piece
  gives one atom, the volume it owns.  A bump piece (one dimension only)
  gives, per run of cells it owns, the atoms of the run's split
  (BumpsPiece._runs): Gauss nodes across the few bumps that straddle an
  end, the plateaus and shoulder Gauss nodes of the whole bumps weighted
  by their count, and the base length.  The split does not depend on the
  number of bumps, so intervals of length 1e27 containing 1e13 bumps are
  fine.  bounds() and strata() read the same atoms of the exponent's whole
  domain.

The atoms where the exponent is inf enter the modular as one term with
exponent 1 and weight sup |f| over them (1 for an indicator).  A bump
shoulder meets its plateau and its base quadratically, so where a shoulder
inside a set ends on a value the exponent maps to inf, the modular is inf
for every lam < 1 and the norm is at least 1: a floor, read from the
compiled shoulder ends, that no quadrature node can see.

A family of sets (the cubes of a K0 scan, the intervals of a witness
ladder) compiles into one Distribution whose arrays are a rows x atoms
matrix, one row per set, padded with atoms of weight 0.  A family of boxes
takes its rows from exponent._family_atoms, one pass over the exponent's
cached cut of its domain; here it is only checked for coverage.  A single
box is such a family of one.  Mask sets compile each set through the grid
route and pad it into the matrix.

An integral of g(p) over a compiled set is the sum of w_i g(v_i) over its
atoms.  The Luxemburg norm lam = exp(t) solves
logsumexp(a_i - v_i t) = 0 with a_i = log w_i + v_i log|f_i|.  The left
side is convex and decreasing in t (the modular is log-convex in log lam;
Cruz-Uribe and Fiorenza, Variable Lebesgue Spaces, 2013, ch. 2), so
Newton's method started at the left end max a_i / v_i climbs monotonically
to the root, at any scale a float can hold.  One solver runs this Newton
over every row of a rows x atoms matrix at once, each row with its own
start, stopping test and repair, so a single set is a batch of one.
Conjugate and fractional-dual exponents share the pieces of their base
exponent and differ only in how the exponent values are transformed, so
one compiled set or family serves all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, SpecParseError
from .exponent import INF, _family_atoms, _tf_array, conjugate
from .grid import box_intersect, box_volume

# Newton from the left end reaches machine precision in a handful of steps;
# the cap only turns a broken invariant into an error instead of a hang
_NEWTON_STEPS = 200
_CONTRACT_STEPS = 64
# relative slack of the bound in holder_pairing_check
_PAIRING_TOL = 1e-6
# the least set measure whose norm is read (see Distribution.norms)
_LEAST_MEASURE = (1.0 + 1e-9) / np.finfo(float).max


# -- compiled distributions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class Distribution:
    """Exponent values over one set or grid function, or over a family of
    sets, compiled once.

    One set compiles into one row of atoms: atom i carries the measure
    ``w[i]``, the value ``f[i]`` of |f| and the pre-transform exponent value
    ``raw[i]``, and ``measure`` is the measure of the compiled set (for a
    grid function, of the cells where f != 0).  ``ends`` holds the raw
    values at the ends of the bump shoulders inside the set (see
    exponent._bump_blocks).  A family compiles into a rows x atoms matrix,
    row r for set r, with one measure per row and its ends padded with nan;
    w = 0 marks padding or a value the set does not meet.  ``w`` and ``f``
    may be scalars shared by all atoms; every atom of one set has w > 0.
    {p = inf} is read from the atoms by one rule: sup |f| over it is the
    largest f over the atoms of positive weight where the exponent is inf.

    Every read takes the exponent q to apply and gives one value per row.
    q must share the pieces of the compiled exponent; it may be that
    exponent, its conjugate or its fractional dual.
    """

    pieces: tuple
    w: object
    f: object
    raw: np.ndarray
    measure: object
    ends: object

    def values(self, q):
        """The exponent q on every atom."""
        return _values(self.pieces, q, self.raw)

    def _split(self, q):
        """(w, f, v) on the atoms where q is finite, and sup |f| over the
        atoms of positive weight where q is inf.

        One set keeps only the finite atoms; in a family the others become
        padding with w = f = 0, so every row keeps its width."""
        v = self.values(q)
        finite = np.isfinite(v)
        if v.ndim == 1:
            sup = np.where(finite, 0.0, self.f).max(initial=0.0)
            if finite.all():
                return self.w, self.f, v, sup
            return _atoms_where(self.w, finite), _atoms_where(self.f, finite), v[finite], sup
        padding = ~(self.w > 0.0)
        sup = np.where(finite | padding, 0.0, self.f).max(axis=-1, initial=0.0)
        live = finite & ~padding
        return (np.where(live, self.w, 0.0), np.where(live, self.f, 0.0),
                np.where(live, v, 1.0), sup)

    def _poles(self, q):
        """Per row, whether a shoulder inside the set ends on a raw value
        that q maps to inf, so the modular is inf for every lam < 1."""
        if not np.size(self.ends):
            return False
        return np.isinf(_values(self.pieces, q, np.asarray(self.ends))).any(axis=-1)

    def integrals(self, q, g):
        """Integral of g(q) over every compiled set: the sum of w_i g(q_i).

        g is a vectorized nonnegative function of the exponent values; it
        sees inf where q is infinite and should map it to something finite.
        """
        return np.add.reduce(self.w * g(self.values(q)), axis=-1)

    def integral(self, q, g):
        """Integral of g(q) over the one compiled set."""
        return float(self.integrals(q, g))

    def modular(self, q, lam):
        """Modular of f / lam in q, for one compiled set."""
        if not lam > 0.0:
            raise PreconditionError(f"scale lambda must be positive, got {lam}")
        if lam < 1.0 and self._poles(q):
            return INF
        with np.errstate(over="ignore"):
            return float(_modular(*self._split(q), lam))

    def norms(self, q):
        """Luxemburg norm in q of every compiled set, all rows in one solve.

        The repair of the root reads (f / lam)^v, 1 / measure at the root of
        an indicator, so a set whose reciprocal measure overflows is refused."""
        tiny = (self.measure > 0.0) & (self.measure < _LEAST_MEASURE)
        if np.count_nonzero(tiny):
            raise PreconditionError(f"set measure {float(np.extract(tiny, self.measure)[0])!r} "
                                    f"is too small: its reciprocal overflows")
        w, f, v, sup = self._split(q)
        one = v.ndim == 1  # one set: a batch of one
        lam = _norms(_one_row(w), _one_row(f), v[None], sup[None]) if one else _norms(w, f, v, sup)
        pole = self._poles(q)
        if np.any(pole):
            lam = np.where(pole, np.fmax(lam, 1.0), lam)
        return lam[0] if one else lam

    def norm(self, q):
        """Luxemburg norm in q: the least lam with modular(q, lam) <= 1."""
        return float(self.norms(q))


def _values(pieces, q, raw):
    """q on pre-transform values compiled against pieces that q must share."""
    if q.pieces != pieces:
        raise PreconditionError("exponent does not share the compiled pieces")
    return _tf_array(q.transforms, raw)


def _atoms_where(x, keep):
    return x[keep] if np.ndim(x) else x


def _one_row(x):
    """x as the weights of one row: a scalar stays shared by every atom."""
    return x[None] if getattr(x, "ndim", 0) else x


def _pick(x, rows):
    return x[rows] if getattr(x, "ndim", 0) else x


def _col(x):
    """Row values against a row's atoms: a column, or a float for a lone row
    (numpy broadcasts a Python float faster than a numpy scalar)."""
    return x[:, None] if getattr(x, "ndim", 0) else float(x)


def _modular(w, f, v, sup, lam):
    """Per row: the sum over its atoms of w (f / lam)^v, plus sup / lam.

    A term (f / lam)^v can overflow where w is small enough that w times it
    is finite, as for a subnormal w; a row whose sum overflowed is read
    again in the log domain."""
    rho = np.add.reduce(w * (f / _col(lam)) ** v, axis=-1) + sup / lam
    # a lone row's sum is a numpy float, compared faster than isinf reads it
    if np.isinf(rho).any() if rho.ndim else rho == INF:
        with np.errstate(divide="ignore"):
            e = np.log(w) + v * (np.log(f) - np.log(_col(lam)))
        top = np.maximum.reduce(e, axis=-1, keepdims=True)
        top = np.where(np.isfinite(top), top, 0.0)
        again = np.exp(top[..., 0] + np.log(np.add.reduce(np.exp(e - top), axis=-1))) + sup / lam
        rho = np.where(np.isinf(rho), again, rho)
    return rho


def _norms(w, f, v, sup):
    """Luxemburg norm of every row of a modular: the least lam with
    sum_k w[r, k] (f[r, k] / lam)^v[r, k] + sup[r] / lam <= 1.

    v is a (rows, atoms) array of finite exponents >= 1; w and f are
    scalars shared by every atom or arrays with one row per row of v that
    broadcast against it, and an atom with w = 0 or f = 0 is padding that
    adds nothing.  Each row runs its own Newton in t = log lam on
    logsumexp(a - v t) = 0, a = log w + v log f, from its own start
    max a / v (the root of its largest term, where the left side is still
    nonnegative); the left side is convex and decreasing, so every step
    stays left of the root.  A row stops when its step no longer moves t,
    which includes reaching the root, and then has the rounding of the log
    domain repaired upward until its modular itself is at most 1.  Rows
    never mix: every reduction runs along one row's atoms, so among rows of
    one width a row's norm does not depend on the other rows.  Its width
    does matter: numpy sums a row pairwise, so padding a row with atoms of
    weight 0 can move its norm in the last bit.  A row with no atom and no
    sup has norm 0.
    """
    n = len(sup)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.log(w) + v * np.log(f)
        exps = v
        if np.count_nonzero(sup):
            a = np.hstack([a, np.log(sup)[:, None]])
            exps = np.hstack([v, np.ones((n, 1))])
        t = np.maximum.reduce(a / exps, axis=1, initial=-INF)
        if n == 1:
            if t[0] == -INF:
                return np.zeros(1)
            rows = 0  # a lone row runs on scalars: the same arithmetic, less overhead
        else:
            live = t > -INF
            if not live.any():
                return np.zeros(n)
            rows = slice(None) if live.all() else np.flatnonzero(live)
        _newton(t, rows, a[rows], exps[rows])
        lam = np.exp(t)
        # rho(c lam) <= c^(-min q) rho(lam) for c >= 1: rounding in the log
        # domain is repaired upward until the modular itself is at most 1
        v_min = None
        for _ in range(_CONTRACT_STEPS):
            rho = _modular(_pick(w, rows), _pick(f, rows), v[rows], sup[rows], lam[rows])
            if isinstance(rows, int):
                if rho <= 1.0:
                    return lam
            else:
                over = ~(rho <= 1.0)
                if not over.any():
                    return lam
                rows, rho = _rows_where(rows, over), rho[over]
                v_min = None if v_min is None else v_min[over]
            if v_min is None:
                v_min = np.minimum.reduce(np.where(a[rows] > -INF, exps[rows], INF), axis=-1)
            # the step, or the next float up when the step does not move lam
            lam[rows] = np.fmax(lam[rows] * rho ** (1.0 / v_min), np.nextafter(lam[rows], INF))
    raise ArithmeticError(f"no scale with modular <= 1 found near {np.min(lam[rows])}")


def _newton(t, rows, a, v):
    """Move t[rows] to the root of logsumexp(a - v t) = 0, each row alone."""
    lone = isinstance(rows, int)
    # a lone row's values are floats; np.dot equals np.vecdot on one row
    col, dot = (float, np.dot) if lone else (_col, np.vecdot)
    for _ in range(_NEWTON_STEPS):
        tr = t[rows]
        e = a - v * col(tr)
        top = np.maximum.reduce(e, axis=-1)
        z = np.exp(e - col(top))
        s = np.add.reduce(z, axis=-1)
        value = top + np.log(s)
        if lone and not value > 0.0:  # at the root: skip the step, which would not move t
            return
        nxt = tr + value * s / dot(v, z)
        move = nxt > tr
        if lone:
            if not move:
                return
        elif not move.all():
            if not move.any():
                return
            rows, nxt, a, v = _rows_where(rows, move), nxt[move], a[move], v[move]
        t[rows] = nxt
    raise ArithmeticError("Newton iteration for the norm did not settle")


def _rows_where(rows, keep):
    """The rows of a slice or index array where keep holds, as indices."""
    return np.flatnonzero(keep) if isinstance(rows, slice) else rows[keep]


# -- grid route -------------------------------------------------------------


def _compile_cells(p, domain, keep, f):
    """One atom per grid cell where keep holds; f is |f| on those cells."""
    raw = p.raw_values_on(domain, keep)[keep]
    return Distribution(p.pieces, domain.cell_volume, f, raw,
                        int(np.count_nonzero(keep)) * domain.cell_volume, ())


def _compile_grid(f, p):
    """One atom per cell of f where f != 0."""
    af = np.abs(f.values)
    keep = af > 0.0
    return _compile_cells(p, f.domain, keep, af[keep])


def modular(f, p):
    """Modular of a grid function: integral of |f|^p plus sup of |f| over {p = inf}."""
    return _compile_grid(f, p).modular(p, 1.0)


def luxemburg_norm(f, p):
    """Luxemburg norm of a grid function: inf of lam with modular(f/lam) <= 1."""
    return _compile_grid(f, p).norm(p)


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


def holder_pairing_check(f, g, p):
    """Check integral |f g| <= K * norm_p(f) * norm_p'(g) on a shared grid."""
    if f.domain.box != g.domain.box or f.domain.cells != g.domain.cells:
        raise PreconditionError("pairing check needs both functions on the same grid")
    lhs = float((np.abs(f.values) * np.abs(g.values)).sum()) * f.domain.cell_volume
    const = holder_constant(p)
    fn = luxemburg_norm(f, p)
    gn = luxemburg_norm(g, conjugate(p))
    bound = const * fn * gn
    return PairingReport(lhs, fn, gn, const, bound, lhs <= bound * (1.0 + _PAIRING_TOL))


# -- indicator norms and means for boxes and general sets -------------------


def _compile_boxes(p, boxes):
    """The indicators of boxes clipped to the exponent's domain, row r for
    boxes[r] (a list of boxes or one (m, n, 2) array of their ends), from
    one pass over the exponent's cached cut of its domain
    (exponent._family_atoms): per row one atom per constant piece that owns
    some of the box, and per run of cells a bump piece owns the atoms of
    its split, in the order of the pieces and of the runs.

    Then each box is checked for coverage: an interval that misses the
    domain compiles to no atoms; a box in higher dimension that misses it,
    or that the pieces leave part of bare, is an error, as is a box of
    another dimension.  The first box that fails raises.
    """
    n = p.dimension
    # the boxes before the first of another dimension raise their errors first
    if isinstance(boxes, np.ndarray):
        split = len(boxes) if boxes.shape[1] == n else 0
    else:
        split = next((r for r, box in enumerate(boxes) if len(box) != n), len(boxes))
    lo, hi, measure, w, raw, ends = _family_atoms(p.pieces, p.domain, boxes[:split])
    volume = np.multiply.reduce(hi - lo, axis=1)
    short = (hi <= lo).any(axis=1) | (volume == 0.0) | (measure < volume * (1.0 - 1e-9))
    for r in np.flatnonzero(short).tolist():
        box = np.asarray(boxes[r], dtype=float).tolist()
        _check_covered(n, box_intersect(box, p.domain), float(measure[r]))
    if split < len(boxes):
        raise PreconditionError(f"a {len(boxes[split])}-D box against a {n}-D exponent")
    return Distribution(p.pieces, w, 1.0, raw, measure, ends)


def _compile_box(p, box):
    """Atoms of the indicator of a box clipped to the exponent's domain: the
    box compiled as a family of one (_compile_boxes), read as one set.
    bounds() and strata() read the same atoms of the exponent's whole
    domain."""
    return _family_row(_compile_boxes(p, [box]), 0)


def _check_covered(n, clipped, measure):
    """Refuse an n-D box whose part in the exponent's domain, clipped (None
    when it misses the domain), has volume 0.0 or the pieces own only
    measure of.  An interval that misses the domain is no error: it
    compiles to no atoms.  Only a product of sides can underflow: no side of
    clipped is 0."""
    if clipped is None:
        if n > 1:
            raise DomainError("set lies outside the exponent's domain")
    elif box_volume(clipped) == 0.0:
        raise PreconditionError(f"the volume of box {clipped} underflows to 0")
    elif measure < box_volume(clipped) * (1.0 - 1e-9):
        if n > 1:
            raise DomainError("box is not covered by the exponent pieces")
        (a, b), = clipped
        raise DomainError(f"interval ({a}, {b}) is not covered by the exponent pieces")


def _compile_interval(p, a, b):
    """The interval [a, b] compiled as a box: empty when b <= a, clipped to
    the domain where an end is infinite, and refused with a nan end."""
    if math.isnan(a) or math.isnan(b):
        raise SpecParseError(f"degenerate box axis ({float(a)}, {float(b)})")
    return _compile_box(p, ((a, b),))


def interval_integral(p, a, b, g):
    """Integral over [a, b] of g(p(x)) for a one-dimensional exponent.

    g is a vectorized nonnegative function of the transformed exponent
    values and must map the value inf to something finite (or the result
    is inf).
    """
    return _compile_interval(p, a, b).integral(p, g)


def interval_indicator_modular(p, a, b, lam):
    """Modular of (indicator of [a, b]) / lam via the box route."""
    return _compile_interval(p, a, b).modular(p, lam)


def interval_indicator_norm(p, a, b):
    """Luxemburg norm of the indicator of [a, b] via the box route."""
    if b <= a:
        return 0.0
    return _compile_interval(p, a, b).norm(p)


def compile_set(p, E):
    """Distribution of the indicator of a measurable set against p.

    Boxes, intervals included, compile exactly from the cells each piece
    owns (see _compile_box); a mask set compiles its cells on its own grid.
    """
    if E.is_box():
        return _compile_box(p, E.box)
    return _compile_cells(p, *E.grid_mask, 1.0)


def set_norm(p, E):
    """Luxemburg norm of the indicator of a measurable set (see compile_set)."""
    return compile_set(p, E).norm(p)


def _inverse(v):
    with np.errstate(divide="ignore"):
        return np.where(np.isinf(v), 0.0, 1.0 / v)


def _no_measure(E):
    """The error for a set that compiled to measure 0."""
    if E.is_box():
        return DomainError("set lies outside the exponent's domain")
    return PreconditionError("set has no cells on this grid")


def _measures(dist, sets):
    """The measure of every set compiled into dist, as an array; the error
    of _no_measure for the first set of measure 0."""
    measure = np.asarray(dist.measure)
    empty = np.flatnonzero(~(measure > 0.0))
    if empty.size:
        raise _no_measure(sets[empty[0]])
    return measure


def _mean_inverses(dist, p, sets):
    """Average of 1/p over every set compiled into dist, with 1/inf = 0;
    a set of measure 0 is refused (see _measures).  Each set is first scaled
    by the power of two that puts its measure in [0.5, 1): exact, so only a
    set of subnormal weights reads other bits, those it keeps by it."""
    measure = _measures(dist, sets)
    shift = -np.frexp(measure)[1]
    w = np.ldexp(dist.w, shift[..., None])
    return np.add.reduce(w * _inverse(dist.values(p)), axis=-1) / np.ldexp(measure, shift)


def mean_inverse_exponent(p, E):
    """Average of 1/p over the set (clipped to the exponent's domain),
    with 1/inf = 0."""
    return float(_mean_inverses(compile_set(p, E), p, [E]))


def _harmonic_means(dist, p, sets):
    """Harmonic mean of p over every set compiled into dist, one per set:
    the reciprocal of its _mean_inverses, inf where the average of 1/p is 0."""
    inv = np.ravel(_mean_inverses(dist, p, sets))
    with np.errstate(divide="ignore"):
        return np.where(inv == 0.0, INF, 1.0 / inv)


def harmonic_mean(p, E):
    """Harmonic mean exponent of the set: reciprocal of the average of 1/p."""
    return float(_harmonic_means(compile_set(p, E), p, [E])[0])


# -- families of sets: one row per set ----------------------------------------


def _compile_family(p, sets):
    """Compile every set of a family against p, row r for sets[r].

    A family of boxes compiles in one pass (_compile_boxes), as a single
    box does; a family that holds its boxes as one (m, n, 2) array of
    their ends, boxes (as k0.CubeFamily does), passes that array, so no
    set is built.  A family with a mask set compiles each set alone
    through compile_set and pads its atoms into the rows.  Errors are
    those of compile_set for the first set that fails.
    """
    if getattr(sets, "boxes", None) is not None:
        return _compile_boxes(p, sets.boxes)
    sets = list(sets)
    if all(E.is_box() for E in sets):
        return _compile_boxes(p, [E.box for E in sets])
    dists = [compile_set(p, E) for E in sets]
    atoms = max((d.raw.size for d in dists), default=0)
    w, raw = np.zeros((len(dists), atoms)), np.ones((len(dists), atoms))
    ends = np.full((len(dists), max((len(d.ends) for d in dists), default=0)), np.nan)
    for r, d in enumerate(dists):
        w[r, :d.raw.size] = d.w
        raw[r, :d.raw.size] = d.raw
        ends[r, :len(d.ends)] = d.ends
    return Distribution(p.pieces, w, 1.0, raw, np.array([d.measure for d in dists]), ends)


def _family_row(dist, r):
    """Row r of a compiled family of sets as one compiled set: its atoms of
    positive weight and its shoulder ends."""
    w, ends = dist.w[r], dist.ends[r]
    atoms = w > 0.0
    return Distribution(dist.pieces, w[atoms], dist.f, dist.raw[r][atoms], float(dist.measure[r]),
                        tuple(ends[~np.isnan(ends)].tolist()))
