"""Modulars, Luxemburg norms, pairing constants and harmonic means.

Every set or grid function is first compiled against an exponent into a
:class:`Distribution`: atoms that each carry a measure, a value of |f| and
a pre-transform exponent value.  Three routes compile:

* a grid function: one atom per cell with f != 0 (midpoint sampling, exact
  for piecewise-constant data aligned with the cells);
* the indicator of a box in any dimension, intervals included: the box is
  cut into the cells each piece owns, where pieces may overlap and the
  first one listed wins.  A constant piece gives one atom, the volume it
  owns.  A bump piece (one dimension only) gives, per run of cells it owns
  (exponent._owned_runs, the walk bounds() and strata() also read), the
  base length, the plateaus and shoulder Gauss nodes of the fully
  contained bumps weighted by their count, and Gauss nodes across the few
  bumps that straddle an end.  The walk does not depend on the number of
  bumps, so intervals of length 1e27 containing 1e13 bumps are fine;
* the set {p = inf}, which enters the modular as one atom with exponent 1
  and weight sup |f| over it (1 for an indicator).

A family of sets (the cubes of a K0 scan, the intervals of a witness
ladder) compiles into one Distribution whose arrays are a rows x atoms
matrix, one row per set, padded with atoms of weight 0.  When every piece
is constant and every set a box, the rows come from one level-volume
table per call: the domain cut at every piece edge into cells, each
labelled with the distinct value of the piece that owns it, so the volume
a box owns at each value is a sum of clipped cell volumes and no box
compiles alone.  Bump exponents and mask or sublevel sets compile each
set through the routes above and pad it into the matrix.  A single box
keeps the box route: it cuts only the box, not the whole domain, and
gives one atom per piece.

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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .exponent import (
    INF,
    ConstantPiece,
    _first_piece_cells,
    _gauss_nodes,
    _owned_runs,
    _tf_array,
    box_intersect,
    box_volume,
    conjugate,
)

# Newton from the left end reaches machine precision in a handful of steps;
# the cap only turns a broken invariant into an error instead of a hang
_NEWTON_STEPS = 200
_CONTRACT_STEPS = 64
# box-cell products per pass of the level-volume table
_TABLE_BLOCK = 1 << 18


# -- compiled distributions ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class Distribution:
    """Exponent values over one set or grid function, or over a family of
    sets, compiled once.

    One set compiles into one row of atoms: atom i carries the measure
    ``w[i]``, the value ``f[i]`` of |f| and the pre-transform exponent value
    ``raw[i]``, and ``measure`` is the measure of the compiled set (for a
    grid function, of the cells where f != 0).  A family compiles into a
    rows x atoms matrix, row r for set r, with one measure per row; w = 0
    marks padding or a value the set does not meet.  ``w`` and ``f`` may be
    scalars shared by all atoms.  The sup of |f| over {p = inf} is read from
    the atoms themselves, unless ``inf_raw`` is given: then every compiled
    set is an indicator and {p = inf} has positive measure in it exactly
    when one of its pre-transform values (nan-padded in a family) maps to
    inf.

    Every read takes the exponent q to apply and gives one value per row.
    q must share the pieces of the compiled exponent; it may be that
    exponent, its conjugate or its fractional dual.
    """

    pieces: tuple
    w: object
    f: object
    raw: np.ndarray
    measure: object
    inf_raw: np.ndarray | None = None

    def values(self, q):
        """The exponent q on every atom."""
        return _values(self.pieces, q, self.raw)

    def _split(self, q):
        """(w, f, v) on the atoms where q is finite, and sup |f| over {q = inf}.

        One set keeps only those atoms; in a family the others become
        padding with w = f = 0, so every row keeps its width."""
        v = self.values(q)
        finite = np.isfinite(v)
        if self.inf_raw is not None:
            sup = np.isinf(_tf_array(q.transforms, self.inf_raw)).any(axis=-1)
        else:
            sup = np.where(finite, 0.0, self.f).max(axis=-1, initial=0.0)
        sup = np.asarray(sup, dtype=float)
        if v.ndim == 1:
            if finite.all():
                return self.w, self.f, v, sup
            return _atoms_where(self.w, finite), _atoms_where(self.f, finite), v[finite], sup
        live = finite & (self.w > 0.0)
        return (np.where(live, self.w, 0.0), np.where(live, self.f, 0.0),
                np.where(live, v, 1.0), sup)

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
        with np.errstate(over="ignore"):
            return float(_modular(*self._split(q), lam))

    def norms(self, q):
        """Luxemburg norm in q of every compiled set, all rows in one solve."""
        w, f, v, sup = self._split(q)
        if v.ndim == 1:  # one set: a batch of one
            return _norms(_one_row(w), _one_row(f), v[None], sup[None])[0]
        return _norms(w, f, v, sup)

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
    """Per row: the sum over its atoms of w (f / lam)^v, plus sup / lam."""
    return np.add.reduce(w * (f / _col(lam)) ** v, axis=-1) + sup / lam


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
    never mix: every reduction runs along one row's atoms, so a row's norm
    does not depend on the other rows.  A row with no atom and no sup has
    norm 0.
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
    absolute error).  The levels of BumpsPiece.attained go to inf_raw.
    """
    bump = piece.bump
    s, m = bump.support_halfwidth, bump.plateau_halfwidth
    nodes, wts = _gauss_nodes()

    def raw_at(dist):
        return piece.base + piece.direction * bump.profile(dist)

    (kf, kl), straddlers = split = piece.full_and_straddling(lo, hi)
    n_full = max(0, kl - kf + 1)
    base_len = hi - lo - n_full * 2.0 * s
    for _, c in straddlers:
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
    inf_raw.extend(piece.attained(lo, hi, split))


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
        _check_covered(p.dimension, None, 0.0)
        return Distribution(p.pieces, np.zeros(0), 1.0, np.zeros(0), 0.0, np.zeros(0))
    edges, owner, volumes = _first_piece_cells(p.pieces, clipped)
    measure = sum((v for v in volumes if v > 0.0), 0.0)
    _check_covered(p.dimension, clipped, measure)
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
        for lo, hi in _owned_runs(edges, owner, k):
            _bump_atoms(piece, lo, hi, ws, raws, inf_raw)
    # without bump atoms the constant atoms make one array in one step
    stack = np.hstack if bumped else np.array
    w, raw = stack(ws), stack(raws).astype(float, copy=False)
    keep = w > 0.0
    return Distribution(p.pieces, w[keep], 1.0, raw[keep], measure, np.array(inf_raw, dtype=float))


def _check_covered(n, clipped, measure):
    """Refuse an n-D box whose part in the exponent's domain, clipped (None
    when it misses the domain), the pieces own only measure of.  An
    interval that misses the domain is no error: it compiles to no atoms."""
    if clipped is None:
        if n > 1:
            raise DomainError("set lies outside the exponent's domain")
    elif measure < box_volume(clipped) * (1.0 - 1e-9):
        if n > 1:
            raise DomainError("box is not covered by the exponent pieces")
        (a, b), = clipped
        raise DomainError(f"interval ({a}, {b}) is not covered by the exponent pieces")


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


def _no_measure(E):
    """The error for a set that compiled to measure 0."""
    if E.is_box():
        return DomainError("set lies outside the exponent's domain")
    return PreconditionError("set has no cells on this grid")


def _mean_inverses(dist, p, sets):
    """Average of 1/p over every set compiled into dist, with 1/inf = 0;
    the error of _no_measure for the first set of measure 0."""
    empty = np.flatnonzero(~(np.asarray(dist.measure) > 0.0))
    if empty.size:
        raise _no_measure(sets[empty[0]])
    return dist.integrals(p, _inverse) / dist.measure


def mean_inverse_exponent(p, E, grid=None):
    """Average of 1/p over the set (clipped to the exponent's domain),
    with 1/inf = 0."""
    return float(_mean_inverses(compile_set(p, E, grid), p, [E]))


def _harmonic_means(dist, p, sets):
    """Harmonic mean of p over every set compiled into dist, one per set:
    the reciprocal of its _mean_inverses, inf where the average of 1/p is 0."""
    inv = np.ravel(_mean_inverses(dist, p, sets))
    with np.errstate(divide="ignore"):
        return np.where(inv == 0.0, INF, 1.0 / inv)


def harmonic_mean(p, E, grid=None):
    """Harmonic mean exponent of the set: reciprocal of the average of 1/p."""
    return float(_harmonic_means(compile_set(p, E, grid), p, [E])[0])


# -- families of sets: one row per set ----------------------------------------


def _compile_family(p, sets, grid=None):
    """Compile every set of a family against p, row r for sets[r].

    When every piece is constant and every set a box, all rows are read
    from one level-volume table (see _box_rows); otherwise each set
    compiles alone through compile_set and its atoms are padded into the
    rows.  Errors are those of compile_set for the first set that fails.
    """
    sets = list(sets)
    if all(isinstance(piece, ConstantPiece) for piece in p.pieces) and all(
            E.is_box() for E in sets):
        return _box_rows(p, [E.box for E in sets])
    dists = [compile_set(p, E, grid) for E in sets]
    atoms = max((d.raw.size for d in dists), default=0)
    levels = max((d.raw.size if d.inf_raw is None else d.inf_raw.size for d in dists), default=0)
    w, raw = np.zeros((len(dists), atoms)), np.ones((len(dists), atoms))
    inf_raw = np.full((len(dists), levels), np.nan)
    for r, d in enumerate(dists):
        w[r, :d.raw.size] = d.w
        raw[r, :d.raw.size] = d.raw
        attained = d.raw if d.inf_raw is None else d.inf_raw
        inf_raw[r, :attained.size] = attained
    return Distribution(p.pieces, w, 1.0, raw, np.array([d.measure for d in dists]), inf_raw)


def _box_rows(p, boxes):
    """Rows of the indicators of boxes against a constant-piece exponent.

    The level-volume table cuts the domain at every piece edge into the
    cells of _first_piece_cells and gives each cell the level (distinct raw
    value) of the first piece that covers it; on a line, runs of one level
    merge into one cell.  The volume W_j a box owns at level j is linear in
    the table: the sum over the cells of level j of the cell volume inside
    the box, a product of one clipped length per axis.  Every term is one
    difference of nearby numbers, so W_j keeps its relative precision
    however small the box is against the domain.  The boxes pass in blocks
    of at most _TABLE_BLOCK box-cell products, so memory does not grow with
    the family.  Levels are ordered by the first piece that owns them, which
    keeps the atom order of _compile_box when the pieces have distinct
    values.
    """
    n = p.dimension
    for box in boxes:
        if len(box) != n:
            raise PreconditionError(f"a {len(box)}-D box against a {n}-D exponent")
    edges, owner, _ = _first_piece_cells(p.pieces, p.domain)
    values = []
    for k in np.unique(owner[owner >= 0]).tolist():
        if p.pieces[k].value not in values:
            values.append(p.pieces[k].value)
    level = np.array([values.index(pc.value) if pc.value in values else -1
                      for pc in p.pieces] + [-1])[owner]
    edges = [np.asarray(e) for e in edges]
    if n == 1:
        keep = np.flatnonzero(np.diff(level, prepend=-2, append=-2))
        edges, level = [edges[0][keep]], level[keep[:-1]]
    level = level.ravel()
    order = np.argsort(level, kind="stable")[np.count_nonzero(level < 0):]
    starts = np.flatnonzero(np.diff(level[order], prepend=-1))
    ends = np.array(boxes, dtype=float).reshape(len(boxes), n, 2)
    dom = np.array(p.domain)
    lo, hi = np.maximum(ends[:, :, 0], dom[:, 0]), np.minimum(ends[:, :, 1], dom[:, 1])
    w = np.zeros((len(boxes), starts.size))
    step = max(1, _TABLE_BLOCK // level.size)
    for r in range(0, len(boxes) if order.size else 0, step):
        cells = None
        for axis, e in enumerate(edges):
            upper = np.minimum(hi[r:r + step, axis, None], e[1:])
            inside = np.maximum(upper - np.maximum(lo[r:r + step, axis, None], e[:-1]), 0.0)
            cells = inside if cells is None else (cells[:, :, None] * inside[:, None, :]).reshape(
                len(inside), cells.shape[1] * inside.shape[1])
        w[r:r + step] = np.add.reduceat(cells[:, order], starts, axis=1)
    measure = np.add.reduce(w, axis=1)
    short = (hi <= lo).any(axis=1) | (measure < np.multiply.reduce(hi - lo, axis=1) * (1.0 - 1e-9))
    for r in np.flatnonzero(short).tolist():
        _check_covered(n, box_intersect(boxes[r], p.domain), float(measure[r]))
    raw = np.broadcast_to(np.array(values, dtype=float), w.shape)
    return Distribution(p.pieces, w, 1.0, raw, measure, np.where(w > 0.0, raw, np.nan))
