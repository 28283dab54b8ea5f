"""Cube-family constants: indicator-norm products, averaging bounds,
harmonic-mean estimates, and the lattice search for the least-mean cube.

Supremum-type constants are estimated by scanning a declared finite family
of sets, so every reported value is a lower bound for the true supremum.
Unboundedness claims are therefore always phrased through monotone growth
along an explicit witness sequence, never as a proven divergence.

A family of boxes is one array of box ends (CubeFamily), compiled once
(_family_rows) without a set object per box, and every measure, K0^alpha
sample and harmonic mean is read from its rows as a column, each sample
through one formula (_k0_report).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, PreconditionError
from .exponent import INF, conjugate, sobolev_dual
from .grid import Cube, GridFunction, MeasurableSet, as_box
from .norms import (
    _compile_family,
    _harmonic_means,
    _mean_inverses,
    _measures,
    compile_set,
    duality_constant,
    holder_constant,
    luxemburg_norm,
    mean_inverse_exponent,
    set_norm,
)
from .operators import averaging_op

# relative slack of every inequality the checks below test, and the
# absolute slack of the mean identity of k0alpha_iff_k0_check
_CHECK_TOL = 1e-6
_IDENTITY_TOL = 1e-9


class CubeFamily:
    """Finite family of measurable sets, indexed by row.

    A family of boxes holds them as one read-only (m, n, 2) float array,
    boxes, of their ends, validated once, and builds a set only when a row
    is read (by iteration or index); its compile and every K0 read take the
    array as it is.  A family with a cell-mask set holds its sets, and boxes is
    None.
    """

    def __init__(self, sets=(), boxes=None):
        if boxes is None:
            sets = tuple(sets)
            if not all(E.is_box() for E in sets):
                self.boxes, self._sets = None, sets
                return
            boxes = [E.box for E in sets]
        self.boxes, self._sets = _box_array(boxes), None

    @classmethod
    def from_cubes(cls, cubes):
        return cls(boxes=[c.as_box() for c in cubes])

    @classmethod
    def from_boxes(cls, boxes):
        return cls(boxes=boxes)

    def __getitem__(self, i):
        if self.boxes is None:
            return self._sets[i]
        return MeasurableSet.from_box(self.boxes[i].tolist())

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __len__(self):
        return len(self._sets) if self.boxes is None else len(self.boxes)


def _box_array(boxes):
    """The boxes as one (m, n, 2) float array, each checked as as_box checks
    it, and all of the first box's dimension; the first box that fails
    raises as_box's error."""
    boxes = boxes if isinstance(boxes, np.ndarray) else list(boxes)
    try:
        ends = np.array(boxes, dtype=float)
    except (TypeError, ValueError):
        ends = None
    if not (ends is not None and ends.ndim == 3 and ends.shape[2] == 2
            and np.isfinite(ends).all() and (ends[..., 0] < ends[..., 1]).all()):
        rows = []
        for box in boxes:
            rows.append(as_box(box, len(rows[0]) if rows else None))
        ends = np.array(rows, dtype=float).reshape(len(rows), -1, 2) if rows else np.empty((0, 0, 2))
    ends.flags.writeable = False
    return ends


@dataclass(frozen=True)
class K0Sample:
    """One set's K0^alpha sample; measure is that of the set in the
    exponent's domain, read from the family's compiled rows."""

    index: int
    measure: float
    norm_conjugate: float
    norm_dual: float
    value: float


@dataclass(eq=False)
class K0Report:
    """The K0^alpha samples of a family as columns (float arrays indexed by
    row) and their sup; samples lists them as K0Sample objects, built on
    first read."""

    alpha: float
    best_value: float
    best_index: int
    measure: np.ndarray
    norm_conjugate: np.ndarray
    norm_dual: np.ndarray
    value: np.ndarray

    @functools.cached_property
    def samples(self):
        columns = (self.measure, self.norm_conjugate, self.norm_dual, self.value)
        return [K0Sample(i, *row) for i, row in enumerate(zip(*(c.tolist() for c in columns)))]


def k0alpha_constant(p, alpha, family):
    """Family supremum of measure(E)^(alpha/n - 1) * ||chi_E||_p' * ||chi_E||_q.

    q is the fractional dual of order alpha; at alpha = 0 this reduces to the
    plain indicator-product constant with the (p, p') pair.
    """
    q = sobolev_dual(p, alpha)
    _, measures, compiled = _family_rows(p, family)
    return _k0_report(alpha, p.dimension, measures, compiled.norms(conjugate(p)),
                      compiled.norms(q))


def _family_rows(p, family):
    """(family, measures, compiled): the family as a CubeFamily, all its
    sets compiled against p as one family, and the measure of each set in
    the domain read from the compiled rows; a set of measure 0 is refused
    (see norms._measures)."""
    if not isinstance(family, CubeFamily):
        family = CubeFamily(family)
    compiled = _compile_family(p, family)
    return family, _measures(compiled, family), compiled


def _k0_report(alpha, n, measures, norms_conjugate, norms_dual):
    """The samples measure^(alpha/n - 1) * ||chi_E||_p' * ||chi_E||_q of
    the compiled rows, indexed by row, and their sup.  The power is
    Python's float **, whose last bit numpy's can differ in; nan never
    wins."""
    exponent = alpha / n - 1.0
    measures = np.asarray(measures, dtype=float)
    power = np.array([m ** exponent for m in measures.tolist()], dtype=float)
    value = power * norms_conjugate * norms_dual
    ranked = np.where(np.isnan(value), -math.inf, value)
    best = int(np.argmax(ranked)) if ranked.size and ranked.max() > -math.inf else -1
    return K0Report(alpha, float(value[best]) if best >= 0 else -math.inf, best, measures,
                    norms_conjugate, norms_dual, value)


def dual_witness(p, E, domain):
    """Unit-modular witness concentrated on E.

    Takes ||chi_E||_p' raised to the power 1 - p'(x) on E; its modular in p
    equals the modular of chi_E / ||chi_E||_p' in p', which is 1, and its
    integral over E recovers ||chi_E||_p' exactly.  Returns None when p' is
    unbounded or above 200 on E, where the formula degenerates.
    """
    pv = conjugate(p).values_on(domain)
    mask = E.mask_on(domain)
    if not mask.any():
        return None
    if not np.isfinite(pv[mask]).all() or pv[mask].max() > 200.0:
        return None
    lam = set_norm(conjugate(p), E)
    vals = np.zeros(domain.cells)
    vals[mask] = lam ** (1.0 - pv[mask])
    return GridFunction(domain, vals)


@dataclass
class AveragingReport:
    sup_ratio: float
    best_set: int
    holder: float
    duality: float
    k0alpha: float
    upper_ok: bool
    converse_ok: bool
    rows: list


def averaging_uniform_bound(p, alpha, family, grid, witnesses=None):
    """Largest observed ratio ||A_E f||_q / ||f||_p over the family, every
    function read on the evaluation grid.

    Checks the two transfer inequalities: the ratio never exceeds the
    pairing constant times the family constant, and conversely the family
    constant is at most the reciprocal duality constant times the ratio.
    The converse needs sharp witnesses, so each set also gets its canonical
    unit-modular witness in addition to any supplied ones.
    """
    q = sobolev_dual(p, alpha)
    k0 = k0alpha_constant(p, alpha, family)
    holder = holder_constant(p)
    duality = duality_constant(p)
    rows = []
    sup_ratio, best_set = 0.0, -1
    for i, E in enumerate(family):
        cands = [("indicator", GridFunction.indicator(grid, E))]
        dw = dual_witness(p, E, grid)
        if dw is not None:
            cands.append(("dual-witness", dw))
        for j, w in enumerate(witnesses or []):
            cands.append((f"witness{j}", w))
        for name, f in cands:
            fn = luxemburg_norm(f, p)
            if fn == 0.0:
                raise PreconditionError(f"witness {name} vanishes")
            af = averaging_op(f, E, alpha)
            ratio = luxemburg_norm(af, q) / fn
            rows.append((i, name, ratio))
            if ratio > sup_ratio:
                sup_ratio, best_set = ratio, i
    upper_ok = sup_ratio <= holder * k0.best_value * (1.0 + _CHECK_TOL)
    converse_ok = k0.best_value <= sup_ratio / duality * (1.0 + _CHECK_TOL)
    return AveragingReport(sup_ratio, best_set, holder, duality, k0.best_value,
                           upper_ok, converse_ok, rows)


@dataclass(frozen=True)
class SandwichRow:
    index: int
    measure: float
    mean_exponent: float
    norm: float
    lower: float
    upper: float
    ok: bool


@dataclass
class SandwichReport:
    holder: float
    duality: float
    k0: float
    rows: list
    all_ok: bool


def norm_harmonic_sandwich(p, family):
    """Two-sided comparison of indicator norms with measure^(1/p_E).

    lower = measure^(1/p_E) / (2K) and upper = (2 K^2 K0 / k) measure^(1/p_E)
    with K, k the pairing constants of p and K0 the family constant
    (k0alpha_constant at alpha = 0).  The norms in p and p' come from one
    batched solve each.
    """
    holder, duality = holder_constant(p), duality_constant(p)
    family, measures, compiled = _family_rows(p, family)
    norms_p = compiled.norms(p)
    # the dual exponent of order 0 is p itself
    k0_value = _k0_report(0.0, p.dimension, measures, compiled.norms(conjugate(p)),
                          norms_p).best_value
    means = _harmonic_means(compiled, p, family).tolist()
    rows = []
    for i, (measure, norm, hm) in enumerate(zip(measures.tolist(), norms_p.tolist(), means)):
        base = measure ** (0.0 if hm == INF else 1.0 / hm)
        lower = base / (2.0 * holder)
        upper = 2.0 * holder ** 2 * k0_value / duality * base
        ok = lower * (1.0 - _CHECK_TOL) <= norm <= upper * (1.0 + _CHECK_TOL)
        rows.append(SandwichRow(i, measure, hm, norm, lower, upper, ok))
    return SandwichReport(holder, duality, k0_value, rows, all(r.ok for r in rows))


@dataclass(frozen=True)
class EquivalenceRow:
    index: int
    sample_alpha: float
    sample_p: float
    sample_q: float
    identity_gap: float
    forward_ok: bool
    identity_ok: bool


@dataclass
class EquivalenceReport:
    rows: list
    converse_constant: float
    converse_ok: bool
    all_ok: bool


def k0alpha_iff_k0_check(p, alpha, family):
    """Quantitative equivalence between the order-alpha constant and the two
    order-zero constants of p and its fractional dual q.

    Per set: the p and q samples are at most twice the alpha sample (a
    pointwise Young inequality, since the indicator norm in the constant
    exponent n/alpha is measure^(alpha/n)); the alpha sample is at most
    4 K_p K_q times the product of the two family constants, through the
    exact relation 1/p'_E + 1/q_E = 1 - alpha/n.  q has the pieces of p, so
    the norms in p, p', q and q' and both means read the rows of p.
    """
    n = p.dimension
    q = sobolev_dual(p, alpha)
    family, measures, compiled = _family_rows(p, family)
    norm_p, norm_pc, norm_q, norm_qc = (compiled.norms(r)
                                        for r in (p, conjugate(p), q, conjugate(q)))
    rep_alpha = _k0_report(alpha, n, measures, norm_pc, norm_q)
    rep_p = _k0_report(0.0, n, measures, norm_pc, norm_p)
    rep_q = _k0_report(0.0, n, measures, norm_qc, norm_q)
    c_conv = 4.0 * holder_constant(p) * holder_constant(q)
    rows, converse_ok = [], True
    inverses = zip(_mean_inverses(compiled, p, family).tolist(),
                   _mean_inverses(compiled, q, family).tolist())
    values = zip(rep_alpha.value.tolist(), rep_p.value.tolist(), rep_q.value.tolist())
    for i, ((va, vp, vq), (inv_p, inv_q)) in enumerate(zip(values, inverses)):
        gap = abs((1.0 - inv_p) + inv_q - (1.0 - alpha / n))
        forward_ok = (vp <= 2.0 * va * (1.0 + _CHECK_TOL)
                      and vq <= 2.0 * va * (1.0 + _CHECK_TOL))
        if va > c_conv * rep_p.best_value * rep_q.best_value * (1.0 + _CHECK_TOL):
            converse_ok = False
        rows.append(EquivalenceRow(i, va, vp, vq, gap, forward_ok, gap <= _IDENTITY_TOL))
    all_ok = converse_ok and all(r.forward_ok and r.identity_ok for r in rows)
    return EquivalenceReport(rows, c_conv, converse_ok, all_ok)


# -- harmonic-mean minimization over cube positions ---------------------------


# the most cubes a lattice search reads: (2 (R - r) / spacing + 1)^n on the
# lattice and 9 n R / r in the scaling check.  Above the deepest search a
# chain build admits (constructions._MAX_BLOWUP_WORK / 6, about 2.2e7 cubes)
_MAX_LATTICE_CUBES = 1 << 25


def _center_lattice(x, half_range, spacing):
    if half_range < spacing * 1e-12:
        return np.array([x])
    count = int(math.floor(2.0 * half_range / spacing + 1e-9)) + 1
    return x - half_range + spacing * np.arange(count)


def _lattice_samples(half_ranges, spacing):
    """(at, valid, alone): per half range of an array, the indices into its
    _center_lattice that np.linspace(0, count - 1, min(count, 9)) picks,
    as the rows of an (s, 9) int array at with the first min(count, 9)
    entries of each row valid, found from the count alone; alone marks the
    half ranges whose lattice is the center x itself.  Center k of a row
    is then (x - half_range) + spacing * at[k], as in _center_lattice."""
    alone = half_ranges < spacing * 1e-12
    count = np.where(alone, 1, np.floor(2.0 * half_ranges / spacing + 1e-9) + 1).astype(np.int64)
    at = np.broadcast_to(np.arange(9), (len(count), 9)).copy()
    wide = count >= 9
    at[wide] = np.linspace(0, count[wide] - 1, 9, axis=1).astype(np.int64)
    return at, np.arange(9) < np.minimum(count, 9)[:, None], alone


def _lattice_winner(inv):
    """Flat index of the winner of a row-major scan of the means of 1/p
    (nan for a cube that misses E): a cube wins when it beats the best so
    far by a relative 1e-15; None when every mean is nan.  The means are
    at least 0, so only a record, a mean above every earlier one, can win,
    and only the records are visited."""
    flat = inv.ravel()
    ahead = np.fmax.accumulate(np.concatenate(([-math.inf], flat)))[:-1]
    best, best_inv = None, -1.0
    for j in np.flatnonzero(flat > ahead).tolist():
        if flat[j] > best_inv * (1.0 + 1e-15):
            best, best_inv = j, flat[j]
    return best


def _cube_mean_reader(p, E):
    """means(axes, radius): mean of 1/p (1/inf = 0) over E cap Q for cubes Q
    centered on the outer product of axes, of one radius or of one radius
    per cube (an array that broadcasts to the product's shape).  A mask set
    is read on its own grid: Q takes its cells per axis from
    GridDomain.box_cells and its sums from the 2^n corners of one
    zero-padded summed-area table of 1/p and 1 on E, and the mean is nan
    where Q has no cells of E.  For a box E the boxes E cap Q are clipped
    as one array and compile as one family (see norms._compile_family),
    their means read from its rows; the first cube that is degenerate,
    misses E or lies outside the domain raises, as for one set."""
    if E.is_box():
        sides = np.array(E.box)

        def exact_means(axes, radius):
            shape = tuple(len(a) for a in axes)
            centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
            radii = np.broadcast_to(radius, shape).reshape(-1, 1)
            lo, hi = centers - radii, centers + radii
            cut = np.stack([np.maximum(lo, sides[:, 0]), np.minimum(hi, sides[:, 1])], axis=-1)
            ok = np.isfinite(lo) & np.isfinite(hi) & (lo < hi) & (cut[..., 0] < cut[..., 1])
            bad = np.flatnonzero(~ok.all(axis=1))
            if bad.size:
                E.intersect_box(Cube(centers[bad[0]], float(radii[bad[0], 0])).as_box())
            family = CubeFamily.from_boxes(cut)
            return _mean_inverses(_compile_family(p, family), p, family).reshape(shape)

        return exact_means

    grid, mask = E.grid_mask
    table = np.zeros((2,) + mask.shape)
    table[0][mask] = 1.0 / p.values_on(grid, mask)[mask]
    table[1] = mask
    for axis in range(1, grid.dimension + 1):
        table = np.cumsum(table, axis=axis)
    table = np.pad(table, [(0, 0)] + [(1, 0)] * grid.dimension)

    def grid_means(axes, radius):
        centers = np.meshgrid(*axes, indexing="ij", sparse=True)
        cells = grid.box_cells([(c - radius, c + radius) for c in centers])

        def sums(axis, corner):
            # the differences along axes 0..axis of the table at corner
            # (the indices of the later axes), axis 0 innermost
            if axis < 0:
                return table[(slice(None),) + corner]
            run = cells[axis]
            return sums(axis - 1, (run.stop,) + corner) - sums(axis - 1, (run.start,) + corner)

        inv, count = sums(grid.dimension - 1, ())
        return np.divide(inv, count, out=np.full(count.shape, np.nan), where=count > 0)

    return grid_means


def minimal_harmonic_mean_cube(p, D, r, E, spacing=None, verify_scaling=True):
    """Cube of radius r inside D whose intersection with E has the smallest
    harmonic mean exponent, found by scanning a center lattice.

    Requires 0 < r <= radius(D), a positive finite spacing, at most
    _MAX_LATTICE_CUBES cubes to read, the complement D minus E
    smaller than one radius-r cube, and a bounded exponent on D and E.  The
    set picks the route (see _cube_mean_reader): for a mask set all cubes
    read one summed-area table of 1/p over its cells on its own grid, and
    the lattice spacing defaults to that grid's h; for a box the cubes
    compile exactly, as one family, and the spacing defaults to r/8.  In
    row-major order a cube wins when it beats the best so far by a
    relative 1e-15 (_lattice_winner).  With verify_scaling, cubes of
    radius m*r sampled inside D must not beat the minimum (their mean is a
    weighted average over radius-r subcubes), a guard against lattice
    misalignment (_check_scaling).
    """
    n, R = D.dimension, D.radius
    if not (0.0 < r <= R * (1.0 + 1e-12)):
        raise PreconditionError(f"need 0 < r <= {R}, got r = {r}")
    if spacing is None:
        spacing = r / 8.0 if E.is_box() else E.grid_mask[0].h
    if not (spacing > 0.0 and math.isfinite(spacing)):
        raise PreconditionError(f"lattice spacing must be positive and finite, got {spacing}")
    cubes = math.prod([2.0 * (R - r) / spacing + 1.0] * n) + (9.0 * n * R / r if verify_scaling
                                                                 else 0.0)
    if cubes > _MAX_LATTICE_CUBES:
        raise PreconditionError(f"the search would read about {cubes:.3g} cubes (spacing "
                                f"{spacing}, r = {r}), more than {_MAX_LATTICE_CUBES}")
    d_set = E.intersect_box(D.as_box())
    gap = MeasurableSet.from_cube(D).measure - d_set.measure
    if gap >= (2.0 * r) ** n:
        raise PreconditionError(
            f"complement of E in D has measure {gap}, needs < {(2.0 * r) ** n}"
        )
    if compile_set(p, d_set).values(p).max(initial=-INF) == INF:
        raise PreconditionError("exponent must be bounded on D and E")
    means = _cube_mean_reader(p, E)

    axes = [_center_lattice(D.center[i], R - r, spacing) for i in range(n)]
    inv = means(axes, r)
    best = _lattice_winner(inv)
    if best is None:
        raise ConstructionError("no candidate cube met E on the lattice")
    best_idx = np.unravel_index(best, inv.shape)
    best_inv = inv[best_idx]
    if verify_scaling:
        _check_scaling(means, D, r, spacing, INF if best_inv == 0.0 else 1.0 / best_inv)
    return Cube([a[i] for a, i in zip(axes, best_idx)], r)


def _check_scaling(means, D, r, spacing, best_mean):
    """Raise for the first cube of radius m*r, 2 <= m <= R/r, that beats
    best_mean by 1e-9, in (m, axis, lattice) order.  Along each axis the
    cubes of every m are read at once: the at most 9 centers
    _lattice_samples picks from the lattice of half range R - m*r, the
    other axes at the center of D."""
    n, R = D.dimension, D.radius
    scales = np.arange(2, int(R * (1.0 + 1e-12) / r) + 1)
    if not scales.size:
        return
    half = R - scales * r
    at, valid, alone = _lattice_samples(half, spacing)
    scale, rank = np.nonzero(valid)
    along = [[-1 if j == i else 1 for j in range(n)] for i in range(n)]
    radii = (scales * r)[scale]
    lats, mean = [], np.empty((n, len(scale)))
    for i in range(n):
        x = D.center[i]
        lats.append(np.where(alone[:, None], x, (x - half)[:, None] + spacing * at)[valid])
        with np.errstate(divide="ignore"):
            mean[i] = np.ravel(1.0 / means([lats[i] if j == i else np.array([D.center[j]])
                                             for j in range(n)], radii.reshape(along[i])))
    axis, k = np.nonzero(best_mean > mean + 1e-9)
    if axis.size:
        first = np.argmin((scale[k] * n + axis) * 9 + rank[k])
        i, k = int(axis[first]), int(k[first])
        center = tuple(float(lats[i][k]) if j == i else D.center[j] for j in range(n))
        raise ConstructionError(
            f"radius-{int(scales[scale[k]])}r cube at {center} has smaller mean "
            f"{mean[i, k]} than the minimum {best_mean}"
        )


def subdivision_identity_gap(p, K, E, m):
    """Deviation in the exact subdivision identity for a cube split m-fold.

    1/p_{K cap E} equals the measure-weighted average of 1/p_{K_i cap E}
    over the m^n congruent subcubes; returns the absolute gap.
    """
    n = K.dimension
    r = K.radius / m
    total = E.intersect_box(K.as_box())
    total_inv, total_measure = mean_inverse_exponent(p, total), total.measure
    acc = 0.0
    offsets = [(2 * j + 1 - m) * r for j in range(m)]
    for combo in itertools.product(offsets, repeat=n):
        center = tuple(K.center[i] + combo[i] for i in range(n))
        try:
            sub = E.intersect_box(Cube(center, r).as_box())
        except DomainError:
            continue
        mi = sub.measure
        if mi <= 0.0:
            continue
        acc += mi * mean_inverse_exponent(p, sub)
    return abs(total_inv - acc / total_measure)
