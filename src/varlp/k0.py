"""Cube-family constants: indicator-norm products, averaging bounds,
harmonic-mean estimates, and the lattice search for the least-mean cube.

Supremum-type constants are estimated by scanning a declared finite family
of sets, so every reported value is a lower bound for the true supremum.
Unboundedness claims are therefore always phrased through monotone growth
along an explicit witness sequence, never as a proven divergence.

A family is compiled once (_family_rows), and every measure, K0^alpha
sample and harmonic mean is read from its rows, each sample through one
formula (_k0_report).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, PreconditionError
from .exponent import INF, conjugate, sobolev_dual
from .grid import Cube, GridFunction, MeasurableSet
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


@dataclass
class CubeFamily:
    """Finite family of measurable sets."""

    sets: tuple

    def __post_init__(self):
        self.sets = tuple(self.sets)

    @classmethod
    def from_cubes(cls, cubes):
        return cls(tuple(MeasurableSet.from_cube(c) for c in cubes))

    @classmethod
    def from_boxes(cls, boxes):
        return cls(tuple(MeasurableSet.from_box(b) for b in boxes))

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)


@dataclass(frozen=True)
class K0Sample:
    """One set's K0^alpha sample; measure is that of the set in the
    exponent's domain, read from the family's compiled rows."""

    index: int
    measure: float
    norm_conjugate: float
    norm_dual: float
    value: float


@dataclass
class K0Report:
    alpha: float
    best_value: float
    best_index: int
    samples: list


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
    """(sets, measures, compiled): the family as a list, all its sets
    compiled against p as one family, and the measure of each set in the
    domain read from the compiled rows; a set of measure 0 is refused (see
    norms._measures)."""
    sets = list(family)
    compiled = _compile_family(p, sets)
    return sets, _measures(compiled, sets).tolist(), compiled


def _k0_report(alpha, n, measures, norms_conjugate, norms_dual):
    """The samples measure^(alpha/n - 1) * ||chi_E||_p' * ||chi_E||_q of
    the compiled rows, indexed by row, and their sup."""
    samples = []
    best_value, best_index = -math.inf, -1
    for i, (measure, nc, nd) in enumerate(zip(measures, norms_conjugate.tolist(),
                                              norms_dual.tolist())):
        value = measure ** (alpha / n - 1.0) * nc * nd
        samples.append(K0Sample(i, measure, nc, nd, value))
        if value > best_value:
            best_value, best_index = value, i
    return K0Report(alpha, best_value, best_index, samples)


def k0_constant(p, family):
    """Family supremum of measure(E)^(-1) * ||chi_E||_p * ||chi_E||_p'."""
    return k0alpha_constant(p, 0.0, family)


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
    (k0_constant).  The norms in p and p' come from one batched solve each.
    """
    holder, duality = holder_constant(p), duality_constant(p)
    sets, measures, compiled = _family_rows(p, family)
    norms_p = compiled.norms(p)
    # the dual exponent of order 0 is p itself
    k0_value = _k0_report(0.0, p.dimension, measures, compiled.norms(conjugate(p)),
                          norms_p).best_value
    means = _harmonic_means(compiled, p, sets).tolist()
    rows = []
    for i, (measure, norm, hm) in enumerate(zip(measures, norms_p.tolist(), means)):
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
    sets, measures, compiled = _family_rows(p, family)
    norm_p, norm_pc, norm_q, norm_qc = (compiled.norms(r)
                                        for r in (p, conjugate(p), q, conjugate(q)))
    rep_alpha = _k0_report(alpha, n, measures, norm_pc, norm_q)
    rep_p = _k0_report(0.0, n, measures, norm_pc, norm_p)
    rep_q = _k0_report(0.0, n, measures, norm_qc, norm_q)
    c_conv = 4.0 * holder_constant(p) * holder_constant(q)
    rows, converse_ok = [], True
    inverses = zip(_mean_inverses(compiled, p, sets).tolist(),
                   _mean_inverses(compiled, q, sets).tolist())
    samples = zip(rep_alpha.samples, rep_p.samples, rep_q.samples)
    for (sa, sp, sq), (inv_p, inv_q) in zip(samples, inverses):
        gap = abs((1.0 - inv_p) + inv_q - (1.0 - alpha / n))
        forward_ok = (sp.value <= 2.0 * sa.value * (1.0 + _CHECK_TOL)
                      and sq.value <= 2.0 * sa.value * (1.0 + _CHECK_TOL))
        if sa.value > c_conv * rep_p.best_value * rep_q.best_value * (1.0 + _CHECK_TOL):
            converse_ok = False
        rows.append(EquivalenceRow(sa.index, sa.value, sp.value, sq.value,
                                   gap, forward_ok, gap <= _IDENTITY_TOL))
    all_ok = converse_ok and all(r.forward_ok and r.identity_ok for r in rows)
    return EquivalenceReport(rows, c_conv, converse_ok, all_ok)


# -- harmonic-mean minimization over cube positions ---------------------------


def _center_lattice(x, half_range, spacing):
    if half_range < spacing * 1e-12:
        return np.array([x])
    count = int(math.floor(2.0 * half_range / spacing + 1e-9)) + 1
    return x - half_range + spacing * np.arange(count)


def _cube_mean_reader(p, E):
    """means(axes, radius): mean of 1/p (1/inf = 0) over E cap Q for cubes Q
    centered on the outer product of axes.  A mask set is read on its own
    grid: Q takes its cells per axis from GridDomain.box_cells and its sums
    from the 2^n corners of one zero-padded summed-area table of 1/p and 1
    on E, and the mean is nan where Q has no cells of E.  For a box E all
    the boxes E cap Q compile as one family (see norms._compile_family) and
    their means are read from its rows; a cube outside the domain raises,
    as for one set."""
    if E.is_box():
        def exact_means(axes, radius):
            shape = tuple(len(a) for a in axes)
            sets = [E.intersect_box(Cube([a[i] for a, i in zip(axes, idx)], radius).as_box())
                    for idx in np.ndindex(shape)]
            return _mean_inverses(_compile_family(p, sets), p, sets).reshape(shape)

        return exact_means

    grid, mask = E.grid_mask
    table = np.zeros((2,) + mask.shape)
    table[0][mask] = 1.0 / p.values_on(grid, mask)[mask]
    table[1] = mask
    for axis in range(1, grid.dimension + 1):
        table = np.cumsum(table, axis=axis)
    table = np.pad(table, [(0, 0)] + [(1, 0)] * grid.dimension)

    def grid_means(axes, radius):
        sums = table
        cells = grid.box_cells([(a - radius, a + radius) for a in axes])
        for axis, run in enumerate(cells):
            sums = np.take(sums, run.stop, axis=axis + 1) - np.take(sums, run.start, axis=axis + 1)
        inv, count = sums
        return np.divide(inv, count, out=np.full(count.shape, np.nan), where=count > 0)

    return grid_means


def minimal_harmonic_mean_cube(p, D, r, E, spacing=None, verify_scaling=True):
    """Cube of radius r inside D whose intersection with E has the smallest
    harmonic mean exponent, found by scanning a center lattice.

    Requires 0 < r <= radius(D), the complement D minus E smaller than one
    radius-r cube, and a bounded exponent on D and E.  The set picks the
    route (see _cube_mean_reader): for a mask set all cubes read one
    summed-area table of 1/p over its cells on its own grid, and the lattice
    spacing defaults to that grid's h; for a box the cubes compile exactly,
    as one family, and the spacing defaults to r/8.  In row-major order a
    cube wins when it beats the best so far by a relative 1e-15.  With
    verify_scaling, cubes of radius m*r sampled inside D must not beat the
    minimum (their mean is a weighted average over radius-r subcubes), a
    guard against lattice misalignment.
    """
    n, R = D.dimension, D.radius
    if not (0.0 < r <= R * (1.0 + 1e-12)):
        raise PreconditionError(f"need 0 < r <= {R}, got r = {r}")
    d_set = E.intersect_box(D.as_box())
    gap = MeasurableSet.from_cube(D).measure - d_set.measure
    if gap >= (2.0 * r) ** n:
        raise PreconditionError(
            f"complement of E in D has measure {gap}, needs < {(2.0 * r) ** n}"
        )
    if compile_set(p, d_set).values(p).max(initial=-INF) == INF:
        raise PreconditionError("exponent must be bounded on D and E")
    if spacing is None:
        spacing = r / 8.0 if E.is_box() else E.grid_mask[0].h
    means = _cube_mean_reader(p, E)

    axes = [_center_lattice(D.center[i], R - r, spacing) for i in range(n)]
    inv = means(axes, r)
    best_inv, best_idx = -1.0, None
    for idx in np.ndindex(inv.shape):  # nan (a cube that misses E) never wins
        if inv[idx] > best_inv * (1.0 + 1e-15):
            best_inv, best_idx = inv[idx], idx
    if best_idx is None:
        raise ConstructionError("no candidate cube met E on the lattice")
    best_mean = INF if best_inv == 0.0 else 1.0 / best_inv

    m_max = int(R * (1.0 + 1e-12) / r) if verify_scaling else 1
    for m in range(2, m_max + 1):
        for i in range(n):
            lat = _center_lattice(D.center[i], R - m * r, spacing)
            lat = lat[np.unique(np.linspace(0, len(lat) - 1, min(len(lat), 9)).astype(int))]
            axes_m = [lat if j == i else np.array([D.center[j]]) for j in range(n)]
            with np.errstate(divide="ignore"):
                mean_m = 1.0 / means(axes_m, m * r)
            beaten = np.argwhere(best_mean > mean_m + 1e-9)
            if len(beaten):
                idx = tuple(beaten[0])
                center = tuple(float(a[k]) for a, k in zip(axes_m, idx))
                raise ConstructionError(
                    f"radius-{m}r cube at {center} has smaller mean "
                    f"{mean_m[idx]} than the minimum {best_mean}"
                )
    return Cube([a[i] for a, i in zip(axes, best_idx)], r)


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
