"""Cube-family constants: indicator-norm products, averaging bounds,
harmonic-mean estimates, and the lattice search for the least-mean cube.

Supremum-type constants are estimated by scanning a declared finite family
of sets, so every reported value is a lower bound for the true supremum.
Unboundedness claims are therefore always phrased through monotone growth
along an explicit witness sequence, never as a proven divergence.

A family is measured and compiled once (_family_rows), and every K0^alpha
sample and harmonic mean is read from its rows, each sample through one
formula (_k0_report).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError, PreconditionError
from .exponent import INF, box_intersect, box_volume, conjugate, sobolev_dual
from .grid import Cube, GridFunction, MeasurableSet
from .norms import (
    _compile_family,
    _harmonic_means,
    _inverse,
    _mean_inverses,
    compile_set,
    duality_constant,
    holder_constant,
    luxemburg_norm,
    mean_inverse_exponent,
    set_measure,
    set_norm,
)
from .operators import averaging_op


@dataclass
class CubeFamily:
    """Finite family of measurable sets, optionally with witness cubes.

    When cube_property is set, each set E carries a cube Q with E inside Q
    and measure(E) at least half of measure(Q).
    """

    sets: tuple
    witnesses: tuple = ()
    cube_property: bool = False

    def __post_init__(self):
        self.sets = tuple(self.sets)
        self.witnesses = tuple(self.witnesses)
        if self.cube_property and len(self.witnesses) != len(self.sets):
            raise PreconditionError("cube property needs one witness cube per set")

    @classmethod
    def from_cubes(cls, cubes):
        return cls(tuple(MeasurableSet.from_cube(c) for c in cubes))

    @classmethod
    def from_boxes(cls, boxes):
        return cls(tuple(MeasurableSet.from_box(b) for b in boxes))

    @classmethod
    def interval_ladder(cls, centers, radii):
        """All intervals (c - r, c + r) over the cross product, one dimension."""
        sets = []
        for c in centers:
            for r in radii:
                sets.append(MeasurableSet.from_box([(c - r, c + r)],
                                                   label=f"I({c:g},{r:g})"))
        return cls(tuple(sets))

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)

    def check_cube_property(self, grid=None):
        if not self.cube_property:
            return True
        for E, Q in zip(self.sets, self.witnesses):
            inside = E.intersect_box(Q.as_box())
            me = set_measure(E, grid)
            mi = set_measure(inside, grid)
            if mi < me * (1.0 - 1e-9):
                raise ConstructionError(f"set {E.label!r} is not inside its witness cube")
            if me < 0.5 * Q.volume * (1.0 - 1e-9):
                raise ConstructionError(
                    f"set {E.label!r} has measure {me} < half of its cube {Q.volume}"
                )
        return True


@dataclass(frozen=True)
class K0Sample:
    index: int
    label: str
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


def k0alpha_constant(p, alpha, family, grid=None):
    """Family supremum of measure(E)^(alpha/n - 1) * ||chi_E||_p' * ||chi_E||_q.

    q is the fractional dual of order alpha; at alpha = 0 this reduces to the
    plain indicator-product constant with the (p, p') pair.
    """
    q = sobolev_dual(p, alpha)
    sets, measures, compiled = _family_rows(p, family, grid)
    return _k0_report(alpha, p.dimension, sets, measures, compiled.norms(conjugate(p)),
                      compiled.norms(q))


def _measure_in_domain(p, E, grid):
    """measure(E cap domain), read from the two boxes when E is a box."""
    if not E.is_box():
        return set_measure(E.intersect_box(p.domain), grid)
    both = box_intersect(E.box, p.domain)
    if both is None:
        raise DomainError("intersection with box is empty")
    return box_volume(both)


def _family_measures(p, family, grid):
    """measure(E cap domain) of every set of the family, each positive."""
    measures = [_measure_in_domain(p, E, grid) for E in family]
    for i, measure in enumerate(measures):
        if not measure > 0.0:
            raise PreconditionError(f"family set {i} has measure {measure}")
    return measures


def _family_rows(p, family, grid):
    """(sets, measures, compiled): the family as a list, the measure of each
    set in the domain, and all sets compiled against p as one family."""
    sets = list(family)
    return sets, _family_measures(p, sets, grid), _compile_family(p, sets, grid)


def _k0_report(alpha, n, sets, measures, norms_conjugate, norms_dual):
    """The samples measure^(alpha/n - 1) * ||chi_E||_p' * ||chi_E||_q and their sup."""
    samples = []
    best_value, best_index = -math.inf, -1
    for i, (E, measure, nc, nd) in enumerate(zip(sets, measures, norms_conjugate.tolist(),
                                                 norms_dual.tolist())):
        value = measure ** (alpha / n - 1.0) * nc * nd
        samples.append(K0Sample(i, E.label, measure, nc, nd, value))
        if value > best_value:
            best_value, best_index = value, i
    return K0Report(alpha, best_value, best_index, samples)


def k0_constant(p, family, grid=None):
    """Family supremum of measure(E)^(-1) * ||chi_E||_p * ||chi_E||_p'."""
    return k0alpha_constant(p, 0.0, family, grid)


def dual_witness(p, E, domain, cap=200.0):
    """Unit-modular witness concentrated on E.

    Takes ||chi_E||_p' raised to the power 1 - p'(x) on E; its modular in p
    equals the modular of chi_E / ||chi_E||_p' in p', which is 1, and its
    integral over E recovers ||chi_E||_p' exactly.  Returns None when p' is
    unbounded (or huge) on E, where the formula degenerates.
    """
    pv = conjugate(p).values_on(domain)
    mask = E.mask_on(domain)
    if not mask.any():
        return None
    if not np.isfinite(pv[mask]).all() or pv[mask].max() > cap:
        return None
    lam = set_norm(conjugate(p), E, domain)
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


def averaging_uniform_bound(p, alpha, family, witnesses=None, grid=None, tol=1e-6):
    """Largest observed ratio ||A_E f||_q / ||f||_p over the family.

    Checks the two transfer inequalities: the ratio never exceeds the
    pairing constant times the family constant, and conversely the family
    constant is at most the reciprocal duality constant times the ratio.
    The converse needs sharp witnesses, so each set also gets its canonical
    unit-modular witness in addition to any supplied ones.
    """
    if grid is None:
        raise PreconditionError("averaging bound needs an evaluation grid")
    q = sobolev_dual(p, alpha)
    k0 = k0alpha_constant(p, alpha, family, grid)
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
    upper_ok = sup_ratio <= holder * k0.best_value * (1.0 + tol)
    converse_ok = k0.best_value <= sup_ratio / duality * (1.0 + tol)
    return AveragingReport(sup_ratio, best_set, holder, duality, k0.best_value,
                           upper_ok, converse_ok, rows)


@dataclass(frozen=True)
class SandwichRow:
    index: int
    label: str
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


def norm_harmonic_sandwich(p, family, grid=None, tol=1e-6):
    """Two-sided comparison of indicator norms with measure^(1/p_E).

    lower = measure^(1/p_E) / (2K) and upper = (2 K^2 K0 / k) measure^(1/p_E)
    with K, k the pairing constants of p and K0 the family constant
    (k0_constant).  The norms in p and p' come from one batched solve each.
    """
    holder, duality = holder_constant(p), duality_constant(p)
    sets, measures, compiled = _family_rows(p, family, grid)
    norms_p = compiled.norms(p)
    # the dual exponent of order 0 is p itself
    k0_value = _k0_report(0.0, p.dimension, sets, measures, compiled.norms(conjugate(p)),
                          norms_p).best_value
    means = _harmonic_means(compiled, p, sets).tolist()
    rows = []
    for i, (E, measure, norm, hm) in enumerate(zip(sets, measures, norms_p.tolist(), means)):
        base = measure ** (0.0 if hm == INF else 1.0 / hm)
        lower = base / (2.0 * holder)
        upper = 2.0 * holder ** 2 * k0_value / duality * base
        ok = lower * (1.0 - tol) <= norm <= upper * (1.0 + tol)
        rows.append(SandwichRow(i, E.label, measure, hm, norm, lower, upper, ok))
    return SandwichReport(holder, duality, k0_value, rows, all(r.ok for r in rows))


@dataclass(frozen=True)
class EquivalenceRow:
    index: int
    label: str
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


def k0alpha_iff_k0_check(p, alpha, family, grid=None, tol=1e-6, identity_tol=1e-9):
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
    sets, measures, compiled = _family_rows(p, family, grid)
    norm_p, norm_pc, norm_q, norm_qc = (compiled.norms(r)
                                        for r in (p, conjugate(p), q, conjugate(q)))
    rep_alpha = _k0_report(alpha, n, sets, measures, norm_pc, norm_q)
    rep_p = _k0_report(0.0, n, sets, measures, norm_pc, norm_p)
    rep_q = _k0_report(0.0, n, sets, measures, norm_qc, norm_q)
    c_conv = 4.0 * holder_constant(p) * holder_constant(q)
    rows, converse_ok = [], True
    inverses = zip(_mean_inverses(compiled, p, sets).tolist(),
                   _mean_inverses(compiled, q, sets).tolist())
    samples = zip(rep_alpha.samples, rep_p.samples, rep_q.samples)
    for (sa, sp, sq), (inv_p, inv_q) in zip(samples, inverses):
        gap = abs((1.0 - inv_p) + inv_q - (1.0 - alpha / n))
        forward_ok = (sp.value <= 2.0 * sa.value * (1.0 + tol)
                      and sq.value <= 2.0 * sa.value * (1.0 + tol))
        if sa.value > c_conv * rep_p.best_value * rep_q.best_value * (1.0 + tol):
            converse_ok = False
        rows.append(EquivalenceRow(sa.index, sa.label, sa.value, sp.value, sq.value,
                                   gap, forward_ok, gap <= identity_tol))
    all_ok = converse_ok and all(r.forward_ok and r.identity_ok for r in rows)
    return EquivalenceReport(rows, c_conv, converse_ok, all_ok)


# -- harmonic-mean minimization over cube positions ---------------------------


def _center_lattice(x, half_range, spacing):
    if half_range < spacing * 1e-12:
        return np.array([x])
    count = int(math.floor(2.0 * half_range / spacing + 1e-9)) + 1
    return x - half_range + spacing * np.arange(count)


def _cube_mean_reader(p, E, grid):
    """means(axes, radius): mean of 1/p (1/inf = 0) over E cap Q for cubes Q
    centered on the outer product of axes, nan where Q misses E.  On a grid
    Q takes its cells per axis from GridDomain.box_cells and its sums from
    the 2^n corners of one zero-padded summed-area table of 1/p and 1 on E.
    Without a grid, all the sets E cap Q compile as one family (see
    norms._compile_family) and their means are read from its rows."""
    if grid is None:
        def exact_means(axes, radius):
            shape = tuple(len(a) for a in axes)
            sets = [E.intersect_box(Cube([a[i] for a, i in zip(axes, idx)], radius).as_box())
                    for idx in np.ndindex(shape)]
            try:
                compiled = _compile_family(p, sets)
            except PreconditionError:  # e.g. a sublevel set and no grid: no cube has a mean
                return np.full(shape, np.nan)
            if E.is_box():  # a cube outside the domain raises, as for one set
                return _mean_inverses(compiled, p, sets).reshape(shape)
            measure = compiled.measure  # a cube without cells of E has no mean
            inv = np.divide(compiled.integrals(p, _inverse), measure,
                            out=np.full(measure.shape, np.nan), where=measure > 0.0)
            return inv.reshape(shape)

        return exact_means

    mask = E.mask_on(grid)
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


def minimal_harmonic_mean_cube(p, D, r, E, grid=None, spacing=None, verify_scaling=True):
    """Cube of radius r inside D whose intersection with E has the smallest
    harmonic mean exponent, found by scanning a center lattice.

    Requires 0 < r <= radius(D), the complement D minus E smaller than one
    radius-r cube, and a bounded exponent on D and E.  On a grid all cubes
    read one summed-area table of 1/p over E's cells; without one, the cubes
    compile exactly, as one family.  In row-major order a cube wins when it
    beats the best so far by a relative 1e-15.  With verify_scaling, cubes
    of radius m*r sampled inside D must not beat the minimum (their mean is
    a weighted average over radius-r subcubes), a guard against lattice
    misalignment.
    """
    n, R = D.dimension, D.radius
    if not (0.0 < r <= R * (1.0 + 1e-12)):
        raise PreconditionError(f"need 0 < r <= {R}, got r = {r}")
    d_set = E.intersect_box(D.as_box())
    gap = set_measure(MeasurableSet.from_cube(D), grid) - set_measure(d_set, grid)
    if gap >= (2.0 * r) ** n:
        raise PreconditionError(
            f"complement of E in D has measure {gap}, needs < {(2.0 * r) ** n}"
        )
    if compile_set(p, d_set, grid).values(p).max(initial=-INF) == INF:
        raise PreconditionError("exponent must be bounded on D and E")
    if spacing is None:
        spacing = grid.h if grid is not None else r / 8.0
    means = _cube_mean_reader(p, E, grid)

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


def subdivision_identity_gap(p, K, E, m, grid=None):
    """Deviation in the exact subdivision identity for a cube split m-fold.

    1/p_{K cap E} equals the measure-weighted average of 1/p_{K_i cap E}
    over the m^n congruent subcubes; returns the absolute gap.
    """
    n = K.dimension
    r = K.radius / m
    total_inv = mean_inverse_exponent(p, E.intersect_box(K.as_box()), grid)
    total_measure = set_measure(E.intersect_box(K.as_box()), grid)
    acc = 0.0
    offsets = [(2 * j + 1 - m) * r for j in range(m)]
    for combo in itertools.product(offsets, repeat=n):
        center = tuple(K.center[i] + combo[i] for i in range(n))
        try:
            sub = E.intersect_box(Cube(center, r).as_box())
        except DomainError:
            continue
        mi = set_measure(sub, grid)
        if mi <= 0.0:
            continue
        acc += mi * mean_inverse_exponent(p, sub, grid)
    return abs(total_inv - acc / total_measure)
