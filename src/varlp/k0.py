"""Cube-family constants: indicator-norm products, averaging bounds, and
harmonic-mean estimates.

Supremum-type constants are estimated by scanning a declared finite family
of sets, so every reported value is a lower bound for the true supremum.
Unboundedness claims are therefore always phrased through monotone growth
along an explicit witness sequence, never as a proven divergence.
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
    compile_set,
    duality_constant,
    harmonic_mean,
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
    n = p.dimension
    pc = conjugate(p)
    q = sobolev_dual(p, alpha)
    samples = []
    best_value, best_index = -math.inf, -1
    for i, E in enumerate(family):
        measure = set_measure(E.intersect_box(p.domain), grid)
        if measure <= 0.0:
            raise PreconditionError(f"family set {i} has measure {measure}")
        dist = compile_set(p, E, grid)
        nc = dist.norm(pc)
        nd = dist.norm(q)
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
    pv = conjugate(p).values(domain.points()).reshape(domain.cells)
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


def norm_harmonic_sandwich(p, family, grid=None, k0_value=None, tol=1e-6):
    """Two-sided comparison of indicator norms with measure^(1/p_E).

    lower = measure^(1/p_E) / (2K) and upper = (2 K^2 K0 / k) measure^(1/p_E)
    with K, k the pairing constants of p and K0 the family constant.
    """
    holder = holder_constant(p)
    duality = duality_constant(p)
    if k0_value is None:
        k0_value = k0_constant(p, family, grid).best_value
    rows = []
    for i, E in enumerate(family):
        measure = set_measure(E.intersect_box(p.domain), grid)
        hm = harmonic_mean(p, E, grid)
        norm = set_norm(p, E, grid)
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
    exact relation 1/p'_E + 1/q_E = 1 - alpha/n.
    """
    n = p.dimension
    q = sobolev_dual(p, alpha)
    rep_alpha = k0alpha_constant(p, alpha, family, grid)
    rep_p = k0_constant(p, family, grid)
    rep_q = k0_constant(q, family, grid)
    kp, kq = holder_constant(p), holder_constant(q)
    c_conv = 4.0 * kp * kq
    rows = []
    converse_ok = True
    for sa, sp, sq, E in zip(rep_alpha.samples, rep_p.samples, rep_q.samples, family):
        inv_p = mean_inverse_exponent(p, E, grid)
        inv_q = mean_inverse_exponent(q, E, grid)
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


def _max_exponent_on(p, E, grid):
    if E.is_box() and grid is None:
        return float(compile_set(p, E).values(p).max())
    mask = E.mask_on(grid)
    pv = p.values(grid.points()).reshape(grid.cells)
    return float(pv[mask].max()) if mask.any() else -math.inf


def _center_lattice(x, half_range, spacing):
    if half_range < spacing * 1e-12:
        return np.array([x])
    count = int(math.floor(2.0 * half_range / spacing + 1e-9)) + 1
    return x - half_range + spacing * np.arange(count)


def minimal_harmonic_mean_cube(p, D, r, E, grid=None, spacing=None, verify_scaling=True):
    """Cube of radius r inside D whose intersection with E has the smallest
    harmonic mean exponent, found by scanning a center lattice.

    Requires 0 < r <= radius(D), the complement D minus E smaller than one
    radius-r cube, and a bounded exponent on D and E.  With verify_scaling,
    cubes of radius m*r sampled inside D are checked to never beat the
    minimum (their mean is a weighted average over radius-r subcubes), a
    guard against lattice misalignment.
    """
    n = D.dimension
    R = D.radius
    if not (0.0 < r <= R * (1.0 + 1e-12)):
        raise PreconditionError(f"need 0 < r <= {R}, got r = {r}")
    d_set = E.intersect_box(D.as_box())
    gap = set_measure(MeasurableSet.from_cube(D), grid) - set_measure(d_set, grid)
    if gap >= (2.0 * r) ** n:
        raise PreconditionError(
            f"complement of E in D has measure {gap}, needs < {(2.0 * r) ** n}"
        )
    if _max_exponent_on(p, d_set, grid) == INF:
        raise PreconditionError("exponent must be bounded on D and E")
    if spacing is None:
        spacing = grid.h if grid is not None else r / 8.0
    half = R - r
    axes = [_center_lattice(D.center[i], half, spacing) for i in range(n)]

    best_inv, best_center = -1.0, None
    if n == 1 and grid is not None:
        # prefix sums over cells make each candidate cube O(1)
        mask = E.mask_on(grid).astype(float).ravel()
        pv = p.values(grid.points())
        inv = np.where(np.isinf(pv), 0.0, 1.0 / pv) * mask
        s_inv = np.concatenate([[0.0], np.cumsum(inv)])
        s_cnt = np.concatenate([[0.0], np.cumsum(mask)])
        mids = grid.axis_midpoints(0)
        eps = 1e-9 * grid.h
        for y in axes[0]:
            i0 = int(np.searchsorted(mids, y - r - eps, side="left"))
            i1 = int(np.searchsorted(mids, y + r + eps, side="right"))
            cnt = s_cnt[i1] - s_cnt[i0]
            if cnt <= 0:
                continue
            mi = (s_inv[i1] - s_inv[i0]) / cnt
            if mi > best_inv * (1.0 + 1e-15):
                best_inv, best_center = mi, (float(y),)
    else:
        for center in itertools.product(*axes):
            cube = Cube(center, r)
            sub = E.intersect_box(cube.as_box())
            if grid is None and not sub.is_box():
                raise PreconditionError("grid needed for non-box sets")
            try:
                mi = mean_inverse_exponent(p, sub, grid)
            except PreconditionError:
                continue
            if mi > best_inv * (1.0 + 1e-15):
                best_inv, best_center = mi, center
    if best_center is None:
        raise ConstructionError("no candidate cube met E on the lattice")
    best = Cube(best_center, r)
    best_mean = INF if best_inv == 0.0 else 1.0 / best_inv

    if verify_scaling:
        m = 2
        while m * r <= R * (1.0 + 1e-12):
            half_m = R - m * r
            for i in range(n):
                lat = _center_lattice(D.center[i], half_m, spacing)
                if len(lat) > 9:
                    keep = np.unique(np.linspace(0, len(lat) - 1, 9).astype(int))
                    lat = lat[keep]
                axes_m = [lat if j == i else np.array([D.center[j]]) for j in range(n)]
                for center in itertools.product(*axes_m):
                    sub = E.intersect_box(Cube(center, m * r).as_box())
                    try:
                        mi = mean_inverse_exponent(p, sub, grid)
                    except PreconditionError:
                        continue
                    mean_m = INF if mi == 0.0 else 1.0 / mi
                    if best_mean > mean_m + 1e-9:
                        raise ConstructionError(
                            f"radius-{m}r cube at {center} has smaller mean "
                            f"{mean_m} than the minimum {best_mean}"
                        )
            m += 1
    return best


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
