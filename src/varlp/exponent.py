"""Piecewise variable exponents with values in [1, inf].

An exponent function assigns to each point of a box-shaped domain a value
p(x) in [1, inf].  Building blocks are constant boxes and, in one dimension,
smooth plateau bumps repeated along a center sequence.  Derived exponents
(the conjugate exponent, the fractional smoothing dual) are stored lazily as
transform chains over the same piece data so that analytic integration
routines keep access to the exact piece geometry.  On a grid the pieces are
painted onto the cells they cover, so only bump pieces evaluate points.
The atoms of a box (_box_atoms) are built here too, from the parts each
piece owns and the one split of bump runs (BumpsPiece._runs, read by
_bump_blocks): the box compiler of varlp.norms reads them for a set and,
through the same split, for a family of intervals, and bounds() and
strata() read them, cached, for the exponent's own domain.

Center sequences can hold astronomically many bumps (counts around 1e14 show
up in the long-interval witness constructions), so nothing here ever
materializes the full center list; queries work through the inverse of the
center map plus a short verification scan.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PreconditionError, SpecParseError

INF = math.inf
_TINY = np.finfo(float).tiny


def as_box(obj, dimension=None):
    """Normalize to a tuple of (lo, hi) float pairs, validating shape."""
    try:
        box = tuple((float(lo), float(hi)) for lo, hi in obj)
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"malformed box: {obj!r}") from exc
    if dimension is not None and len(box) != dimension:
        raise SpecParseError(f"box has {len(box)} axes, expected {dimension}")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise SpecParseError(f"degenerate box axis ({lo}, {hi})")
    return box


def box_volume(box):
    vol = 1.0
    for lo, hi in box:
        vol *= hi - lo
    return vol


def box_intersect(a, b):
    """Intersection of two boxes, or None when the overlap has measure zero."""
    if len(a) != len(b):
        raise PreconditionError(f"a {len(a)}-D box cannot meet a {len(b)}-D box")
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if hi <= lo:
            return None
        out.append((lo, hi))
    return tuple(out)


def _first_piece_cells(pieces, box):
    """Cut a box at every piece edge inside it and give each elementary cell
    to the first piece whose closed box covers it.

    Returns (edges, owner, volumes): the sorted cut positions per axis, box
    ends included; the index of the piece that owns each cell, -1 where no
    piece covers it; and the volume each piece owns in the box.  A piece
    covers the block of cells between its edges and never part of a cell,
    so painting the blocks from the last piece to the first gives the owner
    of every cell exactly, however many pieces overlap.  A piece that owns
    its whole block gets the volume of its part of the box, bit for bit; a
    piece that earlier ones cut into gets the sum over the cells it owns.
    """
    edges = [sorted({lo, hi}.union(x for piece in pieces for x in piece.box[axis] if lo < x < hi))
             for axis, (lo, hi) in enumerate(box)]
    # per axis, the cells whose left edge is >= the piece's lo and right edge <= its hi
    blocks = [tuple(slice(bisect_left(e, lo, 0, len(e) - 1), bisect_right(e, hi, 1) - 1)
                    for e, (lo, hi) in zip(edges, piece.box)) for piece in pieces]
    owner = np.full([len(e) - 1 for e in edges], -1)
    for i in reversed(range(len(pieces))):
        owner[blocks[i]] = i
    labels = owner.ravel() + 1
    owned = np.bincount(labels, minlength=len(pieces) + 1)[1:].tolist()
    sizes = [math.prod([c.stop - c.start for c in cells]) for cells in blocks]
    volumes = [box_volume([(e[c.start], e[c.stop]) for e, c in zip(edges, cells)])
               for cells in blocks]
    if owned != sizes:
        cell_volumes = math.prod(np.ix_(*map(np.diff, edges)))
        sums = np.bincount(labels, cell_volumes.ravel(), len(pieces) + 1)[1:].tolist()
        volumes = [v if count == size else total
                   for v, total, count, size in zip(volumes, sums, owned, sizes)]
    return edges, owner, volumes


def _owned_runs(edges, owner, k):
    """(lo, hi) of every run of cells on a line that piece k owns, left to
    right, from the edges and owner map of _first_piece_cells."""
    owned = np.concatenate(([False], owner == k, [False]))
    ends = np.flatnonzero(owned[1:] != owned[:-1]).tolist()
    return [(edges[0][a], edges[0][b]) for a, b in zip(ends[::2], ends[1::2])]


def _owned_parts(pieces, box):
    """(piece, volume, runs) for every piece that owns positive volume of
    the box, in piece order: runs is None for a constant piece and the
    _owned_runs of a bump piece, which lives on a line."""
    edges, owner, volumes = _first_piece_cells(pieces, box)
    return [(piece, v, None if isinstance(piece, ConstantPiece) else _owned_runs(edges, owner, k))
            for k, (piece, v) in enumerate(zip(pieces, volumes)) if v > 0.0]


def points_in_box(pts, box):
    """Boolean mask of rows of pts (m, n) lying in the closed box."""
    mask = np.ones(pts.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        mask &= (pts[:, axis] >= lo) & (pts[:, axis] <= hi)
    return mask


@dataclass(frozen=True)
class PlateauBump:
    """Symmetric bump: flat at `height` on [-m, m], smoothly falling to 0 at +-s."""

    height: float
    plateau_halfwidth: float
    support_halfwidth: float

    def __post_init__(self):
        m, s = self.plateau_halfwidth, self.support_halfwidth
        if not (0.0 < m < s):
            raise SpecParseError(f"need 0 < plateau_halfwidth < support_halfwidth, got {m}, {s}")
        if not (self.height >= 0.0 and math.isfinite(self.height)):
            raise SpecParseError(f"bump height must be finite and >= 0, got {self.height}")

    def profile(self, dist):
        """Bump value at distance `dist` from the center (vectorized)."""
        d = np.asarray(dist, dtype=float)
        m, s = self.plateau_halfwidth, self.support_halfwidth
        u = np.clip((s - d) / (s - m), 0.0, 1.0)
        return self.height * u * u * (3.0 - 2.0 * u)


@functools.cache
def _gauss_nodes():
    """Nodes and weights of 48-point Gauss-Legendre quadrature on [-1, 1]."""
    return np.polynomial.legendre.leggauss(48)


@dataclass(frozen=True)
class CenterSequence:
    """Strictly increasing bump centers c_k for k = 1..count.

    kind "exp"   : c_k = exp(rate * k)
    kind "power" : c_k = k ** rate
    kind "fixed" : explicit positions (internal use, not serializable)
    """

    kind: str
    rate: float = 1.0
    count: int = 1
    positions: tuple = ()

    def __post_init__(self):
        if self.kind not in ("exp", "power", "fixed"):
            raise SpecParseError(f"unknown center kind {self.kind!r}")
        if self.kind == "fixed":
            if len(self.positions) == 0:
                raise SpecParseError("fixed centers need at least one position")
            object.__setattr__(self, "count", len(self.positions))
            if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
                raise SpecParseError("fixed centers must be strictly increasing")
        else:
            if not (self.rate > 0 and math.isfinite(self.rate)):
                raise SpecParseError(f"center rate must be positive, got {self.rate}")
            if int(self.count) < 1:
                raise SpecParseError(f"center count must be >= 1, got {self.count}")
            object.__setattr__(self, "count", int(self.count))

    def position(self, k):
        """Center position(s) for 1-based indices k (vectorized)."""
        k = np.asarray(k, dtype=float)
        if self.kind == "exp":
            return np.exp(self.rate * k)
        if self.kind == "power":
            return k ** self.rate
        idx = np.clip(k.astype(int) - 1, 0, self.count - 1)
        return np.asarray(self.positions, dtype=float)[idx]

    def real_index(self, x):
        """Continuous inverse of the exp or power center map (vectorized,
        clipped at 0); fixed centers are searched by their callers."""
        x = np.asarray(x, dtype=float)
        if self.kind == "exp":
            return np.where(x > 0, np.log(np.maximum(x, 1e-300)) / self.rate, 0.0)
        return np.where(x > 0, np.maximum(x, 0.0) ** (1.0 / self.rate), 0.0)

    def _index_ranges(self, lo, hi):
        """(k_first, k_last) per entry of the arrays lo, hi: the first and
        last index k with c_k in [lo, hi], empty where k_last < k_first.

        The inverse of the center map gives a guess, which a short scan of
        the centers themselves corrects, so float rounding at huge
        coordinates cannot drop or double-count a center.  A k_first past
        count reads count + 1 (the range is empty either way)."""
        if self.kind == "fixed":
            pos = np.asarray(self.positions, dtype=float)
            return np.searchsorted(pos, lo, side="left") + 1, np.searchsorted(pos, hi, side="right")
        top = self.count + 3.0
        a = np.minimum(self.real_index(np.maximum(lo, 0.0)), top)
        b = np.minimum(self.real_index(np.maximum(hi, 0.0)), top)
        k_first = np.maximum(1, np.floor(a).astype(np.int64) - 2)
        k_last = np.minimum(self.count, np.ceil(b).astype(np.int64) + 2)
        with np.errstate(over="ignore"):
            while (step := (k_first <= self.count) & (self.position(k_first) < lo)).any():
                k_first += step
            while (step := (k_last >= 1) & (self.position(k_last) > hi)).any():
                k_last -= step
        return k_first, k_last

    def nearest_distance(self, x):
        """Distance from each point of x to the closest center (vectorized)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "fixed":
            pos = np.asarray(self.positions, dtype=float)
            d = np.abs(x[..., None] - pos[None, ...])
            return d.min(axis=-1)
        k0 = np.floor(self.real_index(x))
        best = np.full(x.shape, np.inf)
        for dk in (-1.0, 0.0, 1.0, 2.0):
            k = np.clip(k0 + dk, 1, self.count)
            best = np.minimum(best, np.abs(x - self.position(k)))
        return best

    def min_spacing(self):
        if self.count < 2:
            return INF
        if self.kind == "fixed":
            pos = np.asarray(self.positions, dtype=float)
            return float(np.min(np.diff(pos)))
        # spacing is monotone in k for both families, so one end is extremal
        ends = [
            float(self.position(2) - self.position(1)),
            float(self.position(self.count) - self.position(self.count - 1)),
        ]
        return min(ends)


@dataclass(frozen=True)
class ConstantPiece:
    box: tuple
    value: float

    def __post_init__(self):
        if not (self.value >= 1.0):
            raise SpecParseError(f"exponent value must be >= 1, got {self.value}")

    def raw_values(self, pts):
        return np.full(pts.shape[0], self.value, dtype=float)


@dataclass(frozen=True)
class BumpsPiece:
    """One-dimensional piece: base level plus disjoint plateau perturbations.

    direction +1 raises the bumps above the base level, -1 digs wells below it;
    `top` is always the plateau value at a bump center.
    """

    box: tuple
    base: float
    bump: PlateauBump
    centers: CenterSequence
    direction: int = 1

    def __post_init__(self):
        if self.direction not in (1, -1):
            raise SpecParseError(f"bump direction must be +1 or -1, got {self.direction}")
        if not math.isfinite(self.base):
            raise SpecParseError(f"bump base must be finite, got {self.base}")
        if min(self.base, self.base + self.direction * self.bump.height) < 1.0:
            raise SpecParseError(
                f"exponent values must stay >= 1: base {self.base}, "
                f"plateau {self.base + self.direction * self.bump.height}"
            )
        spacing = self.centers.min_spacing()
        need = 2.0 * self.bump.support_halfwidth
        if spacing < need * (1.0 - 1e-12):
            raise SpecParseError(
                f"bump supports overlap: min center spacing {spacing} < {need}"
            )

    @property
    def top(self):
        return self.base + self.direction * self.bump.height

    def raw_values(self, pts):
        d = self.centers.nearest_distance(pts[:, 0])
        return self.base + self.direction * self.bump.profile(d)

    def _runs(self, lo, hi):
        """Split every run [lo, hi] of the arrays lo, hi at the bumps whose
        supports meet it.

        Returns (whole, base_len, o0, o1, straddles), per run: the number of
        bumps whose whole support lies in [lo, hi]; the length the supports
        leave uncovered, 0 where that is rounding (at most 1e-12 of the
        length they cover, so a run that meets no support keeps hi - lo
        exactly); and per candidate bump (the five from each end of the
        centers whose supports may meet the run, left to right, each once)
        the window (o0, o1) where straddles holds: the bump straddles an
        end, its support meeting [lo, hi] on [c + o0, c + o1] about its
        center c.  A center quantized more coarsely than the bump (float
        spacing above 0.01 s) counts as whole when it lies in [lo, hi]
        (O(1) absolute error).  Supports are pairwise disjoint, so at most a
        couple of bumps straddle each end, and the split does not depend on
        the number of bumps.  No step mixes runs, so a run splits bitwise
        the same alone or among others."""
        s = self.bump.support_halfwidth
        # the centers of the supports inside the run, then of those meeting it
        k_first, k_last = self.centers._index_ranges(np.concatenate([lo + s, lo - s]),
                                                     np.concatenate([hi - s, hi + s]))
        n = len(lo)
        k_in_first, k_in_last = k_first[:n], k_last[:n]
        k_any_first, k_any_last = k_first[n:], k_last[n:]
        offsets = np.arange(5)
        k = np.hstack([k_any_first[:, None] + offsets, k_any_last[:, None] - 4 + offsets])
        # the second five skip what the first five hold
        scan = k <= k_any_last[:, None]
        scan[:, 5:] &= k[:, 5:] >= k_any_first[:, None] + 5
        scan &= (k < k_in_first[:, None]) | (k > k_in_last[:, None])
        whole = np.maximum(0, k_in_last - k_in_first + 1)
        base_len = hi - lo - whole * 2.0 * s
        c = self.centers.position(np.where(scan, k, 1))
        lo_, hi_ = lo[:, None], hi[:, None]
        scan &= np.minimum(hi_, c + s) > np.maximum(lo_, c - s)
        coarse = np.spacing(np.abs(c)) > 0.01 * s
        o0, o1 = np.maximum(lo_ - c, -s), np.minimum(hi_ - c, s)
        straddles = scan & ~coarse & (o0 < o1)
        counted = scan & coarse & (lo_ <= c) & (c <= hi_)
        for cover in np.where(counted, 2.0 * s, np.where(straddles, o1 - o0, 0.0)).T:
            base_len = base_len - cover  # one candidate at a time, left to right
        whole = whole + np.count_nonzero(counted, axis=1)
        base_len = np.where(base_len > 1e-12 * (hi - lo - base_len), base_len, 0.0)
        return whole, base_len, o0, o1, straddles


def _bump_blocks(piece, rows, lo, hi):
    """The atoms of the runs [lo, hi] of a bump piece, run i in row rows[i],
    as blocks (rows, w, raw, ends), split by BumpsPiece._runs.

    The blocks come in the order a row takes its atoms: per candidate bump
    the Gauss nodes of each smooth stretch of its window, then one plateau
    atom and the shoulder Gauss nodes of the whole bumps, weighted by their
    count, then one atom of the base length.  A row whose stretch is too
    short for its node weights to stay normal floats takes one atom of the
    stretch's length at its midpoint, in the block's first column, weight 0
    in the others, so no weight underflows.  ends holds a block's two
    shoulder ends per row, nan where it has none: both ends of every
    shoulder stretch of a bump of positive height, as raw values.  At
    distance m or s, or within rounding of it, they are the plateau value
    or the base, which the profile meets quadratically.  So the base and
    the plateau value are atoms where a run takes them on positive length,
    and every other value it takes lies between the two ends of a shoulder
    stretch, which is how bounds() and strata() read the atoms and ends of
    the exponent's domain."""
    bump = piece.bump
    s, m = bump.support_halfwidth, bump.plateau_halfwidth
    nodes, wts = _gauss_nodes()

    def raw_at(dist):
        return piece.base + piece.direction * bump.profile(dist)

    def shoulder_ends(has, first, second):
        return np.where((bump.height > 0.0) & has[:, None], np.stack([first, second], axis=1),
                        np.nan)

    whole, base_len, o0, o1, straddles = piece._runs(lo, hi)
    blocks = []
    for j in np.flatnonzero(straddles.any(axis=0)).tolist():
        live = straddles[:, j]
        r, u_lo, u_hi = rows[live], o0[live, j], o1[live, j]
        left, right = (u_lo < -m) & (-m < u_hi), (u_lo < m) & (m < u_hi)
        after_left = np.where(right, m, u_hi)
        # the knots o0, -m, m, o1 that lie in the window, left to right
        for u0, u1, keep in ((u_lo, np.where(left, -m, after_left), True),
                             (-m, after_left, left), (m, u_hi, right)):
            keep = np.broadcast_to(keep, r.shape)
            if keep.any():
                u0, u1 = np.broadcast_to(u0, r.shape)[keep], u1[keep]
                half, midp = 0.5 * (u1 - u0), 0.5 * (u0 + u1)
                bw = half[:, None] * wts
                braw = raw_at(np.abs(midp[:, None] + half[:, None] * nodes))
                under = half * wts[0] < _TINY  # the end nodes carry the least weight
                if under.any():
                    bw[under] = 0.0
                    bw[under, 0], braw[under, 0] = (u1 - u0)[under], raw_at(np.abs(midp[under]))
                blocks.append((r[keep], bw, braw,
                               shoulder_ends((m < np.abs(midp)) & (np.abs(midp) < s),
                                             raw_at(np.abs(u0)), raw_at(np.abs(u1)))))
    live = whole > 0
    if live.any():
        twice = whole[live] * 2.0
        half, mid = 0.5 * (s - m), 0.5 * (s + m)
        blocks.append((rows[live], (twice * m)[:, None], piece.top,
                       shoulder_ends(np.ones(twice.size, bool), np.full(twice.size, piece.top),
                                     np.full(twice.size, piece.base))))
        blocks.append((rows[live], (twice * half)[:, None] * wts, raw_at(mid + half * nodes), None))
    live = base_len > 0.0
    if live.any():
        blocks.append((rows[live], base_len[live, None], piece.base, None))
    return blocks


def _scatter_blocks(n, blocks):
    """(w, raw, ends) of n rows from blocks (rows, w, raw, ends): each block
    puts its atoms, and its two ends where they are not nan, into its rows
    after those of the blocks before it; atoms of weight 0 are dropped, so
    every row leads with its atoms of positive weight, and the rest pad with
    w = 0, raw = 1 and ends = nan."""
    atoms, end_count = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for rows, bw, _, bends in blocks:
        atoms[rows] += bw.shape[1]
        if bends is not None:
            end_count[rows] += 2 * ~np.isnan(bends[:, 0])
    w, ends = np.zeros((n, atoms.max(initial=0))), np.full((n, end_count.max(initial=0)), np.nan)
    raw = np.ones(w.shape)
    total, atoms[:], end_count[:] = atoms.sum(), 0, 0
    for rows, bw, braw, bends in blocks:
        cols = atoms[rows, None] + np.arange(bw.shape[1])
        w[rows[:, None], cols], raw[rows[:, None], cols] = bw, braw
        atoms[rows] += bw.shape[1]
        if bends is not None:
            has = ~np.isnan(bends[:, 0])
            r = rows[has]
            ends[r[:, None], end_count[r, None] + np.arange(2)] = bends[has]
            end_count[r] += 2
    keep = w > 0.0
    if np.count_nonzero(keep) < total:
        rows, cols = np.nonzero(keep)[0], (np.cumsum(keep, axis=1) - 1)[keep]
        packed_w = np.zeros((n, np.count_nonzero(keep, axis=1).max()))
        packed_raw = np.ones(packed_w.shape)
        packed_w[rows, cols], packed_raw[rows, cols] = w[keep], raw[keep]
        w, raw = packed_w, packed_raw
    return w, raw, ends


def _box_atoms(pieces, box):
    """(measure, w, raw, ends) of the indicator of a box inside the domain:
    the volume the pieces own of it, the atoms of positive weight w at the
    raw values raw, and the raw values at the ends of the bump shoulders.

    Each elementary cell of the box goes to the first piece listed whose
    closed box covers it (see _owned_parts).  A constant piece gives one
    atom, the volume it owns.  A bump piece, which lives on a line, splits
    the runs of cells it owns in one _bump_blocks call, one row per run,
    and its atoms and ends are read row by row, so they keep the runs'
    order, left to right.  Atoms keep the order of the pieces; cells no
    piece covers give none.
    """
    parts = _owned_parts(pieces, box)
    ws, raws, ends = [], [], []
    for piece, v, runs in parts:
        if runs is None:
            ws.append(v)
            raws.append(piece.value)
        else:
            lo, hi = np.array(runs).T
            rows = np.arange(len(runs))
            w, raw, e = _scatter_blocks(len(runs), _bump_blocks(piece, rows, lo, hi))
            atoms = w > 0.0
            ws.append(w[atoms])
            raws.append(raw[atoms])
            ends += e[~np.isnan(e)].tolist()
    # without bump atoms the constant atoms make one array in one step
    stack = np.array if all(runs is None for *_, runs in parts) else np.hstack
    measure = sum((v for _, v, _ in parts), 0.0)
    return measure, stack(ws), stack(raws).astype(float, copy=False), ends


@functools.lru_cache(maxsize=16)
def _domain_atoms(pieces, domain):
    """The read-only raw values of the atoms and of the shoulder ends of a
    domain compiled as a box (_box_atoms).  Cached on the pieces, so an
    exponent, its conjugate and its fractional duals compile it once."""
    _, _, raw, ends = _box_atoms(pieces, domain)
    ends = np.array(ends, dtype=float)
    raw.flags.writeable = ends.flags.writeable = False
    return raw, ends


def _tf_array(ops, values):
    v = np.array(values, dtype=float, copy=True)
    for op in ops:
        if op[0] == "conjugate":
            one = v == 1.0
            infm = np.isinf(v)
            with np.errstate(divide="ignore", invalid="ignore"):
                w = v / (v - 1.0)
            w[one] = np.inf
            w[infm] = 1.0
            v = w
        else:
            _, alpha, n = op
            if alpha == 0.0:
                continue
            den = n - alpha * v
            with np.errstate(divide="ignore", invalid="ignore"):
                w = n * v / den
            w[(den <= 0.0) | np.isinf(v)] = np.inf
            v = w
    return v


@dataclass(frozen=True)
class Strata:
    """Which of the three level regions of the exponent carry positive measure."""

    has_one: bool
    has_finite: bool
    has_inf: bool

    @property
    def count(self):
        return int(self.has_one) + int(self.has_finite) + int(self.has_inf)


@dataclass(frozen=True)
class ExponentFunction:
    dimension: int
    domain: tuple
    pieces: tuple
    transforms: tuple = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise SpecParseError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "domain", as_box(self.domain, self.dimension))
        if not self.pieces:
            raise SpecParseError("exponent needs at least one piece")
        for piece in self.pieces:
            if len(piece.box) != self.dimension:
                raise SpecParseError("piece box dimension mismatch")
            if isinstance(piece, BumpsPiece) and self.dimension != 1:
                raise SpecParseError("bump pieces are one-dimensional only")

    @classmethod
    def constant(cls, value, domain):
        box = as_box(domain)
        return cls(dimension=len(box), domain=box, pieces=(ConstantPiece(box, value),))

    # -- evaluation ---------------------------------------------------------

    def coerce_points(self, points):
        pts = np.asarray(points, dtype=float)
        if self.dimension == 1:
            pts = pts.reshape(-1, 1)
        elif pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DomainError(f"points have shape {np.shape(points)}, expected (m, {self.dimension})")
        return pts

    def raw_values(self, points):
        """Pre-transform exponent values; first matching piece wins."""
        pts = self.coerce_points(points)
        inside = points_in_box(pts, self.domain)
        if not inside.all():
            bad = pts[~inside][0]
            raise DomainError(f"point {bad.tolist()} outside domain {self.domain}")
        out = np.empty(pts.shape[0], dtype=float)
        done = np.zeros(pts.shape[0], dtype=bool)
        for piece in self.pieces:
            sel = ~done & points_in_box(pts, piece.box)
            if sel.any():
                out[sel] = piece.raw_values(pts[sel])
                done[sel] = True
        if not done.all():
            bad = pts[~done][0]
            raise DomainError(f"point {bad.tolist()} not covered by any piece")
        return out

    def values(self, points):
        return _tf_array(self.transforms, self.raw_values(points))

    def raw_values_on(self, grid, where=None):
        """raw_values at the cell midpoints of a grid, in the grid's shape.

        Pieces are painted last to first onto their cells, clipped to the
        domain's cells, so the first piece wins.  Every cell in where (all
        cells when where is None) must be painted; the others may be nan.
        """
        if grid.dimension != self.dimension:
            raise DomainError(f"grid has {grid.dimension} axes, expected {self.dimension}")
        out = np.full(grid.cells, np.nan)
        # one box_cells call for the domain (row 0) and every piece, stacked per
        # axis, so each axis's midpoints are built once
        boxes = np.array([self.domain] + [piece.box for piece in self.pieces], dtype=float)
        ends = grid.box_cells(tuple(zip(boxes[:, :, 0].T, boxes[:, :, 1].T)))
        lo = np.array([s.start for s in ends]).T
        hi = np.array([s.stop for s in ends]).T
        clipped = zip(self.pieces, np.maximum(lo[1:], lo[0]).tolist(),
                      np.minimum(hi[1:], hi[0]).tolist())
        for piece, starts, stops in reversed(list(clipped)):
            cells = tuple(map(slice, starts, stops))
            if isinstance(piece, ConstantPiece):
                out[cells] = piece.value
            elif cells[0].start < cells[0].stop:
                out[cells] = piece.raw_values(grid.axis_midpoints(0)[cells][:, None])
        missing = np.isnan(out) if where is None else np.isnan(out) & where
        if missing.any():  # raw_values raises its error on these midpoints
            out[missing] = self.raw_values(grid.points()[missing.ravel()])
        return out

    def values_on(self, grid, where=None):
        return _tf_array(self.transforms, self.raw_values_on(grid, where))

    # -- structure ----------------------------------------------------------

    def _domain_values(self):
        """The exponent on the atoms and on the shoulder ends of its domain
        compiled as a box (_domain_atoms), which may leave cells no piece
        covers.

        The atoms hold the values taken on positive measure, and every other
        value lies between two shoulder ends, so the essential bounds are
        the least and the greatest of both."""
        raw, ends = _domain_atoms(self.pieces, self.domain)
        if not raw.size:
            raise DomainError("no piece owns any part of the exponent's domain")
        return _tf_array(self.transforms, raw), _tf_array(self.transforms, ends)

    def strata(self):
        """Which of {p = 1}, {1 < p < inf}, {p = inf} carry measure: 1 and
        inf where an atom takes them (a shoulder end is one point), a finite
        value where an atom or an end does (a shoulder sweeps the values
        between its ends)."""
        atoms, ends = self._domain_values()
        values = np.concatenate([atoms, ends])
        return Strata(bool((atoms == 1.0).any()), bool(((1.0 < values) & (values < INF)).any()),
                      bool((atoms == INF).any()))

    def bounds(self):
        """Essential (inf, sup) of the exponent over its domain."""
        values = np.concatenate(self._domain_values())
        return float(values.min()), float(values.max())


def evaluate(p, x):
    """Exponent value at a single point."""
    return float(p.values(x)[0])


def conjugate(p):
    """Pointwise conjugate exponent: 1/p(x) + 1/p'(x) = 1, with 1/inf = 0."""
    return replace(p, transforms=p.transforms + (("conjugate",),))


def _check_order(alpha, n):
    """Refuse a fractional order alpha outside [0, n)."""
    if not (0.0 <= alpha < n):
        raise PreconditionError(f"need 0 <= alpha < n = {n}, got alpha = {alpha}")


def sobolev_dual(p, alpha):
    """Fractional dual exponent 1/q(x) = 1/p(x) - alpha/n, with q = inf where p = n/alpha."""
    n = p.dimension
    _check_order(alpha, n)
    if alpha == 0.0:
        return p
    p_plus = p.bounds()[1]
    if p_plus > n / alpha * (1.0 + 1e-12):
        raise PreconditionError(
            f"sobolev dual needs p_plus <= n/alpha; got p_plus = {p_plus}, n/alpha = {n / alpha}"
        )
    return replace(p, transforms=p.transforms + (("sobolev", float(alpha), float(n)),))


@dataclass(frozen=True)
class LH0Report:
    sup_value: float
    witness_x: tuple
    witness_y: tuple
    pairs_used: int


def lh0_modulus(p, num_pairs=4000, seed=0):
    """Sampled local log-continuity modulus sup |p(x)-p(y)| * (-log|x-y|).

    Pairs are drawn at geometric scales below 1/2; the reported value is a
    lower estimate of the true modulus.  Requires a bounded exponent.
    """
    if p.bounds()[1] == INF:
        raise PreconditionError("log-continuity modulus needs p_plus < inf")
    rng = np.random.default_rng(seed)
    dom = np.asarray(p.domain, dtype=float)
    n = p.dimension
    x = rng.uniform(dom[:, 0], dom[:, 1], size=(num_pairs, n))
    scales = 10.0 ** rng.uniform(-9, math.log10(0.4999), size=num_pairs)
    dirs = rng.normal(size=(num_pairs, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    y = np.clip(x + scales[:, None] * dirs, dom[:, 0], dom[:, 1])
    dist = np.linalg.norm(x - y, axis=1)
    keep = (dist > 0.0) & (dist < 0.5)
    if not keep.any():
        return LH0Report(0.0, (), (), 0)
    x, y, dist = x[keep], y[keep], dist[keep]
    gap = np.abs(p.values(x) - p.values(y))
    vals = gap * (-np.log(dist))
    i = int(np.argmax(vals))
    return LH0Report(float(vals[i]), tuple(x[i]), tuple(y[i]), int(keep.sum()))


# -- JSON spec format -------------------------------------------------------


def _value_from_json(v):
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return INF
        raise SpecParseError(f"bad exponent value string {v!r}")
    try:
        return float(v)
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"bad exponent value {v!r}") from exc


def _value_to_json(v):
    return "inf" if v == INF else v


def from_spec(data):
    """Build an ExponentFunction from a parsed JSON spec dict."""
    if not isinstance(data, dict):
        raise SpecParseError("spec root must be an object")
    try:
        dimension = int(data["dimension"])
        domain = as_box(data["domain"])
        raw_pieces = data["pieces"]
    except KeyError as exc:
        raise SpecParseError(f"spec missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"malformed spec header: {exc}") from exc
    if not isinstance(raw_pieces, list) or not raw_pieces:
        raise SpecParseError("spec needs a nonempty pieces list")
    pieces = []
    for entry in raw_pieces:
        if not isinstance(entry, dict):
            raise SpecParseError(f"piece entries must be objects, got {entry!r}")
        try:
            box = as_box(entry["box"], dimension)
            kind = entry["kind"]
        except KeyError as exc:
            raise SpecParseError(f"piece missing field {exc}") from exc
        if kind == "constant":
            pieces.append(ConstantPiece(box, _value_from_json(entry.get("value"))))
        elif kind == "bumps":
            spec = entry.get("value")
            if not isinstance(spec, dict):
                raise SpecParseError("bumps piece needs an object under 'value'")
            try:
                centers_spec = spec["centers"]
                centers = CenterSequence(
                    kind=centers_spec["kind"],
                    rate=float(centers_spec["rate"]),
                    count=int(centers_spec["count"]),
                )
                bump = PlateauBump(
                    height=float(spec["height"]),
                    plateau_halfwidth=float(spec["plateau_halfwidth"]),
                    support_halfwidth=float(spec["support_halfwidth"]),
                )
                dir_name = spec.get("direction", "up")
                if dir_name not in ("up", "down"):
                    raise SpecParseError(f"bump direction must be 'up' or 'down', got {dir_name!r}")
                pieces.append(
                    BumpsPiece(box, float(spec["base"]), bump, centers,
                               direction=1 if dir_name == "up" else -1)
                )
            except KeyError as exc:
                raise SpecParseError(f"bumps piece missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise SpecParseError(f"malformed bumps piece: {exc}") from exc
        else:
            raise SpecParseError(f"unknown piece kind {kind!r}")
    return ExponentFunction(dimension=dimension, domain=domain, pieces=tuple(pieces))


def to_spec(p):
    """Serialize an ExponentFunction back to the JSON spec dict."""
    if p.transforms:
        raise SpecParseError("transform chains are not serializable; emit the base exponent")
    pieces = []
    for piece in p.pieces:
        if isinstance(piece, ConstantPiece):
            pieces.append(
                {"box": [list(ax) for ax in piece.box], "kind": "constant",
                 "value": _value_to_json(piece.value)}
            )
        else:
            if piece.centers.kind == "fixed":
                raise SpecParseError("fixed center lists are not serializable")
            pieces.append(
                {
                    "box": [list(ax) for ax in piece.box],
                    "kind": "bumps",
                    "value": {
                        "base": piece.base,
                        "height": piece.bump.height,
                        "plateau_halfwidth": piece.bump.plateau_halfwidth,
                        "support_halfwidth": piece.bump.support_halfwidth,
                        "direction": "up" if piece.direction == 1 else "down",
                        "centers": {
                            "kind": piece.centers.kind,
                            "rate": piece.centers.rate,
                            "count": piece.centers.count,
                        },
                    },
                }
            )
    return {
        "dimension": p.dimension,
        "domain": [list(ax) for ax in p.domain],
        "pieces": pieces,
    }


def load_spec(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON in {path}: {exc}") from exc
    return from_spec(data)
