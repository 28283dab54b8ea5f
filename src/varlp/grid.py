"""Regular cell grids, grid functions, axis-parallel cubes, measurable sets.

Grid functions are piecewise constant on the cells of a uniform grid and are
identified with their midpoint samples.  All quadrature in the package is
exact for such functions, which is what makes the operator identities
checkable at tight tolerances.  A closed box covers the cells whose
midpoints it contains; GridDomain.box_cells finds them for every caller,
from midpoints that are built once per distinct axis and shared read-only.
A measurable set is a box or a read-only cell mask on one grid.

This is the lowest layer: it imports no varlp module but the exceptions,
and holds the box helpers, the check of a fractional order and the
quadrature nodes that the exponent and operator layers share, so the
operators never load the exponent code.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, SpecParseError


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


def _check_order(alpha, n):
    """Refuse a fractional order alpha outside [0, n)."""
    if not (0.0 <= alpha < n):
        raise PreconditionError(f"need 0 <= alpha < n = {n}, got alpha = {alpha}")


@functools.cache
def _gauss_nodes():
    """Nodes and weights of 48-point Gauss-Legendre quadrature on [-1, 1]."""
    return np.polynomial.legendre.leggauss(48)


@dataclass(frozen=True)
class GridDomain:
    box: tuple
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "box", as_box(self.box))
        cells = tuple(int(c) for c in self.cells)
        if any(c < 1 for c in cells):
            raise SpecParseError(f"cell counts must be positive, got {cells}")
        if len(cells) != len(self.box):
            raise SpecParseError("cell counts do not match box dimension")
        object.__setattr__(self, "cells", cells)
        spacings = [(hi - lo) / c for (lo, hi), c in zip(self.box, cells)]
        h = spacings[0]
        if any(abs(s - h) > 1e-12 * h for s in spacings):
            raise SpecParseError(f"grid spacing differs across axes: {spacings}")

    @classmethod
    def from_spacing(cls, box, h):
        box = as_box(box)
        cells = []
        for lo, hi in box:
            c = (hi - lo) / h
            ci = round(c)
            if abs(c - ci) > 1e-9 * max(1.0, abs(c)) or ci < 1:
                raise SpecParseError(f"axis length {hi - lo} is not a multiple of spacing {h}")
            cells.append(ci)
        return cls(box, tuple(cells))

    @property
    def dimension(self):
        return len(self.box)

    @property
    def h(self):
        lo, hi = self.box[0]
        return (hi - lo) / self.cells[0]

    @property
    def cell_volume(self):
        """h^n, which scales every integral on the grid; a volume below the
        smallest normal float has lost its digits and one above the largest
        float has none, so both are refused."""
        try:
            volume = self.h ** self.dimension
        except OverflowError:
            raise PreconditionError(f"cell width {self.h!r} is too large: the cell volume "
                                    f"h^{self.dimension} overflows") from None
        if not volume >= sys.float_info.min:
            raise PreconditionError(f"cell width {self.h!r} is too small: the cell volume "
                                    f"h^{self.dimension} = {volume!r} underflows")
        return volume

    @property
    def total_cells(self):
        return int(np.prod(self.cells))

    def axis_midpoints(self, axis):
        """The cell midpoints of one axis, read-only: grids with an equal
        axis share one array (see _midpoints)."""
        lo, hi = self.box[axis]
        return _midpoints(lo, hi, self.cells[axis])

    def points(self):
        """All cell midpoints as an (N, n) array in row-major cell order."""
        axes = [self.axis_midpoints(i) for i in range(self.dimension)]
        return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)

    def box_cells(self, box):
        """Per-axis slices of the cells whose midpoints lie in the closed box.

        An axis's (lo, hi) may also be two arrays, one entry per box; the
        slice ends are then index arrays of the same shape.
        """
        if len(box) != self.dimension:
            raise PreconditionError(f"a {len(box)}-D box on a {self.dimension}-D grid")
        cells = []
        for axis, (lo, hi) in enumerate(box):
            mids = self.axis_midpoints(axis)
            cells.append(slice(np.searchsorted(mids, lo, side="left"),
                               np.searchsorted(mids, hi, side="right")))
        return tuple(cells)


@dataclass(eq=False)
class GridFunction:
    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != tuple(self.domain.cells):
            raise SpecParseError(
                f"value array shape {vals.shape} does not match grid cells {self.domain.cells}"
            )
        if not np.isfinite(vals).all():
            raise SpecParseError("grid function values must be finite")
        self.values = vals

    @classmethod
    def indicator(cls, domain, mset):
        return cls(domain, mset.mask_on(domain).astype(float))

    def integral(self):
        return float(self.values.sum()) * self.domain.cell_volume

    def to_csv(self, path):
        n = self.domain.dimension
        pts = self.domain.points()
        header = ",".join(f"x{i + 1}" for i in range(n)) + ",value"
        data = np.column_stack([pts, self.values.ravel()])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")

    @classmethod
    def from_csv(cls, path):
        try:
            with open(path) as fh:
                header = fh.readline().strip().split(",")
                # the lines loadtxt reads: not blank once a # comment is cut
                rows = [line for line in fh if line.partition("#")[0].strip()]
                if not rows:
                    raise SpecParseError("grid csv has no data rows")
                data = np.loadtxt(rows, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise SpecParseError(f"cannot read grid csv {path}: {exc}") from exc
        n = len(header) - 1
        if n < 1 or header[-1] != "value" or header[:n] != [f"x{i + 1}" for i in range(n)]:
            raise SpecParseError(f"unexpected grid csv header {header}")
        if data.shape[1] != n + 1:
            raise SpecParseError("grid csv column count does not match header")
        axes = [np.unique(data[:, i]) for i in range(n)]
        for i, mids in enumerate(axes):
            steps = np.diff(mids)
            if np.any(np.abs(steps - steps[:1]) > 1e-9 * np.abs(steps[:1])):
                raise SpecParseError(f"axis {i + 1} midpoints are not uniformly spaced")
        cells = tuple(len(m) for m in axes)
        if int(np.prod(cells)) != data.shape[0]:
            raise SpecParseError("grid csv rows do not form a complete grid")
        # each axis's own spacing; an axis of one cell takes the first other one
        spacings = [float(m[1] - m[0]) for m in axes if len(m) > 1]
        if not spacings:
            raise SpecParseError("cannot infer spacing from a single-cell grid")
        spacings = [float(m[1] - m[0]) if len(m) > 1 else spacings[0] for m in axes]
        box = tuple((float(m[0]) - h / 2, float(m[-1]) + h / 2) for m, h in zip(axes, spacings))
        domain = GridDomain(box, cells)
        vals, filled = np.zeros(cells), np.zeros(cells, bool)
        idx = []
        for i, h in enumerate(spacings):
            j = np.round((data[:, i] - box[i][0] - h / 2) / h).astype(int)
            idx.append(np.clip(j, 0, cells[i] - 1))
        vals[tuple(idx)], filled[tuple(idx)] = data[:, -1], True
        if not filled.all():
            raise SpecParseError("grid csv rows do not form a complete grid")
        return cls(domain, vals)


@dataclass(frozen=True)
class Cube:
    """Axis-parallel cube given by center and half side length."""

    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(np.asarray(self.center, dtype=float)))
        object.__setattr__(self, "center", center)
        if not all(math.isfinite(c) for c in center):
            raise SpecParseError(f"cube center must be finite, got {center}")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise SpecParseError(f"cube radius must be positive, got {self.radius}")

    @property
    def dimension(self):
        return len(self.center)

    @property
    def volume(self):
        return (2.0 * self.radius) ** self.dimension

    def as_box(self):
        return tuple((c - self.radius, c + self.radius) for c in self.center)


@dataclass(eq=False)
class MeasurableSet:
    """A box, exact on any grid, or a cell mask on the grid it was built on.

    A mask set, MeasurableSet(grid_mask=(grid, mask)), keeps a read-only
    copy of the mask, cut by a box given with it (as by intersect_box), and
    is read on its own grid only; from_sublevel paints {p < threshold}.
    """

    box: tuple | None = None
    grid_mask: tuple | None = None

    def __post_init__(self):
        if self.grid_mask is None:
            if self.box is None:
                raise PreconditionError("a set needs a box or a cell mask")
            self.box = as_box(self.box)
            return
        domain, mask = self.grid_mask
        mask = np.array(mask, dtype=bool)
        if mask.shape != tuple(domain.cells):
            raise SpecParseError("mask shape does not match grid cells")
        if self.box is not None:
            mask &= _window(as_box(self.box), domain)
        mask.flags.writeable = False
        self.box, self.grid_mask = None, (domain, mask)

    @classmethod
    def from_box(cls, box):
        return cls(box=box)

    @classmethod
    def from_cube(cls, cube):
        return cls(box=cube.as_box())

    @classmethod
    def from_sublevel(cls, p, threshold, grid, within=None):
        """The cells of grid in the box within (all cells when None) where
        p < threshold at the midpoint; p need cover those window cells only."""
        mask = _window(as_box(within) if within is not None else None, grid)
        if mask.any():
            mask &= p.values_on(grid, where=mask) < float(threshold)
        return cls(grid_mask=(grid, mask))

    def intersect_box(self, box):
        if self.grid_mask is not None:
            return MeasurableSet(box=box, grid_mask=self.grid_mask)
        both = box_intersect(self.box, as_box(box))
        if both is None:
            raise DomainError("intersection with box is empty")
        return MeasurableSet(box=both)

    def is_box(self):
        return self.grid_mask is None

    @property
    def measure(self):
        """Exact for a box; else the mask's cells times the cell volume."""
        if self.grid_mask is None:
            return box_volume(self.box)
        domain, mask = self.grid_mask
        return float(np.count_nonzero(mask)) * domain.cell_volume

    def mask_on(self, domain):
        if self.grid_mask is None:
            return _window(self.box, domain)
        mdom, mask = self.grid_mask
        if mdom.box != domain.box or mdom.cells != domain.cells:
            raise PreconditionError("mask grid does not match the evaluation grid")
        return mask


@functools.lru_cache(maxsize=4)
def _midpoints(lo, hi, cells):
    """lo + (i + 0.5) h for the cells of [lo, hi], built once per axis and
    shared read-only.  Keyed by value, not held by each grid, so the many
    short-lived grids of a solve keep no array each."""
    mids = lo + (np.arange(cells) + 0.5) * ((hi - lo) / cells)
    mids.flags.writeable = False
    return mids


def _window(box, domain):
    """The cells of domain the box covers, or all of them when box is None."""
    if box is None:
        return np.ones(domain.cells, dtype=bool)
    out = np.zeros(domain.cells, dtype=bool)
    out[domain.box_cells(box)] = True
    return out
