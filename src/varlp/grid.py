"""Regular cell grids, grid functions, axis-parallel cubes, measurable sets.

Grid functions are piecewise constant on the cells of a uniform grid and are
identified with their midpoint samples.  All quadrature in the package is
exact for such functions, which is what makes the operator identities
checkable at tight tolerances.  A closed box covers the cells whose
midpoints it contains; GridDomain.box_cells finds them for every caller.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, SpecParseError
from .exponent import as_box, box_intersect, box_volume


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
        smallest normal float has lost its digits, so it is refused."""
        volume = self.h ** self.dimension
        if not volume >= sys.float_info.min:
            raise PreconditionError(f"cell width {self.h!r} is too small: the cell volume "
                                    f"h^{self.dimension} = {volume!r} underflows")
        return volume

    @property
    def total_cells(self):
        return int(np.prod(self.cells))

    def axis_midpoints(self, axis):
        lo, hi = self.box[axis]
        c = self.cells[axis]
        return lo + (np.arange(c) + 0.5) * ((hi - lo) / c)

    def points(self):
        """All cell midpoints as an (N, n) array in row-major cell order."""
        axes = [self.axis_midpoints(i) for i in range(self.dimension)]
        return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)

    def box_cells(self, box):
        """Per-axis slices of the cells whose midpoints lie in the closed box.

        An axis's (lo, hi) may also be two arrays, one entry per box; the
        slice ends are then index arrays of the same shape.
        """
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
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise SpecParseError(f"cannot read grid csv {path}: {exc}") from exc
        n = len(header) - 1
        if n < 1 or header[-1] != "value" or header[:n] != [f"x{i + 1}" for i in range(n)]:
            raise SpecParseError(f"unexpected grid csv header {header}")
        if data.shape[1] != n + 1:
            raise SpecParseError("grid csv column count does not match header")
        axes = []
        for i in range(n):
            mids = np.unique(data[:, i])
            if len(mids) > 1:
                steps = np.diff(mids)
                h = steps[0]
                if np.any(np.abs(steps - h) > 1e-9 * abs(h)):
                    raise SpecParseError(f"axis {i + 1} midpoints are not uniformly spaced")
            else:
                h = None
            axes.append(mids)
        cells = tuple(len(m) for m in axes)
        if int(np.prod(cells)) != data.shape[0]:
            raise SpecParseError("grid csv rows do not form a complete grid")
        spacing = None
        for m in axes:
            if len(m) > 1:
                spacing = float(m[1] - m[0])
                break
        if spacing is None:
            raise SpecParseError("cannot infer spacing from a single-cell grid")
        box = tuple((float(m[0]) - spacing / 2, float(m[-1]) + spacing / 2) for m in axes)
        domain = GridDomain(box, cells)
        vals = np.full(cells, np.nan)
        idx = []
        for i in range(n):
            j = np.round((data[:, i] - box[i][0] - spacing / 2) / spacing).astype(int)
            idx.append(np.clip(j, 0, cells[i] - 1))
        vals[tuple(idx)] = data[:, -1]
        if np.isnan(vals).any():
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

    def contains_points(self, pts):
        pts = np.asarray(pts, dtype=float).reshape(-1, self.dimension)
        d = np.abs(pts - np.asarray(self.center)).max(axis=1)
        return d <= self.radius


@dataclass(eq=False)
class MeasurableSet:
    """Box window, optionally cut by a sublevel set of an exponent or a cell mask.

    The stored shape is (box) & {p < threshold} & (explicit mask); any of the
    three parts may be absent.  Pure boxes support exact measure queries, the
    general case is evaluated through cell masks on a grid.
    """

    box: tuple | None = None
    sublevel: tuple | None = None
    grid_mask: tuple | None = None
    label: str = ""

    @classmethod
    def from_box(cls, box, label=""):
        return cls(box=as_box(box), label=label)

    @classmethod
    def from_cube(cls, cube, label=""):
        return cls(box=cube.as_box(), label=label)

    @classmethod
    def from_sublevel(cls, p, threshold, within=None, label=""):
        box = as_box(within) if within is not None else None
        return cls(box=box, sublevel=(p, float(threshold)), label=label)

    @classmethod
    def from_mask(cls, domain, mask, label=""):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != tuple(domain.cells):
            raise SpecParseError("mask shape does not match grid cells")
        return cls(grid_mask=(domain, mask), label=label)

    def intersect_box(self, box):
        box = as_box(box)
        if self.box is not None:
            both = box_intersect(self.box, box)
            if both is None:
                raise DomainError("intersection with box is empty")
            box = both
        return MeasurableSet(box=box, sublevel=self.sublevel, grid_mask=self.grid_mask,
                             label=self.label)

    def is_box(self):
        return self.box is not None and self.sublevel is None and self.grid_mask is None

    def measure_exact(self):
        if not self.is_box():
            raise PreconditionError("exact measure available for pure boxes only")
        return box_volume(self.box)

    def mask_on(self, domain):
        if self.box is None:
            out = np.ones(domain.cells, dtype=bool)
        else:
            out = np.zeros(domain.cells, dtype=bool)
            out[domain.box_cells(self.box)] = True
        if self.grid_mask is not None:
            mdom, m = self.grid_mask
            if mdom.box != domain.box or mdom.cells != domain.cells:
                raise PreconditionError("mask grid does not match the evaluation grid")
            out &= m
        if self.sublevel is not None and out.any():
            # the exponent must cover the cells still in the set only
            p, thr = self.sublevel
            out &= p.values_on(domain, where=out) < thr
        return out

    def measure_on(self, domain):
        return float(self.mask_on(domain).sum()) * domain.cell_volume
