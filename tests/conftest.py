"""Shared builders and independent oracles for the test suite."""

import numpy as np
import pytest

from varlp import (
    ConstantPiece,
    ExponentFunction,
    GridDomain,
    GridFunction,
    modular,
)
from varlp.exponent import INF


def lambda_scan_norm(f, p, num_points=10 ** 6):
    """Independent Luxemburg-norm oracle: smallest lambda on a geometric grid
    with modular(f/lambda) <= 1.

    Uses only the modular (never the norm solver).  The modular is
    nonincreasing in lambda, so a binary search over the grid index is exact
    for the grid.  A coarse 1000-point pass narrows the 4x expansion bracket
    first so the final num_points grid has relative spacing well below 1e-6;
    both neighbors of each returned index are verified.
    """
    vmax = float(np.max(f.values))
    if vmax == 0.0:
        return 0.0
    lo, hi = vmax, vmax
    while modular(GridFunction(f.domain, f.values / lo), p) <= 1.0 and lo > 1e-300:
        lo /= 4.0
    while modular(GridFunction(f.domain, f.values / hi), p) > 1.0:
        hi *= 4.0
    if lo == hi:
        return lo

    for points in (1000, num_points):
        grid = np.geomspace(lo, hi, points)

        def feasible(i):
            return modular(GridFunction(f.domain, f.values / grid[i]), p) <= 1.0

        lo_i, hi_i = 0, points - 1
        assert feasible(hi_i), "oracle bracket lost feasibility at the top"
        while hi_i - lo_i > 1:
            mid = (lo_i + hi_i) // 2
            if feasible(mid):
                hi_i = mid
            else:
                lo_i = mid
        assert feasible(hi_i) and (hi_i == 0 or not feasible(hi_i - 1)), (
            f"lambda grid search landed on a non-boundary index {hi_i}"
        )
        lo, hi = float(grid[max(hi_i - 1, 0)]), float(grid[hi_i])
    return hi


FINITE_VALUES = (1.0, 1.2, 1.5, 2.0, 3.0, 5.0)


def random_piecewise_exponent(rng, lo=-2.0, hi=2.0, allow_inf=False, allow_one=True):
    """Random one-dimensional piecewise-constant exponent on [lo, hi]."""
    n_pieces = int(rng.integers(2, 5))
    cuts = np.sort(rng.uniform(lo, hi, n_pieces - 1))
    edges = np.concatenate([[lo], cuts, [hi]])
    values = list(FINITE_VALUES if allow_one else FINITE_VALUES[1:])
    if allow_inf:
        values.append(INF)
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-9:
            b = a + 1e-9
        pieces.append(ConstantPiece(((float(a), float(b)),),
                                    values[int(rng.integers(0, len(values)))]))
    return ExponentFunction(dimension=1, domain=((lo, hi),), pieces=tuple(pieces))


def random_grid_function(rng, grid, max_val=3.0):
    return GridFunction(grid, rng.uniform(0.0, max_val, grid.cells))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def unit_grid():
    return GridDomain(((0.0, 2.0),), (256,))
