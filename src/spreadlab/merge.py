"""Merged herringbone arrangements of completely filled cubes.

The cube is split by the hyperplane perpendicular to its main diagonal.
The near half is filled first with a minima-facing herringbone grown
inside the half, then the far half with a maxima-facing herringbone
grown backwards from the all-(n-1) corner under the reversed coordinate
order.  Values are assigned in construction order, 0..h-1 on the near
half and h..n^k-1 on the far half, which preserves each construction's
relative order - the only thing the spread analysis uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import merge_upper_bound, multi_failure_spread
from .core import Arrangement, Shape, max_spread
from .herringbone import clipped_cells


@dataclass(frozen=True)
class MergeLayout:
    """Which cells belong to the diagonal half filled first.

    The half is {cells : sum of coordinates <= threshold} with
    threshold = ceil(k*(n-1)/2).  When k*(n-1) is odd no cell lies on
    the bisecting hyperplane itself; taking the layer just above it is
    the choice that keeps the hypercube instance (n=2, k=3) at its
    optimal spread, so the tie goes to the near half.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")

    @property
    def threshold(self) -> int:
        return -(-(self.k * (self.n - 1)) // 2)

    def in_lower_half(self, cell: tuple[int, ...]) -> bool:
        return sum(cell) <= self.threshold


def herringbone_merge(n: int, k: int) -> Arrangement:
    """The merged minima/maxima herringbone arrangement of the n^k cube."""
    layout = MergeLayout(n, k)
    shape = Shape((n,) * k)
    identity = tuple(range(k))
    memo: dict = {}

    lower = clipped_cells(shape.sizes, layout.threshold, identity, memo)

    # Far half, grown from the all-(n-1) corner with the reversed
    # coordinate order: mirror it onto a sum-bounded growth at the origin
    # (reverse the axes and complement every coordinate), build, then map
    # back and flip the order so the far corner receives the top value.
    upper_budget = k * (n - 1) - layout.threshold - 1
    upper = n - 1 - clipped_cells(shape.sizes, upper_budget, identity, memo)[::-1, ::-1]

    if len(lower) + len(upper) != shape.cell_count:
        raise AssertionError("halves do not partition the cube")
    return Arrangement.from_value_order(shape, np.concatenate((lower, upper)))


def merge_spread_check(n: int, k: int) -> tuple[int, int, bool]:
    """(measured, formula, equal) for the worst line spread of the merge.

    ``measured`` is ground truth; ``formula`` is the closed three-case
    value, which undershoots the construction on even n with k >= 3
    (except the hypercube n=2, k=3).  Callers decide what a mismatch
    means; see the reconciliation tests.
    """
    measured = max_spread(herringbone_merge(n, k), 1).max_spread
    formula = merge_upper_bound(n, k)
    return measured, formula, measured == formula


def multi_failure_check(n: int, k: int, l: int) -> tuple[int, int, bool]:
    """(measured, formula, equal) for the worst l-slice spread of the merge."""
    measured = max_spread(herringbone_merge(n, k), l).max_spread
    formula = multi_failure_spread(n, k, l)
    return measured, formula, measured == formula
