"""Herringbone arrangements of completely filled rectangular matrices.

The construction grows the filled region one boundary slice at a time:
among the dimensions not yet exhausted, extend the one whose adjacent
slice has the largest volume (ties broken by a configurable coordinate
order), and fill that slice recursively with the (k-1)-dimensional
herringbone.  The result is fully monotonic and, layer by layer, packs
early values into the smallest possible subcube, which is what makes
its per-line minima sequence extremal.

One growth engine, ``clipped_cells``, emits every herringbone order in
the package as an (N, k) cell array: whole boxes here, coordinate-sum
bounded halves in ``merge`` and band slabs in ``diagonal``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .core import Arrangement, Shape, UnsupportedInputError, check_cell

MINIMA = "minima"
MAXIMA = "maxima"


@dataclass(frozen=True)
class HerringboneSpec:
    """Shape plus the construction's two degrees of freedom.

    ``coordinate_order`` is the dimension preference used to break
    volume ties while growing (identity by default).  ``orientation``
    selects the minima-facing construction (values grow away from the
    origin) or the maxima-facing one (its mirror image: the value at
    cell c is total-1 minus the minima value at the reversed,
    coordinate-complemented cell).
    """

    shape: Shape
    coordinate_order: tuple[int, ...] | None = None
    orientation: str = MINIMA

    def __post_init__(self):
        if self.coordinate_order is not None:
            order = tuple(self.coordinate_order)
            if sorted(order) != list(range(self.shape.k)):
                raise UnsupportedInputError(
                    f"coordinate_order {order} is not a permutation of 0..{self.shape.k - 1}"
                )
            object.__setattr__(self, "coordinate_order", order)
        if self.orientation not in (MINIMA, MAXIMA):
            raise UnsupportedInputError(f"unknown orientation {self.orientation!r}")


def _count_sum_bounded(extents, budget: int) -> int:
    """|{x : 0 <= x_q < extents[q], sum(x) <= budget}| by a prefix-sum DP."""
    if budget < 0:
        return 0
    if budget >= sum(e - 1 for e in extents):
        return prod(extents)
    counts = [1] + [0] * budget
    for e in extents:
        new = [0] * (budget + 1)
        run = 0
        for s in range(budget + 1):
            run += counts[s]
            if s - e >= 0:
                run -= counts[s - e]
            new[s] = run
        counts = new
    return sum(counts)


def clipped_cells(
    sizes: tuple[int, ...], budget: int, order: tuple[int, ...], memo: dict | None = None
) -> np.ndarray:
    """The growth engine: cells of {x in box : sum(x) <= budget} as an
    (N, k) int64 array in construction (= value) order.

    Each adjacent slab is clipped to the budget before volumes compare;
    ties go to the dimension ranked earliest in ``order``.  A budget of
    at least the far corner's coordinate sum gives the plain herringbone.
    ``memo`` caches sub-box orders by (sizes, clipped budget, order): one
    dict serves every call of one construction.
    """
    k = len(sizes)
    budget = min(budget, sum(n - 1 for n in sizes))
    if budget < 0 or 0 in sizes:
        return np.zeros((0, k), dtype=np.int64)
    if k == 1:
        return np.arange(budget + 1, dtype=np.int64)[:, None]
    memo = {} if memo is None else memo
    key = (tuple(sizes), budget, tuple(order))
    if key in memo:
        return memo[key]
    out = np.zeros((_count_sum_bounded(sizes, budget), k), dtype=np.int64)  # row 0: the origin
    filled = 1
    extent = [1] * k
    while extent != list(sizes):
        best_dim, best_vol = -1, -1
        for p in order:
            if extent[p] >= sizes[p]:
                continue
            vol = _count_sum_bounded(
                [extent[q] for q in range(k) if q != p], budget - extent[p]
            )
            if vol > best_vol:
                best_dim, best_vol = p, vol
        p = best_dim
        rest_dims = [q for q in range(k) if q != p]
        rest_order = tuple(sorted(range(k - 1), key=lambda i: order.index(rest_dims[i])))
        slab = clipped_cells(
            tuple(extent[q] for q in rest_dims), budget - extent[p], rest_order, memo
        )
        out[filled : filled + best_vol, rest_dims] = slab
        out[filled : filled + best_vol, p] = extent[p]
        filled += best_vol
        extent[p] += 1
    out.setflags(write=False)  # shared by every later hit on this key
    memo[key] = out
    return out


def herringbone_recursive(spec: HerringboneSpec) -> Arrangement:
    """Build the full herringbone arrangement described by ``spec``."""
    shape = spec.shape
    order = spec.coordinate_order or tuple(range(shape.k))
    if spec.orientation == MAXIMA and not shape.is_cubic:
        raise UnsupportedInputError("maxima-facing herringbone is defined for cubes only")
    cells = clipped_cells(shape.sizes, sum(shape.sizes), order)
    if spec.orientation == MAXIMA:  # the mirror image, in reverse value order
        cells = shape.sizes[0] - 1 - cells[::-1, ::-1]
    return Arrangement.from_value_order(shape, cells)


def herringbone_min(shape: Shape) -> Arrangement:
    """Minima-facing herringbone with the default (identity) order."""
    return herringbone_recursive(HerringboneSpec(shape))


def herringbone_max(shape: Shape) -> Arrangement:
    """Maxima-facing herringbone of a cube with the default order."""
    return herringbone_recursive(HerringboneSpec(shape, orientation=MAXIMA))


def hb_closed_form(cell: tuple[int, ...], shape: Shape) -> int:
    """Closed form for the cubic herringbone value at ``cell``.

    Let i_p be the largest coordinate (the largest dimension index on
    ties, 1-based p).  Exactly (i_p+1)^(p-1) * i_p^(k-p+1) values are
    placed before the boundary slab holding the cell; the offset inside
    that slab is the same expression one dimension down.
    """
    if not shape.is_cubic:
        raise UnsupportedInputError("closed form is defined for cubic shapes only")
    coords = list(check_cell(shape, cell))
    total = 0
    while coords:
        k = len(coords)
        i_max = max(coords)
        p = k - 1 - coords[::-1].index(i_max)  # largest index attaining the max
        total += (i_max + 1) ** p * i_max ** (k - p)
        del coords[p]
    return total


def hb_min_central_line(n: int, k: int, d: int) -> int:
    """Minimum herringbone value on the central line with free dimension d.

    The central line fixes every other coordinate at (n-1)/2; its
    minimum sits at coordinate 0 of dimension d and equals
    ((n+1)/2)^k - (n-1)/2 - ((n+1)/2)^d.  Odd n only: even-n central
    lines are evaluated directly on the constructed arrangement instead.
    """
    if n < 1 or n % 2 == 0:
        raise UnsupportedInputError("central-line closed form requires odd n")
    if not 0 <= d < k:
        raise UnsupportedInputError(f"dimension {d} out of range 0..{k - 1}")
    half_up = (n + 1) // 2
    return half_up**k - (n - 1) // 2 - half_up**d
