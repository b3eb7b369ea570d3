"""Diagonal arrangements: infinite-band herringbones on a finite window,
their restriction to a cube, and the blocked-diagonal improvement.

The infinite diagonal of thickness l is the band swept along the main
diagonal by windows of length ceil(l/2) per dimension.  Its herringbone
arrangement starts from a seed cube and adds, per diagonal step, one
boundary slab per dimension (largest projection first), each filled
with the one-dimension-lower herringbone.  Seed cube and slabs are
boxes (a slab has extent 1 along its dimension) whose cells the
herringbone engine emits as arrays; the band's capacity inside a cube is
counted from the box extents alone.  Away from the window's ends
every line meets the band in l cells, line spreads are constant along
the diagonal, and consecutive parallel lines shift their extremes by a
fixed constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .core import Arrangement, Shape, SliceSpec, slice_values
from .herringbone import clipped_cells
from .merge import herringbone_merge


@dataclass(frozen=True)
class DiagonalSpec:
    """Band parameters: dimensions, thickness, and materialized steps."""

    k: int
    l: int
    window: int

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise ValueError(f"need k >= 1 and l >= 1, got k={self.k}, l={self.l}")
        if self.window < 1:
            raise ValueError("degenerate window: need at least one diagonal step")

    @property
    def seed_side(self) -> int:
        return -(-self.l // 2)

    @property
    def side(self) -> int:
        """Extent of the box holding the materialized window."""
        return self.seed_side + self.window


def diagonal_shift(k: int, l: int) -> int:
    """Cells added per diagonal step: sum_i floor(l/2)^i * ceil(l/2)^(k-1-i).

    Advancing every fixed coordinate of a line by one shifts both its
    smallest and largest value by exactly this constant.  For even l it
    collapses to k*(l/2)^(k-1); for odd l it is the geometric sum
    ((l+1)^k - (l-1)^k) / 2^k.
    """
    if k < 1 or l < 1:
        raise ValueError(f"need k >= 1 and l >= 1, got k={k}, l={l}")
    lo, hi = l // 2, -(-l // 2)
    return sum(lo**i * hi ** (k - 1 - i) for i in range(k))


def diagonal_max_spread(k: int, l: int) -> int:
    """Central-line spread of the band herringbone, closed form:
    (ceil(l/2) - 1) * diagonal_shift(k, l) + ceil(l/2)^(k-1).

    At l = 1 this yields 1, but a thickness-1 staircase holds a single
    value per line (measured spread 0); measurement is ground truth
    there - see bounds.KNOWN_DISPLAY_GAPS.
    """
    hi = -(-l // 2)
    return (hi - 1) * diagonal_shift(k, l) + hi ** (k - 1)


def _band_boxes(k: int, l: int, steps: int, clip: int | None = None):
    """The band's boxes in construction order, as (lows, sizes) pairs: the
    seed cube, then per diagonal step one slab per dimension p (largest
    p first), of extent 1 along p.

    ``clip`` restricts cells to the cube [0, clip)^k; slab boxes are
    clamped, so the clipped construction stays a herringbone of the
    remaining region.  Steps past the cube's far face add nothing, so
    steps = clip = n runs the band through the whole n^k cube.
    """
    lo_w = l // 2
    seed = -(-l // 2)
    yield (0,) * k, (seed if clip is None else min(seed, clip),) * k
    last = seed + steps - 1
    if clip is not None:
        last = min(last, clip - 1)
    for m in range(seed, last + 1):
        for p in reversed(range(k)):
            box = []
            for q in range(k):
                if q == p:
                    low, high = m, m
                elif l % 2 == 0:
                    low, high = (m - seed, m - 1) if q < p else (m - seed + 1, m)
                else:
                    low, high = (m - lo_w, m) if q < p else (m - lo_w, m - 1)
                box.append((low, high) if clip is None else (max(low, 0), min(high, clip - 1)))
            if all(low <= high for low, high in box):
                yield tuple(low for low, _ in box), tuple(high - low + 1 for low, high in box)


def _band_order(boxes) -> np.ndarray:
    """Cells of the boxes in construction order, each box filled by the
    herringbone engine; one memo serves every slab."""
    memo: dict = {}
    cells = [clipped_cells(s, sum(s), tuple(range(len(s))), memo) + lows for lows, s in boxes]
    return np.concatenate(cells)


def infinite_diagonal_window(spec: DiagonalSpec) -> Arrangement:
    """Materialize ``spec.window`` diagonal steps of the band herringbone.

    The infinite construction is offset so the window starts at the
    origin; values are the construction order.  Raises if the window is
    too short to contain a boundary-effect-free core (at least 2l+1
    interior lines per dimension).
    """
    shape = Shape((spec.side,) * spec.k)
    arr = Arrangement.from_value_order(shape, _band_order(_band_boxes(spec.k, spec.l, spec.window)))
    for d in range(spec.k):
        if len(interior_lines(arr, spec.l, free_dim=d)) < 2 * spec.l + 1:
            raise ValueError(
                f"degenerate window: fewer than {2 * spec.l + 1} interior lines "
                f"in dimension {d}; enlarge window (got {spec.window})"
            )
    return arr


def interior_lines(a: Arrangement, thickness: int, free_dim: int | None = None) -> list[SliceSpec]:
    """Lines with exactly ``thickness`` placed cells, all of whose cells
    keep every coordinate at least ``thickness`` away from the box ends.

    Only these lines are free of window boundary effects; shift and
    constancy assertions quantify over them.
    """
    k = a.shape.k
    out = []
    dims = range(k) if free_dim is None else [free_dim]
    for d in dims:
        fixed_dims = [q for q in range(k) if q != d]
        for coords in itertools.product(*(range(a.shape.sizes[q]) for q in fixed_dims)):
            if any(
                not thickness <= c <= a.shape.sizes[q] - 1 - thickness
                for q, c in zip(fixed_dims, coords)
            ):
                continue
            spec = SliceSpec((d,), tuple(zip(fixed_dims, coords)))
            vals = slice_values(a, spec)
            if len(vals) != thickness:
                continue
            placed = [a.cell_of(int(v))[d] for v in vals]
            lo, hi = min(placed), max(placed)
            if lo < thickness or hi > a.shape.sizes[d] - 1 - thickness:
                continue
            out.append(spec)
    return out


def band_capacity(n: int, k: int, l: int) -> int:
    """Cells of the thickness-l band that fall inside the n^k cube,
    counted from the slab extents."""
    return sum(prod(sizes) for _, sizes in _band_boxes(k, l, n, clip=n))


def diagonal_in_cube(n: int, k: int, m: int) -> Arrangement:
    """Band herringbone clipped to the n^k cube, truncated to m values.

    Thickness is the smallest l whose clipped band holds at least m
    cells; l = 2n-1 covers the whole cube, so every m <= n^k is
    feasible, and m = n^k degenerates to the plain full-cube
    herringbone.  Only the band at that thickness is built.
    """
    shape = Shape((n,) * k)
    if not 1 <= m <= shape.cell_count:
        raise ValueError(f"need 1 <= m <= {shape.cell_count}, got m={m}")
    order = _band_order(_band_boxes(k, chosen_thickness(n, k, m), n, clip=n))
    return Arrangement.from_value_order(shape, order[:m])


def chosen_thickness(n: int, k: int, m: int) -> int:
    """The thickness diagonal_in_cube picks for these parameters."""
    for l in range(1, 2 * n):
        if band_capacity(n, k, l) >= m:
            return l
    raise ValueError(f"no thickness covers m={m} in a {n}^{k} cube")


def _gap_cells(corner_end: int, corner_start: int, k: int) -> np.ndarray:
    """Two thin staircases linking a block's far corner to the next
    block's origin corner: prefixes switch from start to end coordinates
    and mirrored, k-1 cells per family."""
    cells = []
    for j in range(1, k):
        cells.append((corner_start,) * j + (corner_end,) * (k - j))
        cells.append((corner_end,) * j + (corner_start,) * (k - j))
    uniq = sorted(set(cells), key=lambda c: (sum(c), c))
    return np.array(uniq, dtype=np.int64).reshape(-1, k)


def blocked_diagonal(n: int, k: int, m: int) -> Arrangement:
    """Non-overlapping cubic blocks along the main diagonal, joined by
    thin staircase connectors, holding exactly m values.

    Sizing is greedy: the smallest block edge whose blocks-plus-
    connectors capacity reaches m, then the fewest blocks.  Full blocks
    carry the merged-herringbone numbering (their internal spread is the
    full-cube value at that edge); a partial final block is filled with
    the incomplete-cube diagonal construction instead of a truncated
    merge, whose tail values would scatter.
    """
    shape = Shape((n,) * k)
    if not 1 <= m <= shape.cell_count:
        raise ValueError(f"need 1 <= m <= {shape.cell_count}, got m={m}")
    gap_size = len(_gap_cells(0, 1, k))

    # Smallest maximum edge B whose blocks cover m: floor(n/B) blocks of
    # edge B plus one leftover block of edge n mod B, biggest first.
    edges = None
    for bound in range(1, n + 1):
        trial = [bound] * (n // bound)
        if n % bound:
            trial.append(n % bound)
        if sum(e**k for e in trial) + (len(trial) - 1) * gap_size >= m:
            edges = trial
            break
    if edges is None:
        raise AssertionError("edge n blocks always cover the cube")
    used = []
    capacity = 0
    for e in edges:
        capacity += e**k + (gap_size if used else 0)
        used.append(e)
        if capacity >= m:
            break

    parts = []
    offset = 0
    for e in used[:-1]:
        parts.append(herringbone_merge(e, k).cells + offset)
        offset += e
        parts.append(_gap_cells(offset - 1, offset, k))
    last = used[-1]
    remainder = m - sum(map(len, parts))
    if remainder >= last**k:
        parts.append(herringbone_merge(last, k).cells + offset)
    elif remainder > 0:
        # a truncated merge scatters its tail values; the incomplete-cube
        # diagonal keeps the partial final block spread-controlled
        parts.append(diagonal_in_cube(last, k, remainder).cells + offset)
    return Arrangement.from_value_order(shape, np.concatenate(parts)[:m])
