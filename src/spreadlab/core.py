"""Arrangements of integers in k-dimensional matrices and their spread.

An arrangement places the values 0..m-1 into distinct cells of a
k-dimensional box.  The quantities of interest are per-slice spreads
(max minus min value within an axis-aligned submatrix), the sorted
lists of per-slice minima ("smalls") and maxima ("bigs"), and the
pairing lower bound derived from two such lists.

Dimensions are 0-indexed throughout, cells are coordinate tuples, and
empty grid cells are stored as -1.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

# Guard for total cell counts: anything near this is unusable anyway and
# larger products would silently wrap in the int64 grids we allocate.
MAX_CELLS = 2**62

EMPTY = -1


class ShapeMismatchError(ValueError):
    """A cell, slice, or arrangement does not fit the expected shape."""


class UnsupportedInputError(ValueError):
    """Input is structurally valid but outside an operation's domain."""


@dataclass(frozen=True)
class Shape:
    """Box geometry: per-dimension extents ``sizes``, dimension count ``k``."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 1:
            raise ShapeMismatchError("shape needs at least one dimension")
        if any(n < 1 for n in sizes):
            raise ShapeMismatchError(f"every extent must be >= 1, got {sizes}")
        total = 1
        for n in sizes:
            total *= n
            if total > MAX_CELLS:
                raise ShapeMismatchError(
                    f"cell count {'x'.join(map(str, sizes))} exceeds guard {MAX_CELLS}"
                )

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def cell_count(self) -> int:
        return prod(self.sizes)

    @property
    def is_cubic(self) -> bool:
        return len(set(self.sizes)) == 1

    def contains(self, cell: tuple[int, ...]) -> bool:
        return len(cell) == self.k and all(
            0 <= c < n for c, n in zip(cell, self.sizes)
        )

    def cells(self):
        """Iterate all cells in lexicographic order."""
        return itertools.product(*(range(n) for n in self.sizes))

    def __str__(self) -> str:
        return "x".join(map(str, self.sizes))


def check_cell(shape: Shape, cell: tuple[int, ...]) -> tuple[int, ...]:
    cell = tuple(int(c) for c in cell)
    if not shape.contains(cell):
        raise ShapeMismatchError(f"cell {cell} outside shape {shape}")
    return cell


@dataclass(frozen=True)
class SliceSpec:
    """An l-dimensional slice: ``free_dims`` vary, ``fixed`` pins the rest.

    ``fixed`` is stored as a sorted tuple of (dimension, coordinate) pairs
    so specs are hashable and order-independent.
    """

    free_dims: tuple[int, ...]
    fixed: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "free_dims", tuple(sorted(self.free_dims)))
        object.__setattr__(self, "fixed", tuple(sorted(self.fixed)))

    @classmethod
    def of(cls, free_dims, fixed: dict[int, int]) -> "SliceSpec":
        return cls(tuple(free_dims), tuple(fixed.items()))

    @property
    def l(self) -> int:
        return len(self.free_dims)

    @property
    def fixed_map(self) -> dict[int, int]:
        return dict(self.fixed)

    def validate(self, shape: Shape) -> None:
        dims = set(self.free_dims) | {d for d, _ in self.fixed}
        if sorted(dims) != list(range(shape.k)) or len(self.free_dims) + len(
            self.fixed
        ) != shape.k:
            raise ShapeMismatchError(
                f"slice dims {self.free_dims}+{self.fixed} do not partition 0..{shape.k - 1}"
            )
        if not 1 <= self.l <= shape.k:
            raise ShapeMismatchError(f"slice dimension l={self.l} out of range")
        for d, c in self.fixed:
            if not 0 <= c < shape.sizes[d]:
                raise ShapeMismatchError(
                    f"fixed coordinate {c} out of range in dimension {d}"
                )

    def index_expr(self, shape: Shape):
        """numpy index selecting the slice from a grid of this shape."""
        idx: list = [slice(None)] * shape.k
        for d, c in self.fixed:
            idx[d] = c
        return tuple(idx)

    def __str__(self) -> str:
        fixed = self.fixed_map
        parts = ["*" if d in self.free_dims else str(fixed[d]) for d in
                 range(len(self.free_dims) + len(self.fixed))]
        return "(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class SpreadReport:
    """Worst l-slice spread, the slice achieving it, optional per-slice map."""

    l: int
    max_spread: int
    witness: SliceSpec
    per_slice: dict[SliceSpec, int] | None = None


def _index_array(items, upper) -> tuple[np.ndarray, int]:
    """``items`` as an int64 array: m numbers (``upper`` an int) or m rows of
    len(upper) numbers (``upper`` a tuple), each converted as int() does.
    Also returns the first entry int() rejects, of the wrong length or out
    of 0..upper-1 (m if none); entries from that one on are unspecified."""
    rows = isinstance(upper, tuple)
    shape = (len(items), len(upper)) if rows else (len(items),)
    try:
        arr = np.asarray(items)
        clean = arr.dtype.kind in "iub" and arr.shape == shape
    except (TypeError, ValueError, OverflowError):  # ragged rows
        clean = False
    n = len(items)
    if not clean:  # floats, numeric strings, ints beyond int64, junk: entry by entry
        arr = np.zeros(shape, dtype=np.int64)
        for i, item in enumerate(items):
            try:
                entry = [int(x) for x in item] if rows else int(item)
                if rows and len(entry) != len(upper):
                    raise ValueError("wrong row length")
                arr[i] = entry
            except (TypeError, ValueError, OverflowError):
                n = i
                break
    arr = arr.astype(np.int64)  # uint64 beyond int64 wraps negative: out of range
    ok = ((arr[:n] >= 0) & (arr[:n] < upper)).all(axis=tuple(range(1, arr.ndim)))
    return arr, n if ok.all() else int(np.argmin(ok))


def _first_repeat(ids: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one, len(ids) if none."""
    order = np.argsort(ids, kind="stable")  # equal ids keep input order
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    return int(repeats.min()) if repeats.size else len(ids)


class Arrangement:
    """A partial bijection from the cells of a box onto {0, ..., m-1}.

    Backed by an int64 grid (EMPTY marks unfilled cells) plus ``cells``,
    the (m, k) int64 array whose row v is the cell holding value v.
    ``inverse`` is the same map as a list of coordinate tuples, built on
    first use.  Every constructor goes through one vectorized placement
    routine.  Instances are treated as immutable values; every operation
    returns a new arrangement.
    """

    def __init__(self, shape: Shape, grid: np.ndarray, cells: np.ndarray):
        self.shape = shape
        self.grid = grid
        self.cells = cells
        grid.setflags(write=False)
        cells.setflags(write=False)

    # -- construction ------------------------------------------------

    @classmethod
    def _place(cls, shape: Shape, cells, values=None) -> "Arrangement":
        """Place ``values[i]`` (default i) at ``cells[i]``.

        Checks every entry as the per-cell definition does, in this order
        for each entry: cell converts and lies in the shape, value converts
        and lies in 0..m-1, cell not taken yet, value not taken yet.  The
        error raised is that of the first offending entry.
        """
        m = len(cells)
        coords, bad = _index_array(cells, shape.sizes)
        vals, bad_value = (np.arange(m), m) if values is None else _index_array(values, m)
        n = min(bad, bad_value)
        flat = np.ravel_multi_index(tuple(coords[:n].T), shape.sizes)
        taken_cell = _first_repeat(flat)
        taken_value = n if values is None else _first_repeat(vals[:n])
        i = min(n, taken_cell, taken_value)
        if i < m:
            if i == bad:
                check_cell(shape, cells[i])  # raises the cell's own error
            raise ShapeMismatchError(
                f"value {int(values[i])} outside 0..{m - 1}; placement must cover exactly 0..m-1"
                if i == bad_value
                else f"cell {tuple(coords[i].tolist())} assigned twice"
                if i == taken_cell
                else f"value {int(vals[i])} assigned twice"
            )
        grid = np.full(shape.sizes, EMPTY, dtype=np.int64)
        grid.reshape(-1)[flat] = vals
        coords[vals] = coords.copy()  # into value order
        return cls(shape, grid, coords)

    @classmethod
    def from_placement(cls, shape: Shape, placement: dict[tuple[int, ...], int]) -> "Arrangement":
        return cls._place(shape, list(placement), list(placement.values()))

    @classmethod
    def from_grid(cls, grid_like) -> "Arrangement":
        grid = np.asarray(grid_like, dtype=np.int64)
        shape = Shape(grid.shape)
        values = grid[grid != EMPTY]
        if not np.array_equal(np.sort(values), np.arange(values.size)):
            raise ShapeMismatchError("grid values must be exactly 0..m-1")
        return cls._place(shape, np.argwhere(grid != EMPTY), values)

    @classmethod
    def from_value_order(cls, shape: Shape, cells_in_order) -> "Arrangement":
        """Place 0, 1, 2, ... at the given cells, in the given order."""
        sized = hasattr(cells_in_order, "__len__")  # lists and (m, k) arrays as they are
        return cls._place(shape, cells_in_order if sized else list(cells_in_order))

    # -- basic queries -----------------------------------------------

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def is_full(self) -> bool:
        return self.m == self.shape.cell_count

    @cached_property
    def inverse(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.cells.tolist()))

    def value_at(self, cell: tuple[int, ...]) -> int | None:
        v = int(self.grid[check_cell(self.shape, cell)])
        return None if v == EMPTY else v

    def cell_of(self, value: int) -> tuple[int, ...]:
        if not 0 <= value < self.m:
            raise ShapeMismatchError(f"value {value} not placed (m={self.m})")
        return self.inverse[value]

    def complemented(self) -> "Arrangement":
        """Map every value v to m-1-v (cells unchanged)."""
        grid = self.grid.copy()
        mask = grid != EMPTY
        grid[mask] = self.m - 1 - grid[mask]
        return Arrangement(self.shape, grid, self.cells[::-1].copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Arrangement)
            and self.shape == other.shape
            and np.array_equal(self.grid, other.grid)
        )

    def __hash__(self):
        return hash((self.shape, self.grid.tobytes()))

    def __repr__(self) -> str:
        return f"Arrangement(shape={self.shape}, m={self.m})"

    # -- serialization (the interchange format) ----------------------

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The interchange document, compact with sorted keys: cells in
        value order as {"coords": [...], "value": v}, then m and sizes."""
        entry = '{"coords":[' + ",".join(["%d"] * self.shape.k) + '],"value":%d}'
        table = np.column_stack((self.cells, np.arange(self.m)))
        body = ",".join([entry] * self.m) % tuple(table.ravel().tolist())
        sizes = ",".join(map(str, self.shape.sizes))
        return f'{{"cells":[{body}],"m":{self.m},"sizes":[{sizes}]}}'

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Arrangement":
        shape = Shape(tuple(doc["sizes"]))
        cells = doc["cells"]
        if len(cells) != doc.get("m", len(cells)):
            raise ShapeMismatchError("m does not match the number of listed cells")
        placement = {tuple(entry["coords"]): entry["value"] for entry in cells}
        if len(placement) != len(cells):
            raise ShapeMismatchError("duplicate coords in cell list")
        return cls.from_placement(shape, placement)

    @classmethod
    def from_json(cls, text: str) -> "Arrangement":
        return cls.from_json_dict(json.loads(text))


# -- slice enumeration and spreads -----------------------------------


def iter_slices(shape: Shape, l: int):
    """All l-dimensional slices, free-dim combinations then fixed coords,
    both in lexicographic order."""
    if not 1 <= l <= shape.k:
        raise ShapeMismatchError(f"l={l} out of range 1..{shape.k}")
    for free in itertools.combinations(range(shape.k), l):
        fixed_dims = [d for d in range(shape.k) if d not in free]
        for coords in itertools.product(*(range(shape.sizes[d]) for d in fixed_dims)):
            yield SliceSpec(free, tuple(zip(fixed_dims, coords)))


def slice_ids(shape: Shape, l: int) -> tuple[np.ndarray, list[int]]:
    """(ids, sizes): ids[c, j] is the ``iter_slices`` index of the slice
    through flat cell c whose free dims are the j-th combination, and
    sizes[i] is the cell count of slice i."""
    columns, sizes = [], []
    for free in itertools.combinations(range(shape.k), l):
        fixed = [1 if d in free else n for d, n in enumerate(shape.sizes)]
        count = prod(fixed)  # slices with these free dims, numbered in fixed-coordinate order
        ids = np.arange(len(sizes), len(sizes) + count).reshape(fixed)
        columns.append(np.broadcast_to(ids, shape.sizes).ravel())
        sizes += [shape.cell_count // count] * count
    return np.stack(columns, axis=1), sizes


def slice_values(a: Arrangement, s: SliceSpec) -> np.ndarray:
    """Placed values inside the slice, unordered."""
    s.validate(a.shape)
    sub = a.grid[s.index_expr(a.shape)]
    sub = np.atleast_1d(sub)
    return sub[sub != EMPTY]


def slice_spread(a: Arrangement, s: SliceSpec) -> int | None:
    """Max minus min of placed values in the slice; None when empty."""
    vals = slice_values(a, s)
    if vals.size == 0:
        return None
    return int(vals.max() - vals.min())


def slice_extrema(grid: np.ndarray, free) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice (mins, maxes) of the placed values in the slices whose
    free dims are ``free``, indexed by the fixed coordinates in dimension
    order.  An empty slice reads EMPTY in both: viewed as uint64, EMPTY
    is the largest number, so the min skips empty cells."""
    axes = tuple(free)
    if not axes:  # one-cell slices: the grid is its own table, no copy needed
        return grid, grid
    mins = np.asarray(grid.view(np.uint64).min(axis=axes)).view(np.int64)
    return mins, np.asarray(grid.max(axis=axes))


def max_spread(a: Arrangement, l: int, per_slice: bool = False) -> SpreadReport:
    """Worst spread over all nonempty l-slices.

    The witness is deterministic: among maximizers, the lexicographically
    least free-dim combination, then the lexicographically least fixed
    coordinates.  Empty slices are skipped.
    """
    if a.m == 0:
        raise UnsupportedInputError("max_spread of an empty arrangement")
    if not 1 <= l <= a.shape.k:
        raise ShapeMismatchError(f"l={l} out of range 1..{a.shape.k}")
    best = -1
    witness = None
    parts = []
    for free in itertools.combinations(range(a.shape.k), l):
        fixed_dims = [d for d in range(a.shape.k) if d not in free]
        mins, maxes = slice_extrema(a.grid, free)
        spreads = np.where(maxes == EMPTY, -1, maxes - mins)  # empty slices never win
        idx = int(np.argmax(spreads))  # the first maximum, in fixed-coordinate order
        if spreads.flat[idx] > best:
            best = int(spreads.flat[idx])
            coords = np.unravel_index(idx, spreads.shape)
            witness = SliceSpec(free, tuple(zip(fixed_dims, map(int, coords))))
        parts.append(spreads.reshape(-1))
    if witness is None:
        raise UnsupportedInputError("no nonempty slice found")
    detail = None
    if per_slice:  # the parts concatenate in iter_slices order
        spreads = np.concatenate(parts).tolist()
        detail = {s: sp for s, sp in zip(iter_slices(a.shape, l), spreads) if sp >= 0}
    return SpreadReport(l=l, max_spread=best, witness=witness, per_slice=detail)


def _extrema_list(a: Arrangement, l: int, which: int) -> list[int]:
    """Sorted mins (which=0) or maxes (which=1) of the nonempty l-slices."""
    if not 1 <= l <= a.shape.k:
        raise ShapeMismatchError(f"l={l} out of range 1..{a.shape.k}")
    if a.m == 0:
        raise UnsupportedInputError("sequence of an empty arrangement")
    parts = []
    for free in itertools.combinations(range(a.shape.k), l):
        values = slice_extrema(a.grid, free)[which]
        parts.append(values[values != EMPTY])
    return np.sort(np.concatenate(parts)).tolist()


def smalls_sequence(a: Arrangement, l: int = 1) -> list[int]:
    """Ascending list of per-slice minima, one entry per nonempty l-slice.

    A value minimal in several slices appears once per slice.
    """
    return _extrema_list(a, l, 0)


def bigs_sequence(a: Arrangement, l: int = 1) -> list[int]:
    """Ascending list of per-slice maxima; mirror of smalls_sequence."""
    return _extrema_list(a, l, 1)


def pairing_bound(smalls, bigs) -> int:
    """max_j (bigs[j] - smalls[j]) over the two ascending sequences.

    Pairing the j-th smallest entries against each other is the optimal
    one-to-one matching (the classic ski-instructor argument), so this is
    a valid spread lower bound for any arrangement whose smalls list is
    elementwise <= ``smalls`` and bigs list elementwise >= ``bigs``.
    """
    smalls = list(smalls)
    bigs = list(bigs)
    if len(smalls) != len(bigs):
        raise ValueError(f"length mismatch: {len(smalls)} smalls vs {len(bigs)} bigs")
    if not smalls:
        raise ValueError("empty sequences")
    if any(x > y for x, y in zip(smalls, smalls[1:])) or any(
        x > y for x, y in zip(bigs, bigs[1:])
    ):
        raise ValueError("sequences must be ascending")
    return max(b - s for s, b in zip(smalls, bigs))


# -- monotonic arrangements ------------------------------------------


def is_monotonic(a: Arrangement) -> bool:
    """True iff values strictly increase along every line, every dimension.

    Defined for completely filled arrangements only.
    """
    if not a.is_full:
        raise UnsupportedInputError("is_monotonic requires a completely filled arrangement")
    for axis in range(a.shape.k):
        if a.shape.sizes[axis] > 1 and not (np.diff(a.grid, axis=axis) > 0).all():
            return False
    return True


def make_monotonic(a: Arrangement) -> Arrangement:
    """Sort values ascending along every line, one dimension at a time,
    innermost dimension first (rows before columns in 2-D).

    Each pass preserves the monotonicity established by earlier passes,
    so the result is fully monotonic, and in-line sorts never increase
    the worst line spread.
    """
    if not a.is_full:
        raise UnsupportedInputError("make_monotonic requires a completely filled arrangement")
    grid = a.grid
    for axis in reversed(range(a.shape.k)):
        grid = np.sort(grid, axis=axis)
    return Arrangement.from_grid(grid)
