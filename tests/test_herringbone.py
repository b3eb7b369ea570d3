import itertools
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.core import (
    Arrangement,
    Shape,
    UnsupportedInputError,
    is_monotonic,
    max_spread,
    smalls_sequence,
)
from spreadlab.herringbone import (
    HerringboneSpec,
    _count_sum_bounded,
    clipped_cells,
    hb_closed_form,
    hb_min_central_line,
    herringbone_max,
    herringbone_min,
    herringbone_recursive,
)


def test_3x3_reference_table():
    a = herringbone_min(Shape((3, 3)))
    assert a.grid.tolist() == [[0, 2, 6], [1, 3, 7], [4, 5, 8]]


def test_trivial_shapes():
    assert herringbone_min(Shape((1, 1, 1))).grid.tolist() == [[[0]]]
    line = herringbone_min(Shape((5, 1)))
    assert [line.value_at((i, 0)) for i in range(5)] == [0, 1, 2, 3, 4]


def test_rectangular_is_monotonic_and_full():
    for sizes in [(2, 3), (3, 2), (4, 2, 3), (2, 5)]:
        a = herringbone_min(Shape(sizes))
        assert a.is_full
        assert is_monotonic(a)


def test_coordinate_order_changes_tie_breaking():
    default = herringbone_min(Shape((3, 3)))
    swapped = herringbone_recursive(
        HerringboneSpec(Shape((3, 3)), coordinate_order=(1, 0))
    )
    assert swapped.grid.tolist() == [list(r) for r in zip(*default.grid.tolist())]


def test_bad_spec():
    with pytest.raises(UnsupportedInputError):
        HerringboneSpec(Shape((3, 3)), coordinate_order=(0, 0))
    with pytest.raises(UnsupportedInputError):
        HerringboneSpec(Shape((3, 3)), orientation="sideways")


def test_closed_form_examples():
    shape = Shape((3, 3))
    assert hb_closed_form((0, 0), shape) == 0
    assert hb_closed_form((1, 1), shape) == 3
    assert hb_closed_form((2, 1), shape) == 5
    assert hb_closed_form((0, 2), shape) == 6


def test_closed_form_bijection_2x2x2():
    shape = Shape((2, 2, 2))
    values = sorted(hb_closed_form(c, shape) for c in shape.cells())
    assert values == list(range(8))


def test_closed_form_matches_construction_small():
    for k, n in [(2, 4), (3, 3), (4, 2)]:
        shape = Shape((n,) * k)
        built = herringbone_min(shape)
        for cell in shape.cells():
            assert hb_closed_form(cell, shape) == built.value_at(cell)


def test_closed_form_rejects_rectangles():
    with pytest.raises(UnsupportedInputError):
        hb_closed_form((0, 0), Shape((2, 3)))


def test_central_line_formula():
    assert hb_min_central_line(3, 2, 1) == 1
    assert hb_min_central_line(3, 2, 0) == 2
    assert hb_min_central_line(11, 5, 4) == 6475
    with pytest.raises(UnsupportedInputError):
        hb_min_central_line(4, 2, 0)
    with pytest.raises(UnsupportedInputError):
        hb_min_central_line(3, 2, 2)


def test_central_line_matches_construction_and_decreases():
    for n, k in [(3, 2), (3, 3), (5, 2), (5, 3)]:
        a = herringbone_min(Shape((n,) * k))
        mid = (n - 1) // 2
        values = []
        for d in range(k):
            cell = tuple(0 if q == d else mid for q in range(k))
            got = hb_min_central_line(n, k, d)
            assert got == a.value_at(cell)
            values.append(got)
        assert values == sorted(values, reverse=True)
        assert min(values) == values[-1]


def test_max_arrangement_2x2_and_corner():
    mx = herringbone_max(Shape((2, 2)))
    assert mx.value_at((1, 1)) == 3
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        mx = herringbone_max(Shape((n,) * k))
        assert mx.value_at((n - 1,) * k) == n**k - 1
        assert is_monotonic(mx)


def test_max_arrangement_mirror_identity():
    n, k = 3, 2
    mn = herringbone_min(Shape((n,) * k))
    mx = herringbone_max(Shape((n,) * k))
    for cell in Shape((n,) * k).cells():
        mirrored = tuple(n - 1 - c for c in reversed(cell))
        assert mx.value_at(cell) == n**k - 1 - mn.value_at(mirrored)


def test_max_arrangement_rejects_rectangles():
    with pytest.raises(UnsupportedInputError):
        herringbone_recursive(HerringboneSpec(Shape((2, 3)), orientation="maxima"))


def test_layer_structure():
    for n, k in [(4, 2), (3, 3)]:
        a = herringbone_min(Shape((n,) * k))
        for t in range(1, n + 1):
            inside = {
                a.value_at(c) for c in itertools.product(range(t), repeat=k)
            }
            assert inside == set(range(t**k))


def test_herringbone_passes_monotonic_everywhere():
    for n, k in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
        assert is_monotonic(herringbone_min(Shape((n,) * k)))


def test_smalls_maximality_against_monotone_class():
    # elementwise dominance over every monotone filling of the 3x3 grid
    shape = Shape((3, 3))
    reference = smalls_sequence(herringbone_min(shape), 1)
    cells = list(shape.cells())
    index = {c: i for i, c in enumerate(cells)}

    def extensions(filled, placed):
        if len(placed) == 9:
            yield list(placed)
            return
        for c in cells:
            i = index[c]
            if filled[i]:
                continue
            if all(
                filled[index[tuple(v - (1 if d == q else 0) for q, v in enumerate(c))]]
                for d in range(2)
                if c[d] > 0
            ):
                filled[i] = True
                placed.append(c)
                yield from extensions(filled, placed)
                placed.pop()
                filled[i] = False

    count = 0
    for order in extensions([False] * 9, []):
        count += 1
        a = Arrangement.from_value_order(shape, order)
        got = smalls_sequence(a, 1)
        assert all(r >= g for r, g in zip(reference, got))
    assert count == 42  # standard monotone fillings of the 3x3 grid


def test_clipped_cells_budget():
    # budget covering everything reproduces the plain construction
    shape = Shape((3, 3))
    full = [herringbone_min(shape).cell_of(v) for v in range(9)]
    assert list(map(tuple, clipped_cells((3, 3), 4, (0, 1)).tolist())) == full
    # tight budget keeps only the admissible region, still starting at 0
    half = list(map(tuple, clipped_cells((3, 3), 2, (0, 1)).tolist()))
    assert set(half) == {c for c in shape.cells() if sum(c) <= 2}
    assert len(half) == len(set(half))
    assert half[0] == (0, 0)


def test_spread_reference_values():
    assert max_spread(herringbone_min(Shape((3, 3))), 1).max_spread == 6


def _reference_count(extents, budget):
    if budget < 0:
        return 0
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


def _reference_cells(sizes, budget, order):
    """The per-cell definition of the growth engine: a list of tuples."""
    k = len(sizes)
    if k == 0:
        return [()] if budget >= 0 else []
    if budget < 0 or any(s == 0 for s in sizes):
        return []
    cells = [(0,) * k]
    extent = [1] * k
    while extent != list(sizes):
        best_dim = -1
        best_vol = -1
        for p in order:
            if extent[p] >= sizes[p]:
                continue
            vol = _reference_count([extent[q] for q in range(k) if q != p], budget - extent[p])
            if vol > best_vol:
                best_dim, best_vol = p, vol
        p = best_dim
        rest_dims = [q for q in range(k) if q != p]
        rest_sizes = tuple(extent[q] for q in rest_dims)
        rest_order = tuple(sorted(range(k - 1), key=lambda i: order.index(rest_dims[i])))
        for sub in _reference_cells(rest_sizes, budget - extent[p], rest_order):
            cell = list(sub)
            cell.insert(p, extent[p])
            cells.append(tuple(cell))
        extent[p] += 1
    return cells


@st.composite
def boxes_and_orders(draw):
    sizes = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)))
    order = tuple(draw(st.permutations(range(len(sizes)))))
    return sizes, order


@given(boxes_and_orders())
@settings(max_examples=150, deadline=None)
def test_engine_matches_per_cell_definition_at_every_budget(box):
    sizes, order = box
    memo = {}
    for budget in range(-1, sum(sizes) + 2):
        got = clipped_cells(sizes, budget, order, memo)
        assert got.dtype == np.int64 and got.shape == (len(got), len(sizes))
        assert list(map(tuple, got.tolist())) == _reference_cells(sizes, budget, order)


def test_unclipped_count_is_the_box_volume():
    for extents in [(3,), (4, 2), (5, 1, 3), (2, 2, 2, 2)]:
        top = sum(e - 1 for e in extents)
        assert _count_sum_bounded(extents, top) == prod(extents)
        for budget in range(-1, top + 3):
            assert _count_sum_bounded(extents, budget) == _reference_count(extents, budget)
