import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.core import (
    Arrangement,
    Shape,
    ShapeMismatchError,
    SliceSpec,
    UnsupportedInputError,
    bigs_sequence,
    is_monotonic,
    iter_slices,
    make_monotonic,
    max_spread,
    pairing_bound,
    slice_ids,
    slice_spread,
    slice_values,
    smalls_sequence,
)
from spreadlab.herringbone import herringbone_min

HB33 = Arrangement.from_grid([[0, 2, 6], [1, 3, 7], [4, 5, 8]])
HB22 = Arrangement.from_grid([[0, 2], [1, 3]])


# -- strategies -------------------------------------------------------

small_shapes = st.sampled_from(
    [(2,), (4,), (2, 2), (2, 3), (3, 3), (4, 2), (2, 2, 2), (2, 3, 2), (3, 3, 3)]
)


@st.composite
def full_arrangements(draw):
    sizes = draw(small_shapes)
    shape = Shape(sizes)
    cells = list(shape.cells())
    order = draw(st.permutations(cells))
    return Arrangement.from_value_order(shape, order)


@st.composite
def partial_arrangements(draw):
    sizes = draw(small_shapes)
    shape = Shape(sizes)
    cells = list(shape.cells())
    m = draw(st.integers(min_value=1, max_value=len(cells)))
    order = draw(st.permutations(cells))
    return Arrangement.from_value_order(shape, order[:m])


# -- shapes and slices ------------------------------------------------

def test_shape_validation():
    with pytest.raises(ShapeMismatchError):
        Shape(())
    with pytest.raises(ShapeMismatchError):
        Shape((0, 3))
    with pytest.raises(ShapeMismatchError):
        Shape((2**40, 2**40))
    assert Shape((3, 4)).cell_count == 12
    assert Shape((3, 3)).is_cubic and not Shape((3, 4)).is_cubic


def test_slice_spec_validation():
    shape = Shape((3, 3))
    s = SliceSpec.of([1], {0: 1})
    s.validate(shape)
    with pytest.raises(ShapeMismatchError):
        SliceSpec.of([1], {0: 5}).validate(shape)
    with pytest.raises(ShapeMismatchError):
        SliceSpec.of([0, 1], {0: 1}).validate(shape)
    with pytest.raises(ShapeMismatchError):
        SliceSpec.of([2], {0: 0, 1: 0}).validate(shape)


def test_arrangement_bijection_enforced():
    shape = Shape((2, 2))
    with pytest.raises(ShapeMismatchError):
        Arrangement.from_placement(shape, {(0, 0): 0, (0, 1): 0})
    with pytest.raises(ShapeMismatchError):
        Arrangement.from_placement(shape, {(0, 0): 0, (0, 1): 2})
    with pytest.raises(ShapeMismatchError):
        Arrangement.from_grid([[0, 1], [1, 2]])


# -- slice_spread -----------------------------------------------------

def test_slice_spread_row_major_row():
    rm = Arrangement.from_grid(np.arange(16).reshape(4, 4))
    assert slice_spread(rm, SliceSpec.of([1], {0: 1})) == 3


def test_slice_spread_single_value_and_empty():
    one = Arrangement.from_placement(Shape((3, 3)), {(1, 1): 0})
    assert slice_spread(one, SliceSpec.of([1], {0: 1})) == 0
    assert slice_spread(one, SliceSpec.of([1], {0: 0})) is None


def test_slice_spread_herringbone_row():
    assert slice_spread(HB33, SliceSpec.of([1], {0: 0})) == 6


# -- max_spread -------------------------------------------------------

def test_max_spread_2x2():
    a = Arrangement.from_grid([[0, 1], [2, 3]])
    rep = max_spread(a, 1)
    assert rep.max_spread == 2
    assert rep.witness.free_dims == (0,)  # a column achieves it


def test_max_spread_line_shape():
    a = Arrangement.from_grid(list(range(5)))
    assert max_spread(a, 1).max_spread == 4


def test_max_spread_herringbone_3x3():
    assert max_spread(HB33, 1).max_spread == 6


def test_max_spread_witness_deterministic_and_least():
    rm = Arrangement.from_grid(np.arange(16).reshape(4, 4))
    rep = max_spread(rm, 1)
    assert rep.max_spread == 12
    assert rep.witness == SliceSpec.of([0], {1: 0})


def test_max_spread_per_slice_consistent():
    rep = max_spread(HB33, 1, per_slice=True)
    assert rep.max_spread == max(rep.per_slice.values())
    assert len(rep.per_slice) == 6


# -- smalls / bigs / pairing -----------------------------------------

def test_sequences_worked_examples():
    assert smalls_sequence(HB22, 1) == [0, 0, 1, 2]
    assert bigs_sequence(HB22, 1) == [1, 2, 3, 3]
    assert smalls_sequence(HB33, 1) == [0, 0, 1, 2, 4, 6]
    maxima_facing = Arrangement.from_grid([[0, 1, 2], [3, 5, 6], [4, 7, 8]])
    assert bigs_sequence(maxima_facing, 1) == [2, 4, 6, 7, 8, 8]


def test_sequences_whole_matrix_slice():
    assert smalls_sequence(HB33, 2) == [0]
    assert bigs_sequence(HB33, 2) == [8]


def test_sequences_single_cell():
    one = Arrangement.from_placement(Shape((3, 3)), {(1, 1): 0})
    assert smalls_sequence(one, 1) == [0, 0]
    assert bigs_sequence(one, 1) == [0, 0]


def test_pairing_bound_examples():
    assert pairing_bound([0, 0, 1, 2], [1, 2, 3, 3]) == 2
    assert pairing_bound([0, 0, 1, 2, 4, 6], [2, 4, 6, 7, 8, 8]) == 5
    assert pairing_bound([1, 2, 3], [1, 2, 3]) == 0
    with pytest.raises(ValueError):
        pairing_bound([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pairing_bound([2, 1], [3, 4])


# -- monotonic --------------------------------------------------------

def test_is_monotonic_examples():
    assert is_monotonic(Arrangement.from_grid([[0, 1], [2, 3]]))
    assert is_monotonic(HB22)
    assert not is_monotonic(Arrangement.from_grid([[1, 0], [2, 3]]))


def test_monotonic_rejects_partial():
    partial = Arrangement.from_placement(Shape((2, 2)), {(0, 0): 0})
    with pytest.raises(UnsupportedInputError):
        is_monotonic(partial)
    with pytest.raises(UnsupportedInputError):
        make_monotonic(partial)


def test_make_monotonic_worked_examples():
    a = make_monotonic(Arrangement.from_grid([[3, 0], [1, 2]]))
    assert a.grid.tolist() == [[0, 2], [1, 3]]
    assert max_spread(a, 1).max_spread == 2
    # row sort gives [[2,3],[0,1]]; sorting its columns yields [[0,1],[2,3]]
    # (column 1 holds {1,3} after the row pass, so no other outcome fits)
    b = make_monotonic(Arrangement.from_grid([[3, 2], [1, 0]]))
    assert b.grid.tolist() == [[0, 1], [2, 3]]
    assert max_spread(b, 1).max_spread == 2


def test_make_monotonic_idempotent_on_monotonic():
    assert make_monotonic(HB22) == HB22


# -- serialization ----------------------------------------------------

def test_json_round_trip_and_format():
    doc = HB33.to_json_dict()
    assert doc["sizes"] == [3, 3] and doc["m"] == 9
    values = [c["value"] for c in doc["cells"]]
    assert values == sorted(values)
    again = Arrangement.from_json(HB33.to_json())
    assert again == HB33


def test_value_order_takes_any_iterable():
    shape = Shape((2, 3))
    assert Arrangement.from_value_order(shape, shape.cells()) == Arrangement.from_value_order(
        shape, list(shape.cells())
    )


def test_json_rejects_duplicates():
    doc = json.loads(HB33.to_json())
    doc["cells"][1]["coords"] = [0, 0]
    with pytest.raises(ShapeMismatchError):
        Arrangement.from_json_dict(doc)


# -- properties -------------------------------------------------------

@given(partial_arrangements())
@settings(max_examples=60, deadline=None)
def test_sequence_length_matches_nonempty_slices(a):
    for l in range(1, a.shape.k + 1):
        nonempty = sum(
            1 for s in iter_slices(a.shape, l) if slice_spread(a, s) is not None
        )
        assert len(smalls_sequence(a, l)) == nonempty
        assert len(bigs_sequence(a, l)) == nonempty


@given(partial_arrangements())
@settings(max_examples=60, deadline=None)
def test_spread_reports_match_a_slice_by_slice_reference(a):
    for l in range(1, a.shape.k + 1):
        ranges = [(s, slice_values(a, s)) for s in iter_slices(a.shape, l)]
        ranges = [(s, int(v.min()), int(v.max())) for s, v in ranges if v.size]
        spreads = [(s, hi - lo) for s, lo, hi in ranges]
        worst = max(sp for _, sp in spreads)
        report = max_spread(a, l, per_slice=True)
        assert list(report.per_slice.items()) == spreads
        assert report.max_spread == worst
        assert report.witness == next(s for s, sp in spreads if sp == worst)
        assert max_spread(a, l).witness == report.witness
        assert smalls_sequence(a, l) == sorted(lo for _, lo, _ in ranges)
        assert bigs_sequence(a, l) == sorted(hi for _, _, hi in ranges)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_slice_ids_number_slices_as_iter_slices_does(sizes):
    shape = Shape(tuple(sizes))
    cells = list(shape.cells())  # flat cell order
    for l in range(1, shape.k + 1):
        ids, slice_sizes = slice_ids(shape, l)
        combos = list(itertools.combinations(range(shape.k), l))
        slices = list(iter_slices(shape, l))
        assert ids.shape == (len(cells), len(combos))
        assert len(slice_sizes) == len(slices)
        for i, s in enumerate(slices):
            column = ids[:, combos.index(s.free_dims)]
            members = [c for c in cells if all(c[d] == v for d, v in s.fixed)]
            assert [cells[c] for c in np.flatnonzero(column == i)] == members
            assert slice_sizes[i] == len(members)


@given(full_arrangements())
@settings(max_examples=60, deadline=None)
def test_full_cube_line_count_and_leading_zeros(a):
    smalls = smalls_sequence(a, 1)
    k = a.shape.k
    expected = sum(a.shape.cell_count // n for n in a.shape.sizes)
    assert len(smalls) == expected
    assert smalls[:k] == [0] * k


@given(partial_arrangements(), st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_pairing_bound_below_max_spread(a, l):
    l = min(l, a.shape.k)
    bound = pairing_bound(smalls_sequence(a, l), bigs_sequence(a, l))
    assert bound <= max_spread(a, l).max_spread


@given(full_arrangements())
@settings(max_examples=80, deadline=None)
def test_make_monotonic_never_hurts(a):
    before = max_spread(a, 1).max_spread
    mono = make_monotonic(a)
    assert is_monotonic(mono)
    assert max_spread(mono, 1).max_spread <= before


@given(partial_arrangements(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_complement_symmetry(a, l):
    l = min(l, a.shape.k)
    comp = a.complemented()
    m = a.m
    assert smalls_sequence(comp, l) == sorted(m - 1 - b for b in bigs_sequence(a, l))
    assert bigs_sequence(comp, l) == sorted(m - 1 - s for s in smalls_sequence(a, l))
    assert max_spread(comp, l).max_spread == max_spread(a, l).max_spread


def test_line_count_closed_form_full_cube():
    for n, k in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        a = herringbone_min(Shape((n,) * k))
        assert len(smalls_sequence(a, 1)) == k * n ** (k - 1)
