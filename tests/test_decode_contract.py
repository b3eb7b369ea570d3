"""decode's input contract and its answers against a direct grid slice.

Every error case pins the exception type and message.  The property
tests compare decode with the slice of the grid the surviving
coordinates fix, on random full and partial arrangements with k <= 4
and every failure pattern, both on one reused system and on fresh ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.core import EMPTY, Arrangement, Shape, ShapeMismatchError
from spreadlab.quantizer_sim import ChannelSystem, DecodeFailureError, FailurePattern, decode

ROW_MAJOR = ChannelSystem(Arrangement.from_grid(np.arange(16).reshape(4, 4)))
CUBE = ChannelSystem(Arrangement.from_grid(np.arange(27).reshape(3, 3, 3)))
SPARSE = ChannelSystem(Arrangement.from_placement(Shape((3, 3)), {(0, 0): 0, (1, 1): 1}))

ERRORS = [
    # length mismatch
    ((1,), FailurePattern(2, 2), ROW_MAJOR, ShapeMismatchError, "expected 2 components, got 1"),
    ((1, 2, 3), FailurePattern(2, 2), ROW_MAJOR, ShapeMismatchError, "expected 2 components, got 3"),
    # a channel inconsistent with the pattern
    ((1, 2), FailurePattern(2, 2), ROW_MAJOR, ValueError,
     "component 1 inconsistent with pattern: failed channels carry None"),
    ((None, None), FailurePattern(2, 2), ROW_MAJOR, ValueError,
     "component 0 inconsistent with pattern: surviving channels carry a symbol"),
    ((None, 2), FailurePattern(2, 2), ROW_MAJOR, ValueError,
     "component 0 inconsistent with pattern: surviving channels carry a symbol"),
    # out-of-range coordinates, negative ones included; the first offender in dimension order
    ((-1, None), FailurePattern(2, 2), ROW_MAJOR, ShapeMismatchError,
     "fixed coordinate -1 out of range in dimension 0"),
    ((4, None), FailurePattern(2, 2), ROW_MAJOR, ShapeMismatchError,
     "fixed coordinate 4 out of range in dimension 0"),
    ((None, -1), FailurePattern(1, 2), ROW_MAJOR, ShapeMismatchError,
     "fixed coordinate -1 out of range in dimension 1"),
    ((None, 5, 7), FailurePattern(1, 3), CUBE, ShapeMismatchError,
     "fixed coordinate 5 out of range in dimension 1"),
    ((-1, 5), FailurePattern(0, 2), ROW_MAJOR, ShapeMismatchError, "cell (-1, 5) outside shape 4x4"),
    ((4, 1), FailurePattern(0, 2), ROW_MAJOR, ShapeMismatchError, "cell (4, 1) outside shape 4x4"),
    # an empty slice, and an empty cell when no channel failed
    ((2, None), FailurePattern(2, 2), SPARSE, DecodeFailureError, "no value consistent with (2, None)"),
    ((2, 2), FailurePattern(0, 2), SPARSE, DecodeFailureError, "no value at cell (2, 2)"),
    # a pattern built for another channel count
    ((1, 2), FailurePattern(4, 3), ROW_MAJOR, ShapeMismatchError,
     "slice dims (2,)+((0, 1), (1, 2)) do not partition 0..1"),
    ((None, 2, 1), FailurePattern(1, 2), CUBE, ShapeMismatchError,
     "slice dims (0,)+((1, 2),) do not partition 0..2"),
]


@pytest.mark.parametrize("received, pattern, system, error, message", ERRORS)
def test_decode_error_contract(received, pattern, system, error, message):
    for _ in range(2):  # the second call meets a warm system
        with pytest.raises(ValueError) as info:
            decode(received, pattern, system)
        assert type(info.value) is error
        assert str(info.value) == message


def test_bool_coordinates_are_converted_like_cells():
    assert decode((True, None), FailurePattern(2, 2), ROW_MAJOR) == ((4, 7), 5)
    assert decode((None, False), FailurePattern(1, 2), ROW_MAJOR) == ((0, 12), 6)
    assert decode((True, 2), FailurePattern(0, 2), ROW_MAJOR) == ((6, 6), 6)


def reference(grid: np.ndarray, received):
    """((lo, hi), estimate) straight from the grid slice, None if empty."""
    values = np.atleast_1d(grid[tuple(slice(None) if c is None else c for c in received)])
    values = values[values != EMPTY]
    if values.size == 0:
        return None
    lo, hi = int(values.min()), int(values.max())
    return (lo, hi), (lo + hi) // 2


@st.composite
def arrangements(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    cells = list(Shape(sizes).cells())
    order = draw(st.permutations(range(len(cells))))
    m = draw(st.sampled_from([len(cells), draw(st.integers(1, len(cells)))]))
    return Arrangement.from_value_order(Shape(sizes), [cells[i] for i in order[:m]])


def _answer(received, pattern, system):
    try:
        return decode(received, pattern, system)
    except DecodeFailureError:
        return None


@given(arrangements(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_decode_matches_the_grid_slice(a, seed):
    rng = np.random.default_rng(seed)
    k = a.shape.k
    warm = ChannelSystem(a)
    for _ in range(3):
        for mask in range(2**k - 1):
            cell = [int(rng.integers(n)) for n in a.shape.sizes]
            received = tuple(None if mask >> j & 1 else cell[j] for j in range(k))
            pattern = FailurePattern(mask, k)
            expected = reference(a.grid, received)
            assert _answer(received, pattern, warm) == expected
            assert _answer(received, pattern, ChannelSystem(a)) == expected


def test_a_pattern_with_more_channels_is_refused():
    for received, pattern in [((None, 2), FailurePattern(1, 3)), ((1, None), FailurePattern(2, 3))]:
        with pytest.raises(ShapeMismatchError, match="do not partition 0..1"):
            decode(received, pattern, ROW_MAJOR)
