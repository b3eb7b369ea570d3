import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.bounds import (
    BoundsReport,
    _herringbone_pair,
    bounds_report,
    corner,
    crude_smalls_bound,
    exact_pairing_lb,
    floor_rational_power,
    integer_nth_root,
    merge_upper_bound,
    multi_failure_spread,
    theorem1_lower_bound,
)
from spreadlab.core import Shape, UnsupportedInputError, bigs_sequence, smalls_sequence
from spreadlab.herringbone import herringbone_max, herringbone_min


def test_integer_roots_exact_at_perfect_powers():
    for base in [2, 3, 10, 10**6, 10**9]:
        for exp in [2, 3, 5]:
            x = base**exp
            assert integer_nth_root(x, exp) == base
            assert integer_nth_root(x - 1, exp) == base - 1
            assert integer_nth_root(x + 1, exp) == base


def test_floor_rational_power_lattice_points():
    # (3t^2 / 3)^(3/2) = t^3 exactly; float pow gets the floor wrong
    # one ulp below at large t
    for t in [7, 10**3, 10**6, 10**8]:
        assert floor_rational_power(3 * t * t, 3, 3, 2) == t**3
    assert floor_rational_power(3, 2, 2, 1) == 2  # (1.5)^2 = 2.25
    assert floor_rational_power(1, 2, 2, 1) == 0


def test_theorem1_examples():
    assert theorem1_lower_bound(3, 2) == 2
    assert theorem1_lower_bound(2, 2) == 0
    for k in (2, 3, 4):
        assert theorem1_lower_bound(1, k) == 0
    with pytest.raises(UnsupportedInputError):
        theorem1_lower_bound(3, 1)


def test_merge_upper_bound_examples():
    assert merge_upper_bound(3, 2) == 5
    assert merge_upper_bound(2, 3) == 4
    assert merge_upper_bound(2, 2) == 2
    assert merge_upper_bound(1, 5) == 0
    assert merge_upper_bound(5, 1) == 4  # single line


def test_corner_examples_and_nested_sum():
    assert corner(2, 2) == 3
    assert corner(3, 0) == 0
    assert corner(3, 2) == 4

    def nested(k, t):
        return sum(
            1 for c in itertools.product(range(t), repeat=k) if sum(c) < t
        )

    for k in range(1, 6):
        for t in range(0, 11):
            assert corner(k, t) == nested(k, t), (k, t)


def test_crude_smalls_examples():
    assert crude_smalls_bound(6, 5, 2) == 9
    assert crude_smalls_bound(2, 9, 2) == 1
    assert crude_smalls_bound(3, 9, 3) == 1
    with pytest.raises(ValueError):
        crude_smalls_bound(0, 3, 2)
    with pytest.raises(ValueError):
        crude_smalls_bound(100, 3, 2)


def test_crude_dominates_exact_smalls():
    for n in (3, 4, 5):
        for k in (2, 3):
            smalls = smalls_sequence(herringbone_min(Shape((n,) * k)), 1)
            for j, exact in enumerate(smalls, start=1):
                assert crude_smalls_bound(j, n, k) >= exact, (n, k, j)


def test_crude_bigs_complement_below_exact():
    for n in (3, 4):
        for k in (2, 3):
            bigs = bigs_sequence(herringbone_max(Shape((n,) * k)), 1)
            lines = k * n ** (k - 1)
            total = n**k
            for j, exact in enumerate(bigs, start=1):
                lower = total - 1 - crude_smalls_bound(lines - j + 1, n, k)
                assert lower <= exact, (n, k, j)


def test_exact_pairing_examples():
    assert exact_pairing_lb(3, 2, 1) == 5
    assert exact_pairing_lb(2, 2, 1) == 2
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        assert exact_pairing_lb(n, k, k) == n**k - 1


def test_k2_coincidence():
    for n in range(2, 10):
        assert exact_pairing_lb(n, 2, 1) == merge_upper_bound(n, 2)


def test_multi_failure_odd_examples():
    assert multi_failure_spread(3, 3, 1) == 17 == merge_upper_bound(3, 3)
    assert multi_failure_spread(3, 2, 1) == 5 == merge_upper_bound(3, 2)
    # worst failure pattern: the symmetric middle pair beats the trailing
    # pair here (the trailing-pattern value would be 21)
    assert multi_failure_spread(3, 3, 2) == 22
    with pytest.raises(ValueError):
        multi_failure_spread(3, 3, 3)
    with pytest.raises(ValueError):
        multi_failure_spread(3, 3, 0)


def test_multi_failure_reduces_to_one_failure_bound_odd():
    for n in (3, 5, 7):
        for k in (2, 3, 4):
            assert multi_failure_spread(n, k, 1) == merge_upper_bound(n, k)


def test_multi_failure_even_display_kept_verbatim():
    # the displayed even-n expression does not reduce to the one-failure
    # value at l=1; kept as printed, reconciliation happens elsewhere
    assert multi_failure_spread(2, 3, 1) == 5
    assert merge_upper_bound(2, 3) == 4


def test_bounds_report_ordering_and_rows():
    for n, k in [(2, 2), (3, 2), (3, 3), (4, 3), (2, 4)]:
        rep = bounds_report(n, k, ls=tuple(range(1, k + 1)))
        assert rep.theorem1_lb <= rep.exact_pairing_lb[1] <= rep.merge_ub
        rows = rep.csv_rows()
        assert [r[2] for r in rows] == list(range(1, k + 1))
        assert rows[0][5] == rep.merge_ub
        assert rows[-1][5] == n**k - 1
        doc = rep.to_json_dict()
        assert doc["n"] == n and doc["merge_ub"] == rep.merge_ub


def test_bounds_report_rejects_bad_ordering():
    with pytest.raises(AssertionError):
        BoundsReport(3, 2, theorem1_lb=9, exact_pairing_lb={1: 5}, merge_ub=5)


def test_integer_nth_root_beyond_float_range():
    # the root of a number beyond float range, as theorem1_lower_bound takes it
    x = (120 * 1000**119 + 2) ** 120 // 240**120
    r = integer_nth_root(x, 119)
    assert r**119 <= x < (r + 1) ** 119
    assert theorem1_lower_bound(1000, 120) >= 0


@given(st.integers(min_value=0, max_value=10**400), st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_integer_nth_root_brackets(x, n):
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


def test_herringbone_pair_cache_is_bounded():
    assert _herringbone_pair.cache_info().maxsize is not None
    for n in range(2, 12):
        exact_pairing_lb(n, 2)
    assert _herringbone_pair.cache_info().currsize <= _herringbone_pair.cache_info().maxsize
