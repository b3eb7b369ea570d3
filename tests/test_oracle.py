import itertools
import math

import numpy as np
import pytest

from spreadlab.bounds import exact_pairing_lb, merge_upper_bound, theorem1_lower_bound
from spreadlab.cli import main
from spreadlab.core import Arrangement, Shape, is_monotonic, max_spread
from spreadlab.oracle import (
    BudgetExceededError,
    SearchConfig,
    brute_force_optimal,
    verify_smalls_dominance,
)


def test_known_optima():
    assert brute_force_optimal(SearchConfig(Shape((2, 2))))[0] == 2
    assert brute_force_optimal(SearchConfig(Shape((2, 2, 2))))[0] == 4
    assert brute_force_optimal(SearchConfig(Shape((3, 3))))[0] == 5


def test_witness_achieves_value_and_is_lex_least():
    value, witness = brute_force_optimal(SearchConfig(Shape((2, 2))))
    assert max_spread(witness, 1).max_spread == value
    assert witness.grid.tolist() == [[0, 1], [2, 3]]


def test_monotone_matches_full_where_both_run():
    for sizes in [(2, 2), (2, 2, 2)]:
        full, _ = brute_force_optimal(SearchConfig(Shape(sizes), mode="full"))
        mono, w = brute_force_optimal(SearchConfig(Shape(sizes), mode="monotone"))
        assert full == mono
        assert is_monotonic(w)


def test_monotone_4x4_matches_formula():
    value, witness = brute_force_optimal(SearchConfig(Shape((4, 4)), mode="monotone"))
    assert value == merge_upper_bound(4, 2) == 9
    assert max_spread(witness, 1).max_spread == 9


def test_partial_m_supported_in_full_mode():
    value, witness = brute_force_optimal(SearchConfig(Shape((2, 2)), m=2))
    assert value == 0  # two values never share a line
    assert witness.m == 2


def test_prune_bound_tightens_or_errors():
    value, _ = brute_force_optimal(SearchConfig(Shape((2, 2)), prune_bound=3))
    assert value == 2
    with pytest.raises(ValueError):
        brute_force_optimal(SearchConfig(Shape((2, 2)), prune_bound=1))


def test_budget_refusal_upfront():
    with pytest.raises(BudgetExceededError) as err:
        brute_force_optimal(SearchConfig(Shape((4, 4)), mode="full"))
    assert err.value.estimate is not None


def test_budget_refusal_mid_search():
    with pytest.raises(BudgetExceededError):
        brute_force_optimal(SearchConfig(Shape((2, 2, 2)), budget=50))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("SPREADLAB_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        brute_force_optimal(SearchConfig(Shape((2, 2, 2))))


def test_monotone_requires_full_box():
    from spreadlab.core import UnsupportedInputError

    with pytest.raises(UnsupportedInputError):
        SearchConfig(Shape((2, 2)), m=3, mode="monotone")


def test_sandwich_on_small_instances():
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        optimum, _ = brute_force_optimal(SearchConfig(Shape((n,) * k)))
        assert theorem1_lower_bound(n, k) <= exact_pairing_lb(n, k, 1)
        assert exact_pairing_lb(n, k, 1) <= optimum <= merge_upper_bound(n, k)


def test_dominance_small():
    assert verify_smalls_dominance(2, 2, 1)


def test_dominance_budget_guard():
    with pytest.raises(BudgetExceededError):
        verify_smalls_dominance(3, 3, 1, budget=1000)


def _boxes(max_cells, max_k):
    for k in range(1, max_k + 1):
        for sizes in itertools.product(range(1, max_cells + 1), repeat=k):
            if math.prod(sizes) <= max_cells:
                yield sizes


def _slice_members(shape, l):
    """Cell-index lists of every l-slice, built from coordinates alone."""
    members = []
    for free in itertools.combinations(range(shape.k), l):
        groups = {}
        for idx, cell in enumerate(shape.cells()):
            key = tuple(c for d, c in enumerate(cell) if d not in free)
            groups.setdefault(key, []).append(idx)
        members += groups.values()
    return members


def _reference(shape, m, l, monotone):
    """(optimum, first optimal tuple) over itertools.permutations order.

    Tuple t places value v at cell index t[v]; permutations come out in
    lexicographic order of those cell indices.
    """
    count = shape.cell_count
    orders = np.array(list(itertools.permutations(range(count), m)), dtype=np.int64)
    grid = np.full((len(orders), count), -1)
    grid[np.arange(len(orders))[:, None], orders] = np.arange(m)
    if monotone:
        strides = [math.prod(shape.sizes[d + 1 :]) for d in range(shape.k)]
        standard = np.ones(len(orders), dtype=bool)
        for idx, cell in enumerate(shape.cells()):
            for d in range(shape.k):
                if cell[d] > 0:
                    standard &= grid[:, idx - strides[d]] < grid[:, idx]
        orders, grid = orders[standard], grid[standard]
    worst = np.zeros(len(orders), dtype=np.int64)
    for cells in _slice_members(shape, l):
        values = grid[:, cells]
        filled = values >= 0
        top = np.where(filled, values, -1).max(axis=1)
        low = np.where(filled, values, count).min(axis=1)
        worst = np.maximum(worst, np.where(filled.any(axis=1), top - low, 0))
    first = int(np.argmin(worst))
    return int(worst[first]), orders[first].tolist()


@pytest.mark.parametrize("sizes", list(_boxes(7, 3)), ids=lambda s: "x".join(map(str, s)))
def test_oracle_matches_permutation_reference(sizes):
    shape = Shape(sizes)
    count = shape.cell_count
    cells = list(shape.cells())
    for l in range(1, shape.k + 1):
        cases = [(m, "full") for m in range(1, count + 1)] + [(None, "monotone")]
        for m, mode in cases:
            value, witness = brute_force_optimal(SearchConfig(shape, m=m, l=l, mode=mode))
            want, order = _reference(shape, m or count, l, mode == "monotone")
            assert value == want, (sizes, l, m, mode)
            expected = Arrangement.from_value_order(shape, [cells[i] for i in order])
            assert witness.to_json() == expected.to_json(), (sizes, l, m, mode)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_monotone_hypercube_matches_harper(k):
    harper = sum(math.comb(i, i // 2) for i in range(k))
    value, witness = brute_force_optimal(SearchConfig(Shape((2,) * k), mode="monotone"))
    assert value == harper == [1, 2, 4, 7][k - 1]
    assert max_spread(witness, 1).max_spread == harper


def test_monotone_budget_refusal_mid_search(capsys):
    cfg = SearchConfig(Shape((4, 4)), mode="monotone", budget=100)
    with pytest.raises(BudgetExceededError, match="node budget 100 exhausted"):
        brute_force_optimal(cfg)
    code = main(["oracle", "--shape", "4x4", "--mode", "monotone", "--budget", "100"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("spreadlab: error: budget refusal: node budget 100")


def test_monotone_refuses_boxes_beyond_the_budget_upfront():
    cfg = SearchConfig(Shape((100000, 100000)), mode="monotone", budget=1000)
    with pytest.raises(BudgetExceededError) as err:
        brute_force_optimal(cfg)
    assert err.value.estimate == 10**10


def test_dominance_detects_a_failing_reference(monkeypatch):
    """The blockwise check still returns False when some block beats it."""
    import spreadlab.oracle as oracle

    monkeypatch.setattr(oracle, "smalls_sequence", lambda a, l: [0, 0, 0, 0])
    assert not verify_smalls_dominance(2, 2, 1)
