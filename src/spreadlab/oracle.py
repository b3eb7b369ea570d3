"""Ground-truth optimal spreads by exhaustive search.

Two admissible classes: every bijection of m values onto the cells
(full mode), or only fully monotonic arrangements (monotone mode, valid
for the line-spread objective on completely filled boxes because any
full arrangement can be made monotonic without increasing its worst
line spread).  Monotone arrangements are enumerated as standard
fillings: values placed in increasing order, each at a cell whose
lower neighbors are all filled, which is exponentially sparser than m!.

Search is one depth-first branch-and-bound pass that tries cells in
ascending index order, so leaves come in lexicographic order.  A branch
is cut once a lower bound on its worst spread reaches the incumbent:
the spread already realized and, in a full box, the completion bound (a
slice with r cells still empty after value v ends at v + r or later)
on the slices of each placed cell and on the oldest open slice.  Along
the path to the lexicographically least optimal leaf these bounds stay
within the optimum, and every leaf before it is worse, so the first
optimal leaf recorded is that witness; no second pass is needed.
Budgets are node-count ceilings over this single pass; exceeding one
raises instead of silently truncating.  ``verify_smalls_dominance``
compares permutations in fixed-size numpy blocks.
"""

from __future__ import annotations

import itertools
import os
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .core import Arrangement, Shape, UnsupportedInputError, slice_ids, smalls_sequence
from .herringbone import herringbone_min

DEFAULT_BUDGET = 10**8
BUDGET_ENV = "SPREADLAB_BUDGET"

FULL = "full"
MONOTONE = "monotone"

_BLOCK = 1024  # permutations per numpy block in verify_smalls_dominance


class BudgetExceededError(RuntimeError):
    """Search would need (or has spent) more nodes than allowed."""

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    return int(raw) if raw else DEFAULT_BUDGET


@dataclass(frozen=True)
class SearchConfig:
    """What to optimize and how hard we are allowed to try."""

    shape: Shape
    m: int | None = None  # values to place; defaults to a full box
    l: int = 1  # slice dimension of the objective
    mode: str = FULL
    prune_bound: int | None = None  # incumbent seed for branch-and-bound
    budget: int | None = None  # node ceiling; None -> env or default

    def __post_init__(self):
        if self.mode not in (FULL, MONOTONE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1 <= self.l <= self.shape.k:
            raise ValueError(f"l={self.l} out of range 1..{self.shape.k}")
        count = self.shape.cell_count
        if self.m is not None and not 1 <= self.m <= count:
            raise ValueError(f"m={self.m} out of range 1..{count}")
        if self.mode == MONOTONE and self.m not in (None, count):
            raise UnsupportedInputError("monotone mode needs a completely filled box")

    @property
    def values(self) -> int:
        return self.shape.cell_count if self.m is None else self.m

    @property
    def node_budget(self) -> int:
        return self.budget if self.budget is not None else default_budget()


def _estimate_full(count: int, m: int) -> int:
    est = 1
    for i in range(m):
        est *= count - i
        if est > 10**18:
            break
    return est


def brute_force_optimal(cfg: SearchConfig) -> tuple[int, Arrangement]:
    """Exact minimum worst l-slice spread over the admissible class.

    Returns the optimal value and the lexicographically least optimal
    arrangement (cells compared in lexicographic order, values placed
    ascending).  Raises BudgetExceededError rather than truncating.
    """
    shape = cfg.shape
    count = shape.cell_count
    m = cfg.values
    budget = cfg.node_budget
    monotone = cfg.mode == MONOTONE

    # A monotone search places all `count` values before its first leaf.
    estimate = count if monotone else _estimate_full(count, m)
    if estimate > budget:
        needs = "monotone search needs at least" if monotone else "full enumeration needs about"
        raise BudgetExceededError(f"{needs} {estimate} nodes, budget {budget}", estimate=estimate)

    table, slice_sizes = slice_ids(shape, cfg.l)
    cell_slices = table.tolist()
    cells = list(shape.cells())
    # Monotone mode frees a cell once its last lower neighbour is filled;
    # full mode has no such order, so every cell starts ready.
    upper: list[list[int]] = [[] for _ in range(count)]
    pending = [0] * count
    if monotone:
        stride = 1
        for d in reversed(range(shape.k)):
            for idx, cell in enumerate(cells):
                if cell[d] > 0:
                    upper[idx - stride].append(idx)
                    pending[idx] += 1
            stride *= shape.sizes[d]
    ready = [i for i in range(count) if pending[i] == 0]

    # In a full box a slice has pad[sid] other empty cells when a value goes
    # into it; they all take later values, so its spread reaches at least
    # value - slice_min + pad[sid].  A partial box may leave cells empty.
    complete = 1 if m == count else 0
    pad = [(size - 1) * complete for size in slice_sizes]

    seed = cfg.prune_bound
    best_value = seed + 1 if seed is not None else m  # spread < m always
    best_order: list[int] | None = None
    slice_min = [-1] * len(slice_sizes)
    placed_at: list[int] = []
    nodes = 0

    def dfs(value: int, reach: int, oldest: int):
        # `reach` bounds the worst spread of every completion from below
        # and equals the realized worst spread at a leaf.
        nonlocal best_value, best_order, nodes
        if value == m:
            best_value = reach
            best_order = placed_at.copy()
            return
        if complete:
            # Skip placed cells whose slices are all full.  The first one
            # left has an open slice: its minimum is at most `oldest` and
            # it still takes a value >= `value`.
            while oldest < value:
                for sid in cell_slices[placed_at[oldest]]:
                    if pad[sid] >= 0:
                        break
                else:
                    oldest += 1
                    continue
                break
            if oldest < value and value - oldest >= best_value:
                return
        for j, idx in enumerate(ready):
            ids = cell_slices[idx]
            new_reach = reach
            for sid in ids:
                low = slice_min[sid]
                bound = pad[sid] if low < 0 else value - low + pad[sid]
                if bound > new_reach:
                    new_reach = bound
            if new_reach >= best_value:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"node budget {budget} exhausted after {nodes} placements"
                )
            for sid in ids:
                if slice_min[sid] < 0:
                    slice_min[sid] = value
                pad[sid] -= complete
            del ready[j]
            ups = upper[idx]
            for up in ups:
                pending[up] -= 1
                if pending[up] == 0:
                    insort(ready, up)
            placed_at.append(idx)
            dfs(value + 1, new_reach, oldest)
            placed_at.pop()
            for up in ups:
                if pending[up] == 0:
                    ready.remove(up)
                pending[up] += 1
            ready.insert(j, idx)
            for sid in ids:
                if slice_min[sid] == value:
                    slice_min[sid] = -1
                pad[sid] += complete

    dfs(0, 0, 0)
    if best_order is None:
        raise ValueError(
            "no admissible arrangement beats the prune bound "
            f"{cfg.prune_bound}; raise it or drop it"
        )
    witness = Arrangement.from_value_order(shape, [cells[i] for i in best_order])
    return best_value, witness


def verify_smalls_dominance(n: int, k: int, l: int = 1, budget: int | None = None) -> bool:
    """Check the herringbone's smalls list dominates every arrangement's.

    Enumerates all (n^k)! full arrangements in blocks of _BLOCK rows and
    compares the ascending per-slice-minimum lists elementwise.  Small
    instances only; guarded by the node budget.
    """
    shape = Shape((n,) * k)
    count = shape.cell_count
    limit = budget if budget is not None else default_budget()
    estimate = _estimate_full(count, count)
    if estimate > limit:
        raise BudgetExceededError(
            f"dominance check needs {estimate} arrangements, budget {limit}",
            estimate=estimate,
        )

    reference = np.array(smalls_sequence(herringbone_min(shape), l))
    # Cells grouped by slice, in slice order; every l-slice of a cube has n^l cells.
    members = np.argsort(slice_ids(shape, l)[0], axis=0, kind="stable").T.reshape(-1, n**l)

    # Row p of a block is a permutation: the value at each cell index.
    dtype = np.min_scalar_type(count - 1)
    perms = itertools.permutations(range(count))
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(perms, _BLOCK)), dtype)
        if not block.size:
            return True
        mins = np.sort(block.reshape(-1, count)[:, members].min(axis=2), axis=1)
        if (reference < mins).any():
            return False
