"""Correctness checks for every job kind.

Each check returns a list of problems; an empty list means the job passed.
Checks test independent properties (value sets, closed forms, theorem
values, bound orderings, a reference slice-extrema computation written
here), never golden numbers that an improved construction or oracle would
change.  They run outside the timed region.
"""

from __future__ import annotations

import itertools
import json
from math import comb

import numpy as np

from spreadlab.bounds import exact_pairing_lb, merge_upper_bound, theorem1_lower_bound
from spreadlab.core import Arrangement, Shape, is_monotonic
from spreadlab.herringbone import hb_closed_form, herringbone_min
from spreadlab.merge import herringbone_merge
from spreadlab.quantizer_sim import ChannelSystem, distortion_profile

EMPTY = -1
CLOSED_FORM_SAMPLES = 64


def harper_bandwidth(k: int) -> int:
    """Bandwidth of the hypercube Q_k (Harper 1966): sum_{i<k} C(i, floor(i/2)).

    It equals the optimal worst line spread of the full 2^k cube.
    """
    return sum(comb(i, i // 2) for i in range(k))


def slice_extrema(grid: np.ndarray, free: tuple[int, ...]):
    """(mins, maxes) of every nonempty slice whose free axes are ``free``."""
    filled = grid != EMPTY
    counts = np.atleast_1d(filled.sum(axis=free))
    mins = np.atleast_1d(np.where(filled, grid, np.iinfo(np.int64).max).min(axis=free))
    maxes = np.atleast_1d(np.where(filled, grid, EMPTY).max(axis=free))
    keep = counts > 0
    return mins[keep], maxes[keep]


def worst_spread(grid: np.ndarray, free_dims_count: int) -> int:
    """Reference worst spread over every nonempty slice of the given dimension."""
    return max(
        int((hi - lo).max())
        for free in itertools.combinations(range(grid.ndim), free_dims_count)
        for lo, hi in [slice_extrema(grid, free)]
        if lo.size
    )


def pattern_spread(grid: np.ndarray, mask: int) -> int:
    """Reference worst decode width when the channels in ``mask`` fail."""
    free = tuple(j for j in range(grid.ndim) if mask >> j & 1)
    lo, hi = slice_extrema(grid, free)
    return int((hi - lo).max()) if lo.size else 0


def check_values(grid: np.ndarray, m: int) -> list[str]:
    """Placed values are exactly 0..m-1."""
    values = np.sort(grid[grid != EMPTY])
    if values.size != m:
        return [f"{values.size} values placed, expected {m}"]
    if not np.array_equal(values, np.arange(m)):
        return ["placed values are not exactly 0..m-1"]
    return []


def _sample_cells(sizes: tuple[int, ...], seed: int):
    total = int(np.prod(sizes))
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=min(total, CLOSED_FORM_SAMPLES), replace=False)
    return [tuple(int(c) for c in cell) for cell in zip(*np.unravel_index(flat, sizes))]


def check_herringbone(grid: np.ndarray, kind: str, order, seed: int) -> list[str]:
    """Cubes: the closed form at sampled cells.  Other boxes: monotone lines.

    The minima-facing value at c is hb_closed_form(c); the maxima-facing one
    is n^k-1 minus it at the reversed, complemented cell; a coordinate order
    relabels the axes, giving hb_closed_form((c[order[0]], ..., c[order[-1]])).
    """
    sizes = grid.shape
    if len(set(sizes)) > 1:
        for axis in range(grid.ndim):
            if sizes[axis] > 1 and not (np.diff(grid, axis=axis) > 0).all():
                return [f"herringbone not increasing along axis {axis}"]
        return []
    shape = Shape(sizes)
    n, total = sizes[0], grid.size
    for cell in _sample_cells(sizes, seed):
        if kind == "herringbone_max":
            want = total - 1 - hb_closed_form(tuple(n - 1 - x for x in reversed(cell)), shape)
        else:
            relabelled = tuple(cell[d] for d in order) if order else cell
            want = hb_closed_form(relabelled, shape)
        if int(grid[cell]) != want:
            return [f"value {int(grid[cell])} at {cell}, closed form gives {want}"]
    return []


def check_evaluation(grid: np.ndarray, spreads: dict, smalls, bigs, D: dict) -> list[str]:
    """max_spread for every l, smalls/bigs at l=1 and the distortion profile
    against the reference slice extrema of the same grid."""
    problems = []
    for l, got in spreads.items():
        want = worst_spread(grid, l)
        if got != want:
            problems.append(f"max_spread l={l} is {got}, reference {want}")
    mins, maxes = zip(*(slice_extrema(grid, (d,)) for d in range(grid.ndim)))
    if list(smalls) != sorted(np.concatenate(mins).tolist()):
        problems.append("smalls_sequence differs from the reference slice minima")
    if list(bigs) != sorted(np.concatenate(maxes).tolist()):
        problems.append("bigs_sequence differs from the reference slice maxima")
    problems += check_profile(grid, D)
    return problems


def check_profile(grid: np.ndarray, D: dict) -> list[str]:
    want = {mask: pattern_spread(grid, mask) for mask in range(2**grid.ndim - 1)}
    return [] if D == want else [f"distortion profile {D} differs from reference {want}"]


def check_construction(payload: dict, kind: str, m: int, order, seed: int) -> list[str]:
    """Every construct job: values, JSON round trip, evaluation, and the
    construction's own property."""
    grid = payload["grid"]
    problems = check_values(grid, m)
    if not np.array_equal(payload["built_grid"], grid):
        problems.append("JSON round trip changed the grid")
    problems += check_evaluation(grid, payload["spreads"], payload["smalls"], payload["bigs"], payload["D"])
    sizes = grid.shape
    cube_full = len(set(sizes)) == 1 and m == grid.size and grid.ndim >= 2
    if cube_full and payload["spreads"][1] < theorem1_lower_bound(sizes[0], grid.ndim):
        problems.append("line spread below the counting lower bound")
    if kind in ("herringbone_min", "herringbone_max", "herringbone_recursive"):
        problems += check_herringbone(grid, kind, order, seed)
    if kind == "herringbone_merge" and sizes[0] % 2 == 1:
        want = merge_upper_bound(sizes[0], grid.ndim)
        if payload["spreads"][1] != want:
            problems.append(f"odd-n merge spread {payload['spreads'][1]} != closed form {want}")
    return problems


def check_oracle(value: int, witness: np.ndarray, sizes, m, l: int, mode: str) -> list[str]:
    """Witness consistent with the value, value inside independent bounds."""
    shape = Shape(sizes)
    full = m is None
    count = shape.cell_count if full else m
    problems = check_values(witness, count)
    if problems:
        return problems
    own = worst_spread(witness, l)
    if own != value:
        problems.append(f"witness spread {own} != returned optimum {value}")
    # Monotone optima equal full optima only for the line objective.
    unrestricted = mode == "full" or l == 1
    hb = herringbone_min(shape).grid
    upper = worst_spread(np.where(hb < count, hb, EMPTY), l)
    if full and shape.is_cubic and unrestricted:
        n, k = sizes[0], len(sizes)
        upper = min(upper, worst_spread(herringbone_merge(n, k).grid, l))
        lower = exact_pairing_lb(n, k, l)
        if value < lower:
            problems.append(f"optimum {value} below exact pairing bound {lower}")
        if n == 2 and l == 1 and value != harper_bandwidth(k):
            problems.append(f"optimum {value} != Harper bandwidth {harper_bandwidth(k)}")
    if value > upper:
        problems.append(f"optimum {value} above a constructed arrangement's {upper}")
    if mode == "monotone" and not is_monotonic(Arrangement.from_grid(witness)):
        problems.append("monotone-mode witness is not monotonic")
    return problems


def check_sandwich(report: dict, spreads: dict, grid: np.ndarray, n: int, k: int) -> list[str]:
    """theorem1_lb <= exact_pairing_lb <= measured <= n^k-1 for every l."""
    problems = check_values(grid, n**k)
    if report["theorem1_lb"] > report["exact_pairing_lb"]["1"]:
        problems.append("theorem1 bound above the exact pairing bound")
    for l, measured in spreads.items():
        want = worst_spread(grid, l)
        if measured != want:
            problems.append(f"max_spread l={l} is {measured}, reference {want}")
        lower = report["exact_pairing_lb"][str(l)]
        if not lower <= measured <= n**k - 1:
            problems.append(f"l={l}: {lower} <= {measured} <= {n**k - 1} fails")
    if n % 2 == 1 and spreads[1] != merge_upper_bound(n, k):
        problems.append(f"odd-n merge spread {spreads[1]} != closed form")
    return problems


def check_simulation(report, arrangement: Arrangement, forced_mask) -> list[str]:
    """Reported D equals distortion_profile and the reference; every
    per-pattern width and error fits inside D; trials are all accounted for."""
    grid = arrangement.grid
    D = report.distortion.D
    problems = []
    if D != distortion_profile(ChannelSystem(arrangement)).D:
        problems.append("reported D differs from distortion_profile")
    problems += check_profile(grid, D)
    counted = report.all_failed_trials
    for mask, stats in report.per_pattern.items():
        counted += stats.count
        if stats.max_interval_width > D[mask]:
            problems.append(f"pattern {mask}: width {stats.max_interval_width} > D={D[mask]}")
        if stats.max_abs_error > -(-D[mask] // 2):
            problems.append(f"pattern {mask}: error {stats.max_abs_error} > ceil(D/2)")
    if counted != report.trials:
        problems.append(f"{counted} trials accounted for, {report.trials} drawn")
    if forced_mask is not None and set(report.per_pattern) != {forced_mask}:
        problems.append(f"forced pattern {forced_mask} not the only pattern seen")
    return problems


def check_decode(x: int, received, mask: int, interval, estimate: int, grid: np.ndarray) -> list[str]:
    """The interval contains x, equals the reference slice range, and the
    estimate is its midpoint (rounded down)."""
    lo, hi = interval
    problems = []
    if not lo <= x <= hi:
        problems.append(f"interval [{lo}, {hi}] misses x={x}")
    if estimate != (lo + hi) // 2:
        problems.append(f"estimate {estimate} is not the midpoint of [{lo}, {hi}]")
    index = tuple(slice(None) if c is None else c for c in received)
    values = np.atleast_1d(grid[index])
    values = values[values != EMPTY]
    if (int(values.min()), int(values.max())) != (lo, hi):
        problems.append(f"interval [{lo}, {hi}] for pattern {mask} differs from the slice range")
    return problems


def check_exit(code: int, expected: int, stderr: str) -> list[str]:
    """Documented exit code; refusals print one ``spreadlab: error:`` line."""
    if code != expected:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit {code}, expected {expected}: {tail[0]}"]
    if expected != 0 and not stderr.startswith("spreadlab: error:"):
        return [f"exit {code} without a 'spreadlab: error:' line"]
    return []


def check_arrangement_json(text: str, expected: Arrangement) -> list[str]:
    """CLI arrangement output parses and equals the in-process construction."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if doc != expected.to_json_dict():
        return ["CLI arrangement differs from the in-process construction"]
    return []
