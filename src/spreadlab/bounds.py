"""Closed-form spread bounds for completely filled cubes.

Everything here is exact integer arithmetic.  Fractional powers
x^(k/(k-1)) are floored through integer root finding, never floating
point, since the interesting inputs sit exactly on lattice points where
a one-ulp error flips the floor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .core import Shape, UnsupportedInputError, bigs_sequence, pairing_bound, smalls_sequence
from .herringbone import hb_closed_form, herringbone_max, herringbone_min

# Paper-vs-measurement gaps this package knows about.  The displayed
# closed forms below are kept verbatim where noted; reconciliation tests
# pin the measured ground truth against them and must name the suspect
# display when they diverge.
KNOWN_DISPLAY_GAPS = (
    "merge upper bound, even n with k >= 3 (except n=2, k=3): the displayed "
    "three-case value undershoots the spread the merged construction (and its "
    "two-sided value model) actually attains, e.g. 40 vs 43 at n=4, k=3",
    "multi-failure display, even n: does not reduce to the one-failure value "
    "at l=1, e.g. 5 vs 4 at n=2, k=3, l=1",
    "multi-failure display, odd n with 1 < l: evaluates only the failure "
    "pattern of the last l channels; symmetric mixed patterns are worse, "
    "e.g. 21 vs 22 at n=3, k=3, l=2 (the implemented odd-n formula takes the "
    "worst pattern, which the construction attains exactly)",
    "diagonal shift, odd thickness: the displayed ((l-1)^k+(l+1)^k)/2^k "
    "disagrees with its own geometric sum ((l+1)^k-(l-1)^k)/2^k; the sum is "
    "implemented and matches measurement",
    "diagonal central spread at thickness 1: the closed form gives 1 but a "
    "thickness-1 staircase has one value per line, measured spread 0",
)


def integer_nth_root(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x, exactly."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x < 2 or n == 1:
        return x
    # Newton's integer step from 2^ceil(bits/n), at least the root,
    # falls strictly until it stops at the floor of the root.
    s = 1 << -(-x.bit_length() // n)
    r = s + 1
    while s < r:
        r, s = s, ((n - 1) * s + x // s ** (n - 1)) // n
    return r


def floor_rational_power(num: int, den: int, p: int, q: int) -> int:
    """floor((num/den)^(p/q)) for num, den >= 0, exactly.

    Uses floor(x^(1/q)) == floor(floor(x)^(1/q)) for integer q-th roots.
    """
    if den <= 0 or num < 0:
        raise ValueError("need num >= 0 and den > 0")
    return integer_nth_root(num**p // den**p, q)


def theorem1_lower_bound(n: int, k: int) -> int:
    """Counting lower bound on the worst line spread of any full cube.

    n^k - 1 - floor(((k n^(k-1) + 2) / 2k)^(k/(k-1)))
            - floor((n^(k-1) / 2)^(k/(k-1))),
    clamped at 0 (a spread is never negative; the raw form dips below
    zero for n = 1).  Undefined at k = 1.
    """
    if k < 2:
        raise UnsupportedInputError("lower bound needs k >= 2 (exponent k/(k-1))")
    if n < 1:
        raise ValueError("need n >= 1")
    lines = k * n ** (k - 1)
    value = (
        n**k
        - 1
        - floor_rational_power(lines + 2, 2 * k, k, k - 1)
        - floor_rational_power(lines, 2 * k, k, k - 1)
    )
    return max(0, value)


def crude_smalls_bound(j: int, n: int, k: int) -> int:
    """floor((j/k)^(k/(k-1))): overestimate of the j-th bounding small.

    Exact at the lattice points j = k*t^(k-1), where it equals t^k (the
    minimum of the first line opened after a completely filled t-cube).
    """
    if k < 2:
        raise UnsupportedInputError("crude bound needs k >= 2")
    if not 1 <= j <= k * n ** (k - 1):
        raise ValueError(f"need 1 <= j <= k*n^(k-1), got j={j}")
    return floor_rational_power(j, k, k, k - 1)


def corner(k: int, t: int) -> int:
    """Cells with coordinate sum < t in the nonnegative k-orthant: C(t+k-1, k)."""
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    return comb(t + k - 1, k)


def merge_upper_bound(n: int, k: int) -> int:
    """Worst line spread achieved by the merged herringbone, closed form.

    Three-case display, kept verbatim; see KNOWN_DISPLAY_GAPS for the
    even-n, k >= 3 cases where the construction measures above it.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if n % 2 == 1:
        return n**k - 1 - n * (((n + 1) // 2) ** (k - 1) - 1)
    if k % 2 == 1:
        return (
            n**k
            + n
            - 2
            - (n // 2) ** ((k - 1) // 2)
            * ((n + 1) * ((n + 2) // 2) ** ((k - 1) // 2) - 2)
        )
    return (
        n**k
        + n
        - 2
        - (n // 2) ** ((k - 2) // 2)
        * ((n + 2) // 2)
        * (n * ((n + 2) // 2) ** ((k - 2) // 2) - 1)
    )


def _central_min_with_zeros(n: int, k: int, zero_dims: frozenset[int]) -> int:
    """Herringbone value at the cell fixing (n-1)/2 everywhere except 0
    on ``zero_dims`` - the minimum of that central slice (odd n)."""
    mid = (n - 1) // 2
    cell = tuple(0 if d in zero_dims else mid for d in range(k))
    return hb_closed_form(cell, Shape((n,) * k))


def multi_failure_spread(n: int, k: int, l: int) -> int:
    """Worst l-slice spread guaranteed by the merged herringbone.

    Odd n: exact evaluation over every failure pattern.  A slice that
    frees the dimension set F has its two-sided extreme difference
    n^k - 1 - (min of F-slice in the minima system
              + min of reversed(F)-slice in the same system);
    the guarantee is the worst such F.  At l = 1 this collapses to the
    one-failure closed form.

    Even n: the displayed closed form, verbatim (see KNOWN_DISPLAY_GAPS;
    reconciliation against measurement is the caller's job).
    """
    if not 1 <= l <= k - 1:
        raise ValueError(f"need 1 <= l <= k-1, got l={l}")
    if n < 1:
        raise ValueError("need n >= 1")
    if n % 2 == 1:
        total = n**k
        worst = None
        for free in itertools.combinations(range(k), l):
            a = _central_min_with_zeros(n, k, frozenset(free))
            mirrored = frozenset(k - 1 - d for d in free)
            b = _central_min_with_zeros(n, k, mirrored)
            value = total - 1 - (a + b)
            worst = value if worst is None else max(worst, value)
        return worst
    half = n // 2
    up = (n + 2) // 2
    dn = (n - 2) // 2
    ceil_kl = -(-(k - l) // 2)
    floor_kl = (k - l) // 2
    floor_kpl = (k + l) // 2
    return (
        n**k
        + n
        - 2
        - (
            half**ceil_kl * up**l * (up**ceil_kl - 1)
            + half**l * (half**floor_kl - 1)
            + half**floor_kpl * (up**floor_kl - 1)
            + dn**l * (half**ceil_kl - 1)
        )
    )


@lru_cache(maxsize=4)
def _herringbone_pair(n: int, k: int):
    shape = Shape((n,) * k)
    return herringbone_min(shape), herringbone_max(shape)


def exact_pairing_lb(n: int, k: int, l: int = 1) -> int:
    """Pairing bound fed with the exact extremal sequences.

    The minima-facing herringbone's smalls list dominates every
    arrangement's elementwise, and the maxima-facing one's bigs list is
    dominated by every arrangement's, so pairing them bounds every
    arrangement's l-slice spread from below.
    """
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}")
    hb_min, hb_max = _herringbone_pair(n, k)
    return pairing_bound(smalls_sequence(hb_min, l), bigs_sequence(hb_max, l))


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form bounds for one cube, plus the exact pairing bounds."""

    n: int
    k: int
    theorem1_lb: int
    exact_pairing_lb: dict[int, int]
    merge_ub: int
    multi_failure: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        lb1 = self.exact_pairing_lb.get(1)
        if lb1 is not None and not self.theorem1_lb <= lb1 <= self.merge_ub:
            raise AssertionError(
                f"bound ordering violated at n={self.n}, k={self.k}: "
                f"{self.theorem1_lb} <= {lb1} <= {self.merge_ub} fails"
            )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "theorem1_lb": self.theorem1_lb,
            "exact_pairing_lb": {str(l): v for l, v in sorted(self.exact_pairing_lb.items())},
            "merge_ub": self.merge_ub,
            "multi_failure": {str(l): v for l, v in sorted(self.multi_failure.items())},
        }

    def csv_rows(self) -> list[tuple]:
        """One row per l: (n, k, l, theorem1_lb, exact_pairing_lb, ub).

        The ub column is the l-matching guarantee: the one-failure value
        at l = 1, the multi-failure value for 1 < l < k, and the trivial
        n^k - 1 at l = k.
        """
        rows = []
        for l in sorted(self.exact_pairing_lb):
            if l == 1:
                ub = self.merge_ub
            elif l in self.multi_failure:
                ub = self.multi_failure[l]
            else:
                ub = self.n**self.k - 1
            rows.append(
                (self.n, self.k, l, self.theorem1_lb, self.exact_pairing_lb[l], ub)
            )
        return rows


def bounds_report(n: int, k: int, ls=(1,)) -> BoundsReport:
    """Assemble the standard report for one (n, k)."""
    return BoundsReport(
        n=n,
        k=k,
        theorem1_lb=theorem1_lower_bound(n, k) if k >= 2 else 0,
        exact_pairing_lb={l: exact_pairing_lb(n, k, l) for l in ls},
        merge_ub=merge_upper_bound(n, k),
        multi_failure={l: multi_failure_spread(n, k, l) for l in ls if 1 <= l <= k - 1},
    )
