"""Multi-channel erasure system built on an index arrangement.

The encoder sends one coordinate of a value's cell per channel.  A
decoder that lost some channels sees only the surviving coordinates, so
the value is pinned to the slice they fix: the decoder returns that
slice's value interval and its midpoint.  Worst-case interval width per
failure pattern is therefore exactly the arrangement's slice spread,
which is what ties these reports back to the spread machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import EMPTY, Arrangement, ShapeMismatchError, slice_extrema


class DecodeFailureError(ValueError):
    """No placed value is consistent with the received coordinates."""


@dataclass(frozen=True)
class FailurePattern:
    """Bitmask over channels; bit j set means channel j failed.

    At least one channel must survive, so the all-ones mask is invalid.
    """

    mask: int
    k: int

    def __post_init__(self):
        if not 0 <= self.mask <= 2**self.k - 2:
            raise ValueError(
                f"mask {self.mask} invalid for k={self.k}: need 0 <= mask <= 2^k-2"
            )

    @property
    def failed_dims(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.k) if self.mask >> j & 1)

    @property
    def ok_dims(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.k) if not self.mask >> j & 1)

    @property
    def failures(self) -> int:
        return len(self.failed_dims)


@dataclass(frozen=True)
class ChannelSystem:
    """k channels carrying the coordinates of an arrangement's cells.

    Holds one side-decoder table per failure pattern, built on first use.
    """

    arrangement: Arrangement
    _tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.arrangement.shape.k

    @property
    def m(self) -> int:
        return self.arrangement.m

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(math.log2(n) for n in self.arrangement.shape.sizes)

    def intervals(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """(mins, maxes) of the values each slice holds when the channels
        in ``mask`` fail, indexed by the surviving coordinates; an empty
        slice reads EMPTY in both.  Two threads may both build a table;
        the results are equal, so either one may stay."""
        if mask not in self._tables:
            tables = slice_extrema(self.arrangement.grid, FailurePattern(mask, self.k).failed_dims)
            for table in tables:
                table.setflags(write=False)
            self._tables[mask] = tables
        return self._tables[mask]


@dataclass(frozen=True)
class DistortionTuple:
    """Worst-case reconstruction gap per failure pattern; D[0] == 0."""

    rates: tuple[float, ...]
    D: dict[int, int]

    def __post_init__(self):
        if self.D.get(0) != 0:
            raise ValueError("all-channels-succeed distortion must be 0")
        for t, d in self.D.items():
            for j in range(len(self.rates)):
                wider = t | 1 << j
                if wider != t and wider in self.D and self.D[wider] < d:
                    raise ValueError(
                        f"distortion not monotone: D[{t}]={d} > D[{wider}]={self.D[wider]}"
                    )

    def as_list(self) -> list[int]:
        return [self.D[t] for t in sorted(self.D)]


def encode(x: int, sys: ChannelSystem) -> tuple[int, ...]:
    """Channel symbols for value x: the coordinates of its cell."""
    if not 0 <= x < sys.m:
        raise ShapeMismatchError(f"value {x} out of range 0..{sys.m - 1}")
    return sys.arrangement.cell_of(x)


def decode(
    received, pattern: FailurePattern, sys: ChannelSystem
) -> tuple[tuple[int, int], int]:
    """((lo, hi), estimate) from the surviving coordinates.

    ``received`` has one entry per channel, None at failed positions.
    The interval is the min and max placed value consistent with the
    surviving coordinates, looked up in the system's table for the
    pattern; the estimate is the interval midpoint, rounded down.  With
    no failures the interval is the exact value.
    """
    if len(received) != sys.k:
        raise ShapeMismatchError(f"expected {sys.k} components, got {len(received)}")
    for j in range(sys.k):
        failed = bool(pattern.mask >> j & 1)
        if failed != (received[j] is None):
            raise ValueError(
                f"component {j} inconsistent with pattern: "
                f"{'failed channels carry None' if failed else 'surviving channels carry a symbol'}"
            )
    if pattern.k != len(received):  # == sys.k, checked above
        fixed = tuple((j, received[j]) for j in pattern.ok_dims if j < sys.k)
        raise ShapeMismatchError(
            f"slice dims {pattern.failed_dims}+{fixed} do not partition 0..{sys.k - 1}"
        )
    if pattern.mask == 0:
        value = sys.arrangement.value_at(tuple(received))
        if value is None:
            raise DecodeFailureError(f"no value at cell {tuple(received)}")
        return (value, value), value
    sizes = sys.arrangement.shape.sizes
    key = []
    for d, c in enumerate(received):
        if c is not None:
            c = int(c)  # as check_cell converts: a bool is a number, not an index mask
            if not 0 <= c < sizes[d]:
                raise ShapeMismatchError(f"fixed coordinate {c} out of range in dimension {d}")
            key.append(c)
    key = tuple(key)
    mins, maxes = sys.intervals(pattern.mask)
    hi = int(maxes[key])
    if hi == EMPTY:
        raise DecodeFailureError(f"no value consistent with {tuple(received)}")
    lo = int(mins[key])
    return (lo, hi), (lo + hi) // 2


def distortion_profile(sys: ChannelSystem) -> DistortionTuple:
    """D_t for every failure pattern t: the worst decode-interval width."""
    if sys.m == 0:
        raise ValueError("arrangement holds no values")
    D = {0: 0}
    for t in range(1, 2**sys.k - 1):
        mins, maxes = sys.intervals(t)
        D[t] = int((maxes - mins).max())  # an empty slice reads EMPTY - EMPTY = 0
    return DistortionTuple(rates=sys.rates, D=D)


@dataclass
class PatternStats:
    count: int = 0
    max_abs_error: int = 0
    sum_abs_error: int = 0
    max_interval_width: int = 0

    @property
    def mean_abs_error(self) -> float:
        return self.sum_abs_error / self.count if self.count else 0.0


@dataclass
class SimulationReport:
    rates: tuple[float, ...]
    distortion: DistortionTuple
    trials: int
    p: float
    seed: int
    forced_mask: int | None
    per_pattern: dict[int, PatternStats] = field(default_factory=dict)
    all_failed_trials: int = 0

    @property
    def max_abs_error(self) -> int:
        return max((s.max_abs_error for s in self.per_pattern.values()), default=0)

    @property
    def mean_abs_error(self) -> float:
        total = sum(s.sum_abs_error for s in self.per_pattern.values())
        count = sum(s.count for s in self.per_pattern.values())
        return total / count if count else 0.0

    def to_json_dict(self) -> dict:
        return {
            "rates": list(self.rates),
            "D": self.distortion.as_list(),
            "trials": self.trials,
            "p": self.p,
            "seed": self.seed,
            "forced_mask": self.forced_mask,
            "all_failed_trials": self.all_failed_trials,
            "empirical": {
                "mean": self.mean_abs_error,
                "max": self.max_abs_error,
                "per_pattern": {
                    str(t): {
                        "count": s.count,
                        "mean_abs_error": s.mean_abs_error,
                        "max_abs_error": s.max_abs_error,
                        "max_interval_width": s.max_interval_width,
                    }
                    for t, s in sorted(self.per_pattern.items())
                },
            },
        }


def simulate(
    sys: ChannelSystem,
    p: float,
    trials: int,
    seed: int,
    forced_mask: int | None = None,
) -> SimulationReport:
    """Monte-Carlo erasure run: uniform values, independent channel loss.

    Deterministic for a given seed (counter-based generator).  Trials in
    which every channel fails have no decoder and are only counted.
    ``forced_mask`` pins the failure pattern instead of drawing it.
    """
    if not 0 <= p < 1:
        raise ValueError(f"failure probability must be in [0, 1), got {p}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if forced_mask is not None:
        FailurePattern(forced_mask, sys.k)  # validate

    rng = np.random.Generator(np.random.Philox(seed))
    xs = rng.integers(0, sys.m, size=trials)
    if forced_mask is None:
        masks = (rng.random(size=(trials, sys.k)) < p) @ (1 << np.arange(sys.k))
    else:
        masks = np.full(trials, forced_mask, dtype=np.int64)

    report = SimulationReport(
        rates=sys.rates,
        distortion=distortion_profile(sys),
        trials=trials,
        p=p,
        seed=seed,
        forced_mask=forced_mask,
    )
    all_ones = 2**sys.k - 1
    tables = [sys.intervals(mask) for mask in range(all_ones)]
    for x, mask in zip(xs.tolist(), masks.tolist()):
        if mask == all_ones:
            report.all_failed_trials += 1
            continue
        mins, maxes = tables[mask]
        cell = sys.arrangement.cell_of(x)
        key = tuple(c for j, c in enumerate(cell) if not mask >> j & 1)
        lo, hi = int(mins[key]), int(maxes[key])
        estimate = (lo + hi) // 2
        stats = report.per_pattern.setdefault(mask, PatternStats())
        stats.count += 1
        err = abs(x - estimate)
        stats.max_abs_error = max(stats.max_abs_error, err)
        stats.sum_abs_error += err
        stats.max_interval_width = max(stats.max_interval_width, hi - lo)
        if not lo <= x <= hi:
            raise AssertionError(f"decode interval [{lo}, {hi}] misses x={x}")
    return report
