"""Golden exact pairing bounds, and the mirror identity behind them.

``exact_pairing_lb(n, k, l)`` is pinned for every l on the cubes with
k <= 5 and n <= 40/40/14/7/5 (215 cases).  The maxima-facing
herringbone's bigs are pinned as the mirror of the minima-facing one's
smalls: bigs[j] == N - 1 - smalls[L - 1 - j].

Regenerate the table with ``PYTHONPATH=src python tests/test_pairing_golden.py``
and paste the printed dict over ``GOLDEN``; only do so when a change is
meant to alter a bound, and say so where the change is recorded.
"""

import pytest

from spreadlab.bounds import exact_pairing_lb
from spreadlab.core import Shape, bigs_sequence, smalls_sequence
from spreadlab.herringbone import herringbone_max, herringbone_min

N_MAX = {1: 40, 2: 40, 3: 14, 4: 7, 5: 5}  # k -> largest n pinned


def bounds(k, n):
    """exact_pairing_lb(n, k, l) for l = 1..k."""
    return tuple(exact_pairing_lb(n, k, l) for l in range(1, k + 1))


GOLDEN = {
    (1, 1): (0,),
    (1, 2): (1,),
    (1, 3): (2,),
    (1, 4): (3,),
    (1, 5): (4,),
    (1, 6): (5,),
    (1, 7): (6,),
    (1, 8): (7,),
    (1, 9): (8,),
    (1, 10): (9,),
    (1, 11): (10,),
    (1, 12): (11,),
    (1, 13): (12,),
    (1, 14): (13,),
    (1, 15): (14,),
    (1, 16): (15,),
    (1, 17): (16,),
    (1, 18): (17,),
    (1, 19): (18,),
    (1, 20): (19,),
    (1, 21): (20,),
    (1, 22): (21,),
    (1, 23): (22,),
    (1, 24): (23,),
    (1, 25): (24,),
    (1, 26): (25,),
    (1, 27): (26,),
    (1, 28): (27,),
    (1, 29): (28,),
    (1, 30): (29,),
    (1, 31): (30,),
    (1, 32): (31,),
    (1, 33): (32,),
    (1, 34): (33,),
    (1, 35): (34,),
    (1, 36): (35,),
    (1, 37): (36,),
    (1, 38): (37,),
    (1, 39): (38,),
    (1, 40): (39,),
    (2, 1): (0, 0),
    (2, 2): (2, 3),
    (2, 3): (5, 8),
    (2, 4): (9, 15),
    (2, 5): (14, 24),
    (2, 6): (20, 35),
    (2, 7): (27, 48),
    (2, 8): (35, 63),
    (2, 9): (44, 80),
    (2, 10): (54, 99),
    (2, 11): (65, 120),
    (2, 12): (77, 143),
    (2, 13): (90, 168),
    (2, 14): (104, 195),
    (2, 15): (119, 224),
    (2, 16): (135, 255),
    (2, 17): (152, 288),
    (2, 18): (170, 323),
    (2, 19): (189, 360),
    (2, 20): (209, 399),
    (2, 21): (230, 440),
    (2, 22): (252, 483),
    (2, 23): (275, 528),
    (2, 24): (299, 575),
    (2, 25): (324, 624),
    (2, 26): (350, 675),
    (2, 27): (377, 728),
    (2, 28): (405, 783),
    (2, 29): (434, 840),
    (2, 30): (464, 899),
    (2, 31): (495, 960),
    (2, 32): (527, 1023),
    (2, 33): (560, 1088),
    (2, 34): (594, 1155),
    (2, 35): (629, 1224),
    (2, 36): (665, 1295),
    (2, 37): (702, 1368),
    (2, 38): (740, 1443),
    (2, 39): (779, 1520),
    (2, 40): (819, 1599),
    (3, 1): (0, 0, 0),
    (3, 2): (3, 6, 7),
    (3, 3): (10, 22, 26),
    (3, 4): (24, 51, 63),
    (3, 5): (44, 100, 124),
    (3, 6): (72, 170, 215),
    (3, 7): (113, 270, 342),
    (3, 8): (169, 399, 511),
    (3, 9): (236, 568, 728),
    (3, 10): (317, 774, 999),
    (3, 11): (422, 1030, 1330),
    (3, 12): (547, 1331, 1727),
    (3, 13): (688, 1692, 2196),
    (3, 14): (852, 2106, 2743),
    (4, 1): (0, 0, 0, 0),
    (4, 2): (5, 10, 14, 15),
    (4, 3): (23, 47, 74, 80),
    (4, 4): (63, 146, 231, 255),
    (4, 5): (151, 352, 564, 624),
    (4, 6): (308, 707, 1160, 1295),
    (4, 7): (554, 1288, 2148, 2400),
    (5, 1): (0, 0, 0, 0, 0),
    (5, 2): (9, 17, 25, 30, 31),
    (5, 3): (52, 113, 175, 234, 242),
    (5, 4): (201, 434, 737, 975, 1023),
    (5, 5): (576, 1283, 2200, 2980, 3124),
}


@pytest.mark.parametrize("k, n", list(GOLDEN))
def test_pairing_golden(k, n):
    assert bounds(k, n) == GOLDEN[k, n]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == [(k, n) for k in N_MAX for n in range(1, N_MAX[k] + 1)]


@pytest.mark.parametrize(
    "k, n", [(k, n) for k, top in {1: 12, 2: 12, 3: 8, 4: 5}.items() for n in range(1, top + 1)]
)
def test_maxima_facing_bigs_mirror_the_smalls(k, n):
    shape = Shape((n,) * k)
    hb_min, hb_max = herringbone_min(shape), herringbone_max(shape)
    for l in range(1, k + 1):
        smalls = smalls_sequence(hb_min, l)
        assert bigs_sequence(hb_max, l) == [n**k - 1 - s for s in reversed(smalls)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for _k, _top in N_MAX.items():
        for _n in range(1, _top + 1):
            print(f"    {(_k, _n)!r}: {bounds(_k, _n)!r},")
    print("}")
