"""Golden oracle outputs, pinned as (optimum, sha256 of the witness JSON).

Covers the seven searches of the benchmark's certify workload, every m of
the 3x3 box in full mode, a few more monotone boxes, and ``prune_bound``
seeds on 2x2 and 3x3.  A seed below the optimum pins the exact
``ValueError`` message instead.

Regenerate the table with ``PYTHONPATH=src python tests/test_oracle_golden.py``
and paste the printed dict over ``GOLDEN``; only do so when a change is
meant to alter the oracle's optimum or its witness, and say so where the
change is recorded.
"""

import hashlib

import pytest

from spreadlab.core import Shape
from spreadlab.oracle import FULL, MONOTONE, SearchConfig, brute_force_optimal

# name -> (sizes, m, l, mode, prune_bound)
CASES = {
    "3x3": ((3, 3), None, 1, FULL, None),
    "2x2x2.l1": ((2, 2, 2), None, 1, FULL, None),
    "2x2x2.l2": ((2, 2, 2), None, 2, FULL, None),
    "4x4.mono": ((4, 4), None, 1, MONOTONE, None),
    "3x6.mono": ((3, 6), None, 1, MONOTONE, None),
    "2x2x2x2.mono": ((2, 2, 2, 2), None, 1, MONOTONE, None),
    **{f"3x3.m{m}": ((3, 3), m, 1, FULL, None) for m in range(1, 9)},
    "2x3.mono": ((2, 3), None, 1, MONOTONE, None),
    "3x4.mono": ((3, 4), None, 1, MONOTONE, None),
    "2x2x2.l2.mono": ((2, 2, 2), None, 2, MONOTONE, None),
    **{
        f"{'x'.join(map(str, sizes))}.prune{bound}": (sizes, None, 1, FULL, bound)
        for sizes in ((2, 2), (3, 3))
        for bound in (2, 5)
    },
}


def fingerprint(sizes, m, l, mode, prune_bound):
    cfg = SearchConfig(Shape(sizes), m=m, l=l, mode=mode, prune_bound=prune_bound)
    try:
        value, witness = brute_force_optimal(cfg)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (value, hashlib.sha256(witness.to_json().encode()).hexdigest())


GOLDEN = {
    '3x3': (5, '26c4e5f78fc0ab40f901f22a18c03e17141ac97bf61d2e3d4e2f3e2538a8e936'),
    '2x2x2.l1': (4, '3ada7225cbbcc8d45aea0d862f5388456c756c06051fcf0d2589ede39e1e72b7'),
    '2x2x2.l2': (6, '3ada7225cbbcc8d45aea0d862f5388456c756c06051fcf0d2589ede39e1e72b7'),
    '4x4.mono': (9, 'f7401204c456c511c242906a7636ac54598568700b1f6fa11cc8805f867d875b'),
    '3x6.mono': (11, '6f1bdff9282d8a3888b5f23d7a8199e5b232014114ce287e676f82b9cd7c95a6'),
    '2x2x2x2.mono': (7, '74dbc7fbafb21cc83b849712c20a44ba096bdfc64185be862c2b4ede4eb23d0b'),
    '3x3.m1': (0, 'e74e0639c96d467dacb0d6893e33b164008d0fcfc26264e4846b854be86fefc3'),
    '3x3.m2': (0, 'aab58e1b9a55925e1f18bb93312413a3eca1662a9aa053de8cb2faf7e81f05cc'),
    '3x3.m3': (0, '78bd0adff17eb50a63e8d31bb669e070c5067ca5172d1b263a95bd999380abb7'),
    '3x3.m4': (1, 'bb97530cfd397f2ffba244580c9bb5add7e1e89e30e4f814121eb1e3b24d6c88'),
    '3x3.m5': (1, 'adacf2e6e0f75e4f437ebd2bd85ddcf7c050af21ec325a26bbd1c017df5d8589'),
    '3x3.m6': (2, '9430c3bd782f2526cba4d16966912e92786edcf7f2adb39e83896669b06473e9'),
    '3x3.m7': (3, '419a4fd4269efa799a34aac78bba6b919e4c7f06897d6f49c5f104ffb216b33a'),
    '3x3.m8': (4, '8487d5418112a5445e482572ebc476f6c8fa48edb89f39959a416558718b5078'),
    '2x3.mono': (3, '8387d577617848e92265c778e5f68bcc5a1bf8844275fe604d357ca926417136'),
    '3x4.mono': (7, '2892ff842fef57d047f508426f90a23a6413c9243add9defd4e29281ffaba261'),
    '2x2x2.l2.mono': (6, '3ada7225cbbcc8d45aea0d862f5388456c756c06051fcf0d2589ede39e1e72b7'),
    '2x2.prune2': (2, '46b61ad8d2c4a3d8c2fe192c90936583bd5f4e9f81e2311be481d2ebefca5bc3'),
    '2x2.prune5': (2, '46b61ad8d2c4a3d8c2fe192c90936583bd5f4e9f81e2311be481d2ebefca5bc3'),
    '3x3.prune2': ('ValueError', 'no admissible arrangement beats the prune bound 2; raise it or drop it'),
    '3x3.prune5': (5, '26c4e5f78fc0ab40f901f22a18c03e17141ac97bf61d2e3d4e2f3e2538a8e936'),
}


@pytest.mark.parametrize("name", list(CASES))
def test_oracle_golden(name):
    assert fingerprint(*CASES[name]) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for _name, _case in CASES.items():
        print(f"    {_name!r}: {fingerprint(*_case)!r},")
    print("}")
