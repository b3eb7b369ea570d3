"""Golden outputs of every constructor, pinned as hashes.

Each arrangement case pins sha256 of ``to_json()`` and checks that the
JSON round trip gives back an equal arrangement with an equal inverse.
``clipped_cells`` cases pin sha256 of the cell lists for every budget
from -1 to the coordinate sum of the far corner, plus one past it.
``band_capacity`` cases pin the count itself.

Regenerate the table with ``PYTHONPATH=src python tests/test_golden.py``
and paste the printed dict over ``GOLDEN``; only do so when a change is
meant to alter construction output, and say so where the change is
recorded.
"""

import hashlib
import itertools
import json

import pytest

from spreadlab.core import Arrangement, Shape, UnsupportedInputError
from spreadlab.diagonal import (
    DiagonalSpec,
    band_capacity,
    blocked_diagonal,
    diagonal_in_cube,
    infinite_diagonal_window,
)
from spreadlab.herringbone import (
    MAXIMA,
    MINIMA,
    HerringboneSpec,
    clipped_cells,
    herringbone_max,
    herringbone_min,
    herringbone_recursive,
)
from spreadlab.merge import herringbone_merge


def _recursive(sizes, order, orientation):
    return herringbone_recursive(HerringboneSpec(Shape(sizes), order, orientation))


def _clipped(sizes, order):
    top = sum(n - 1 for n in sizes) + 1
    return [
        [[int(c) for c in cell] for cell in clipped_cells(sizes, budget, order)]
        for budget in range(-1, top + 1)
    ]


CASES = {}
for _sizes in [(9, 7), (5, 5, 5), (4, 3, 5, 2), (3, 3, 3, 3, 3), (48, 36, 15), (1, 6), (7,)]:
    CASES[f"herringbone_min {_sizes}"] = lambda s=_sizes: herringbone_min(Shape(s))
for _sizes in [(6, 6), (4, 4, 4), (3, 3, 3, 3)]:
    CASES[f"herringbone_max {_sizes}"] = lambda s=_sizes: herringbone_max(Shape(s))
for _order in itertools.permutations(range(3)):
    CASES[f"herringbone_recursive (9, 7, 5) {_order} minima"] = (
        lambda o=_order: _recursive((9, 7, 5), o, MINIMA)
    )
    CASES[f"herringbone_recursive (6, 6, 6) {_order} maxima"] = (
        lambda o=_order: _recursive((6, 6, 6), o, MAXIMA)
    )
for _n, _k in [(1, 1), (6, 1), (7, 1), (9, 2), (10, 2), (1, 3), (2, 3), (4, 3), (5, 3), (2, 4), (3, 4), (4, 4), (3, 5), (24, 3)]:
    CASES[f"herringbone_merge {_n} {_k}"] = lambda n=_n, k=_k: herringbone_merge(n, k)
for _n, _k, _m in [(10, 2, 37), (8, 3, 150), (6, 3, 216), (5, 4, 200), (12, 1, 5), (9, 3, 400), (24, 3, 8400)]:
    CASES[f"diagonal_in_cube {_n} {_k} {_m}"] = lambda n=_n, k=_k, m=_m: diagonal_in_cube(n, k, m)
for _n, _k, _m in [(16, 2, 70), (16, 2, 90), (12, 3, 300), (6, 4, 500), (7, 3, 343), (10, 2, 1)]:
    CASES[f"blocked_diagonal {_n} {_k} {_m}"] = lambda n=_n, k=_k, m=_m: blocked_diagonal(n, k, m)
for _k, _l, _w in [(2, 1, 12), (2, 3, 16), (2, 4, 20), (3, 2, 14), (3, 3, 16)]:
    CASES[f"infinite_diagonal_window {_k} {_l} {_w}"] = (
        lambda k=_k, l=_l, w=_w: infinite_diagonal_window(DiagonalSpec(k, l, w))
    )
for _n, _k, _l in [(8, 2, 3), (8, 2, 4), (24, 3, 5), (24, 3, 12), (6, 4, 3), (5, 3, 9), (1, 2, 1)]:
    CASES[f"band_capacity {_n} {_k} {_l}"] = lambda n=_n, k=_k, l=_l: band_capacity(n, k, l)
for _sizes, _order in [((3, 3), (0, 1)), ((4, 3, 5), (0, 1, 2)), ((4, 3, 5), (2, 0, 1)), ((2, 3, 2, 2), (3, 1, 0, 2)), ((6,), (0,))]:
    CASES[f"clipped_cells {_sizes} {_order}"] = lambda s=_sizes, o=_order: _clipped(s, o)


def fingerprint(result):
    """The pinned form of one case's output."""
    if isinstance(result, Arrangement):
        return hashlib.sha256(result.to_json().encode()).hexdigest()
    if isinstance(result, int):
        return result
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()


GOLDEN = {
    'herringbone_min (9, 7)': 'a3abaa7d69913ac3c8b2c737cc7d67be7c69e0345f29150cb19a87b6ccfb80f4',
    'herringbone_min (5, 5, 5)': '7b86868449e4709287ef9ea9b3827052ff9b39136116a9325cc3b8d532082773',
    'herringbone_min (4, 3, 5, 2)': '794726a653493d611a2460d3ad7e6b47f7a4026dca7900fb6cea0c6c48d093f7',
    'herringbone_min (3, 3, 3, 3, 3)': 'ead7821508778d272e924930d56d588a432bf5500b58b3ac47a4cfbe6dee43a3',
    'herringbone_min (48, 36, 15)': '89d97aef35ab1e2acf0a198a79f3f7d99f255a98f3b5399cd8f4ab3e378e1dcc',
    'herringbone_min (1, 6)': 'a946db9ba0a7fa8ae6f6bbae802c11c7f8ac5d73a8fd7a336aea9a7103f8af99',
    'herringbone_min (7,)': 'e099027cc82393255c07254ef3bc0921a3bf6f4ad8e0473fc5ae45f9f999e45b',
    'herringbone_max (6, 6)': '0ca37f852de268efd43326566bdb3884d8f0199ff0f979c7bd5517f34e0fa5c0',
    'herringbone_max (4, 4, 4)': 'b818d5cffdb061269e3b5c3c88fb230d1e326c9ce3a4d4caf7bb3b5e1ad6037d',
    'herringbone_max (3, 3, 3, 3)': '298e0c6d9ecb6b3205b5715c04cffd17d6031aef0a65b98d8d97d8ac30967310',
    'herringbone_recursive (9, 7, 5) (0, 1, 2) minima': '4732c3d4a394b547d98357d1d730f9cc39a4f554dd74212d69662e5ddb22abaf',
    'herringbone_recursive (6, 6, 6) (0, 1, 2) maxima': 'a879a7ef076b6ec98eb5c9acf50a2270f01629d08a2a4692c1dc399d45032f63',
    'herringbone_recursive (9, 7, 5) (0, 2, 1) minima': '27df733e0c0656261fccb4f50343ac861430c835b66ca873ee4cc2b0075115a6',
    'herringbone_recursive (6, 6, 6) (0, 2, 1) maxima': 'eb6ea7a7ca3cf523a4112b3cd9a61135eec08bc81a69c536fc13e1fe5bcb03d4',
    'herringbone_recursive (9, 7, 5) (1, 0, 2) minima': 'a7c129a751e2b1e52e273b392b6cd40da65a5e03628a4a8f100e56df34c1a98d',
    'herringbone_recursive (6, 6, 6) (1, 0, 2) maxima': '56e9f24effbbd662304cd7f3f8127b9fd71cbfc9c8dcafee76119a8888086908',
    'herringbone_recursive (9, 7, 5) (1, 2, 0) minima': 'e13d3bc42f51a7a0dbffce7b1ce90632301ede7f29c7e725c9780b6b84034757',
    'herringbone_recursive (6, 6, 6) (1, 2, 0) maxima': '162b76c7902170a802e91bb43a5ffc1074dc26b3eb49ceaebecf2010e0990ca5',
    'herringbone_recursive (9, 7, 5) (2, 0, 1) minima': '014ec14df42d3cd2185c586d88db6f6cd55a97a39f8c4faaeab6102e66ddf5fd',
    'herringbone_recursive (6, 6, 6) (2, 0, 1) maxima': '5e61262e955dca6a5594effec365443d9ef41efec7b914ccf6de33f8c1346c66',
    'herringbone_recursive (9, 7, 5) (2, 1, 0) minima': '6e9ea2e79594544a2f15cde38048c93366168f7654b1f3021760184df3b83d11',
    'herringbone_recursive (6, 6, 6) (2, 1, 0) maxima': 'b91f360b5918a83dbd3bab7f71b08046fb9dec57ab10c4937ba959c404e5d563',
    'herringbone_merge 1 1': '174c12609f61f4e3cbde3672ff5284da69d48427d084285469a8ac6acb06f1aa',
    'herringbone_merge 6 1': '7a1ecbe2d8501b095493031fc727be13032387f97c034e27749e1a8cefc6c874',
    'herringbone_merge 7 1': 'e099027cc82393255c07254ef3bc0921a3bf6f4ad8e0473fc5ae45f9f999e45b',
    'herringbone_merge 9 2': '58056ad78fe60d770ef75843f78e8628016d7daa0bf85196efc63a0cc001c629',
    'herringbone_merge 10 2': '36603acf9591bc3d6c336a11f166601ddf0dff73b2fc1a18c54a57e2ad7acbb5',
    'herringbone_merge 1 3': 'dc58edfc45dae5905bf50c7790038bdc65b1079d899003d2b8f1cf0041af2697',
    'herringbone_merge 2 3': '20160239215bd29a72358cce0483ec1cb9524f53d5808e545314c8b4f68a67c6',
    'herringbone_merge 4 3': 'e0e9fe79d135040e3730c3ad84aa14c1fb10fc7d51fd92f4a6809ec8ec193be0',
    'herringbone_merge 5 3': '4c55e76a0701ff63612af3c44f691d770d1b75e0e8f55fc83b161f0a9c2ad288',
    'herringbone_merge 2 4': 'ecbc47c340c18cc3613d8b12cbfb09862667f8fd1b7c19e587a6d9e3ec836a67',
    'herringbone_merge 3 4': '85a32b387352c25e0d71b3a1c579d0ca94220bfa7b71796fc47b7ad2d9f31fd1',
    'herringbone_merge 4 4': '87032e69280d649573074895a6188673b190bcb97fd073242c034c6fcc740b60',
    'herringbone_merge 3 5': '96716862d611e1a25f1c53d22616b0d66abe1c61bba18fdc01e1edbc38d5da62',
    'herringbone_merge 24 3': '31ff04f4f51e815f9f7f2bbeb04be85ce2031e2e3d6bcd2d5e3448a26fd9ef5a',
    'diagonal_in_cube 10 2 37': 'ecd2ff1d4226ef78226c7c0d07c61ee6124712bae3091d271b789112f59eebe7',
    'diagonal_in_cube 8 3 150': '827764c98da1d9d7c8d833827c1cb65babaed37de1427cc0587ea940378d490c',
    'diagonal_in_cube 6 3 216': '37a371000b2c963d873e91f5117d6c7c0da98e1fc800542f715826b2e9aebcad',
    'diagonal_in_cube 5 4 200': '79b88f48382a5b323a9310494adccca0c6831ef91f19852bf5878e3034ce5e91',
    'diagonal_in_cube 12 1 5': '9e1ac527ac3ad917f50d38b89034aec5ebc2f3112acfd1b30480f8ee0066ea0d',
    'diagonal_in_cube 9 3 400': '7478a7fd456c800afb3fa2fd6f8127f84578b4b85432514dfd7b9b2fc320d514',
    'diagonal_in_cube 24 3 8400': 'c681bf376c5f65454f5a0dc4da1cad1a1eace800632f2bfeb62a3843aa2c27aa',
    'blocked_diagonal 16 2 70': 'a7594d12d7b1f52125aba6bfa7f9ae01a9949540da9c67d407e122c4551a0389',
    'blocked_diagonal 16 2 90': 'cd998d795b438e381a2157565e3652540649282779d056be6b9ff6065bdcde91',
    'blocked_diagonal 12 3 300': '69329b5575cd8869259e4bee3189b6ed0808c2648571f0d628f5c4d5830434b8',
    'blocked_diagonal 6 4 500': '45c814e63ba5e4adef067cb50977a3b9fead24f4197a7c432a63fe6de4af897f',
    'blocked_diagonal 7 3 343': 'f6263b8b679b6aa16349e5b6ce6dc101bbef0c4afa2559ff6e553b936f7009ef',
    'blocked_diagonal 10 2 1': '592607f14b36e0ac5bd1e38bb9f3207b2ccb20ad49ca7270854fe86b813a5eb5',
    'infinite_diagonal_window 2 1 12': 'ee6d18ab0e989b20ac9f622692eb677296d5ed45531f5dea419082e85afee0d6',
    'infinite_diagonal_window 2 3 16': '1da937f79e28bd51693b656b2ad11578ad2a5c34f441af199b0abe1967d156ab',
    'infinite_diagonal_window 2 4 20': '0205a255c0596f27056468140029f5525389dda36c92038abe3563bc39b610e2',
    'infinite_diagonal_window 3 2 14': 'ed5919a1753d4856920e142fe69249cdadce46caf33238abe5ad4e4e95c323af',
    'infinite_diagonal_window 3 3 16': '59bb986ed677992f3e37f13d304138f0d49dda2cce69df1680da3d2d6d740bd6',
    'band_capacity 8 2 3': 22,
    'band_capacity 8 2 4': 28,
    'band_capacity 24 3 5': 426,
    'band_capacity 24 3 12': 2160,
    'band_capacity 6 4 3': 76,
    'band_capacity 5 3 9': 125,
    'band_capacity 1 2 1': 1,
    'clipped_cells (3, 3) (0, 1)': '31bcea8bbca13b3ae329a86cecc99cceae854f959064c3660241f2e78e7cde0f',
    'clipped_cells (4, 3, 5) (0, 1, 2)': '20080971a50f1727aba46c75930e64f94e76a12c24bea0118053c9bcc6edb206',
    'clipped_cells (4, 3, 5) (2, 0, 1)': '9798afd39d5a2813ce31e79e767304d967d82d9d2c9de0a7ae85b008a74387f3',
    'clipped_cells (2, 3, 2, 2) (3, 1, 0, 2)': '9d953dd36cbbbf7344475254e18998109681dbdef8caef26b1ae32f096645e15',
    'clipped_cells (6,) (0,)': '59c82db697150c850b5f8567ad0aa4dd935992e065caebcef492d6df69c74034',
}


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name):
    result = CASES[name]()
    assert fingerprint(result) == GOLDEN[name]
    if isinstance(result, Arrangement):
        again = Arrangement.from_json(result.to_json())
        assert again == result
        assert again.inverse == result.inverse


def test_maxima_facing_needs_a_cube():
    with pytest.raises(UnsupportedInputError):
        _recursive((9, 7, 5), (0, 1, 2), MAXIMA)


if __name__ == "__main__":
    print("GOLDEN = {")
    for _name, _case in CASES.items():
        print(f"    {_name!r}: {fingerprint(_case())!r},")
    print("}")
