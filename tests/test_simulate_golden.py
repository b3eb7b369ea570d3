"""Golden ``simulate`` reports, pinned as hashes.

Each case pins sha256 of the report's JSON (sorted keys, as the CLI
writes it): merged herringbones, a diagonal and a blocked diagonal, at a
light and a heavy failure rate, plus one forced pattern.  One case pins
the stdout of the ``simulate`` command.

Regenerate the table with ``PYTHONPATH=src python tests/test_simulate_golden.py``
and paste the printed dict over ``GOLDEN``; only do so when a change is
meant to alter simulation output, and say so where the change is recorded.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from spreadlab.cli import main
from spreadlab.diagonal import blocked_diagonal, diagonal_in_cube
from spreadlab.merge import herringbone_merge
from spreadlab.quantizer_sim import ChannelSystem, simulate

BUILDS = {
    "merge 3^3": lambda: herringbone_merge(3, 3),
    "merge 4^2": lambda: herringbone_merge(4, 2),
    "diagonal 8^3 m=150": lambda: diagonal_in_cube(8, 3, 150),
    "blocked 12^3 m=300": lambda: blocked_diagonal(12, 3, 300),
}

CASES = {}
for _name, _build in BUILDS.items():
    for _p, _seed in [(0.05, 7), (0.4, 8)]:
        CASES[f"{_name} p={_p}"] = (
            lambda b=_build, p=_p, s=_seed: simulate(ChannelSystem(b()), p, 3000, s).to_json_dict()
        )
CASES["merge 3^3 forced=5"] = (
    lambda: simulate(ChannelSystem(herringbone_merge(3, 3)), 0.2, 3000, 9, forced_mask=5).to_json_dict()
)


def _cli_simulate() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cube.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(herringbone_merge(4, 3).to_json())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["simulate", "--arrangement", path, "--p", "0.2", "--trials", "5000", "--seed", "42"])
        assert code == 0
        return out.getvalue()


CASES["cli simulate merge 4^3 p=0.2"] = _cli_simulate


def fingerprint(result) -> str:
    text = result if isinstance(result, str) else json.dumps(result, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    'merge 3^3 p=0.05': '0493dba3a763385706600909aa9b9880bca87b8f185504dd2c018de54ba4f257',
    'merge 3^3 p=0.4': '838cb9d14a292b50de764e4138217c70e8a601505dd1966d5daaf162f08cc646',
    'merge 4^2 p=0.05': 'c32c442bb6020c22d6d98e688967de499c0ea405eefb215aa18a9d3815a6d608',
    'merge 4^2 p=0.4': 'c5d2361029d9cd43e8c26fe2b1d5eaafd4d7affcc53bf676dd5d2772c365e81c',
    'diagonal 8^3 m=150 p=0.05': '0597f4ea6cb8069f92c619fa203dc036095b7ab6014af24d500274dd14baf2c8',
    'diagonal 8^3 m=150 p=0.4': 'd2b65028cd1f4cdd3d9fcbc230f7ad93d85f5b47cffb653700e5695a130dbc20',
    'blocked 12^3 m=300 p=0.05': 'fc468ba31ecef99bcc8213e4ab1a174ececa0990648afe8a8d377a367763e3ca',
    'blocked 12^3 m=300 p=0.4': 'd96737052dcb7f3edd1366aa8299f88fc67baacfc943d6039c99c5d98ac37c92',
    'merge 3^3 forced=5': '044f169b18882bc914eefc5d9d30675b123781461a5a6cc1a6e6e4f847875223',
    'cli simulate merge 4^3 p=0.2': '99648e6b7de85243874c93c74ac29462a097c3881fe0499d5abcd9ea57be0949',
}


@pytest.mark.parametrize("name", list(CASES))
def test_simulate_golden(name):
    assert fingerprint(CASES[name]()) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for _name, _case in CASES.items():
        print(f"    {_name!r}: {fingerprint(_case())!r},")
    print("}")
