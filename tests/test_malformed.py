"""Malformed arrangement documents: what ``Arrangement.from_json`` does
with each, and that ``spread`` turns every rejection into exit 2.

Every outcome here is the per-cell definition's: the error of the first
offending entry in input order, with its exception type and, for the
package's own errors, its message.  Messages that come from ``int()``
or ``tuple()`` themselves are pinned by type only.
"""

import json

import pytest

from spreadlab.cli import main
from spreadlab.core import Arrangement, ShapeMismatchError

# 3x3 herringbone; entry i of its document places value i at
# (0,0) (1,0) (0,1) (1,1) (2,0) (2,1) (0,2) (1,2) (2,2)
BASE = Arrangement.from_grid([[0, 2, 6], [1, 3, 7], [4, 5, 8]])


def _coords(i, coords):
    def mutate(doc):
        doc["cells"][i]["coords"] = coords
    return mutate


def _value(i, value):
    def mutate(doc):
        doc["cells"][i]["value"] = value
    return mutate


def _both(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


def _set(key, value):
    def mutate(doc):
        doc[key] = value
    return mutate


def _drop_value(doc):
    del doc["cells"][0]["value"]


def _empty(doc):
    doc["cells"], doc["m"] = [], 0


VALUE_RANGE = "outside 0..8; placement must cover exactly 0..m-1"

# name -> (mutation, exception type or None for accepted, message or None)
CASES = {
    "coordinate out of range": (_coords(4, [3, 0]), ShapeMismatchError, "cell (3, 0) outside shape 3x3"),
    "negative coordinate": (_coords(4, [-1, 2]), ShapeMismatchError, "cell (-1, 2) outside shape 3x3"),
    "short coords": (_coords(4, [1]), ShapeMismatchError, "cell (1,) outside shape 3x3"),
    "long coords": (_coords(4, [1, 1, 1]), ShapeMismatchError, "cell (1, 1, 1) outside shape 3x3"),
    "empty coords": (_coords(4, []), ShapeMismatchError, "cell () outside shape 3x3"),
    "coordinate 10**30": (
        _coords(3, [10**30, 0]),
        ShapeMismatchError,
        f"cell ({10**30}, 0) outside shape 3x3",
    ),
    "coordinate 1e30": (
        _coords(3, [1e30, 0]),
        ShapeMismatchError,
        f"cell ({int(1e30)}, 0) outside shape 3x3",
    ),
    "coordinate 2**63": (_coords(3, [0, 2**63]), ShapeMismatchError, f"cell (0, {2**63}) outside shape 3x3"),
    "coordinate 2**64": (_coords(3, [0, 2**64]), ShapeMismatchError, f"cell (0, {2**64}) outside shape 3x3"),
    "duplicate coords": (_coords(1, [0, 0]), ShapeMismatchError, "duplicate coords in cell list"),
    "duplicate coords after int()": (
        _coords(1, ["0", 0.5]),
        ShapeMismatchError,
        "cell (0, 0) assigned twice",
    ),
    "duplicate value": (_value(3, 2), ShapeMismatchError, "value 2 assigned twice"),
    "value out of range": (_value(3, 9), ShapeMismatchError, f"value 9 {VALUE_RANGE}"),
    "negative value": (_value(3, -1), ShapeMismatchError, f"value -1 {VALUE_RANGE}"),
    "value 10**30": (_value(3, 10**30), ShapeMismatchError, f"value {10**30} {VALUE_RANGE}"),
    "m does not match": (_set("m", 8), ShapeMismatchError, "m does not match the number of listed cells"),
    "zero extent": (_set("sizes", [0, 3]), ShapeMismatchError, "every extent must be >= 1, got (0, 3)"),
    "null coords": (_coords(2, None), TypeError, None),
    "null coordinate": (_coords(2, [None, 0]), TypeError, None),
    "null value": (_value(2, None), TypeError, None),
    "null sizes": (_set("sizes", None), TypeError, None),
    "null cell list": (_set("cells", None), TypeError, None),
    "non-numeric coordinate": (_coords(2, ["a", 0]), ValueError, None),
    "non-numeric value": (_value(2, "x"), ValueError, None),
    "NaN coordinate": (_coords(2, [float("nan"), 0]), ValueError, None),
    "infinite coordinate": (_coords(2, [float("inf"), 0]), OverflowError, None),
    "missing value": (_drop_value, KeyError, None),
    "range error before a later null": (
        _both(_coords(1, [9, 9]), _coords(5, [None, 0])),
        ShapeMismatchError,
        "cell (9, 9) outside shape 3x3",
    ),
    "null before a later range error": (_both(_coords(1, [None, 0]), _coords(5, [9, 9])), TypeError, None),
    "value error before a later duplicate cell": (
        _both(_value(2, 12), _coords(6, ["0", "0"])),
        ShapeMismatchError,
        f"value 12 {VALUE_RANGE}",
    ),
    "numeric strings, floats and bools": (
        _both(_coords(4, [2.0, "0"]), _coords(1, [True, False]), _value(5, 5.7)),
        None,
        None,
    ),
    "empty cell list": (_empty, None, None),
}


def _document(name) -> str:
    doc = json.loads(BASE.to_json())
    CASES[name][0](doc)
    return json.dumps(doc)


@pytest.mark.parametrize("name", list(CASES))
def test_from_json_outcome(name):
    _, error, message = CASES[name]
    text = _document(name)
    if error is None:
        got = Arrangement.from_json(text)
        expected = BASE if name != "empty cell list" else Arrangement.from_placement(BASE.shape, {})
        assert got == expected and got.inverse == expected.inverse
        return
    with pytest.raises(error) as info:
        Arrangement.from_json(text)
    assert type(info.value) is error
    if message is not None:
        assert str(info.value) == message


@pytest.mark.parametrize("name", list(CASES))
def test_spread_exit_code(name, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(_document(name))
    code = main(["spread", "--arrangement", str(path)])
    err = capsys.readouterr().err
    if CASES[name][1] is None and name != "empty cell list":
        assert code == 0
    else:
        # an empty arrangement loads but has no spread: also exit 2
        assert code == 2
        assert err.startswith("spreadlab: error: ") and err.count("\n") == 1
