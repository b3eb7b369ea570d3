import contextlib
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadlab.cli import main, parse_shape
from spreadlab.core import Arrangement, Shape, iter_slices, slice_spread


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_shape():
    assert parse_shape("3x3x3").sizes == (3, 3, 3)
    assert parse_shape("7").sizes == (7,)
    for bad in ("0x3", "-1x2", "3x", "axb"):
        with pytest.raises(Exception):
            parse_shape(bad)


def test_build_herringbone_values(capsys):
    code, out, _ = run(capsys, "build", "--shape", "3x3", "--method", "herringbone")
    assert code == 0
    doc = json.loads(out)
    assert doc["sizes"] == [3, 3] and doc["m"] == 9
    grid = {tuple(c["coords"]): c["value"] for c in doc["cells"]}
    assert grid[(0, 2)] == 6 and grid[(2, 2)] == 8


def test_build_spread_round_trip(tmp_path, capsys):
    out_file = tmp_path / "arr.json"
    code, _, _ = run(
        capsys, "build", "--shape", "3x3", "--method", "merge", "--out", str(out_file)
    )
    assert code == 0
    arr = Arrangement.from_json(out_file.read_text())
    code, out, _ = run(capsys, "spread", "--arrangement", str(out_file), "--l", "1")
    assert code == 0
    assert "max_spread=5" in out
    code, out, _ = run(
        capsys, "spread", "--arrangement", str(out_file), "--format", "json"
    )
    assert json.loads(out)["max_spread"] == 5
    assert arr.m == 9


def test_build_all_methods(tmp_path, capsys):
    for method, shape, m in [
        ("herringbone", "3x4", None),
        ("merge", "3x3x3", None),
        ("diagonal", "6x6", "20"),
        ("blocked", "8x8", "20"),
        ("rowmajor", "4x4", None),
        ("replicate", "3x3", None),
    ]:
        argv = ["build", "--shape", shape, "--method", method]
        if m:
            argv += ["--m", m]
        code, out, err = run(capsys, *argv)
        assert code == 0, (method, err)
        doc = json.loads(out)
        assert doc["m"] >= 1


def test_bounds_formats(capsys):
    code, out, _ = run(capsys, "bounds", "--shape", "3x3")
    assert code == 0
    assert "theorem1_lb=2" in out and "merge_ub=5" in out and "exact_pairing_lb[l=1]=5" in out
    code, out, _ = run(capsys, "bounds", "--shape", "3x3", "--format", "csv")
    assert out.splitlines()[1] == "3,2,1,2,5,5"
    code, out, _ = run(capsys, "bounds", "--shape", "3x3", "--format", "json")
    assert json.loads(out)["merge_ub"] == 5


def test_oracle_command(capsys, tmp_path):
    code, out, _ = run(capsys, "oracle", "--shape", "2x2x2")
    assert code == 0
    assert json.loads(out)["optimal_spread"] == 4
    witness_file = tmp_path / "w.json"
    code, out, _ = run(
        capsys, "oracle", "--shape", "3x3", "--mode", "monotone", "--out", str(witness_file)
    )
    assert code == 0 and out == "optimal_spread=5\n"
    assert Arrangement.from_json(witness_file.read_text()).m == 9


def test_simulate_command(tmp_path, capsys):
    arr_file = tmp_path / "a.json"
    run(capsys, "build", "--shape", "3x3", "--method", "merge", "--out", str(arr_file))
    code, out, _ = run(
        capsys,
        "simulate",
        "--arrangement", str(arr_file),
        "--p", "0.1",
        "--trials", "2000",
        "--seed", "42",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == [0, 5, 5]
    code, out2, _ = run(
        capsys,
        "simulate",
        "--arrangement", str(arr_file),
        "--p", "0.1",
        "--trials", "2000",
        "--seed", "42",
    )
    assert out == out2  # byte-stable given identical flags and seed


def test_render_grid_and_plot_data(tmp_path, capsys):
    arr_file = tmp_path / "a.json"
    run(capsys, "build", "--shape", "3x3", "--method", "herringbone", "--out", str(arr_file))
    plot = tmp_path / "plot.csv"
    code, out, _ = run(
        capsys, "render", "--arrangement", str(arr_file), "--plot-data", str(plot)
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["0", "2", "6"]
    lines = plot.read_text().splitlines()
    assert lines[0] == "x,y,value" and "0,2,6" in lines


def test_render_cap(tmp_path, capsys):
    arr_file = tmp_path / "big.json"
    run(capsys, "build", "--shape", "50x50", "--method", "rowmajor", "--out", str(arr_file))
    code, _, err = run(capsys, "render", "--arrangement", str(arr_file))
    assert code == 2 and "40x40" in err
    code, out, _ = run(
        capsys, "render", "--arrangement", str(arr_file),
        "--plot-data", str(tmp_path / "p.csv"),
    )
    assert code == 0


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "3", "--k-max", "3", "--oracle")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,l,theorem1_lb,exact_pairing_lb,merge_ub,oracle_opt"
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
    assert rows[("3", "2")][3:] == ["2", "5", "5", "5"]
    assert rows[("2", "3")][3:] == ["2", "3", "4", "4"]
    assert rows[("3", "3")][6] == ""  # oracle skipped: over budget


def test_validation_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "build", "--shape", "0x3", "--method", "merge")
    assert code == 2 and err.startswith("spreadlab: error:") and err.count("\n") == 1
    code, _, err = run(capsys, "build", "--shape", "2x3", "--method", "merge")
    assert code == 2
    code, _, err = run(capsys, "spread", "--arrangement", str(tmp_path / "nope.json"))
    assert code == 2
    code, _, err = run(capsys, "oracle", "--shape", "4x4")
    assert code == 3 and "budget" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SPREADLAB_BUDGET", "10")
    code, _, err = run(capsys, "oracle", "--shape", "2x2x2")
    assert code == 3
    monkeypatch.setenv("SPREADLAB_BUDGET", "100000000")
    code, _, _ = run(capsys, "oracle", "--shape", "2x2x2")
    assert code == 0


def test_spread_per_slice_in_slice_order(tmp_path, capsys):
    arr_file = tmp_path / "cube.json"
    run(capsys, "build", "--shape", "3x3x3", "--method", "merge", "--out", str(arr_file))
    arr = Arrangement.from_json(arr_file.read_text())
    for l, count in [(1, 27), (2, 9)]:
        slices = list(iter_slices(Shape((3, 3, 3)), l))
        assert len(slices) == count
        code, out, _ = run(
            capsys, "spread", "--arrangement", str(arr_file), "--l", str(l), "--per-slice"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + count
        assert lines[1:] == [f"{s} {slice_spread(arr, s)}" for s in slices]
        code, out, _ = run(
            capsys, "spread", "--arrangement", str(arr_file), "--l", str(l),
            "--per-slice", "--format", "json",
        )
        assert code == 0
        entries = json.loads(out)["per_slice"]
        assert len(entries) == count
        assert [(e["free_dims"], e["spread"]) for e in entries] == [
            (list(s.free_dims), slice_spread(arr, s)) for s in slices
        ]
        assert [e["fixed"] for e in entries] == [
            {str(d): c for d, c in s.fixed} for s in slices
        ]


def test_build_output_is_the_arrangement_json(tmp_path, capsys):
    out_file = tmp_path / "a.json"
    code, out, _ = run(capsys, "build", "--shape", "4x4x4", "--method", "merge")
    assert code == 0
    run(capsys, "build", "--shape", "4x4x4", "--method", "merge", "--out", str(out_file))
    assert out_file.read_text() == out
    doc = Arrangement.from_json(out).to_json_dict()
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    code, out, _ = run(capsys, "build", "--shape", "5x3", "--method", "herringbone", "--m", "7")
    assert code == 0 and json.loads(out)["m"] == 7


def _run_small_budget(argv):
    """(exit code, stderr, peak traced bytes) of main under a 1000 budget."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setenv("SPREADLAB_BUDGET", "1000")
        with contextlib.redirect_stdout(io.StringIO()):
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return code, err.getvalue(), peak


huge_shapes = st.lists(st.integers(1, 10**12), min_size=1, max_size=5).filter(
    lambda sizes: math.prod(sizes) > 1000
)


@given(
    huge_shapes,
    st.sampled_from(["herringbone", "merge", "diagonal", "blocked", "rowmajor", "replicate"]),
    st.one_of(st.none(), st.integers(-5, 10**6)),
)
@settings(max_examples=60, deadline=None)
def test_huge_shapes_refused_before_allocating(sizes, method, m):
    shape = "x".join(map(str, sizes))
    argvs = [
        ["build", "--shape", shape, "--method", method] + ([] if m is None else ["--m", str(m)]),
        ["bounds", "--shape", shape],
        ["oracle", "--shape", shape, "--mode", "monotone"],
        ["oracle", "--shape", shape],
    ]
    for argv in argvs:
        code, err, peak = _run_small_budget(argv)
        assert code in (2, 3), argv
        assert err.startswith("spreadlab: error:") and err.count("\n") == 1
        assert peak < 1 << 20, (argv, peak)


@given(st.integers(1001, 10**18))
@settings(max_examples=30, deadline=None)
def test_huge_trial_counts_refused_before_allocating(trials):
    argv = ["simulate", "--arrangement", "unused.json", "--trials", str(trials)]
    code, err, peak = _run_small_budget(argv)
    assert code == 3 and err.startswith("spreadlab: error: budget refusal:")
    assert peak < 1 << 20


def test_rowmajor_build_beyond_the_budget_exits_3(capsys, monkeypatch):
    monkeypatch.delenv("SPREADLAB_BUDGET", raising=False)
    code, _, err = run(capsys, "build", "--shape", "100000x100000", "--method", "rowmajor")
    assert code == 3
    assert err == "spreadlab: error: budget refusal: 10000000000 cells exceed budget 100000000\n"
    monkeypatch.setenv("SPREADLAB_BUDGET", "9")
    assert run(capsys, "build", "--shape", "3x3", "--method", "rowmajor")[0] == 0
    assert run(capsys, "build", "--shape", "2x5", "--method", "rowmajor")[0] == 3


def test_simulate_refuses_more_pattern_cells_than_the_budget(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cube.json"
    run(capsys, "build", "--shape", "2x2x2x2x2x2", "--method", "merge", "--out", str(path))
    argv = ["simulate", "--arrangement", str(path), "--trials", "10"]
    monkeypatch.setenv("SPREADLAB_BUDGET", "3967")  # (2^6 - 2) * 64 = 3968
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "spreadlab: error: budget refusal: 3968 failure-pattern cells exceed budget 3967\n"
    monkeypatch.setenv("SPREADLAB_BUDGET", "3968")
    assert run(capsys, *argv)[0] == 0


def test_table_refuses_rows_beyond_the_budget(capsys, monkeypatch):
    monkeypatch.setenv("SPREADLAB_BUDGET", "1000")
    code, out, err = run(capsys, "table", "--n-max", "9", "--k-max", "4")
    assert (code, out) == (3, "")
    assert err == (
        "spreadlab: error: budget refusal: 1067 cells in the rows through n=7, k=3 exceed budget 1000\n"
    )
    # (10, 3): the largest row, 10^3 cells, fits, but the rows sum to 3408
    for n_max, k_max in [(1001, 2), (2, 11), (1000, 10**30), (10, 3)]:  # no power of 10^30 is taken
        code, out, err = run(capsys, "table", "--n-max", str(n_max), "--k-max", str(k_max))
        assert (code, out) == (3, "") and err.startswith("spreadlab: error: budget refusal:")
    code, out, _ = run(capsys, "table", "--n-max", "6", "--k-max", "3")  # the rows sum to 530 cells
    assert code == 0 and len(out.splitlines()) == 1 + 2 * 5
    code, out, _ = run(capsys, "table", "--n-max", "1", "--k-max", str(10**30))  # no rows
    assert code == 0 and len(out.splitlines()) == 1


def test_table_bounds_the_sum_of_its_rows(capsys, monkeypatch):
    monkeypatch.delenv("SPREADLAB_BUDGET", raising=False)
    # 3000^2 cells fit the default budget of 10^8, the rows up to it do not
    code, out, err = run(capsys, "table", "--n-max", "3000", "--k-max", "2")
    assert (code, out) == (3, "")
    assert err == (
        "spreadlab: error: budget refusal: "
        "100029994 cells in the rows through n=669, k=2 exceed budget 100000000\n"
    )
