"""The benchmark's own tests: a minimal pass of every workload, and one
test per check kind showing that it rejects a wrong answer."""

import json

import numpy as np
import pytest

from perfbench import checks, run, worker
from perfbench.tracing import PER_LAYER, Tracer, layer_metrics, self_times
from spreadlab.core import Shape
from spreadlab.herringbone import herringbone_min
from spreadlab.oracle import SearchConfig, brute_force_optimal
from spreadlab.quantizer_sim import ChannelSystem, FailurePattern, decode


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_pass(workload, tmp_path):
    result = worker.run_pass(workload, seed=7, traced=True, smoke=True, workdir=tmp_path)
    failures = [job for job in result["jobs"] if job["problems"] and not job["known_defect"]]
    assert failures == []
    assert result["decode_problems"] == []
    assert result["pass_s"] > 0
    assert sum(len(job["decode_ns"]) for job in result["jobs"]) == worker.SMOKE_DECODE_CALLS
    metrics = layer_metrics([result["spans"]], [result["pass_s"]], [result["pass_s"]], 0.1)
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert metrics["trace.overhead_frac"] == 0


def test_cli_smoke_surfaces_the_per_slice_defect(tmp_path):
    result = worker.run_pass("cli", seed=7, traced=False, smoke=True, workdir=tmp_path)
    per_slice = [job for job in result["jobs"] if "--per-slice" in job["name"]]
    assert len(per_slice) == 1
    # Fixing the crash turns this into a plain pass; until then it is counted.
    assert per_slice[0]["known_defect"] == bool(per_slice[0]["problems"])


def test_herringbone_check_rejects_swapped_cells():
    grid = herringbone_min(Shape((3, 3, 3))).grid.copy()
    assert checks.check_herringbone(grid, "herringbone_min", None, seed=0) == []
    grid[0, 0, 1], grid[2, 2, 2] = grid[2, 2, 2], grid[0, 0, 1]
    assert checks.check_values(grid, 27) == []
    assert checks.check_herringbone(grid, "herringbone_min", None, seed=0)


def test_values_check_rejects_a_repeated_value():
    grid = herringbone_min(Shape((4, 4))).grid.copy()
    grid[3, 3] = 0
    assert checks.check_values(grid, 16)


def test_oracle_check_rejects_corrupted_witness_and_value():
    cfg = SearchConfig(shape=Shape((2, 2, 2)))
    value, witness = brute_force_optimal(cfg)
    assert checks.check_oracle(value, witness.grid, (2, 2, 2), None, 1, "full") == []
    assert checks.check_oracle(value + 1, witness.grid, (2, 2, 2), None, 1, "full")
    corrupted = witness.grid.copy()
    corrupted[1, 1, 1] = corrupted[0, 0, 0]
    assert checks.check_oracle(value, corrupted, (2, 2, 2), None, 1, "full")


def test_harper_bandwidths():
    assert [checks.harper_bandwidth(k) for k in range(2, 6)] == [2, 4, 7, 13]


def test_decode_check_rejects_an_interval_missing_x():
    a = herringbone_min(Shape((4, 4)))
    x = 5
    cell = a.cell_of(x)
    received = [cell[0], None]
    (lo, hi), estimate = decode(received, FailurePattern(0b10, 2), ChannelSystem(a))
    assert checks.check_decode(x, received, 0b10, (lo, hi), estimate, a.grid) == []
    assert checks.check_decode(x, received, 0b10, (x + 1, hi + 1), estimate, a.grid)
    assert checks.check_decode(x, received, 0b10, (lo, hi), estimate + 1, a.grid)


def test_cli_check_rejects_a_wrong_exit_code():
    assert checks.check_exit(2, 2, "spreadlab: error: bad shape\n") == []
    assert checks.check_exit(1, 0, "Traceback ...\nTypeError: boom\n") == ["exit 1, expected 0: TypeError: boom"]
    assert checks.check_exit(0, 3, "")


def test_self_time_is_job_time_not_covered_by_layer_spans():
    tr = Tracer(True)
    with tr.job("0"):
        tr.call("core.max_spread", sum, [1, 2])
    job, layer = tr.spans
    assert layer["parent"] == job["id"] and layer["job"] == "0"
    covered = layer["end"] - layer["start"]
    assert self_times(tr.spans)["0"] == pytest.approx(job["end"] - job["start"] - covered)


def test_reference_spread_matches_a_hand_count():
    grid = np.array([[0, 1], [3, 2]])
    assert checks.worst_spread(grid, 1) == 3
    assert checks.pattern_spread(grid, 0b01) == 3 and checks.pattern_spread(grid, 0b10) == 1
