"""The four workloads: fixed inputs (set-up) and the job list of one pass.

A job is one user-level request.  ``Job.run`` makes the request through the
tracer and returns what its check needs; ``Job.check`` turns that into a
list of problems.  Inputs come from the workload seed only.

* construct - build one arrangement, round-trip it through JSON, evaluate
  ``max_spread`` at every l, smalls/bigs at l=1 and ``distortion_profile``.
* certify - oracle searches, bound sandwiches, one smalls-dominance check.
  The list is fixed (oracle cost is too uneven to draw instances); the seed
  only orders it.  No single search runs for long: a call of a second or
  more straddles the host's speed changes, which the calibration cannot
  scale out (see run.py).  No (n, k) repeats among the bound jobs, so every pass
  pays the ``_herringbone_pair`` cache cold, as a fresh process does.
* erasure - seeded ``simulate`` runs on arrangements built in set-up.

Every workload also makes a seeded batch of single ``decode()`` calls.
Sizes are chosen so that a pass takes a few seconds, which lets a run
of ``run_seconds`` hold five or more passes.
* cli - the documented ``python -m spreadlab`` pipeline, one subprocess at
  a time.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from math import prod
from pathlib import Path
from typing import Any, Callable

import numpy as np

from spreadlab.bounds import bounds_report
from spreadlab.core import Arrangement, Shape, bigs_sequence, max_spread, smalls_sequence
from spreadlab.diagonal import blocked_diagonal, diagonal_in_cube
from spreadlab.herringbone import HerringboneSpec, herringbone_max, herringbone_min, herringbone_recursive
from spreadlab.merge import herringbone_merge
from spreadlab.oracle import FULL, MONOTONE, SearchConfig, brute_force_optimal, verify_smalls_dominance
from spreadlab.quantizer_sim import ChannelSystem, FailurePattern, decode, distortion_profile, simulate

from . import checks
from .tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60
# Known defect: ``spread --per-slice`` sorts SliceSpec keys, which do not
# order, so it exits 1 on every arrangement.  The job stays in the cli
# workload and counts as failed until the program is fixed.
PER_SLICE_DEFECT = "TypeError: '<' not supported between instances of 'SliceSpec'"


@dataclass
class Job:
    name: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], list[str]]
    # Text the problems of a failure show when it is a documented defect.
    known_defect: str | None = None


def slice_count(sizes: tuple[int, ...], l: int) -> int:
    """Number of l-dimensional slices of a box."""
    k = len(sizes)
    return sum(
        prod(sizes[d] for d in range(k) if d not in free) for free in combinations(range(k), l)
    )


def _jitter(rng: random.Random, m: int) -> int:
    # Thickness searches make diagonal times jump with m; a wider jitter
    # would swamp run-to-run comparisons.
    return round(m * rng.uniform(0.98, 1.02))


# -- construct -------------------------------------------------------------

CONSTRUCTIONS = {
    "herringbone_min": ("herringbone.herringbone_min", lambda sizes, p: herringbone_min(Shape(sizes))),
    "herringbone_max": ("herringbone.herringbone_max", lambda sizes, p: herringbone_max(Shape(sizes))),
    "herringbone_recursive": (
        "herringbone.herringbone_recursive",
        lambda sizes, p: herringbone_recursive(HerringboneSpec(Shape(sizes), p["order"])),
    ),
    "herringbone_merge": ("merge.herringbone_merge", lambda sizes, p: herringbone_merge(sizes[0], len(sizes))),
    "diagonal_in_cube": ("diagonal.diagonal_in_cube", lambda sizes, p: diagonal_in_cube(sizes[0], len(sizes), p["m"])),
    "blocked_diagonal": ("diagonal.blocked_diagonal", lambda sizes, p: blocked_diagonal(sizes[0], len(sizes), p["m"])),
}


def construct_specs(seed: int, smoke: bool) -> list[tuple[str, tuple[int, ...], dict]]:
    rng = random.Random(seed)
    order = tuple(rng.sample(range(3), 3))
    if smoke:
        return [
            ("herringbone_min", (3, 3, 3), {}),
            ("herringbone_min", (4, 3), {}),
            ("herringbone_max", (3, 3), {}),
            ("herringbone_recursive", (3, 3, 3), {"order": order}),
            ("herringbone_merge", (3, 3, 3), {}),
            ("diagonal_in_cube", (5, 5), {"m": 9}),
            ("blocked_diagonal", (6, 6), {"m": 12}),
        ]
    return [
        ("herringbone_min", (128, 128), {}),
        ("herringbone_min", (24, 24, 24), {}),
        ("herringbone_min", (6,) * 5, {}),
        ("herringbone_min", (48, 36, 15), {}),
        ("herringbone_max", (24, 24, 24), {}),
        ("herringbone_recursive", (24, 24, 24), {"order": order}),
        ("herringbone_merge", (128, 128), {}),
        ("herringbone_merge", (24, 24, 24), {}),
        ("herringbone_merge", (8,) * 4, {}),
        ("herringbone_merge", (5,) * 5, {}),
        ("diagonal_in_cube", (24, 24, 24), {"m": _jitter(rng, 850)}),
        ("diagonal_in_cube", (24, 24, 24), {"m": _jitter(rng, 8400)}),
        ("diagonal_in_cube", (64, 64), {"m": _jitter(rng, 1000)}),
        ("blocked_diagonal", (24, 24, 24), {"m": _jitter(rng, 850)}),
        ("blocked_diagonal", (64, 64), {"m": _jitter(rng, 500)}),
        ("blocked_diagonal", (12,) * 4, {"m": _jitter(rng, 1600)}),
    ]


def _build_and_evaluate(tr: Tracer, kind: str, sizes, params) -> dict:
    span, build = CONSTRUCTIONS[kind]
    m = params.get("m", prod(sizes))
    a = tr.call(span, build, sizes, params, work={"cells": m})
    text = tr.call("core.to_json", a.to_json)
    b = tr.call("core.from_json", Arrangement.from_json, text)
    spreads = {
        l: tr.call("core.max_spread", max_spread, b, l, work={"slices": slice_count(sizes, l)}).max_spread
        for l in range(1, len(sizes) + 1)
    }
    lines = {"slices": slice_count(sizes, 1)}
    smalls = tr.call("core.smalls_sequence", smalls_sequence, b, 1, work=lines)
    bigs = tr.call("core.bigs_sequence", bigs_sequence, b, 1, work=lines)
    profile = tr.call("quantizer_sim.distortion_profile", distortion_profile, ChannelSystem(b))
    return {"built_grid": a.grid, "grid": b.grid, "spreads": spreads, "smalls": smalls, "bigs": bigs, "D": profile.D}


def construct_jobs(seed: int, smoke: bool) -> list[Job]:
    jobs = []
    for kind, sizes, params in construct_specs(seed, smoke):
        m = params.get("m", prod(sizes))
        label = " ".join([kind, "x".join(map(str, sizes))] + [f"{k}={v}" for k, v in params.items()])
        jobs.append(
            Job(
                label,
                lambda tr, kind=kind, sizes=sizes, params=params: _build_and_evaluate(tr, kind, sizes, params),
                lambda out, kind=kind, m=m, order=params.get("order"): checks.check_construction(
                    out, kind, m, order, seed
                ),
            )
        )
    return jobs


# -- certify ---------------------------------------------------------------

# (instance name, sizes, m, l, mode)
ORACLE_JOBS = (
    ("3x3", (3, 3), None, 1, FULL),
    ("2x2x2.l1", (2, 2, 2), None, 1, FULL),
    ("2x2x2.l2", (2, 2, 2), None, 2, FULL),
    ("3x3.m6", (3, 3), 6, 1, FULL),
    ("4x4.mono", (4, 4), None, 1, MONOTONE),
    ("3x6.mono", (3, 6), None, 1, MONOTONE),
    ("2x2x2x2.mono", (2, 2, 2, 2), None, 1, MONOTONE),
)
SANDWICH_CUBES = ((64, 2), (16, 3), (8, 4), (5, 5))
DOMINANCE = (2, 3)


def _oracle(tr: Tracer, name, sizes, m, l, mode):
    cfg = SearchConfig(shape=Shape(sizes), m=m, l=l, mode=mode)
    value, witness = tr.call(
        "oracle.brute_force_optimal", brute_force_optimal, cfg, work={"instance": name}
    )
    return value, witness.grid


def _sandwich(tr: Tracer, n: int, k: int):
    report = tr.call("bounds.bounds_report", bounds_report, n, k, ls=tuple(range(1, k + 1)))
    a = tr.call("merge.herringbone_merge", herringbone_merge, n, k, work={"cells": n**k})
    spreads = {
        l: tr.call("core.max_spread", max_spread, a, l, work={"slices": slice_count((n,) * k, l)}).max_spread
        for l in range(1, k + 1)
    }
    return report.to_json_dict(), spreads, a.grid


def certify_jobs(seed: int, smoke: bool) -> list[Job]:
    oracle_jobs = [j for j in ORACLE_JOBS if j[0] in ("2x2x2.l1", "3x3.m6")] if smoke else ORACLE_JOBS
    cubes = ((5, 2), (3, 3)) if smoke else SANDWICH_CUBES
    n_dom, k_dom = (2, 2) if smoke else DOMINANCE
    jobs = [
        Job(
            f"oracle {name} l={l} {mode}" + (f" m={m}" if m else ""),
            lambda tr, spec=(name, sizes, m, l, mode): _oracle(tr, *spec),
            lambda out, sizes=sizes, m=m, l=l, mode=mode: checks.check_oracle(out[0], out[1], sizes, m, l, mode),
        )
        for name, sizes, m, l, mode in oracle_jobs
    ]
    jobs += [
        Job(
            f"sandwich {n}^{k}",
            lambda tr, n=n, k=k: _sandwich(tr, n, k),
            lambda out, n=n, k=k: checks.check_sandwich(out[0], out[1], out[2], n, k),
        )
        for n, k in cubes
    ]
    jobs.append(
        Job(
            f"verify_smalls_dominance {n_dom}^{k_dom}",
            lambda tr: tr.call("oracle.verify_smalls_dominance", verify_smalls_dominance, n_dom, k_dom),
            lambda ok: [] if ok is True else ["herringbone smalls do not dominate"],
        )
    )
    random.Random(seed).shuffle(jobs)
    return jobs


# -- erasure ---------------------------------------------------------------

ERASURE_PS = (0.05, 0.2, 0.4)


def erasure_setup(tr: Tracer, smoke: bool) -> dict:
    if smoke:
        built = [
            ("merge 3^3", tr.call("merge.herringbone_merge", herringbone_merge, 3, 3, work={"cells": 27})),
            ("diagonal 5^2 m=9", tr.call("diagonal.diagonal_in_cube", diagonal_in_cube, 5, 2, 9, work={"cells": 9})),
        ]
    else:
        built = [
            (f"merge {n}^{k}", tr.call("merge.herringbone_merge", herringbone_merge, n, k, work={"cells": n**k}))
            for n, k in ((16, 3), (10, 4), (9, 3))
        ]
        built += [
            ("diagonal 32^3 m=2000", tr.call("diagonal.diagonal_in_cube", diagonal_in_cube, 32, 3, 2000, work={"cells": 2000})),
            ("blocked 16^4 m=5000", tr.call("diagonal.blocked_diagonal", blocked_diagonal, 16, 4, 5000, work={"cells": 5000})),
        ]
    return {"arrangements": built, "decode_targets": [a for _, a in built]}


def _simulate(tr: Tracer, a: Arrangement, p: float, trials: int, sim_seed: int, forced):
    return tr.call(
        "quantizer_sim.simulate",
        simulate,
        ChannelSystem(a),
        p,
        trials,
        sim_seed,
        forced_mask=forced,
        work=lambda r: {"trials": r.trials, "decoded": r.trials - r.all_failed_trials},
    )


def erasure_jobs(inputs: dict, seed: int, smoke: bool) -> list[Job]:
    rng = random.Random(seed)
    trials = 500 if smoke else 40_000
    jobs = []
    for label, a in inputs["arrangements"]:
        k = a.shape.k
        runs = [(p, None) for p in ERASURE_PS] + [(0.2, rng.randrange(1, 2**k - 1))]
        for p, forced in runs:
            sim_seed = rng.randrange(2**32)
            jobs.append(
                Job(
                    f"simulate {label} p={p}" + (f" forced={forced}" if forced is not None else ""),
                    lambda tr, a=a, p=p, s=sim_seed, f=forced: _simulate(tr, a, p, trials, s, f),
                    lambda report, a=a, f=forced: checks.check_simulation(report, a, f),
                )
            )
    rng.shuffle(jobs)
    return jobs


# -- decode batch (every workload) -------------------------------------------


class DecodeBatch:
    """Seeded single ``decode()`` calls on the workload's arrangements.

    The worker runs them in slices between jobs, so the samples spread over
    the whole pass instead of one short window; each call is timed on its
    own and checked afterwards.
    """

    def __init__(self, targets: list[Arrangement], seed: int, calls: int):
        rng = np.random.default_rng(seed)
        self.targets = targets
        self.systems = [ChannelSystem(a) for a in targets]
        self.queries = []
        for _ in range(calls):
            t = int(rng.integers(len(targets)))
            a = targets[t]
            k = a.shape.k
            x = int(rng.integers(a.m))
            pattern = FailurePattern(int(rng.integers(2**k - 1)), k)
            cell = a.cell_of(x)
            received = [None if pattern.mask >> j & 1 else cell[j] for j in range(k)]
            self.queries.append((t, x, pattern, received))
        self.answers: list = []

    def run(self, tr: Tracer, count: int) -> list[int]:
        """Make the next ``count`` calls; their latencies in ns."""
        latencies = []
        done = len(self.answers)
        for t, x, pattern, received in self.queries[done : done + count]:
            start = time.perf_counter_ns()
            answer = tr.call("quantizer_sim.decode", decode, received, pattern, self.systems[t])
            latencies.append(time.perf_counter_ns() - start)
            self.answers.append(answer)
        return latencies

    def problems(self) -> list[str]:
        problems = []
        for (t, x, pattern, received), (interval, estimate) in zip(self.queries, self.answers):
            problems += checks.check_decode(x, received, pattern.mask, interval, estimate, self.targets[t].grid)
        return problems


# -- cli -------------------------------------------------------------------


def cli_setup(tr: Tracer, smoke: bool, workdir: Path) -> dict:
    """Write the arrangement files the spread, simulate and render jobs read."""
    n3, n2, big = (3, 4, 6) if smoke else (9, 12, 64)
    arrangements = {
        "cube": tr.call("merge.herringbone_merge", herringbone_merge, n3, 3, work={"cells": n3**3}),
        "grid": tr.call("herringbone.herringbone_min", herringbone_min, Shape((n2, n2)), work={"cells": n2**2}),
        "big": tr.call("herringbone.herringbone_min", herringbone_min, Shape((big, big)), work={"cells": big**2}),
    }
    paths = {}
    for key, a in arrangements.items():
        paths[key] = workdir / f"{key}.json"
        paths[key].write_text(tr.call("core.to_json", a.to_json), encoding="utf-8")
    return {"arrangements": arrangements, "paths": paths, "decode_targets": [arrangements["cube"]]}


def _run_cli(tr: Tracer, argv: list[str], expected: int, out_file: Path | None):
    def work(proc):
        written = out_file.stat().st_size if out_file and out_file.exists() else 0
        return {"ok": int(proc.returncode == expected), "out_bytes": len(proc.stdout) + written}

    proc = tr.call(
        f"cli.{argv[0]}",
        subprocess.run,
        [sys.executable, "-m", "spreadlab", *argv],
        capture_output=True,
        cwd=ROOT,
        timeout=CLI_TIMEOUT_S,
        work=work,
    )
    out_text = out_file.read_text(encoding="utf-8") if out_file and out_file.exists() else None
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode(), out_text


def _expect_build(method: str, sizes: tuple[int, ...], m: int | None) -> Arrangement:
    shape = Shape(sizes)
    n, k = sizes[0], len(sizes)
    if method == "herringbone":
        return herringbone_recursive(HerringboneSpec(shape))
    if method == "merge":
        return herringbone_merge(n, k)
    if method == "diagonal":
        return diagonal_in_cube(n, k, m)
    if method == "blocked":
        return blocked_diagonal(n, k, m)
    if method == "rowmajor":
        return Arrangement.from_value_order(shape, list(shape.cells()))
    return Arrangement.from_value_order(shape, [(i,) * k for i in range(n)])


def _json_doc(text: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _csv_rows(text: str, header: str) -> tuple[list[list[int]], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"csv header {lines[:1]} != {header!r}"]
    try:
        return [[int(v) for v in line.split(",")] for line in lines[1:]], []
    except ValueError:
        return [], ["csv rows are not integers"]


BOUNDS_HEADER = "n,k,l,theorem1_lb,exact_pairing_lb,merge_ub"


def cli_jobs(inputs: dict, seed: int, smoke: bool, workdir: Path) -> list[Job]:
    rng = random.Random(seed)
    paths = {key: str(p) for key, p in inputs["paths"].items()}
    arr = inputs["arrangements"]
    cube, grid2, big = arr["cube"].grid, arr["grid"].grid, arr["big"].grid
    specs = []  # (argv, expected exit, checker(stdout, out_text) -> problems, known defect)

    def spread_text(out, _):
        head = out.splitlines()[0] if out else ""
        want = f"l=1 max_spread={checks.worst_spread(cube, 1)} "
        return [] if head.startswith(want) else [f"first line {head!r}, expected {want!r}..."]

    def per_slice_text(out, _):
        lines = out.splitlines()
        want = 1 + sum(checks.slice_extrema(cube, (d,))[0].size for d in range(cube.ndim))
        return spread_text(out, _) + ([] if len(lines) == want else [f"{len(lines)} lines, expected {want}"])

    # Every method once; half write to stdout, half to --out.
    builds = [("merge", (3, 3, 3), None, False)] if smoke else [
        ("herringbone", (8, 8, 8), None, False),
        ("merge", (9, 9, 9), None, True),
        ("diagonal", (16, 16), 70, False),
        ("blocked", (16, 16), 70, True),
        ("rowmajor", (4, 4), None, False),
        ("replicate", (5, 5), None, True),
    ]
    for method, sizes, m, to_file in builds:
        argv = ["build", "--shape", "x".join(map(str, sizes)), "--method", method]
        argv += ["--m", str(m)] if m else []
        argv += ["--out", "{out}"] if to_file else []

        def build_check(out, out_text, method=method, sizes=sizes, m=m, to_file=to_file):
            return checks.check_arrangement_json((out_text or "") if to_file else out, _expect_build(method, sizes, m))

        specs.append((argv, 0, build_check, None))
    specs.append((["spread", "--arrangement", paths["cube"], "--l", "1", "--per-slice"], 0, per_slice_text, PER_SLICE_DEFECT))
    specs.append((["build", "--shape", "0x3", "--method", "merge"], 2, lambda out, _: [], None))
    if not smoke:
        specs += _cli_full_specs(rng, paths, cube, grid2, big, spread_text)

    jobs = []
    for i, (argv, expected, checker, defect) in enumerate(specs):
        out_file = workdir / f"out-{i}.txt" if "{out}" in argv else None
        argv = [str(out_file) if a == "{out}" else a for a in argv]

        def check(result, expected=expected, checker=checker):
            code, out, err, out_text = result
            return checks.check_exit(code, expected, err) or checker(out, out_text)

        jobs.append(
            Job(
                " ".join(a if not a.startswith(str(workdir)) else Path(a).name for a in argv),
                lambda tr, argv=argv, expected=expected, out_file=out_file: _run_cli(tr, argv, expected, out_file),
                check,
                defect,
            )
        )
    rng.shuffle(jobs)
    return jobs


def _cli_full_specs(rng, paths, cube, grid2, big, spread_text):
    specs = []

    def spread_json(out, _):
        doc, problems = _json_doc(out)
        want = checks.worst_spread(cube, 2)
        if doc and doc.get("max_spread") != want:
            problems.append(f"l=2 max_spread {doc.get('max_spread')}, reference {want}")
        return problems

    def simulate_json(out, _):
        doc, problems = _json_doc(out)
        if doc is None:
            return problems
        want = [checks.pattern_spread(cube, t) for t in range(2**cube.ndim - 1)]
        if doc["D"] != want:
            problems.append(f"D {doc['D']} != reference {want}")
        counted = doc["all_failed_trials"] + sum(s["count"] for s in doc["empirical"]["per_pattern"].values())
        if doc["trials"] != 10000 or counted != 10000:
            problems.append(f"{counted} of {doc['trials']} trials accounted for, 10000 asked")
        return problems

    def bounds_csv(out, _):
        rows, problems = _csv_rows(out, BOUNDS_HEADER)
        if [r[:3] for r in rows] != [[5, 3, l] for l in (1, 2, 3)]:
            problems.append("bounds csv rows are not n=5, k=3, l=1..3")
        if any(not r[3] <= rows[0][4] or not r[4] <= r[5] for r in rows):
            problems.append("bounds csv violates theorem1 <= exact_pairing <= ub")
        return problems

    def bounds_json(out, _):
        doc, problems = _json_doc(out)
        if doc and not doc["theorem1_lb"] <= doc["exact_pairing_lb"]["1"] <= doc["merge_ub"]:
            problems.append("bounds json violates theorem1 <= exact_pairing <= merge_ub")
        if doc and sorted(doc["exact_pairing_lb"]) != ["1", "2", "3"]:
            problems.append("bounds json lacks l=1..3")
        return problems

    def oracle_cube(out, _):
        doc, problems = _json_doc(out)
        if doc is None:
            return problems
        witness = Arrangement.from_json_dict(doc["witness"]).grid
        return checks.check_oracle(doc["optimal_spread"], witness, (2, 2, 2), None, 1, FULL)

    def oracle_monotone(out, witness_text):
        if not out.startswith("optimal_spread="):
            return [f"stdout {out!r} lacks optimal_spread="]
        witness = Arrangement.from_json(witness_text or "{}").grid
        return checks.check_oracle(int(out.split("=")[1]), witness, (4, 4), None, 1, MONOTONE)

    def render_text(out, _):
        rows = [[int(v) for v in line.split()] for line in out.splitlines()]
        return [] if np.array_equal(np.array(rows), grid2) else ["rendered grid differs from the arrangement"]

    def render_plot(out, plot_text):
        lines = (plot_text or "").splitlines()
        if lines[:1] != ["x,y,value"]:
            return ["plot data lacks its x,y,value header"]
        triples = np.array([[int(v) for v in line.split(",")] for line in lines[1:]])
        got = np.full(big.shape, -1)
        got[triples[:, 0], triples[:, 1]] = triples[:, 2]
        return [] if np.array_equal(got, big) else ["plot data differs from the arrangement"]

    def table_csv(out, _):
        rows, problems = _csv_rows(out, BOUNDS_HEADER)
        if [r[:2] for r in rows] != [[n, k] for k in range(2, 5) for n in range(2, 10)]:
            problems.append("table rows are not n=2..9 for k=2..4")
        if any(r[3] > r[4] for r in rows):
            problems.append("table row with theorem1 bound above exact pairing bound")
        return problems

    specs += [
        (["spread", "--arrangement", paths["cube"], "--l", "1"], 0, spread_text, None),
        (["spread", "--arrangement", paths["cube"], "--l", "2", "--format", "json"], 0, spread_json, None),
        (["simulate", "--arrangement", paths["cube"], "--trials", "10000", "--p", "0.2",
          "--seed", str(rng.randrange(2**32))], 0, simulate_json, None),
        (["bounds", "--shape", "5x5x5", "--l-max", "3", "--format", "csv"], 0, bounds_csv, None),
        (["bounds", "--shape", "5x5x5", "--l-max", "3", "--format", "json"], 0, bounds_json, None),
        (["oracle", "--shape", "2x2x2"], 0, oracle_cube, None),
        (["oracle", "--shape", "4x4", "--mode", MONOTONE, "--out", "{out}"], 0, oracle_monotone, None),
        (["render", "--arrangement", paths["grid"]], 0, render_text, None),
        (["render", "--arrangement", paths["big"], "--plot-data", "{out}"], 0, render_plot, None),
        (["table", "--n-max", "9", "--k-max", "4"], 0, table_csv, None),
        (["oracle", "--shape", "4x4"], 3, lambda out, _: [], None),
    ]
    return specs


# -- registry --------------------------------------------------------------


def setup(name: str, tr: Tracer, smoke: bool, workdir: Path) -> dict:
    """The workload's fixed inputs, built inside the set-up time.

    Every workload decodes on arrangements of its own (erasure, cli) or,
    having none, on a merged 9^3 cube.
    """
    if name == "erasure":
        return erasure_setup(tr, smoke)
    if name == "cli":
        return cli_setup(tr, smoke, workdir)
    n = 3 if smoke else 9
    return {"decode_targets": [tr.call("merge.herringbone_merge", herringbone_merge, n, 3, work={"cells": n**3})]}


def jobs(name: str, inputs: dict, seed: int, smoke: bool, workdir: Path) -> list[Job]:
    if name == "construct":
        return construct_jobs(seed, smoke)
    if name == "certify":
        return certify_jobs(seed, smoke)
    if name == "erasure":
        return erasure_jobs(inputs, seed, smoke)
    return cli_jobs(inputs, seed, smoke, workdir)
