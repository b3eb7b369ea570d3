"""One pass of one workload, in a fresh process.

``run.py`` starts this module once per pass (and once per extra set-up
sample), so every pass pays what a fresh process pays: imports, the
workload's fixed inputs, and every cache spreadlab keeps cold.  The last
line of standard output is one JSON document with the pass's timings,
job outcomes and, when traced, its spans.

    python3 -m perfbench.worker --workload construct --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from . import workloads
from .tracing import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"
DECODE_CALLS = 3000
SMOKE_DECODE_CALLS = 40
CAL_AFTER_SETUP = 6
CAL_AFTER_JOB = 3
_CAL_CUBE = np.arange(4096).reshape(16, 16, 16)


def calibration_kernel() -> None:
    """Fixed interpreter and numpy work that shares nothing with spreadlab.

    The host's speed swings by tens of percent over seconds to minutes;
    timing this kernel between jobs measures the swing so ``run.py`` can
    scale it out.
    """
    counts: dict = {}
    for i in range(4000):
        key = (i % 17, i % 13, i % 11)
        counts[key] = counts.get(key, 0) + 1
    for axis in range(3):
        _CAL_CUBE.max(axis=axis)
        _CAL_CUBE.min(axis=axis)


def setup(workload: str, tr: Tracer, seed: int, smoke: bool, workdir: Path):
    """Fixed inputs, the job list, and the monotonic time at which the
    first job is ready."""
    inputs = workloads.setup(workload, tr, smoke, workdir)
    job_list = workloads.jobs(workload, inputs, seed, smoke, workdir)
    return inputs, job_list, time.monotonic()


def calibrate(n: int) -> list[float]:
    """``n`` timed runs of the calibration kernel."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - start)
    return samples


def settle_and_calibrate() -> list[float]:
    """Calibration samples taken right after set-up, after one warm-up."""
    calibration_kernel()
    return calibrate(CAL_AFTER_SETUP)


def run_jobs(job_list, tr: Tracer, batch: workloads.DecodeBatch) -> list[tuple]:
    """Run each job once, each followed by the next slice of the decode
    batch and a few calibration samples.

    Returns (job, output, error, seconds, decode slice ns, calibration s)
    per job.
    """
    per_job = -(-len(batch.queries) // len(job_list))
    results = []
    for i, job in enumerate(job_list):
        gc.collect()  # no job pays for the garbage of the one before
        t0 = time.perf_counter()
        with tr.job(str(i)):
            try:
                out, error = job.run(tr), None
            except Exception:
                out, error = None, traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - t0
        with tr.job(f"decode.{i}"):
            decode_ns = batch.run(tr, per_job)
        results.append((job, out, error, seconds, decode_ns, calibrate(CAL_AFTER_JOB)))
    return results


def judge(job, out, error) -> list[str]:
    """Problems of one finished job: its exception, or its check's findings."""
    if error is not None:
        return [error.strip().splitlines()[-1]]
    try:
        return job.check(out)
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=-2).strip().splitlines()[-1]]


def run_pass(workload: str, seed: int, traced: bool, smoke: bool, workdir: Path) -> dict:
    """Set up, run the job list once with the decode batch and calibration
    between jobs, then check everything.  ``pass_s`` is the jobs' time alone."""
    tr = Tracer(traced)
    inputs, job_list, ready_at = setup(workload, tr, seed, smoke, workdir)
    batch = workloads.DecodeBatch(inputs["decode_targets"], seed, SMOKE_DECODE_CALLS if smoke else DECODE_CALLS)
    cal_setup = settle_and_calibrate()
    results = run_jobs(job_list, tr, batch)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss

    jobs = []
    for job, out, error, seconds, decode_ns, cal in results:
        problems = judge(job, out, error)
        known = bool(problems) and job.known_defect is not None and job.known_defect in " ".join(problems)
        jobs.append(
            {
                "name": job.name,
                "s": seconds,
                "decode_ns": decode_ns,
                "cal_s": cal,
                "problems": problems,
                "known_defect": known,
            }
        )
    return {
        "ready_at": ready_at,
        "cal_s": cal_setup,
        "traced": traced,
        "pass_s": sum(job["s"] for job in jobs),
        "peak_rss_kb": peak_rss_kb,
        "jobs": jobs,
        "decode_problems": batch.problems()[:20],
        "spans": tr.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["construct", "certify", "erasure", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop once the first job is ready")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.setup_only:
            *_, ready_at = setup(args.workload, Tracer(False), args.seed, False, workdir)
            result = {"ready_at": ready_at, "cal_s": settle_and_calibrate()}
        else:
            result = run_pass(args.workload, args.seed, bool(args.trace), False, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
