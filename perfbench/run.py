"""spreadlab benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Each pass over the workload's fixed job list runs in a fresh worker process
(``perfbench/worker.py``), one at a time; no threads, no pools.  Passes
repeat until about ``--seconds`` of pass time is measured.  Extra set-up-only
workers bring the set-up samples to ``SETUP_SAMPLES``.  Bytecode is compiled
before anything is timed, so every run reads warm ``.pyc`` files.

Host speed.  The hosts this runs on swing by 30-50% within seconds as their
neighbours load them.  Each worker times a fixed calibration kernel after
set-up and after every job, and every time below is scaled by
``CAL_REF_S`` over the median kernel time around it: it reads as seconds on
a host where the kernel takes ``CAL_REF_S``.  Each job's (and decode call's)
figure is then its median over the run's passes.

End-to-end metrics (``--trace 0``):

* ``setup_s`` - process start until the first job is ready: interpreter,
  imports, the workload's fixed inputs; median over ``SETUP_SAMPLES``.
* ``pass_s`` - one pass over the job list, i.e. the whole study: the sum of
  the jobs' figures.
* ``job_ms.p50`` / ``job_ms.p90`` - over the jobs' figures.
* ``peak_rss_mb`` - peak resident memory of a pass (cli: largest child).
* ``ok_frac`` - 1 - failed/attempted.  ``attempted`` counts every job and
  one decode batch per pass; a job fails on an exception, an unexpected
  exit code or a failed check.  Known defects count as failed but leave
  ``correct`` true.
* ``decode_us.p50`` / ``decode_us.p90`` - single ``quantizer_sim.decode()``
  calls, made in slices between the jobs of every pass.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.PER_LAYER`` instead (busy times unscaled,
per traced pass), then writes every span to
``perfbench/out/trace-<workload>-<seed>.json``.  What each layer should
move, and where:

* core (``eval_s``, ``json_s``, ``calls``, ``slices``): construct ``pass_s``
  (the JSON round trip rivals construction) and cli ``job_ms.p50``.
* herringbone, merge, diagonal (``busy_s``, ``calls``, ``cells_per_s``):
  construct ``pass_s`` and ``job_ms.p90``; merge also erasure ``setup_s``
  and the certify sandwich jobs; herringbone reaches certify only inside
  ``bounds``.
* bounds: certify ``pass_s``.  oracle: certify ``pass_s`` and ``job_ms.p90``;
  construct and erasure should not move.
* quantizer_sim: erasure ``pass_s``/``job_ms.p50`` (``simulate``) and
  ``decode_us.*`` (``decode``); construct only through
  ``distortion_profile``.
* cli: cli ``job_ms.p50``; ``cli.startup_s`` (``python -m spreadlab
  --help``) covers the import work that also moves every ``setup_s``.
* ``trace.self_s`` is the benchmark's own time inside job spans;
  ``trace.overhead_frac`` is traced over untraced ``pass_s``, minus 1.

The last line of standard output is the JSON result.  The run exits 1
without a result when a worker dies or the run would pass its deadline,
and 2 when the tree holds no ``src/spreadlab``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import PER_LAYER, layer_metrics  # noqa: E402

WORKLOADS = ("construct", "certify", "erasure", "cli")
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("decode_us.p50", "us"),
    ("decode_us.p90", "us"),
)
SETUP_SAMPLES = 5
# Reference time of worker.calibration_kernel: times are reported as they
# would read on a host where the kernel takes this long.
CAL_REF_S = 1e-3
STARTUP_SAMPLES = 3
DEADLINE_S = 170  # the whole run, set-up samples included
OUT_DIR = ROOT / "perfbench" / "out"


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def worker_env() -> dict:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")


def speed(samples: list[float]) -> float:
    """Reference over measured calibration time: multiplying a time by it
    scales out how fast the host ran while the samples were taken."""
    return CAL_REF_S / statistics.median(samples)


def job_speeds(p: dict) -> list[float]:
    """Per job, the speed from the calibration samples just before and just
    after it; the host changes speed within seconds, so a pass-wide figure
    fits single jobs worse."""
    speeds, before = [], p["cal_s"]
    for job in p["jobs"]:
        speeds.append(speed(before + job["cal_s"]))
        before = job["cal_s"]
    return speeds


def scaled_jobs(p: dict) -> list[float]:
    return [job["s"] * f for job, f in zip(p["jobs"], job_speeds(p))]


def scaled_decode_us(p: dict) -> list[float]:
    return [ns / 1e3 * f for job, f in zip(p["jobs"], job_speeds(p)) for ns in job["decode_ns"]]


def spawn(argv: list[str], deadline: float) -> tuple[dict, float, float]:
    """Run one worker; (its result, scaled seconds until ready, seconds until exit)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", *argv],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(argv)} passed the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}")
    result = json.loads(out.decode().splitlines()[-1])
    return result, (result["ready_at"] - start) * speed(result["cal_s"]), time.monotonic() - start


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float):
    """Passes until about ``seconds`` of pass time, then set-up samples.

    With ``trace`` passes alternate untraced/traced, at least one of each.
    """
    common = ["--workload", workload, "--seed", str(seed)]
    passes, setups = [], []
    measured = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        result, setup_s, wall = spawn(common + ["--trace", str(int(traced))], deadline)
        passes.append(result)
        setups.append(setup_s)
        measured += result["pass_s"]
        enough = len(passes) >= (2 if trace else 1)
        if enough and (measured + result["pass_s"] / 2 >= seconds or time.monotonic() + 2 * wall > deadline):
            break
    while len(setups) < SETUP_SAMPLES and time.monotonic() + 4 * max(setups) < deadline:
        setups.append(spawn(common + ["--setup-only"], deadline)[1])
    return passes, setups


def cli_startup(deadline: float) -> float:
    """Median wall time of ``python -m spreadlab --help``."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "spreadlab", "--help"],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            timeout=max(1.0, deadline - start),
        )
        if proc.returncode != 0:
            raise BenchError(f"spreadlab --help exited {proc.returncode}")
        samples.append(time.monotonic() - start)
    return statistics.median(samples)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def outcomes(passes: list[dict]) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, unexpected problems, known-defect problems)."""
    attempted = failed = 0
    unexpected, known = [], []
    for p in passes:
        attempted += len(p["jobs"]) + 1
        for job in p["jobs"]:
            if job["problems"]:
                failed += 1
                line = f"{job['name']}: {'; '.join(job['problems'])}"
                (known if job["known_defect"] else unexpected).append(line)
        if p["decode_problems"]:
            failed += 1
            unexpected.append(f"decode batch: {'; '.join(p['decode_problems'][:3])}")
    return attempted, failed, unexpected, known


def medians_by_position(samples: list[list[float]]) -> list[float]:
    """Median over passes of each job (or decode call), matched by position.

    Every pass runs the same jobs and calls in the same order.  The host
    switches between slower and faster states for seconds at a time; the
    median of each job over the passes keeps one state's figures instead of
    a mix whose proportions change from run to run.
    """
    return [statistics.median(column) for column in zip(*samples)]


def end_to_end(passes: list[dict], setups: list[float], attempted: int, failed: int):
    jobs_s = medians_by_position([scaled_jobs(p) for p in passes])
    decode_us = medians_by_position([scaled_decode_us(p) for p in passes])
    n = len(passes)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "pass_s": (sum(jobs_s), n),
        "job_ms.p50": (statistics.median(jobs_s) * 1e3, n * len(jobs_s)),
        "job_ms.p90": (p90(jobs_s) * 1e3, n * len(jobs_s)),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, n),
        "ok_frac": (1 - failed / attempted, attempted),
        "decode_us.p50": (statistics.median(decode_us), n * len(decode_us)),
        "decode_us.p90": (p90(decode_us), n * len(decode_us)),
    }
    units = dict(END_TO_END)
    return {name: (value, units[name], n) for name, (value, n) in values.items()}


def per_layer(passes: list[dict], deadline: float):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values = layer_metrics(
        [p["spans"] for p in traced],
        [sum(scaled_jobs(p)) for p in traced],
        [sum(scaled_jobs(p)) for p in untraced],
        cli_startup(deadline),
    )
    return {name: (values[name], unit, len(traced)) for name, unit, _ in PER_LAYER}


def header(workload: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spreadlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spreadlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "spreadlab" / "__init__.py").is_file():
        print(f"perfbench: no spreadlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for package in (ROOT / "src" / "spreadlab", ROOT / "perfbench"):
        compileall.compile_dir(package, quiet=2)

    run_header = header(args.workload, args.seed)
    # Workers and the CLI processes they start inherit one CPU, so the
    # calibration samples describe the CPU the jobs ran on.
    run_header["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {run_header["pinned_cpu"]})
    print("# " + json.dumps(run_header))
    try:
        passes, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
        attempted, failed, unexpected, known = outcomes(passes)
        metrics = per_layer(passes, deadline) if args.trace else end_to_end(passes, setups, attempted, failed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"# passes={len(passes)} traced={sum(p['traced'] for p in passes)} attempted={attempted} failed={failed}")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:32s} {value:14.6g} {unit:8s} n={n}")
    for line in known:
        print(f"# known defect, counted as failed: {line}")
    for line in unexpected:
        print(f"# FAILED {line}")
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "header": run_header,
                    "metrics": {name: value for name, (value, _, _) in metrics.items()},
                    "passes": [
                        {"traced": p["traced"], "pass_s": p["pass_s"], "spans": p["spans"]} for p in passes
                    ],
                }
            ),
            encoding="utf-8",
        )
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
