"""Spans around the benchmark's calls into spreadlab, and the per-layer
metrics derived from them.

A span records one call from the benchmark into a public spreadlab function
(name ``<module>.<function>``), its start and end on the monotonic clock, the
job span that caused it and the job id.  Spans stay in memory and are written
out when the run ends.  With tracing off, ``Tracer.call`` is a plain call.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

SETUP_JOB = "setup"

# Oracle instances of the certify workload, by the names their spans carry.
ORACLE_INSTANCES = (
    "3x3",
    "2x2x2.l1",
    "2x2x2.l2",
    "3x3.m6",
    "4x4.mono",
    "3x6.mono",
    "2x2x2x2.mono",
)

# (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = (
    ("core.eval_s", "s", "lower"),
    ("core.json_s", "s", "lower"),
    ("core.calls", "count", "lower"),
    ("core.slices", "count", "higher"),
    ("herringbone.busy_s", "s", "lower"),
    ("herringbone.calls", "count", "lower"),
    ("herringbone.cells_per_s", "cells/s", "higher"),
    ("merge.busy_s", "s", "lower"),
    ("merge.calls", "count", "lower"),
    ("merge.cells_per_s", "cells/s", "higher"),
    ("diagonal.busy_s", "s", "lower"),
    ("diagonal.calls", "count", "lower"),
    ("diagonal.cells_per_s", "cells/s", "higher"),
    ("bounds.busy_s", "s", "lower"),
    ("bounds.calls", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.certified_frac", "ratio", "higher"),
    *((f"oracle.s.{name}", "s", "lower") for name in ORACLE_INSTANCES),
    ("quantizer_sim.simulate_s", "s", "lower"),
    ("quantizer_sim.trials_per_s", "trials/s", "higher"),
    ("quantizer_sim.profile_s", "s", "lower"),
    ("quantizer_sim.decode_calls", "count", "lower"),
    ("quantizer_sim.decoded_frac", "ratio", "higher"),
    ("cli.busy_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.ok_frac", "ratio", "higher"),
    ("cli.out_bytes", "B", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Records spans when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._job: tuple[int, str] | None = None

    def call(self, name: str, fn, *args, work=None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``.

        ``work`` is a dict of counts, or a function of the result giving
        one; it is evaluated after the span has ended.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self._record(name, start, time.perf_counter(), {**(work if isinstance(work, dict) else {}), "error": 1})
            raise
        end = time.perf_counter()
        self._record(name, start, end, work(result) if callable(work) else work)
        return result

    @contextmanager
    def job(self, job_id: str):
        """Job span enclosing the layer spans of one job."""
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        outer = self._job
        self._job = (span_id, job_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._job = outer
            self.spans[span_id] = {
                "id": span_id,
                "name": "job",
                "start": start,
                "end": end,
                "parent": None,
                "job": job_id,
                "work": None,
            }

    def _record(self, name, start, end, work):
        parent, job_id = self._job if self._job else (None, SETUP_JOB)
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "job": job_id,
                "work": work,
            }
        )


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per job span: its duration minus the time its child spans cover.

    That remainder is the benchmark's own work inside the job.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {
        s["job"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        for s in spans
        if s["name"] == "job"
    }


def layer_metrics(
    passes: list[list[dict]],
    traced_pass_s: list[float],
    untraced_pass_s: list[float],
    cli_startup_s: float,
) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the spans of each traced pass.

    Busy times, calls and counts are averaged over the traced passes;
    rates and fractions are taken over all of them together.  A layer the
    workload does not call reports zero.
    """
    n = len(passes)
    spans = [s for p in passes for s in p if s["name"] != "job"]

    def pick(*names):
        return [s for s in spans if s["name"] in names]

    def layer(prefix):
        return [s for s in spans if s["name"].startswith(prefix + ".")]

    def busy(group):
        return sum(s["end"] - s["start"] for s in group)

    def total(group, key):
        return sum((s["work"] or {}).get(key, 0) for s in group)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    core = layer("core")
    out["core.eval_s"] = busy(pick("core.max_spread", "core.smalls_sequence", "core.bigs_sequence")) / n
    out["core.json_s"] = busy(pick("core.to_json", "core.from_json")) / n
    out["core.calls"] = len(core) / n
    out["core.slices"] = total(core, "slices") / n
    for name in ("herringbone", "merge", "diagonal"):
        group = layer(name)
        out[f"{name}.busy_s"] = busy(group) / n
        out[f"{name}.calls"] = len(group) / n
        out[f"{name}.cells_per_s"] = ratio(total(group, "cells"), busy(group))
    group = layer("bounds")
    out["bounds.busy_s"] = busy(group) / n
    out["bounds.calls"] = len(group) / n
    group = layer("oracle")
    searches = pick("oracle.brute_force_optimal")
    out["oracle.busy_s"] = busy(group) / n
    out["oracle.calls"] = len(group) / n
    out["oracle.certified_frac"] = ratio(len(searches) - total(searches, "error"), len(searches))
    for instance in ORACLE_INSTANCES:
        mine = [s for s in searches if (s["work"] or {}).get("instance") == instance]
        out[f"oracle.s.{instance}"] = busy(mine) / n
    sims = pick("quantizer_sim.simulate")
    out["quantizer_sim.simulate_s"] = busy(sims) / n
    out["quantizer_sim.trials_per_s"] = ratio(total(sims, "trials"), busy(sims))
    out["quantizer_sim.profile_s"] = busy(pick("quantizer_sim.distortion_profile")) / n
    out["quantizer_sim.decode_calls"] = len(pick("quantizer_sim.decode")) / n
    out["quantizer_sim.decoded_frac"] = ratio(total(sims, "decoded"), total(sims, "trials"))
    group = layer("cli")
    out["cli.busy_s"] = busy(group) / n
    out["cli.calls"] = len(group) / n
    out["cli.ok_frac"] = ratio(total(group, "ok"), len(group))
    out["cli.out_bytes"] = total(group, "out_bytes") / n
    out["cli.startup_s"] = cli_startup_s
    out["trace.self_s"] = sum(sum(self_times(p).values()) for p in passes) / n
    out["trace.overhead_frac"] = (
        statistics.median(traced_pass_s) / statistics.median(untraced_pass_s) - 1
    )
    return out
