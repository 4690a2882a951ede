"""The closed-loop harness: one client, one fresh child process per repeat.

:class:`Ledger` runs repeats of the workloads (``child.py``, one at a time,
so at most ``nproc`` = 2 processes are busy, and only under the 2-shard
workload), checks every repeat's outputs, and reduces the repeats to the
metrics named in ``BENCHMARK.json``: the end-to-end metrics from untraced
repeats, the per-layer ledger from separate traced repeats.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from .spec import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    TRACE_OVERHEAD_LIMIT,
    WORKLOADS,
    Workload,
)
from .tracer import SHARD_SPANS, SPANS

__all__ = ["Ledger", "prepare", "summarise", "format_table"]

#: a repeat that has not finished by then is killed and its cycles fail
CHILD_TIMEOUT_S = 150.0

#: accepted drop share of the 10 %-loss workload
LOSSY_DROP_BAND = (0.08, 0.12)


def prepare() -> dict:
    """One-off preparation plus the host guard recorded with every result.

    Builds the native kernels in place when they are missing (a fresh
    checkout has none) and raises when that fails: the benchmark measures
    the default ``RunConfig()`` stack, never a silent fallback tier.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import numpy

    from repro import _native

    prebuilt = _native.native_available()
    t0 = perf_counter()
    built = _native.ensure_built() is not None
    build_s = perf_counter() - t0
    if not built:
        raise RuntimeError(
            "native kernels could not be built (cffi and a C compiler are "
            "needed); the benchmark does not measure the fallback tiers"
        )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "native": "prebuilt" if prebuilt else "built",
        "native_build_s": 0.0 if prebuilt else build_s,
        "git_commit": commit,
    }


def _spawn(spec: dict) -> dict:
    """Run one child to completion; its result, or ``{"error": ...}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned_at = time.time()
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "benchmarks.ledger.child",
                json.dumps({**spec, "spawned_at": spawned_at}),
            ],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f}s"}
    wall_s = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"error": f"child exited with code {proc.returncode}"}
    result = json.loads(lines[-1])
    result["wall_s"] = wall_s
    return result


def _window(result: dict) -> float:
    """Host seconds of a repeat's cycle window (timed horizon plus drain tail).

    A traced repeat's window is net of its wrappers' own calibrated time, as
    its span self times are.
    """
    return result["cycle_s"] + result["drain_s"] - result.get("wrapper_s", 0.0)


def summarise(values: list[float]) -> dict:
    """Median, quartiles and sample count of *values* (kept, in run order)."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


class Ledger:
    """Repeats of the workloads at one seed, and the metrics they reduce to."""

    def __init__(self, seed: int, mini: bool = False) -> None:
        self.seed = seed
        self.mini = mini
        #: workload -> untraced / traced child results, in run order
        self.untraced: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
        self.traced: dict[str, list[dict]] = {name: [] for name in WORKLOADS}

    # -- running -------------------------------------------------------------

    def repeat(
        self, name: str, trace: bool = False, trace_out: Path | None = None
    ) -> dict:
        """One more repeat of workload *name* in a fresh child process."""
        spec = {"workload": name, "seed": self.seed, "trace": trace, "mini": self.mini}
        if trace_out is not None:
            spec["trace_out"] = str(trace_out)
        result = _spawn(spec)
        self.add(name, result, trace)
        return result

    def add(self, name: str, result: dict, trace: bool) -> None:
        """Record a repeat's result (also used by the in-process smoke test)."""
        (self.traced if trace else self.untraced)[name].append(result)

    # -- checking ------------------------------------------------------------

    def _problems(
        self, workload: Workload, result: dict, reference: dict | None
    ) -> list[str]:
        """Why this repeat's cycles count as failed (empty: they pass)."""
        if "error" in result:
            return [result["error"]]
        problems = []
        if reference is not None and result["digest"] != reference["digest"]:
            problems.append("outcome_digest differs from the first repeat")
        if reference is not None and result["f1"] != reference["f1"]:
            problems.append("f1 differs from the first repeat")
        counts = result["counts"]
        if workload.loss:
            low, high = LOSSY_DROP_BAND
            if not low <= result["drop_share"] <= high:
                problems.append(
                    f"drop share {result['drop_share']:.4f} outside [{low}, {high}]"
                )
        elif result["drop_share"] != 0.0:
            problems.append(
                f"{result['drop_share']:.4f} of messages dropped, lossless transport"
            )
        if (
            counts["simulation.sharding.crc_failures"]
            or counts["simulation.sharding.chunk_retries"]
        ):
            problems.append("crc failures or chunk retries on the mailbox link")
        overhead = result.get("wrapper_s", 0.0) / _window(result)
        if overhead > TRACE_OVERHEAD_LIMIT:
            problems.append(
                f"trace_overhead {overhead:.3f}: the wrappers took more than "
                f"{TRACE_OVERHEAD_LIMIT:.0%} of the rest of the cycle window"
            )
        return problems

    def check(self, name: str) -> tuple[int, int, list[str]]:
        """``(attempted, failed, problems)`` in cycles over all repeats of *name*."""
        workload = WORKLOADS[name]
        runs = self.untraced[name] + self.traced[name]
        reference = next((r for r in runs if "error" not in r), None)
        nominal = reference["cycles"] if reference is not None else 1
        attempted = failed = 0
        problems: list[str] = []
        for index, result in enumerate(runs):
            cycles = result.get("cycles", nominal)
            attempted += cycles
            found = self._problems(
                workload, result, None if result is reference else reference
            )
            if found:
                failed += cycles
                problems += [f"{name} repeat {index}: {p}" for p in found]
        return attempted, failed, problems

    # -- reducing ------------------------------------------------------------

    def completed(self, name: str, trace: bool) -> list[dict]:
        """The repeats of *name* that ran to the end (checked or not)."""
        runs = (self.traced if trace else self.untraced)[name]
        return [r for r in runs if "error" not in r]

    def end_to_end(self, name: str) -> dict[str, dict]:
        """``{metric: summary}`` over the untraced repeats of *name*."""
        runs = self.completed(name, trace=False)
        return {
            metric: {"unit": unit, **summarise([r[metric] for r in runs])}
            for metric, unit, _better, _bound in END_TO_END
        }

    def trace_overhead_wall(self, name: str) -> float:
        """Median over the adjacent pairs of traced over untraced window, minus one.

        Every traced repeat runs right after the untraced repeat of the same
        index.  Good to about +-0.1 with three pairs (README), so it is
        reported, not held to the limit; 0.0 without a completed pair.
        """
        ratios = [
            (t["cycle_s"] + t["drain_s"]) / _window(u) - 1.0
            for u, t in zip(self.untraced[name], self.traced[name], strict=False)
            if "error" not in u and "error" not in t
        ]
        return statistics.median(ratios) if ratios else 0.0

    def per_layer(self, name: str) -> dict[str, float]:
        """Every per-layer metric of *name*, from its traced repeats."""
        runs = self.completed(name, trace=True)
        first = runs[0]
        windows = [_window(r) for r in runs]
        med = statistics.median
        out: dict[str, float] = {}
        for span in SPANS:
            spans = [r["spans"][span] for r in runs]
            out[f"{span}.calls"] = spans[0]["calls"]
            out[f"{span}.self_s"] = med(s["self_s"] for s in spans)
            out[f"{span}.share"] = med(
                s["self_s"] / w for s, w in zip(spans, windows, strict=True)
            )
        # the window (net of the wrappers) minus every span that runs inside
        # it (start, collect and close of a sharded run happen outside)
        inside = [*SPANS, "simulation.sharding.run"]
        out["simulation.engine.loop.self_s"] = med(
            w - sum(r["spans"][s]["self_s"] for s in inside)
            for r, w in zip(runs, windows, strict=True)
        )
        out["simulation.engine.cycle_ms_p50"] = med(med(r["cycle_ms"]) for r in runs)
        out["simulation.engine.cycle_ms_p90"] = med(
            statistics.quantiles(r["cycle_ms"], n=10, method="inclusive")[-1]
            for r in runs
        )
        for phase in ("datasets.build_s", "core.system.build_s", "metrics.evaluate_s"):
            out[phase] = med(r["phases"][phase] for r in runs)
        for span in SHARD_SPANS:
            out[f"{span}_s"] = med(r["spans"][span]["inclusive_s"] for r in runs)
        twin = WORKLOADS[name].twin
        twin_runs = self.completed(twin, trace=False) if twin else []
        own_runs = self.completed(name, trace=False)
        out["simulation.sharding.overhead_ratio"] = (
            med(r["cycles_per_s"] for r in own_runs)
            / med(r["cycles_per_s"] for r in twin_runs)
            if twin_runs and own_runs
            else 0.0
        )
        out.update(first["counts"])
        merges = out["gossip.vicinity.merge.calls"]
        out["gossip.vicinity.scored_merge_ratio"] = (
            out["native.merge_rank.calls"] / merges if merges else 0.0
        )
        out["trace_overhead"] = med(
            r["wrapper_s"] / w for r, w in zip(runs, windows, strict=True)
        )
        out["trace_overhead_wall"] = self.trace_overhead_wall(name)
        return {metric: out[metric] for metric, _unit, _better in PER_LAYER}

    # -- the result document ---------------------------------------------------

    def document(self, host: dict) -> dict:
        """Everything measured, as written by ``run --out``."""
        doc = {"schema": 1, "seed": self.seed, "host": host, "workloads": {}}
        for name, workload in WORKLOADS.items():
            attempted, failed, problems = self.check(name)
            entry = {
                "valid_host": host["nproc"] >= workload.shards,
                "attempted": attempted,
                "failed": failed,
                "problems": problems,
                "repeats": [
                    {k: v for k, v in r.items() if k != "counts"}
                    for r in self.untraced[name]
                ],
            }
            if self.completed(name, trace=False):
                entry["end_to_end"] = self.end_to_end(name)
            if self.completed(name, trace=True):
                entry["per_layer"] = self.per_layer(name)
            doc["workloads"][name] = entry
        return doc


def format_table(doc: dict) -> str:
    """Every metric by name with unit, median, quartiles and sample count."""
    units = {name: unit for name, unit, _better in PER_LAYER}
    lines = []
    for name, entry in doc["workloads"].items():
        note = (
            ""
            if entry["valid_host"]
            else "  [valid_host: false — fewer cores than shards]"
        )
        lines.append(
            f"== {name}: {entry['attempted']} cycles attempted, "
            f"{entry['failed']} failed{note}"
        )
        for metric, s in entry.get("end_to_end", {}).items():
            lines.append(
                f"  {metric:<40} {s['median']:>14.4f} {s['unit']:<8} "
                f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}"
            )
        for metric, value in entry.get("per_layer", {}).items():
            lines.append(f"  {metric:<40} {value:>14.6g} {units[metric]}")
        lines += [f"  !! {problem}" for problem in entry["problems"]]
    return "\n".join(lines)
