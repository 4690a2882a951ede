"""What the benchmark measures: workloads, metric names, units, bounds.

Every dataset/config literal of the benchmark lives here (nothing is read
from ``repro.experiments.scale`` or from any pipeline gate), and
``BENCHMARK.json`` at the repo root is :func:`manifest` written to disk — the
smoke test holds the two together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .tracer import SHARD_SPANS, SPANS

__all__ = [
    "Workload",
    "WORKLOADS",
    "END_TO_END",
    "SAME_SEED_BOUNDS",
    "PER_LAYER",
    "RUN_SECONDS",
    "ROOT",
    "build_dataset",
    "manifest",
    "load_manifest",
]

#: the repo root (``benchmarks/ledger/spec.py`` -> two levels up)
ROOT = Path(__file__).resolve().parents[2]

#: seconds one driver run measures for (``BENCHMARK.json`` ``run_seconds``)
RUN_SECONDS = 24

#: a traced repeat fails when its wrappers' own time (calls x the per-call
#: cost calibrated in that process, ``tracer.calibrate``) exceeds this share of
#: the rest of its cycle window.  The wall-clock ``trace_overhead`` is reported
#: beside it but cannot carry the limit: one traced/untraced pair of identical
#: runs differs by -26 ... +36 % on this box from host noise alone.
TRACE_OVERHEAD_LIMIT = 0.15


@dataclass(frozen=True)
class Workload:
    """One complete experiment: dataset + protocol + transport + run config."""

    name: str
    why: str
    #: ``repro.datasets`` generator: ``survey`` or ``synthetic``
    dataset: str
    dataset_args: dict
    f_like: int
    #: cycles run after the publication window inside the timed horizon; the
    #: rest of the drain (a seed-dependent number of near-empty cycles) runs
    #: after it, outside ``cycles_per_s``
    drain_cycles: int
    #: survey only: redraw the dataset until its like density is in this band
    like_density: tuple[float, float] | None = None
    #: uniform message-loss rate (0 = the paper's perfect transport)
    loss: float = 0.0
    shards: int = 1
    #: the single-process workload with the same inputs (sharding overhead)
    twin: str | None = None
    #: repeats of one ``run`` (the driver entry is time-bounded instead)
    repeats: int = 5
    #: ``dataset_args`` of the 30-user miniature the smoke test runs
    mini_args: dict = field(default_factory=dict)


# Survey taste structure.  The generator's defaults (8 groups over 15 topics)
# make like density swing 0.15-0.28 between seeds, which moved item traffic
# by +-29 % and F1 by +-21 %: a seed would be a different workload.  More
# groups and topics (same 1/5 focus share) plus the density band below hold
# traffic to +-3.5 % and F1 to +-2.6 % across seeds.
_SURVEY_TASTES = {"n_topics": 60, "n_groups": 32, "topics_per_group": 12}
_SURVEY_DENSITY = (0.196, 0.204)
_SURVEY_MINI = {
    "n_base_users": 30,
    "n_base_items": 24,
    "replication": 1,
    "n_topics": 6,
    "n_groups": 3,
    "topics_per_group": 2,
}
_SYNTHETIC = {
    "n_users": 450,
    "n_communities": 9,
    "items_per_community": 18,
    "size_ratio": 16.0,
    "publish_cycles": 22,
}
_SYNTHETIC_MINI = {
    "n_users": 30,
    "n_communities": 3,
    "items_per_community": 4,
    "size_ratio": 2.0,
    "publish_cycles": 5,
}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="survey-burst",
            why=(
                "flash crowd: 50 items/cycle into 240 users at fanout 16, so BEEP, "
                "receive_items, profiles and send_fanout dominate and in-flight "
                "copies stress memory; gossip is the control"
            ),
            dataset="survey",
            dataset_args={
                "n_base_users": 120,
                "n_base_items": 125,
                "replication": 2,
                "publish_cycles": 5,
                **_SURVEY_TASTES,
            },
            like_density=_SURVEY_DENSITY,
            f_like=16,
            drain_cycles=8,
            mini_args={**_SURVEY_MINI, "publish_cycles": 2},
        ),
        Workload(
            name="synthetic-steady",
            why=(
                "paper-shaped steady publication over 450 users: RPS, Vicinity, "
                "views and the native merge dominate, dissemination is the control "
                "(the reverse of survey-burst)"
            ),
            dataset="synthetic",
            dataset_args=_SYNTHETIC,
            f_like=10,
            drain_cycles=6,
            mini_args=_SYNTHETIC_MINI,
        ),
        Workload(
            name="survey-lossy",
            why=(
                "10 % uniform loss forces the scalar per-message path "
                "(receive_item, forward, send_item, Envelope, attempt); the "
                "batched methods get zero calls, so a gain that costs it shows"
            ),
            dataset="survey",
            dataset_args={
                "n_base_users": 120,
                "n_base_items": 90,
                "replication": 2,
                "publish_cycles": 18,
                **_SURVEY_TASTES,
            },
            like_density=_SURVEY_DENSITY,
            f_like=16,
            drain_cycles=6,
            loss=0.1,
            mini_args={**_SURVEY_MINI, "publish_cycles": 5},
        ),
        Workload(
            name="synthetic-shard2",
            why=(
                "synthetic-steady's inputs under RunConfig(shards=2): delta wire, "
                "shm mailboxes and barriers on the blocking path with exactly "
                "nproc workers; paired with its twin it gives the sharding overhead"
            ),
            dataset="synthetic",
            dataset_args=_SYNTHETIC,
            f_like=10,
            drain_cycles=6,
            shards=2,
            twin="synthetic-steady",
            repeats=3,
            mini_args=_SYNTHETIC_MINI,
        ),
    )
}

#: (name, unit, better, bound) — what a user of the simulator sees per run.
#: This bound is the one in ``BENCHMARK.json``: the driver holds runs with
#: *different seeds* to it, so it has to cover seed spread and host drift
#: (README, "End-to-end metrics") and is the contract's maximum throughout.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("cycles_per_s", "1/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("f1", "ratio", "higher", 0.25),
]

#: metric -> (bound, absolute?) that ``compare`` holds two result files of
#: *one seed* to.  There ``f1`` and ``peak_rss_mb`` repeat exactly and only the
#: host moves the times, so these are the issue's bounds, not the driver's.
SAME_SEED_BOUNDS: dict[str, tuple[float, bool]] = {
    "cycles_per_s": (0.10, False),
    "wall_s": (0.10, False),
    "setup_s": (0.15, False),
    "peak_rss_mb": (0.05, False),
    "f1": (0.005, True),
}

#: exact counts and ratios read from the program's own counters
_COUNTS: list[tuple[str, str, str]] = [
    ("network.stats.sent.rps", "count", "lower"),
    ("network.stats.sent.wup", "count", "lower"),
    ("network.stats.sent.item", "count", "lower"),
    ("network.stats.dropped.item", "count", "lower"),
    ("network.stats.msgs_per_user_cycle", "1/cycle", "lower"),
    ("simulation.events.deliveries", "count", "higher"),
    ("simulation.events.forwards", "count", "lower"),
    ("simulation.events.duplicates", "count", "lower"),
    ("simulation.events.useful_receipt_ratio", "ratio", "higher"),
    ("gossip.vicinity.scored_merge_ratio", "ratio", "lower"),
    ("gossip.views.bytes_per_node", "B", "lower"),
    ("core.profiles.bytes_per_node", "B", "lower"),
    ("simulation.wire.bytes_per_cycle", "B/cycle", "lower"),
    ("simulation.wire.frames", "count", "lower"),
    ("simulation.wire.ref_profiles", "count", "higher"),
    ("simulation.wire.full_profiles", "count", "lower"),
    ("simulation.wire.delta_profiles", "count", "lower"),
    ("simulation.wire.ref_ratio", "ratio", "higher"),
    ("simulation.wire.overflow_rows", "count", "lower"),
    ("simulation.sharding.chunk_retries", "count", "lower"),
    ("simulation.sharding.crc_failures", "count", "lower"),
]

#: (name, unit, better) of every per-layer metric, in print order
PER_LAYER: list[tuple[str, str, str]] = [
    *(
        metric
        for span in SPANS
        for metric in (
            (f"{span}.calls", "count", "lower"),
            (f"{span}.self_s", "s", "lower"),
            (f"{span}.share", "ratio", "lower"),
        )
    ),
    ("simulation.engine.loop.self_s", "s", "lower"),
    ("simulation.engine.cycle_ms_p50", "ms", "lower"),
    ("simulation.engine.cycle_ms_p90", "ms", "lower"),
    ("datasets.build_s", "s", "lower"),
    ("core.system.build_s", "s", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    *((f"{span}_s", "s", "lower") for span in SHARD_SPANS),
    ("simulation.sharding.overhead_ratio", "ratio", "higher"),
    *_COUNTS,
    ("trace_overhead", "ratio", "lower"),
    ("trace_overhead_wall", "ratio", "lower"),
]

#: per-layer metrics that repeat bit-for-bit at one (commit, seed)
EXACT = frozenset(
    [name for name, _u, _b in _COUNTS]
    + [f"{span}.calls" for span in SPANS]
)


def build_dataset(workload: Workload, seed: int, mini: bool = False):
    """The workload's dataset for *seed* (deterministic in it)."""
    from repro import datasets

    if workload.dataset == "synthetic":
        args = workload.mini_args if mini else workload.dataset_args
        return datasets.synthetic_dataset(seed=seed, **args)
    if mini:
        return datasets.survey_dataset(seed=seed, **workload.mini_args)
    low, high = workload.like_density
    for draw in range(1000):
        dataset = datasets.survey_dataset(
            seed=seed * 1000 + draw, **workload.dataset_args
        )
        if low <= float(dataset.likes.mean()) <= high:
            return dataset
    raise RuntimeError(
        f"{workload.name}: no survey dataset with like density in "
        f"[{low}, {high}] in 1000 draws from seed {seed}"
    )


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def load_manifest() -> dict:
    """``BENCHMARK.json`` as committed at the repo root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
