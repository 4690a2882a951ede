"""End-to-end cycles/sec throughput benchmark (``BENCH_scale_throughput.json``).

Unlike the table/figure benchmarks (which reproduce paper artifacts), this
benchmark tracks the *simulator's* throughput — how many full WHATSUP cycles
per second a :class:`~repro.core.system.WhatsUpSystem` sustains — so the
performance trajectory of the hot paths (similarity scoring, gossip merges,
BEEP forwarding, the engine loop) is measured end to end, from this PR
onward.

Three fixed-seed scenarios:

* ``small-survey`` — the default CI-friendly scale;
* ``medium-survey`` — the acceptance scenario: the survey workload at
  ``medium`` scale with the paper-swept fanout 16 (heaviest per-user
  traffic, scoring-dominated merges);
* ``medium-synthetic`` — the Arxiv-like community workload at ``medium``
  scale (gossip-machinery-dominated).

Each scenario runs once per pipeline tier:

* **scalar** — per-pair scoring, one-envelope-at-a-time delivery
  (``batch_scoring(False)`` + ``delivery_batching(False)``): the pre-PR-1
  reference semantics;
* **batch** — pool-at-a-time similarity scoring (PR 1) plus the batched
  per-cycle delivery pipeline (PR 2), native kernels off;
* **native** — the batch stack with the compiled kernels of
  :mod:`repro._native` on top (PR 3's merge scoring+trim and BEEP
  fan-out in C), on the *legacy* dict/NamedTuple state structures.
  Skipped with a note when the extension is not built;
* **array** — the full stack on the array-backed state plane (PR 4:
  columnar views + the state bookkeeping kernels,
  ``REPRO_ARRAY_STATE``);
* **sharded** — the array stack with the cycle loop process-sharded
  across ``--shards`` workers (PR 5's ``repro.simulation.sharding``:
  shared-memory state arenas + columnar shard-boundary mailboxes,
  ``REPRO_SHARDS``).  The report records the host core count alongside
  ``sharded_cps`` — on boxes with fewer cores than shards the workers
  time-slice and the number measures overhead, not scale-out.  The
  sharded section additionally sweeps the cross-shard mailbox encoding
  (PR 7's ``repro.simulation.wire``: ``pickle`` / ``delta``), recording
  bytes/cycle and cps per tier plus the delta wire's reduction against
  the committed PR 6 pickle-wire baseline —
  byte counts are deterministic per configuration, so that acceptance
  is host-independent.

The array and native runs also report the resident footprint of the node
state (views + profiles, bytes/node via the ``storage_nbytes()`` facade)
so the columnar layout's memory story is tracked alongside throughput.

The run also verifies that all tiers leave *identical* outcomes after a
fixed-seed run: WUP and RPS view contents, user profiles, the full
delivery/forward event log, duplicate counts and traffic counters —
dissemination is provably unchanged by any of the acceleration machinery.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale_throughput.py
    PYTHONPATH=src python benchmarks/bench_scale_throughput.py --quick
    PYTHONPATH=src python benchmarks/bench_scale_throughput.py \
        --baseline-json seed_baseline.json   # merge pre-PR cycles/sec

``--baseline-json`` points at ``{"scenario-name": cycles_per_sec}``
measurements taken on the pre-PR tree, enabling ``speedup_vs_pre_pr``
(without it, the PR 2 tree's committed ``batch_cps`` values below serve
as the standing baseline for the native acceptance ratios).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.arraystate import array_state
from repro.core.similarity import (
    batch_scoring,
    native_available,
    native_kernel,
)
from repro.experiments.scale import SCALES
from repro.simulation.delivery import delivery_batching
from repro.simulation.sharding import shard_wire, sharding

#: benchmark seed (deterministic suite)
BENCH_SEED = 2

#: pipeline tier -> (batch gate, native gate, array-state gate)
MODES: dict[str, tuple[bool, bool, bool]] = {
    "scalar": (False, False, False),
    "batch": (True, False, False),
    "native": (True, True, False),
    "array": (True, True, True),
}

#: scenario name -> (scale, dataset, f_like, total cycles)
SCENARIOS: dict[str, dict] = {
    "small-survey": {
        "scale": "small",
        "dataset": "survey",
        "f_like": 8,
        "cycles": 60,
    },
    "medium-survey": {
        "scale": "medium",
        "dataset": "survey",
        "f_like": 16,
        "cycles": 80,
    },
    "medium-synthetic": {
        "scale": "medium",
        "dataset": "synthetic",
        "f_like": 10,
        "cycles": 40,
    },
    # the ISSUE's motivating case: the paper's Table I dimensions
    # (3180 users); few cycles keep the benchmark tractable — the ratio is
    # what is tracked
    "paper-synthetic": {
        "scale": "paper",
        "dataset": "synthetic",
        "f_like": 10,
        "cycles": 15,
    },
}

#: the committed PR 2 ``batch_cps`` values — the baseline PR 3's
#: acceptance ratio was measured against; kept inline so a rewritten JSON
#: cannot move its own goalposts
PR2_BASELINE_CPS = {
    "small-survey": 27.9672,
    "medium-survey": 5.2897,
    "medium-synthetic": 3.0984,
    "paper-synthetic": 0.6632,
}

#: the committed PR 3 ``native_cps`` values — the standing baseline the
#: PR 4 array-state acceptance ratio ("paired-median ≥1.3× cycles/sec
#: over the committed PR 3 baseline at medium/paper synthetic scale") is
#: measured against
PR3_BASELINE_CPS = {
    "small-survey": 38.274,
    "medium-survey": 7.1259,
    "medium-synthetic": 3.433,
    "paper-synthetic": 0.7265,
}

#: scenario -> target array-plane speedup over the committed PR 3 baseline
ACCEPTANCE_TARGETS = {
    "medium-synthetic": 1.3,
    "paper-synthetic": 1.3,
}

#: the committed PR 4 ``array_cps`` values — the standing baseline the
#: PR 5 sharding acceptance ratio ("≥1.8× paired-median cycles/sec at
#: paper-synthetic scale with 4 shards on a ≥4-core box") is measured
#: against; kept inline so a rewritten JSON cannot move its own goalposts
PR4_BASELINE_CPS = {
    "small-survey": 34.6757,
    "medium-survey": 6.7163,
    "medium-synthetic": 2.9581,
    "paper-synthetic": 0.63,
}

#: scenario -> target sharded speedup over the committed PR 4 baseline
#: (only meaningful on hosts with at least as many cores as shards)
SHARDED_ACCEPTANCE_TARGETS = {
    "paper-synthetic": 1.8,
}

#: the committed PR 6 ``mailbox.bytes_per_cycle`` values (the interned-
#: pickle wire at 4 shards) — the baseline the PR 7 columnar-delta-wire
#: acceptance ("≥4x fewer mailbox bytes/cycle at medium-synthetic")
#: is measured against; inline so a rewritten JSON cannot move the bar
PR6_BASELINE_MAILBOX = {
    "small-survey": 793832.7,
    "medium-survey": 6379859.7,
    "medium-synthetic": 7088024.7,
    "paper-synthetic": 32584839.9,
}

#: scenario -> target bytes/cycle reduction of the delta wire vs the
#: committed PR 6 pickle-wire baseline (byte counts are deterministic
#: per configuration, so this acceptance is host-independent)
WIRE_ACCEPTANCE_TARGETS = {
    "medium-synthetic": 4.0,
}

#: wire tiers swept in the sharded section (the default engine tier,
#: ``delta``, is the main sharded run itself)
WIRE_SWEEP_TIERS = ("pickle",)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_scale_throughput.json"


def build_system(spec: dict, seed: int = BENCH_SEED) -> WhatsUpSystem:
    scale = SCALES[spec["scale"]]
    dataset = scale.dataset(spec["dataset"], seed=seed)
    return WhatsUpSystem(dataset, WhatsUpConfig(f_like=spec["f_like"]), seed=seed)


def memory_report(system: WhatsUpSystem) -> dict:
    """Bytes/node of the resident node state (views + profiles).

    Read through the ``storage_nbytes()`` facade, so both state-plane
    backends are measured identically: the containers each backend owns,
    excluding the shared entry/snapshot objects.
    """
    n = max(1, len(system.nodes))
    views = 0
    profiles = 0
    for node in system.nodes:
        views += node.rps.view.storage_nbytes()
        views += node.wup.view.storage_nbytes()
        profiles += node.profile.storage_nbytes()
    return {
        "views_bytes_per_node": round(views / n, 1),
        "profiles_bytes_per_node": round(profiles / n, 1),
    }


def run_mode(
    spec: dict,
    mode: str,
    seed: int = BENCH_SEED,
    shards: int = 1,
    wire: str = "delta",
) -> dict:
    """One fresh fixed-seed run of a pipeline tier (see :data:`MODES`).

    The restore-guarded context managers pin the batch/native/array
    gates for the run and put the previous settings back even if it
    raises.  ``mode="sharded"`` runs the array tier under
    ``REPRO_SHARDS=shards`` with the *wire* mailbox encoding — the timed
    region covers the cycles only; collecting worker state back into the
    parent happens after the clock stops (it is an end-of-run cost, not
    a per-cycle one).
    """
    batch, native, arrays = MODES["array" if mode == "sharded" else mode]
    n_shards = shards if mode == "sharded" else 1
    with (
        batch_scoring(batch),
        delivery_batching(batch),
        native_kernel(native),
        array_state(arrays),
        sharding(n_shards),
        shard_wire(wire),
    ):
        system = build_system(spec, seed)
        cycles = spec["cycles"]
        t0 = time.perf_counter()
        system.engine.run(cycles)
        elapsed = time.perf_counter() - t0
        mailbox = None
        if mode == "sharded":
            system.run(cycles=0, drain=False)  # adopt worker state, untimed
            per_shard = system.engine.mailbox_stats()
            total = sum(
                s["shm_bytes"] + s["inline_bytes"] for s in per_shard
            )
            wire_stats: dict = {"tier": wire}
            for s in per_shard:
                for key, value in s["wire"].items():
                    if key != "tier":
                        wire_stats[key] = wire_stats.get(key, 0) + value
            mailbox = {
                "shm_bytes": sum(s["shm_bytes"] for s in per_shard),
                "inline_bytes": sum(s["inline_bytes"] for s in per_shard),
                "bytes_per_cycle": round(total / max(1, cycles), 1),
                "chunk_retries": sum(s["chunk_retries"] for s in per_shard),
                "crc_failures": sum(s["crc_failures"] for s in per_shard),
                "dup_chunks": sum(s["dup_chunks"] for s in per_shard),
                "wire": wire_stats,
            }
        memory = memory_report(system)
        close = getattr(system.engine, "close", None)
        if close is not None:
            close()
    result = {
        "n_users": len(system.nodes),
        "n_items": system.dataset.n_items,
        "cycles": cycles,
        "elapsed_sec": round(elapsed, 3),
        "cycles_per_sec": round(cycles / elapsed, 4),
        "memory": memory,
    }
    if mailbox is not None:
        result["mailbox"] = mailbox
    return result


def _system_state(system: WhatsUpSystem) -> dict:
    """Every outcome dissemination can influence, per node and globally."""
    state = {}
    for node in system.nodes:
        state[node.node_id] = (
            tuple(sorted(node.wup.view.node_ids())),
            tuple(sorted(node.rps.view.node_ids())),
            tuple(sorted(node.profile.scores.items())),
            tuple(sorted(node.seen)),
        )
    log = system.engine.log
    arrays = log.arrays()
    state["_log"] = tuple(
        (key, tuple(arrays[key].tolist())) for key in sorted(arrays)
    )
    state["_duplicates"] = log.duplicates
    stats = system.engine.stats
    state["_traffic"] = tuple(
        (str(kind), stats.sent[kind], stats.delivered[kind],
         stats.bytes_delivered[kind])
        for kind in sorted(stats.sent, key=str)
    )
    return state


def check_equivalence(spec: dict, seed: int = BENCH_SEED) -> dict:
    """Run every pipeline tier at a fixed seed; compare final states.

    The array mode runs regardless of the extension: without it the
    array plane falls back to its pure-Python column paths, which must
    still be bitwise-identical to every other tier.
    """
    modes = [
        "scalar",
        "batch",
        *(["native"] if native_available() else []),
        "array",
    ]
    states = {}
    for mode in modes:
        batch, native, arrays = MODES[mode]
        with (
            batch_scoring(batch),
            delivery_batching(batch),
            native_kernel(native),
            array_state(arrays),
        ):
            system = build_system(spec, seed)
            system.engine.run(spec["cycles"])
            states[mode] = _system_state(system)
    identical = all(states[m] == states["scalar"] for m in modes[1:])
    return {
        "cycles": spec["cycles"],
        "seed": seed,
        "modes": modes,
        "views_profiles_logs_identical": identical,
    }


def check_shard_determinism(
    spec: dict, seed: int = BENCH_SEED, shards: int = 2
) -> dict:
    """Two fresh sharded runs at a fixed seed must be identical.

    Shard counts above 1 are not bitwise-comparable to the single-process
    engine (sub-cycle interleaving differs; see
    :mod:`repro.simulation.sharding`), so the gate here is *run-to-run
    stability*: same seed, same shard count, same bits.  ``REPRO_SHARDS=1``
    needs no check of its own — it constructs the very same
    ``CycleEngine`` the other tiers run, which the tier equivalence
    above already pins.
    """
    batch, native, arrays = MODES["array"]
    states = []
    for _ in range(2):
        with (
            batch_scoring(batch),
            delivery_batching(batch),
            native_kernel(native),
            array_state(arrays),
            sharding(shards),
        ):
            system = build_system(spec, seed)
            system.engine.run(spec["cycles"])
            system.run(cycles=0, drain=False)
            states.append(_system_state(system))
            close = getattr(system.engine, "close", None)
            if close is not None:
                close()
    return {
        "cycles": spec["cycles"],
        "seed": seed,
        "shards": shards,
        "sharded_runs_identical": states[0] == states[1],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-survey scenario only (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    parser.add_argument(
        "--baseline-json",
        type=Path,
        default=None,
        help="JSON of {scenario: pre-PR cycles/sec} to merge",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        help="worker count for the sharded tier (0 disables it)",
    )
    args = parser.parse_args(argv)

    baselines: dict[str, float] = {}
    if args.baseline_json is not None:
        baselines = json.loads(args.baseline_json.read_text())

    names = ["small-survey"] if args.quick else list(SCENARIOS)
    report: dict = {
        "benchmark": "scale_throughput",
        "schema": 1,
        "seed": BENCH_SEED,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "scenarios": {},
    }

    have_native = native_available()
    if not have_native:
        print(
            "[native] extension not built "
            "(PYTHONPATH=src python -m repro._native.build_native) "
            "- recording scalar/batch only"
        )

    for name in names:
        spec = SCENARIOS[name]
        print(f"[{name}] scalar (pre-PR-equivalent scoring path) ...")
        scalar = run_mode(spec, "scalar")
        print(f"[{name}]   {scalar['cycles_per_sec']} cycles/sec")
        print(f"[{name}] batch (set-algebra pool loops) ...")
        batch = run_mode(spec, "batch")
        print(f"[{name}]   {batch['cycles_per_sec']} cycles/sec")
        entry = {
            **{k: batch[k] for k in ("n_users", "n_items", "cycles")},
            "f_like": spec["f_like"],
            "scalar_cps": scalar["cycles_per_sec"],
            "batch_cps": batch["cycles_per_sec"],
            "speedup_batch_vs_scalar": round(
                batch["cycles_per_sec"] / scalar["cycles_per_sec"], 3
            ),
        }
        if have_native:
            print(f"[{name}] native (compiled kernels, legacy state) ...")
            native = run_mode(spec, "native")
            print(f"[{name}]   {native['cycles_per_sec']} cycles/sec")
            entry["native_cps"] = native["cycles_per_sec"]
            entry["speedup_native_vs_scalar"] = round(
                native["cycles_per_sec"] / scalar["cycles_per_sec"], 3
            )
            entry["speedup_native_vs_batch"] = round(
                native["cycles_per_sec"] / batch["cycles_per_sec"], 3
            )
            entry["memory_legacy"] = native["memory"]
        else:
            entry["memory_legacy"] = batch["memory"]
        print(f"[{name}] array (columnar state plane) ...")
        array = run_mode(spec, "array")
        print(f"[{name}]   {array['cycles_per_sec']} cycles/sec")
        entry["array_cps"] = array["cycles_per_sec"]
        entry["memory_array"] = array["memory"]
        entry["speedup_array_vs_batch"] = round(
            array["cycles_per_sec"] / batch["cycles_per_sec"], 3
        )
        if have_native:
            entry["speedup_array_vs_native"] = round(
                array["cycles_per_sec"] / native["cycles_per_sec"], 3
            )
        pre_pr = baselines.get(name, PR2_BASELINE_CPS.get(name))
        if pre_pr:
            entry["pre_pr_baseline_cps"] = pre_pr
            best = entry.get("native_cps", entry["batch_cps"])
            entry["speedup_vs_pre_pr"] = round(best / pre_pr, 3)
        pr3 = PR3_BASELINE_CPS.get(name)
        if pr3:
            entry["pr3_baseline_cps"] = pr3
            entry["speedup_array_vs_pr3"] = round(
                array["cycles_per_sec"] / pr3, 3
            )
        if args.shards >= 2 and entry["n_users"] >= 2 * args.shards:
            print(
                f"[{name}] sharded ({args.shards} workers, "
                f"{os.cpu_count()} cores) ..."
            )
            shard = run_mode(spec, "sharded", shards=args.shards)
            print(f"[{name}]   {shard['cycles_per_sec']} cycles/sec")
            entry["shards"] = args.shards
            entry["sharded_cps"] = shard["cycles_per_sec"]
            if "mailbox" in shard:
                entry["mailbox"] = shard["mailbox"]
            entry["speedup_sharded_vs_array"] = round(
                shard["cycles_per_sec"] / array["cycles_per_sec"], 3
            )
            pr4 = PR4_BASELINE_CPS.get(name)
            if pr4:
                entry["pr4_baseline_cps"] = pr4
                entry["speedup_sharded_vs_pr4"] = round(
                    shard["cycles_per_sec"] / pr4, 3
                )
            # wire sweep: the same sharded run per encoding tier, so
            # the bytes/cycle story (and its cps cost) is tracked per
            # tier; the default delta run above doubles as its own entry
            sweep = {
                "delta": {
                    "bytes_per_cycle": shard["mailbox"]["bytes_per_cycle"],
                    "wire_frame_bytes": shard["mailbox"]["wire"][
                        "frame_bytes"
                    ],
                    "cps": shard["cycles_per_sec"],
                }
            }
            for tier in WIRE_SWEEP_TIERS:
                print(f"[{name}] sharded wire={tier} ...")
                alt = run_mode(spec, "sharded", shards=args.shards, wire=tier)
                print(f"[{name}]   {alt['cycles_per_sec']} cycles/sec")
                sweep[tier] = {
                    "bytes_per_cycle": alt["mailbox"]["bytes_per_cycle"],
                    "wire_frame_bytes": alt["mailbox"]["wire"]["frame_bytes"],
                    "cps": alt["cycles_per_sec"],
                }
            entry["wire_tiers"] = sweep
            entry["wire_reduction_vs_pickle"] = round(
                sweep["pickle"]["bytes_per_cycle"]
                / sweep["delta"]["bytes_per_cycle"],
                2,
            )
            pr6 = PR6_BASELINE_MAILBOX.get(name)
            if pr6:
                entry["pr6_baseline_mailbox_bytes_per_cycle"] = pr6
                entry["wire_reduction_vs_pr6"] = round(
                    pr6 / sweep["delta"]["bytes_per_cycle"], 2
                )
        report["scenarios"][name] = entry

    modes_label = (
        "scalar/batch" + ("/native" if have_native else "") + "/array"
    )
    print(f"[equivalence] {modes_label} on small-survey ...")
    report["equivalence"] = check_equivalence(SCENARIOS["small-survey"])
    print(f"[equivalence]   {report['equivalence']}")

    if args.shards >= 2:
        print("[equivalence] sharded determinism on small-survey ...")
        report["sharding"] = check_shard_determinism(
            SCENARIOS["small-survey"], shards=min(2, args.shards)
        )
        print(f"[equivalence]   {report['sharding']}")

    acceptance = {}
    for scenario, target in ACCEPTANCE_TARGETS.items():
        entry = report["scenarios"].get(scenario)
        if entry is None:
            continue
        achieved = entry.get("speedup_array_vs_pr3")
        if achieved is None:
            continue
        acceptance[scenario] = {
            "target_speedup": target,
            "achieved_speedup": achieved,
            "met": achieved >= target,
        }
    for scenario, target in SHARDED_ACCEPTANCE_TARGETS.items():
        entry = report["scenarios"].get(scenario)
        if entry is None or "speedup_sharded_vs_pr4" not in entry:
            continue
        achieved = entry["speedup_sharded_vs_pr4"]
        cores = os.cpu_count() or 1
        acceptance[f"sharded:{scenario}"] = {
            "target_speedup": target,
            "achieved_speedup": achieved,
            "met": achieved >= target,
            "shards": entry["shards"],
            "cores": cores,
            # the ISSUE's bar presumes one core per worker; below that the
            # workers time-slice and the ratio measures overhead only
            "valid_host": cores >= entry["shards"],
        }
    for scenario, target in WIRE_ACCEPTANCE_TARGETS.items():
        entry = report["scenarios"].get(scenario)
        if entry is None or "wire_reduction_vs_pr6" not in entry:
            continue
        achieved = entry["wire_reduction_vs_pr6"]
        acceptance[f"wire:{scenario}"] = {
            "target_reduction": target,
            "achieved_reduction": achieved,
            "met": achieved >= target,
        }
    if acceptance:
        report["acceptance"] = acceptance

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
