"""One complete experiment, as a user runs it, in this process.

``python -m benchmarks.ledger.child '<json spec>'`` is the benchmark's single
client: generate the dataset from the seed, build the ``WhatsUpSystem``, run
the publication window, drain, collect, evaluate — then print one JSON line.
The harness starts a fresh interpreter per repeat because ``repro`` keeps
process-global counters (snapshot uids feed the delta wire's reference
table), so a second run in one process is not the run a user gets.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
from time import perf_counter

from .spec import WORKLOADS, build_dataset
from .tracer import SHARD_SPANS, SPANS, Tracer

__all__ = ["run_experiment", "main"]


def _peak_rss_mb() -> float:
    """``VmHWM`` of this process plus every live worker, in MiB.

    Read before ``close()``.  Shared-memory pages mapped by the parent and a
    worker are counted once per process (double-counted); stated, not fixed.
    """
    total_kb = 0
    pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:  # worker already gone
            continue
    if total_kb == 0:  # no procfs: fall back to this process's own peak
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def _outcome_digest(log, stats, nodes) -> str:
    """sha256 over the event log, traffic counters and final node state."""
    import numpy as np

    from repro.network.message import MessageKind

    h = hashlib.sha256()
    for name, column in sorted(log.arrays().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(column).tobytes())
    h.update(f"dup={log.duplicates};".encode())
    for kind in MessageKind:
        h.update(
            f"{kind.name}:{stats.sent[kind]}:{stats.delivered[kind]}:"
            f"{stats.dropped[kind]}:{stats.bytes_delivered[kind]};".encode()
        )
    for node in sorted(nodes, key=lambda n: n.node_id):
        for view in (node.rps.view, node.wup.view):
            rows = [(e.node_id, e.timestamp) for e in view.entries()]
            h.update(np.asarray(rows, dtype=np.int64).tobytes())
            h.update(b"|")
        h.update(repr(sorted(tuple(e) for e in node.profile.entries())).encode())
        h.update(repr(sorted(node.seen)).encode())
    return h.hexdigest()


def _counts(dataset, engine, nodes, log, stats, cycles: int) -> dict:
    """The exact counts of the ledger, from the program's own counters."""
    from repro.network.message import MessageKind as K

    hops = log.arrays()["d_hops"]
    first = int((hops > 0).sum())  # receipts, not the publishers' own
    receipts = first + log.duplicates
    n = max(1, len(nodes))
    out = {
        "network.stats.sent.rps": stats.sent[K.RPS],
        "network.stats.sent.wup": stats.sent[K.WUP],
        "network.stats.sent.item": stats.sent[K.ITEM],
        "network.stats.dropped.item": stats.dropped[K.ITEM],
        "network.stats.msgs_per_user_cycle": stats.messages_per_user_per_cycle(
            dataset.n_users, cycles
        ),
        "simulation.events.deliveries": log.n_deliveries,
        "simulation.events.forwards": log.n_forwards,
        "simulation.events.duplicates": log.duplicates,
        "simulation.events.useful_receipt_ratio": first / receipts if receipts else 0.0,
        "gossip.views.bytes_per_node": sum(
            node.rps.view.storage_nbytes() + node.wup.view.storage_nbytes()
            for node in nodes
        )
        / n,
        "core.profiles.bytes_per_node": sum(
            node.profile.storage_nbytes() for node in nodes
        )
        / n,
    }
    wire = {
        key: 0
        for key in (
            "frames",
            "ref_profiles",
            "full_profiles",
            "delta_profiles",
            "pickled_profiles",
            "overflow_rows",
        )
    }
    mailbox_bytes = chunk_retries = crc_failures = 0
    if hasattr(engine, "mailbox_stats"):
        for shard in engine.mailbox_stats():
            mailbox_bytes += shard["shm_bytes"] + shard["inline_bytes"]
            chunk_retries += shard["chunk_retries"]
            crc_failures += shard["crc_failures"]
            for key in wire:
                wire[key] += shard["wire"][key]
    crossings = (
        wire["ref_profiles"]
        + wire["full_profiles"]
        + wire["delta_profiles"]
        + wire["pickled_profiles"]
    )
    out.update(
        {
            "simulation.wire.bytes_per_cycle": mailbox_bytes / max(1, cycles),
            "simulation.wire.frames": wire["frames"],
            "simulation.wire.ref_profiles": wire["ref_profiles"],
            "simulation.wire.full_profiles": wire["full_profiles"],
            "simulation.wire.delta_profiles": wire["delta_profiles"],
            "simulation.wire.ref_ratio": (
                wire["ref_profiles"] / crossings if crossings else 0.0
            ),
            "simulation.wire.overflow_rows": wire["overflow_rows"],
            "simulation.sharding.chunk_retries": chunk_retries,
            "simulation.sharding.crc_failures": crc_failures,
        }
    )
    return out


def run_experiment(
    workload_name: str,
    seed: int,
    *,
    trace: bool = False,
    mini: bool = False,
    require_native: bool = True,
    spawned_at: float | None = None,
) -> dict:
    """Run one complete experiment; return its measurements and checks.

    With *trace* the timing wrappers go on before anything is built and every
    one comes off again before this returns, also when the run raises.
    """
    entered_at = time.time()
    t_enter = perf_counter()
    from repro._native import native_available
    from repro.api import RunConfig
    from repro.core import WhatsUpConfig, WhatsUpSystem
    from repro.metrics import evaluate_dissemination
    from repro.network.transport import UniformLossTransport

    t_imported = perf_counter()
    workload = WORKLOADS[workload_name]
    if require_native and not native_available():
        raise RuntimeError(
            "native kernels are not built: the benchmark measures the default "
            "RunConfig() stack, run `python -m repro._native.build_native`"
        )
    run_config = RunConfig(shards=workload.shards)
    transport = UniformLossTransport(workload.loss) if workload.loss else None

    tracer = None
    if trace:
        tracer = Tracer(SHARD_SPANS if workload.shards > 1 else SPANS)
        tracer.install()
    system = None
    try:
        t0 = perf_counter()
        dataset = build_dataset(workload, seed, mini)
        t1 = perf_counter()
        system = WhatsUpSystem(
            dataset,
            WhatsUpConfig(f_like=workload.f_like),
            seed=seed,
            transport=transport,
            run_config=run_config,
        )
        t2 = perf_counter()
        setup_s = time.time() - (spawned_at if spawned_at is not None else entered_at)
        engine = system.engine
        horizon = dataset.publish_cycles + workload.drain_cycles
        if tracer is not None:
            engine.add_observer(tracer.on_cycle)
            tracer.on_cycle(engine, -1)
        with run_config.apply():
            t3 = perf_counter()
            engine.run(horizon)
            t4 = perf_counter()
            extra = engine.run_until_drained()
            t5 = perf_counter()
        cycles = horizon + extra
        if hasattr(engine, "collect"):
            engine.collect()
        nodes = list(engine.nodes.values())
        log, stats = engine.log, engine.stats
        t6 = perf_counter()
        scores = evaluate_dissemination(
            log.reached_matrix(dataset.n_users, dataset.n_items), dataset.likes
        )
        t7 = perf_counter()
        counts = _counts(dataset, engine, nodes, log, stats, cycles)
        digest = _outcome_digest(log, stats, nodes)
        peak_rss_mb = _peak_rss_mb()
    finally:
        try:
            if system is not None:
                system.close()
        finally:
            if tracer is not None:
                tracer.restore()

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": bool(trace),
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "horizon": horizon,
        "cycles": cycles,
        "cycle_s": t4 - t3,
        "drain_s": t5 - t4,
        "cycles_per_s": horizon / (t4 - t3),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "f1": scores.f1,
        "cpu_s": time.process_time() + children.ru_utime + children.ru_stime,
        "digest": digest,
        "drop_share": stats.loss_rate(),
        "phases": {
            "import_s": t_imported - t_enter,
            "datasets.build_s": t1 - t0,
            "core.system.build_s": t2 - t1,
            "collect_s": t6 - t5,
            "metrics.evaluate_s": t7 - t6,
        },
        "counts": counts,
    }
    if tracer is not None:
        # every span by name, zeros for the ones this run did not install
        totals = tracer.totals(windowed=workload.shards == 1)
        idle = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        result["spans"] = {
            name: totals.get(name, idle) for name in (*SPANS, *SHARD_SPANS)
        }
        # calibrated seconds the wrappers themselves took, as the spans above
        result["wrapper_s"] = tracer.per_call_s * sum(
            span["calls"] for span in totals.values()
        )
        result["cycle_ms"] = tracer.cycle_ms()
        result["rows"] = tracer.rows()
    return result


def main(argv: list[str]) -> int:
    """``child '<json spec>'``: run, print one JSON line, write the trace last."""
    spec = json.loads(argv[0])
    trace_out = spec.pop("trace_out", None)
    result = run_experiment(spec.pop("workload"), spec.pop("seed"), **spec)
    rows = result.pop("rows", None)
    print(json.dumps(result), flush=True)
    if trace_out is not None and rows is not None:
        with open(trace_out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
