"""Process-sharded cycle engine over the shared-memory array plane.

WHATSUP's pitch is horizontal scale — every user is a node and the gossip
fabric grows with the population — yet a :class:`~repro.simulation.engine.
CycleEngine` run occupies exactly one CPython core.  This module hosts the
**scale-out** lever the array-backed state plane (PR 4) was built for:
``REPRO_SHARDS=N`` partitions the node population across *N* worker
processes and runs each cycle as a sequence of parallel sub-cycles
synchronised at barriers.

Layout
------

* The population is partitioned by ``node_id % N`` (:func:`shard_of`) —
  stable under mid-run joins, no routing table.
* Each worker owns its shard's node objects outright and drives them with a
  :class:`_ShardEngine` — a :class:`CycleEngine` subclass whose routing
  methods intercept cross-shard traffic.  Intra-shard gossip and item
  delivery run exactly the single-process code paths.
* Each shard's :class:`~repro.gossip.views.ArrayView` numeric state blocks
  (the native tier's views; dict views have no block to map) are re-homed
  into a per-shard :mod:`multiprocessing.shared_memory` arena
  (:meth:`ArrayView.rehome`): the native state kernels receive the mapped
  addresses unchanged, and the parent can read any view's ``(ids, ts,
  wire)`` columns zero-copy (:meth:`ShardedCycleEngine.view_columns`)
  without a pickle round-trip.  ``REPRO_SHARD_SHM=0`` (or an unavailable
  ``shared_memory``) degrades to private memory and inline pipe traffic
  with identical outcomes — the fallback the CI leg pins.
* Cross-shard traffic travels in **columnar shard-boundary mailboxes**:
  per-destination row buffers accumulated during a sub-cycle and flushed
  at its barrier as one pickled blob per (source, destination) pair —
  payload sharing within a flush is preserved by the single pickle, so a
  popular profile snapshot crosses a boundary once per cycle, not once
  per message.  Blobs are staged through per-pair shared-memory segments
  (pipes carry only tiny descriptors); without shared memory they travel
  inline in bounded chunks.

The cycle barrier protocol
--------------------------

A single-process cycle interleaves gossip request, reply and item delivery
per node.  Under sharding the same work is grouped into three barrier-
separated sub-cycles so that every cross-shard exchange still *completes
within its cycle*::

    worker 0                 worker 1                  (lock-step, no
    ─────────────────────    ─────────────────────      parent in the
    A: churn, publications,  A: churn, publications,    data path)
       local gossip;            local gossip;
       remote requests  ──────▶ mailbox ──────▶ ...
    ══════════ barrier 1: request mailboxes flush ══════════
    B: serve remote          B: serve remote
       requests, emit   ──────▶ replies ──────▶ ...
    ══════════ barrier 2: reply mailboxes flush ════════════
    C: apply replies;        C: apply replies;
       deliver item inbox;      deliver item inbox;
       remote item sends ─────▶ mailbox ──────▶ ...
    ══════════ barrier 3: item mailboxes flush ═════════════
       ingest remote items (arrive next cycle), cycle ends

Item copies sent in cycle *t* arrive in cycle *t + 1* on either path, so
cross-shard item delivery is semantically identical to the single-process
pipeline.  Cross-shard gossip request/reply pairs also complete within
their cycle; only the *interleaving order* differs from the
single-process engine (local exchanges first, then remote requests in
shard order, then replies), which is why shard counts above 1 are
**deterministic and seed-stable** but not bitwise-comparable across
different shard counts.

Determinism contract
--------------------

* ``REPRO_SHARDS=1`` (the default) never constructs any of this machinery:
  :func:`make_engine` returns a plain :class:`CycleEngine`, bitwise
  identical to every previous release at fixed seeds.
* For any fixed ``(seed, N)``, repeated runs produce identical outcomes —
  per-shard engine/transport/churn streams are derived with the same
  :class:`numpy.random.SeedSequence` spawning mechanism as every other
  stream in the tree (:class:`ShardRngStreams` salts the stream label
  with the shard index), every mailbox is drained in (source shard, send
  order) order, and node-private generators travel with their nodes.
* Sharding engages only under lossless unit-delay transports (the paper's
  simulation setting); lossy/latency transports fall back to the
  single-process engine with a warning — their per-message RNG draws have
  no deterministic cross-process ordering.

The parent process never touches node state while a run is in flight; it
re-adopts it lazily (:meth:`ShardedCycleEngine.collect`) when ``nodes`` /
``stats`` / ``log`` are read, merging per-worker traffic counters and
dissemination logs in shard order.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
import traceback
import warnings
import zlib
from contextlib import contextmanager, suppress
from typing import Iterable

import multiprocessing
from multiprocessing.connection import wait as _conn_wait

import numpy as np

from repro.core.gates import (
    env_choice,
    env_flag,
    env_float,
    env_int,
    fast_mode,
    set_mode,
)
from repro.network.message import MessageKind, payload_wire_size
from repro.network.stats import RecoveryStats, TrafficStats
from repro.network.transport import PerfectTransport, Transport
from repro.simulation.engine import CycleEngine
from repro.simulation.events import DisseminationLog, FaultLog
from repro.simulation.faults import FaultInjector, InjectedFailure, fault_schedule
from repro.simulation.node import BaseNode
from repro.simulation.schedule import PublicationSchedule
from repro.simulation.wire import (
    LinkDecoder,
    LinkEncoder,
    set_wire_tier,
    shard_wire,
    wire_tier,
)
from repro.utils.exceptions import SimulationError
from repro.utils.rng import RngStreams, spawn_generator
from repro.utils.runtime import collect_garbage, collector_paused, freeze_inherited

__all__ = [
    "shard_count",
    "set_shard_count",
    "sharding",
    "shard_shm_enabled",
    "set_shard_shm",
    "shard_shm",
    "wire_tier",
    "set_wire_tier",
    "shard_wire",
    "shard_knobs",
    "set_shard_knobs",
    "shard_knob_overrides",
    "shard_of",
    "ShardRngStreams",
    "ShardedCycleEngine",
    "PeerLostError",
    "PeerStalledError",
    "make_engine",
]


_n_shards = env_int("REPRO_SHARDS", 1, floor=1)

_shm_enabled = env_flag("REPRO_SHARD_SHM")

#: per-(source, destination) shared-memory mailbox segment size; blobs
#: larger than a segment cross in several staged chunks
_MAILBOX_BYTES = 1 << 20

#: inline chunk size when shared memory is off — small enough that a
#: stop-and-wait window of one chunk can never fill an OS pipe buffer
#: (which would deadlock two workers mid-send)
_INLINE_CHUNK = 32 * 1024

#: parent-side timeout waiting on a worker reply, seconds
_CTRL_TIMEOUT = env_float("REPRO_SHARD_TIMEOUT", 600.0)

#: total per-barrier deadline on the worker-to-worker chunk exchange; the
#: old protocol waited forever — this bounds a wedged barrier instead
_EXCHANGE_TIMEOUT = env_float("REPRO_SHARD_EXCHANGE_TIMEOUT", 600.0)

#: bounded chunk retransmissions per peer within one barrier
_EXCHANGE_RETRIES = env_int("REPRO_SHARD_RETRIES", 4, floor=1)

#: first retransmission/heartbeat wait, seconds; doubles per idle round
_BACKOFF_BASE = env_float("REPRO_SHARD_BACKOFF", 5.0, floor=0.005)

#: synchronized worker-state checkpoint cadence, in cycles (supervised runs)
_CKPT_EVERY = env_int("REPRO_SHARD_CHECKPOINT", 8, floor=1)

#: degraded-mode offline window after a recovery, cycles (0 = one
#: checkpoint interval)
_DEGRADED_FOR = env_int("REPRO_SHARD_DEGRADED", 0, floor=0)

#: rollback-replay attempts before a supervised run gives up
_MAX_RECOVERIES = env_int("REPRO_SHARD_MAX_RECOVERIES", 8, floor=1)

_ARENA_ALIGN = 64

_RECOVERY_MODES = ("off", "restore", "degraded", "auto")


def _env_recovery() -> str:
    return env_choice("REPRO_SHARD_RECOVERY", "auto", _RECOVERY_MODES)


#: supervision/recovery policy override; ``None`` defers to the
#: ``REPRO_SHARD_RECOVERY`` env var, re-read at engine construction
_RECOVERY_MODE: str | None = None

#: pin each worker to one CPU on multi-core hosts (sharded engines only)
_PIN_CPUS = env_flag("REPRO_SHARD_PIN_CPUS", default=False)


class _PeerFailure(Exception):
    """A worker could not complete a barrier with one or more peers."""

    def __init__(self, shard: int, peers, tag, reason: str) -> None:
        super().__init__(
            f"shard {shard} barrier {tag!r}: {reason} (peers {sorted(peers)})"
        )
        self.shard = shard
        self.peers = sorted(peers)
        self.tag = tag


class PeerLostError(_PeerFailure):
    """A peer worker's pipe closed mid-barrier (the process died)."""

    def __init__(self, shard: int, peer: int, tag) -> None:
        super().__init__(shard, [peer], tag, "peer connection lost")


class PeerStalledError(_PeerFailure):
    """A peer exceeded the barrier deadline or the retransmission budget."""

    def __init__(self, shard: int, peers, tag, reason: str = "deadline exceeded") -> None:
        super().__init__(shard, peers, tag, reason)


def shard_count() -> int:
    """The configured shard count (1 = single-process, the default)."""
    return _n_shards


def set_shard_count(n: int) -> int:
    """Set the shard count; returns the previous setting.

    Consulted when an engine is *constructed* (:func:`make_engine`);
    running engines are unaffected.  Prefer the :func:`sharding` context
    manager outside hot paths — it restores the previous setting even
    when the guarded block raises.
    """
    global _n_shards
    previous = _n_shards
    _n_shards = max(1, int(n))
    return previous


@contextmanager
def sharding(n: int):
    """Context manager pinning the shard count, restoring on exit."""
    previous = set_shard_count(n)
    try:
        yield
    finally:
        set_shard_count(previous)


def shard_shm_enabled() -> bool:
    """Whether shared-memory arenas/mailboxes are used between shards."""
    return _shm_enabled


def set_shard_shm(enabled: bool) -> bool:
    """Enable/disable shared-memory staging; returns the previous setting.

    With the gate off, state blocks stay in private memory and mailbox
    blobs travel inline through the worker pipes in bounded chunks —
    outcomes are identical either way (the fallback tests assert this).
    """
    global _shm_enabled
    previous = _shm_enabled
    _shm_enabled = bool(enabled)
    return previous


@contextmanager
def shard_shm(enabled: bool):
    """Context manager pinning the shared-memory gate, restoring on exit."""
    previous = set_shard_shm(enabled)
    try:
        yield
    finally:
        set_shard_shm(previous)


def shard_of(node_id: int, n_shards: int) -> int:
    """The shard owning *node_id*: a stable modulo partition.

    Stable under mid-run joins (no routing table to rebalance) and
    independent of insertion order, so any process can route a message
    from the id alone.
    """
    return int(node_id) % int(n_shards)


class ShardRngStreams(RngStreams):
    """Per-shard named random streams, independent across shards.

    The worker-side twin of :class:`~repro.utils.rng.RngStreams`: stream
    labels are salted with the shard index before the
    :class:`numpy.random.SeedSequence` derivation, so
    ``ShardRngStreams(seed, 0).get("engine-order")`` and shard 1's stream
    of the same name are statistically independent, while any fixed
    ``(seed, shard, label)`` triple reproduces the same stream in every
    run at every shard count.
    """

    def __init__(self, seed: int, shard: int) -> None:
        super().__init__(seed)
        self.shard = int(shard)

    def _label(self, label: str) -> str:
        return f"shard{self.shard}/{label}"

    def get(self, label: str) -> np.random.Generator:
        if label not in self._streams:
            self._streams[label] = spawn_generator(self.seed, self._label(label))
        return self._streams[label]

    def fresh(self, label: str) -> np.random.Generator:
        return spawn_generator(self.seed, self._label(label))


# --------------------------------------------------------------------------- #
# serialization helpers                                                       #
# --------------------------------------------------------------------------- #


def _dumps(obj: object) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _loads(blob: bytes) -> object:
    return pickle.loads(blob)


#: per-link interning table bound: when a link has interned this many
#: distinct snapshots, both ends reset it (their tables grow in lock-step
#: — one entry per first-crossing uid — so the same size rule fires at
#: the same cycle on both sides)
_INTERN_CAP = 20000


# --------------------------------------------------------------------------- #
# runtime knobs                                                               #
# --------------------------------------------------------------------------- #

#: knob name -> (module global, env-parity normalizer).  One table so the
#: programmatic path (``RunConfig.apply()``) and the env layer agree on
#: names, floors, and rounding; the setters rebind the module globals the
#: engine and tests read.
_KNOB_GLOBALS = {
    "ctrl_timeout": ("_CTRL_TIMEOUT", float),
    "exchange_timeout": ("_EXCHANGE_TIMEOUT", float),
    "retries": ("_EXCHANGE_RETRIES", lambda v: max(1, int(v))),
    "backoff": ("_BACKOFF_BASE", lambda v: max(0.005, float(v))),
    "checkpoint_every": ("_CKPT_EVERY", lambda v: max(1, int(v))),
    "degraded_window": ("_DEGRADED_FOR", lambda v: max(0, int(v))),
    "max_recoveries": ("_MAX_RECOVERIES", lambda v: max(1, int(v))),
    "recovery": ("_RECOVERY_MODE", None),
    "pin_cpus": ("_PIN_CPUS", bool),
}


def _norm_recovery(value) -> str | None:
    if value is None:  # defer to the env var again
        return None
    raw = str(value).strip().lower()
    if raw not in _RECOVERY_MODES:
        raise ValueError(
            f"unknown recovery mode {value!r} (expected one of {_RECOVERY_MODES})"
        )
    return raw


_KNOB_GLOBALS["recovery"] = ("_RECOVERY_MODE", _norm_recovery)


def shard_knobs() -> dict:
    """The current sharding runtime knobs, by their programmatic names."""
    g = globals()
    return {name: g[attr] for name, (attr, _) in _KNOB_GLOBALS.items()}


def set_shard_knobs(**knobs) -> dict:
    """Set sharding runtime knobs; returns the previous values of those set.

    Accepts any subset of :func:`shard_knobs` keys.  Values go through the
    same floors the env parsing applies (a retry count below 1 or a
    backoff below 5 ms is clamped, not rejected).  Consulted at engine
    construction and, for supervision knobs, per supervised step — like
    the gate setters, running workers are unaffected until respawned.
    """
    g = globals()
    previous = {}
    for name, value in knobs.items():
        try:
            attr, norm = _KNOB_GLOBALS[name]
        except KeyError:
            raise ValueError(
                f"unknown sharding knob {name!r} "
                f"(expected one of {sorted(_KNOB_GLOBALS)})"
            ) from None
        previous[name] = g[attr]
        g[attr] = norm(value) if norm is not None else value
    return previous


@contextmanager
def shard_knob_overrides(**knobs):
    """Context manager pinning sharding knobs, restoring them on exit.

    The restore-guarded twin of :func:`set_shard_knobs` (lint rule RL003):
    tests and benchmarks that tighten a timeout or shrink a mailbox inside
    a block cannot leak the override into unrelated code, even when the
    guarded block raises.
    """
    previous = set_shard_knobs(**knobs)
    try:
        yield
    finally:
        set_shard_knobs(**previous)


def _stats_parts(stats: TrafficStats) -> dict:
    """Plain-dict reduction of a :class:`TrafficStats` (pickle-safe).

    The dataclass's counters are ``defaultdict`` instances with lambda
    factories, which cannot cross a pickle boundary; the parts can.
    """
    return {
        "sent": dict(stats.sent),
        "delivered": dict(stats.delivered),
        "dropped": dict(stats.dropped),
        "bytes_delivered": dict(stats.bytes_delivered),
    }


def _merge_stats_parts(stats: TrafficStats, parts: dict) -> None:
    for kind, v in parts["sent"].items():
        stats.sent[kind] += v
    for kind, v in parts["delivered"].items():
        stats.delivered[kind] += v
    for kind, v in parts["dropped"].items():
        stats.dropped[kind] += v
    for kind, v in parts["bytes_delivered"].items():
        stats.bytes_delivered[kind] += v


def _attach_shm(name: str):
    """Attach an existing shared-memory segment, tracker-quietly.

    The parent created the segment and owns its unlink.  Python 3.13's
    ``track=False`` keeps an attach out of the resource tracker entirely;
    on older versions the attach-side ``register`` is a no-op under the
    fork start method (the workers share the parent's tracker process, so
    the name is already enrolled once) and the parent's single unlink
    leaves the tracker cache clean.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def _array_views_of(node: BaseNode):
    """Yield ``(attr, ArrayView)`` pairs of a node's gossip views."""
    from repro.gossip.views import ArrayView

    for attr in ("rps", "wup"):
        proto = getattr(node, attr, None)
        view = getattr(proto, "view", None)
        if isinstance(view, ArrayView):
            yield attr, view


class _ShardArena:
    """Bump allocator over one shard's shared-memory state segment.

    Hands out ``(3, alloc)`` ``int64`` blocks for
    :meth:`~repro.gossip.views.ArrayView.rehome`.  There is no ``free``:
    views that outgrow their block abandon it and fall back to private
    memory (growth beyond ``2·capacity + 8`` rows is a rare transient of
    oversized merges), which keeps the allocator a single offset.
    """

    def __init__(self, shm) -> None:
        self.shm = shm
        self.offset = 0

    def alloc_cols(self, alloc: int) -> tuple:
        """A zeroed block of *alloc* columns, or ``(None, -1)`` when full."""
        nbytes = 3 * 8 * alloc
        start = (self.offset + _ARENA_ALIGN - 1) // _ARENA_ALIGN * _ARENA_ALIGN
        if start + nbytes > self.shm.size:
            return None, -1
        block = np.frombuffer(
            self.shm.buf, dtype=np.int64, count=3 * alloc, offset=start
        ).reshape(3, alloc)
        self.offset = start + nbytes
        return block, start


# --------------------------------------------------------------------------- #
# the peer mailbox fabric                                                     #
# --------------------------------------------------------------------------- #


class _PeerLinks:
    """Worker-side mailbox fabric: one duplex pipe per peer shard, plus an
    optional shared-memory staging segment per direction.

    :meth:`exchange` implements one barrier: every worker ships one blob
    to every peer and returns when it holds every peer's blob and all of
    its own chunks are acknowledged.  The loop is event-driven
    (:func:`multiprocessing.connection.wait`), so a worker always keeps
    servicing incoming chunks while waiting for its own acknowledgements
    — the property that makes the barrier deadlock-free for arbitrary
    blob sizes.  Chunks from a *future* barrier (a fast peer may run
    ahead by up to two sub-cycles, never a full cycle) are acknowledged
    and stashed for that barrier's own :meth:`exchange` call.

    Unlike the first-generation protocol (which waited forever on a
    silent peer), every chunk now carries a sequence number and a CRC32,
    and the wait loop is deadline-bounded:

    * a CRC mismatch at the receiver triggers a NACK and a bounded
      re-request of the same chunk (corruption self-heals on the wire);
    * duplicate sequence numbers are re-acknowledged, counted and
      dropped — also a straggler that lands one barrier late — so
      retransmissions and duplication faults are idempotent;
    * an idle wait retransmits the in-flight chunk with exponential
      backoff (a lost chunk or ack self-heals) and probes silent peers
      with a heartbeat — a peer inside its own exchange answers, which
      proves liveness without involving the parent;
    * a peer whose pipe reports EOF raises :class:`PeerLostError`
      immediately, and a peer silent past the total deadline (or past
      the retransmission budget) raises :class:`PeerStalledError` —
      both surface to the parent supervisor instead of hanging the run.
    """

    def __init__(
        self,
        shard: int,
        conns: dict,
        out_segs: dict,
        in_segs: dict,
        injector: "FaultInjector | None" = None,
        wire: dict | None = None,
    ):
        self.shard = shard
        self.conns = conns  # peer shard -> Connection
        self.out_segs = out_segs  # peer shard -> SharedMemory | absent
        self.in_segs = in_segs
        self._conn_src = {conn: peer for peer, conn in conns.items()}
        self._stash: dict = {}  # tag -> {src: [(bytes, last), ...]}
        self._rseq: dict = {}  # (src, tag) -> last in-order seq accepted
        self._closed = None  # tag of the last barrier this worker closed
        self.shm_bytes = 0
        self.inline_bytes = 0
        self.chunk_retries = 0
        self.crc_failures = 0
        self.dup_chunks = 0
        self._reported = (0, 0, 0)
        self.injector = injector
        wire = wire or {}
        self.timeout = float(wire.get("timeout", _EXCHANGE_TIMEOUT))
        self.retries = int(wire.get("retries", _EXCHANGE_RETRIES))
        self.backoff = float(wire.get("backoff", _BACKOFF_BASE))

    def take_deltas(self) -> dict:
        """Self-healing counter deltas since the previous report."""
        cur = (self.chunk_retries, self.crc_failures, self.dup_chunks)
        prev = self._reported
        self._reported = cur
        return {
            "chunk_retries": cur[0] - prev[0],
            "crc_failures": cur[1] - prev[1],
            "dup_chunks": cur[2] - prev[2],
        }

    def _chunk_size(self, peer: int) -> int:
        seg = self.out_segs.get(peer)
        return seg.size if seg is not None else _INLINE_CHUNK

    def _transmit(
        self, peer: int, tag, seq: int, chunk: bytes, last: bool, fault=None
    ) -> None:
        """Ship one chunk (or apply a scheduled chunk fault to it).

        The CRC is always computed over the clean payload, so an injected
        corruption is guaranteed to be caught at the receiver.
        """
        conn = self.conns[peer]
        crc = zlib.crc32(chunk)
        if fault == "delay":
            param = getattr(self.injector, "last_param", 0.0)
            time.sleep(param if param > 0 else 0.02)
        seg = self.out_segs.get(peer)
        if seg is not None and len(chunk) <= seg.size:
            seg.buf[: len(chunk)] = chunk
            if fault == "corrupt" and len(chunk):
                seg.buf[0] = seg.buf[0] ^ 0xFF
            if fault != "drop":
                conn.send(("d", tag, seq, len(chunk), last, crc, None))
                if fault == "dup":
                    conn.send(("d", tag, seq, len(chunk), last, crc, None))
            self.shm_bytes += len(chunk)
        else:
            wire_chunk = chunk
            if fault == "corrupt" and len(chunk):
                wire_chunk = bytes([chunk[0] ^ 0xFF]) + chunk[1:]
            if fault != "drop":
                conn.send(("d", tag, seq, len(chunk), last, crc, wire_chunk))
                if fault == "dup":
                    conn.send(("d", tag, seq, len(chunk), last, crc, wire_chunk))
            self.inline_bytes += len(chunk)

    def exchange(self, tag, outgoing: dict) -> list:
        """Run one barrier; returns ``[(src_shard, blob), ...]`` sorted."""
        peers = sorted(self.conns)
        if not peers:
            return []
        chunks = {}
        for peer in peers:
            blob = outgoing.get(peer, b"")
            size = self._chunk_size(peer)
            chunks[peer] = [
                blob[i : i + size] for i in range(0, len(blob), size)
            ] or [b""]
        bufs = {peer: [] for peer in peers}
        need_recv = set(peers)
        inflight: dict = {peer: None for peer in peers}  # seq in flight

        # drain chunks a fast peer already pushed for this barrier
        for src, held in self._stash.pop(tag, {}).items():
            for data, last in held:
                bufs[src].append(data)
                if last:
                    need_recv.discard(src)

        cycle, phase = (tag[0], tag[1]) if isinstance(tag, tuple) else (tag, "q")
        injector = self.injector

        def send_next(peer: int) -> None:
            seq = inflight[peer]
            seq = 0 if seq is None else seq + 1
            if seq >= len(chunks[peer]):
                inflight[peer] = None
                return
            fault = None
            if injector is not None:
                fault = injector.chunk_fault(cycle, phase)
            self._transmit(
                peer, tag, seq, chunks[peer][seq], seq == len(chunks[peer]) - 1, fault
            )
            inflight[peer] = seq

        # stop-and-wait per peer: at most one unacknowledged chunk in
        # flight, so a retransmission can never overwrite staged bytes a
        # receiver has yet to read
        acked = {peer: -1 for peer in peers}
        for peer in peers:
            send_next(peer)

        conns = list(self.conns.values())
        deadline = time.monotonic() + self.timeout
        resends = {peer: 0 for peer in peers}
        idle = 0
        while need_recv or any(s is not None for s in inflight.values()):
            now = time.monotonic()
            if now >= deadline:
                stalled = sorted(
                    set(need_recv) | {p for p in peers if inflight[p] is not None}
                )
                raise PeerStalledError(self.shard, stalled, tag)
            wait_for = min(self.backoff * (2 ** min(idle, 6)), deadline - now)
            ready = _conn_wait(conns, wait_for)
            if not ready:
                idle += 1
                # the in-flight chunk (or its ack) may be lost: bounded
                # retransmission with exponential backoff
                for peer in peers:
                    seq = inflight[peer]
                    if seq is None:
                        continue
                    if resends[peer] >= self.retries:
                        raise PeerStalledError(
                            self.shard, [peer], tag, "retransmission budget exhausted"
                        )
                    resends[peer] += 1
                    self.chunk_retries += 1
                    self._transmit(
                        peer, tag, seq, chunks[peer][seq], seq == len(chunks[peer]) - 1
                    )
                # probe peers we are still owed data by; a dead peer's
                # pipe raises, a live one inside exchange answers
                for peer in sorted(need_recv):
                    if inflight[peer] is not None:
                        continue  # the retransmission above already probes
                    try:
                        self.conns[peer].send(("h", tag))
                    except (BrokenPipeError, OSError):
                        raise PeerLostError(self.shard, peer, tag) from None
                continue
            for conn in ready:
                src = self._conn_src[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    raise PeerLostError(self.shard, src, tag) from None
                op = msg[0]
                if op == "d":
                    _, mtag, seq, nbytes, last, crc, inline = msg
                    key = (src, mtag)
                    expect = self._rseq.get(key, -1) + 1
                    if seq < expect or mtag == self._closed:
                        # duplicate (dup fault, or retransmit after a
                        # lost ack): re-ack without touching the staged
                        # bytes — they may already hold the next chunk.
                        # A straggler can land after its barrier closed
                        # and took its sequence state along; pipes are
                        # FIFO, so it precedes the sender's next-barrier
                        # data and is at most that one barrier late.
                        self.dup_chunks += 1
                        conn.send(("a", mtag, seq))
                        continue
                    if inline is None:
                        data = bytes(self.in_segs[src].buf[:nbytes])
                    else:
                        data = inline
                    if zlib.crc32(data) != crc:
                        # corrupted in staging/flight: re-request
                        self.crc_failures += 1
                        conn.send(("n", mtag, seq))
                        continue
                    self._rseq[key] = seq
                    conn.send(("a", mtag, seq))
                    if mtag == tag:
                        bufs[src].append(data)
                        if last:
                            need_recv.discard(src)
                    else:  # a peer running ahead: hold for its barrier
                        held = self._stash.setdefault(mtag, {})
                        held.setdefault(src, []).append((data, last))
                elif op == "a":
                    if msg[1] == tag and inflight[src] == msg[2]:
                        acked[src] = msg[2]
                        resends[src] = 0
                        idle = 0
                        send_next(src)
                elif op == "n":
                    # receiver saw a CRC mismatch: re-send the same chunk
                    if msg[1] == tag and inflight[src] == msg[2]:
                        if resends[src] >= self.retries:
                            raise PeerStalledError(
                                self.shard,
                                [src],
                                tag,
                                "persistent chunk corruption",
                            )
                        resends[src] += 1
                        self.chunk_retries += 1
                        seq = inflight[src]
                        self._transmit(
                            src,
                            tag,
                            seq,
                            chunks[src][seq],
                            seq == len(chunks[src]) - 1,
                        )
                elif op == "h":
                    try:
                        conn.send(("hb", msg[1]))
                    except (BrokenPipeError, OSError):
                        raise PeerLostError(self.shard, src, tag) from None
                elif op == "hb":
                    idle = 0  # peer is alive inside its exchange
                else:  # pragma: no cover - protocol violation
                    raise SimulationError(f"bad mailbox message {msg[:2]}")
        for src in peers:
            self._rseq.pop((src, tag), None)
        self._closed = tag
        return [(peer, b"".join(bufs[peer])) for peer in peers]


# --------------------------------------------------------------------------- #
# the worker-side engine                                                      #
# --------------------------------------------------------------------------- #


class _ShardEngine(CycleEngine):
    """A :class:`CycleEngine` over one shard's nodes.

    Intra-shard traffic runs the inherited single-process code paths
    verbatim.  The routing overrides intercept traffic whose target lives
    on another shard and append it to the per-destination mailboxes; the
    worker loop (:class:`_ShardWorker`) flushes those at the cycle's
    barriers and feeds incoming mailboxes back through the
    ``shard_phase_*`` methods, which reproduce the exact bookkeeping of
    :meth:`CycleEngine._run_cycle` split at the barrier points.
    """

    def __init__(
        self,
        nodes,
        schedule,
        transport,
        streams,
        churn,
        shard: int,
        n_shards: int,
    ) -> None:
        super().__init__(
            nodes, schedule, transport=transport, streams=streams, churn=churn
        )
        if not self._lossless:  # pragma: no cover - guarded by make_engine
            raise SimulationError("sharding requires a lossless transport")
        self.shard = int(shard)
        self.n_shards = int(n_shards)
        peers = [d for d in range(n_shards) if d != shard]
        self._req_out: dict[int, list] = {d: [] for d in peers}
        self._rep_out: dict[int, list] = {d: [] for d in peers}
        self._item_out: dict[int, list] = {d: [] for d in peers}
        #: per-link wire codecs: the sender half holds the shipped-uid /
        #: delta-base tables for each peer, the receiver half the
        #: mirrored registries — see repro.simulation.wire
        tier = wire_tier()
        self._codec_out: dict[int, LinkEncoder] = {
            d: LinkEncoder(tier) for d in peers
        }
        self._codec_in: dict[int, LinkDecoder] = {
            d: LinkDecoder(tier) for d in peers
        }
        self._cycle_inbox: dict = {}
        self._cycle_batching = False
        #: wall seconds spent in ``LinkDecoder.decode`` (reporting only)
        self.decode_s = 0.0
        #: degraded-mode window: population offline until this cycle
        self._degraded_until: int | None = None

    # -- degraded mode ------------------------------------------------------- #

    def begin_degraded(self, until: int) -> int:
        """Take this shard's whole population churned-offline until *until*.

        Used after a crash recovery in ``degraded`` mode: rather than
        replaying the dead shard's state, its users are reported offline
        — gossip routes around them exactly as it routes around churned
        nodes, and the ChurnModel counters account the outage — until the
        window closes and :meth:`_degraded_tick` brings them back.
        Returns the number of nodes taken down.
        """
        self._degraded_until = int(until)
        downed = []
        for nid, node in self.nodes.items():
            if node.alive:
                node.alive = False
                downed.append(nid)
        if self.churn is not None:
            self.churn.total_kills += len(downed)
        self._degraded_ids = downed
        return len(downed)

    def _degraded_tick(self, now: int) -> None:
        if self._degraded_until is None:
            return
        if now >= self._degraded_until:
            revived = 0
            # revive only the nodes the degrade took down — nodes the
            # churn model had already killed keep its revival schedule
            for nid in getattr(self, "_degraded_ids", ()):
                node = self.nodes.get(nid)
                if node is not None and not node.alive:
                    node.alive = True
                    revived += 1
            if self.churn is not None:
                self.churn.total_rejoins += revived
            self._degraded_until = None
            self._degraded_ids = []

    # -- mailbox plumbing -------------------------------------------------- #

    def take_mailbox(self, box: dict, phase: str = "gossip") -> dict:
        """Drain a mailbox into per-destination wire frames."""
        out = {}
        codecs = self._codec_out
        for dst, rows in box.items():
            if rows:
                out[dst] = codecs[dst].encode(rows, phase)
                box[dst] = []
        return out

    def _decode(self, src: int, blob: bytes) -> list:
        """Decode one peer's frame, accounting the seconds it took."""
        t0 = time.perf_counter()
        rows = self._codec_in[src].decode(blob)
        self.decode_s += time.perf_counter() - t0
        return rows

    # -- routing overrides ------------------------------------------------- #

    def gossip(self, sender_id, target_id, payload, kind) -> None:
        if target_id in self.nodes:
            super().gossip(sender_id, target_id, payload, kind)
            return
        dst = shard_of(target_id, self.n_shards)
        # accounting happens at the owning shard, which alone knows the
        # target's liveness; merged totals match the single-process counters
        self._req_out[dst].append((sender_id, target_id, kind, payload))

    def send_item(self, sender_id, target_id, copy, via_like) -> None:
        if target_id in self.nodes:
            super().send_item(sender_id, target_id, copy, via_like)
            return
        dst = shard_of(target_id, self.n_shards)
        self._item_out[dst].append((target_id, sender_id, copy, via_like))

    def send_fanout(
        self, sender_id, targets, copy, via_like, bump_dislikes=False
    ) -> None:
        nodes = self.nodes
        local = [t for t in targets if t in nodes]
        if not self._buffering or len(local) == len(targets):
            super().send_fanout(sender_id, targets, copy, via_like, bump_dislikes)
            return
        # advances the original once, even when no leg is local; the remote
        # legs ship that same object (one pickle per frame, via the memo)
        super().send_fanout(sender_id, local, copy, via_like, bump_dislikes)
        n_shards = self.n_shards
        item_out = self._item_out
        for target in targets:
            if target not in nodes:
                item_out[shard_of(target, n_shards)].append(
                    (target, sender_id, copy, via_like)
                )

    # -- the barrier-split cycle ------------------------------------------- #

    def shard_phase_open(self) -> None:
        """Sub-cycle A: churn, inbox hand-over, publications, local gossip."""
        now = self.now
        self._degraded_tick(now)
        # bound the link tables: both ends of a link grow them in
        # lock-step (one entry per first-crossing uid, all of a cycle's
        # blobs consumed within the cycle), so this size rule fires at
        # the same cycle top on the sender and the receiver
        for enc in self._codec_out.values():
            enc.cap_reset(_INTERN_CAP)
        for dec in self._codec_in.values():
            dec.cap_reset(_INTERN_CAP)
        self.transport.begin_cycle()
        if self.churn is not None:
            self.churn.apply(self, now)

        batching = self._lossless and fast_mode()
        self._buffering = batching
        self._cycle_batching = batching

        inbox = self._future_inboxes.pop(now, {})
        if inbox:
            self._pending_items -= sum(len(v) for v in inbox.values())
        self._cycle_inbox = inbox

        for item in self.schedule.items_at(now):
            source = self.nodes.get(item.source)
            if source is not None and source.alive:
                source.publish(item, self, now)

        ids = self.alive_node_ids()
        self._order_rng.shuffle(ids)
        for nid in ids:
            node = self.nodes[nid]
            if node.alive:
                node.begin_cycle(self, now)

    def shard_phase_requests(self, incoming: list) -> None:
        """Sub-cycle B: serve gossip requests that crossed the boundary."""
        now = self.now
        nodes_get = self.nodes.get
        stats = self.stats
        rep_out = self._rep_out
        for src, blob in incoming:
            if not blob:
                continue
            for sender_id, target_id, kind, payload in self._decode(src, blob):
                target = nodes_get(target_id)
                ok = target is not None and target._alive
                stats.record_parts(kind, payload_wire_size(payload), ok)
                if not ok:
                    continue
                reply = target.on_gossip(payload, kind, self, now)
                if reply is not None:
                    rep_out[src].append((sender_id, target_id, kind, reply))

    def shard_phase_replies(self, incoming: list) -> None:
        """Sub-cycle C entry: deliver replies to their initiators."""
        now = self.now
        nodes_get = self.nodes.get
        stats = self.stats
        for src, blob in incoming:
            if not blob:
                continue
            for sender_id, _target_id, kind, reply in self._decode(src, blob):
                sender = nodes_get(sender_id)
                ok = sender is not None and sender._alive
                stats.record_parts(kind, payload_wire_size(reply), ok)
                if ok:
                    sender.on_gossip(reply, kind, self, now)

    def shard_phase_deliver(self) -> None:
        """Sub-cycle C: drain the item inbox, flush local sends."""
        now = self.now
        inbox = self._cycle_inbox
        self._cycle_inbox = {}
        delivery_ids = list(inbox)
        self._order_rng.shuffle(delivery_ids)
        nodes = self.nodes
        if self._cycle_batching:
            for nid in delivery_ids:
                node = nodes[nid]
                if node._alive:
                    node.receive_items(inbox[nid], self, now)
            self._buffering = False
            self._flush_item_sends()
        else:
            for nid in delivery_ids:
                node = nodes[nid]
                if not node.alive:
                    continue
                for _sender, copy, via_like in inbox[nid]:
                    node.receive_item(copy, via_like, self, now)

    def shard_ingest_items(self, incoming: list) -> None:
        """Barrier 3: adopt remote item sends into next cycle's inboxes."""
        now = self.now
        nodes_get = self.nodes.get
        delivered = dropped = nbytes = 0
        inboxes = None
        for src, blob in incoming:
            if not blob:
                continue
            if inboxes is None:
                inboxes = self._future_inboxes[now + 1]
            for target_id, sender_id, copy, via_like in self._decode(src, blob):
                target = nodes_get(target_id)
                if target is not None and target._alive:
                    inboxes[target_id].append((sender_id, copy, via_like))
                    delivered += 1
                    nbytes += copy.wire_size()
                else:
                    dropped += 1
        if delivered or dropped:
            self._pending_items += delivered
            self.stats.record_items_bulk(delivered, dropped, nbytes)

    def shard_phase_close(self) -> None:
        """End of cycle: advance the clock."""
        self.now += 1
        self.cycles_run += 1


# --------------------------------------------------------------------------- #
# the worker process                                                          #
# --------------------------------------------------------------------------- #


def _apply_gates(gates: dict) -> None:
    """Pin the pipeline gates in this process (spawn-start safety)."""
    from repro._native import set_native_kernel

    set_mode(gates["mode"])
    set_native_kernel(gates["native"])
    set_wire_tier(gates["wire_tier"])
    global _INTERN_CAP, _PIN_CPUS
    _INTERN_CAP = gates["intern_cap"]
    _PIN_CPUS = gates["pin"]


def _pin_to_cpu(shard: int) -> int | None:
    """Pin this worker to one CPU of the allowed set; returns it, or None.

    Round-robin over the process's allowed CPUs (respects an outer
    cpuset/taskset restriction).  A worker that migrates between cores
    pays cache-refill and NUMA tax every barrier; pinning is a pure
    affinity hint — scheduling, and therefore simulation output, is
    unchanged.  No-op on single-CPU hosts and platforms without
    ``sched_setaffinity``.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return None
        cpu = cpus[shard % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):  # pragma: no cover - platform-dependent
        return None


class _ShardWorker:
    """Command loop run inside each worker process."""

    def __init__(self, shard: int, n_shards: int, ctrl, peer_conns) -> None:
        self.shard = shard
        self.n_shards = n_shards
        self.ctrl = ctrl
        self.peer_conns = peer_conns
        self.engine: _ShardEngine | None = None
        self.links: _PeerLinks | None = None
        self.arena: _ShardArena | None = None
        self.injector: FaultInjector | None = None
        self._wire: dict = {}
        self._arena_views: list = []
        self._segs: list = []
        #: wall seconds this worker spent per cycle stage since it started
        #: (``decode_s`` accrues on the engine).  Reporting only: they
        #: feed ``mailbox_stats()`` and never control flow, RNG or state.
        self._seconds = {
            "open_s": 0.0,
            "encode_s": 0.0,
            "exchange_s": 0.0,
            "cycle_s": 0.0,
        }

    # -- fault plumbing ------------------------------------------------------ #

    def _setup_faults(self, spec: dict) -> None:
        self._wire = spec.get("wire") or {}
        schedule = spec.get("faults")
        if schedule is None:
            self.injector = None
            return
        ctrl = self.ctrl

        def notify(key):
            # out-of-band: the parent learns a fatal fault fired even when
            # the fault kills this process before any reply is sent
            with suppress(BrokenPipeError, OSError):
                ctrl.send(("fired", key))

        self.injector = FaultInjector(
            schedule,
            self.shard,
            suppressed=spec.get("suppressed", frozenset()),
            notify=notify,
        )

    def _inject(self, cycle: int, phase: str) -> None:
        if self.injector is None:
            return
        try:
            self.injector.at_phase(cycle, phase)
        except InjectedFailure as exc:
            if exc.kind == "corrupt_arena":
                self._corrupt_arena()
            raise

    def _corrupt_arena(self) -> None:
        """Scribble the first arena-resident block (the injected damage)."""
        for _nid, _name, _off, _alloc, view, block in self._arena_views:
            if view._cols is block:
                block[:, :] = -1
                return

    # -- command handlers --------------------------------------------------- #

    def _init(self, blob: bytes) -> tuple:
        spec = _loads(blob)
        _apply_gates(spec["gates"])
        if _PIN_CPUS:
            _pin_to_cpu(self.shard)
        self._setup_faults(spec)

        # disjoint snapshot-uid ranges per process: parent uids stay tiny,
        # worker i allocates from (i + 1) << 44 — cross-process uid
        # collisions (and with them score-cache poisoning) are impossible
        from repro.core.profiles import FrozenProfile

        FrozenProfile._uid_counter = itertools.count((self.shard + 1) << 44)

        streams = ShardRngStreams(spec["seed"], self.shard)
        self.engine = _ShardEngine(
            spec["nodes"],
            spec["schedule"],
            spec["transport"],
            streams,
            spec["churn"],
            self.shard,
            self.n_shards,
        )
        return ("ready", self._arena_need(spec["want_arena"]))

    def _arena_need(self, want_arena: bool) -> int:
        need = 0
        if want_arena:
            for node in self.engine.nodes.values():
                for _name, view in _array_views_of(node):
                    alloc = max(view._alloc, 2 * view.capacity + 8)
                    need += 3 * 8 * alloc + _ARENA_ALIGN
            if need:
                need += 4096
        return need

    def _checkpoint(self) -> bytes:
        """Pickle this shard's complete simulation state.

        Everything :meth:`_restore` needs to resume bit-for-bit: nodes
        (views pickle their columns even while arena-resident), RNG
        streams mid-sequence, traffic/log/churn state, the engine clock
        and pending counters, future item inboxes, the per-link wire
        codecs (their intern/base tables — so replayed cycles re-emit
        reference and delta frames byte-identically), and the next
        snapshot uid.  One uid is burnt per
        checkpoint — at a fixed, supervised-only cadence — so a restored
        worker allocates exactly the uids the original would have.
        """
        from repro.core.profiles import FrozenProfile

        eng = self.engine
        uid_next = next(FrozenProfile._uid_counter) + 1
        FrozenProfile._uid_counter = itertools.count(uid_next)
        churn = eng.churn
        # defaultdict-of-defaultdict(list) holds unpicklable lambdas:
        # flatten to plain dicts, rebuilt on restore
        future = {
            cycle: {nid: list(rows) for nid, rows in box.items()}
            for cycle, box in eng._future_inboxes.items()
        }
        return _dumps(
            {
                "nodes": list(eng.nodes.values()),
                "schedule": eng.schedule,
                "transport": eng.transport,
                "streams": eng.streams,
                "churn": churn,
                "stats": _stats_parts(eng.stats),
                "log": eng.log,
                "now": eng.now,
                "cycles": eng.cycles_run,
                "pending": eng._pending_items,
                "future": future,
                "codec_out": eng._codec_out,
                "codec_in": eng._codec_in,
                "uid_next": uid_next,
                "degraded_until": eng._degraded_until,
                "degraded_ids": getattr(eng, "_degraded_ids", []),
            }
        )

    def _restore(self, blob: bytes) -> tuple:
        """Rebuild the shard engine from a checkpoint (respawn path)."""
        spec = _loads(blob)
        _apply_gates(spec["gates"])
        if _PIN_CPUS:
            _pin_to_cpu(self.shard)
        self._setup_faults(spec)

        from repro.core.profiles import FrozenProfile

        state = _loads(spec["state"])
        FrozenProfile._uid_counter = itertools.count(state["uid_next"])
        self.engine = _ShardEngine(
            state["nodes"],
            state["schedule"],
            state["transport"],
            state["streams"],
            state["churn"],
            self.shard,
            self.n_shards,
        )
        eng = self.engine
        _merge_stats_parts(eng.stats, state["stats"])
        eng.log = state["log"]
        eng.now = state["now"]
        eng.cycles_run = state["cycles"]
        eng._pending_items = state["pending"]
        for cycle, box in state["future"].items():
            inboxes = eng._future_inboxes[cycle]
            for nid, rows in box.items():
                inboxes[nid].extend(rows)
        eng._codec_out = state["codec_out"]
        eng._codec_in = state["codec_in"]
        eng._degraded_until = state["degraded_until"]
        eng._degraded_ids = state["degraded_ids"]
        degrade = spec.get("degrade")
        if degrade is not None:
            eng.begin_degraded(degrade)
        return ("ready", self._arena_need(spec["want_arena"]))

    def _attach(self, arena_name, out_names: dict, in_names: dict) -> tuple:
        adopted = 0
        if arena_name is not None:
            shm = _attach_shm(arena_name)
            self._segs.append(shm)
            self.arena = _ShardArena(shm)
            for nid, node in self.engine.nodes.items():
                for name, view in _array_views_of(node):
                    alloc = max(view._alloc, 2 * view.capacity + 8)
                    block, offset = self.arena.alloc_cols(alloc)
                    if block is None:
                        break
                    view.rehome(block)
                    self._arena_views.append((nid, name, offset, alloc, view, block))
                    adopted += 1
        out_segs = {}
        for peer, name in out_names.items():
            out_segs[peer] = _attach_shm(name)
            self._segs.append(out_segs[peer])
        in_segs = {}
        for peer, name in in_names.items():
            in_segs[peer] = _attach_shm(name)
            self._segs.append(in_segs[peer])
        self.links = _PeerLinks(
            self.shard,
            self.peer_conns,
            out_segs,
            in_segs,
            injector=self.injector,
            wire=self._wire,
        )
        return ("attached", adopted)

    def _barrier(self, tag, box: dict, phase: str = "gossip") -> list:
        """Encode *box*, run barrier *tag*, return the peers' frames."""
        seconds = self._seconds
        t0 = time.perf_counter()
        outgoing = self.engine.take_mailbox(box, phase)
        t1 = time.perf_counter()
        incoming = self.links.exchange(tag, outgoing)
        seconds["encode_s"] += t1 - t0
        seconds["exchange_s"] += time.perf_counter() - t1
        return incoming

    def _one_cycle(self) -> None:
        eng = self.engine
        seconds = self._seconds
        tag = eng.cycles_run
        t0 = time.perf_counter()
        # worker-level faults fire just before their phase's barrier, so
        # a crash leaves the siblings wedged mid-exchange — the exact
        # situation the deadline/heartbeat machinery must detect
        self._inject(tag, "open")
        eng.shard_phase_open()
        seconds["open_s"] += time.perf_counter() - t0
        self._inject(tag, "q")
        eng.shard_phase_requests(self._barrier((tag, "q"), eng._req_out))
        self._inject(tag, "r")
        eng.shard_phase_replies(self._barrier((tag, "r"), eng._rep_out))
        eng.shard_phase_deliver()
        self._inject(tag, "i")
        eng.shard_ingest_items(
            self._barrier((tag, "i"), eng._item_out, "items")
        )
        eng.shard_phase_close()
        seconds["cycle_s"] += time.perf_counter() - t0

    def _state_map(self) -> dict:
        live = {}
        for nid, name, offset, alloc, view, block in self._arena_views:
            if view._cols is block:  # still arena-resident (never grew)
                live.setdefault(nid, {})[name] = (offset, alloc, view._n)
        return live

    def _collect(self) -> bytes:
        eng = self.engine
        churn = eng.churn
        churn_parts = (
            (churn.total_kills, churn.total_rejoins)
            if churn is not None
            else None
        )
        return _dumps(
            (
                list(eng.nodes.values()),
                _stats_parts(eng.stats),
                eng.log,
                churn_parts,
            )
        )

    def _detach_views(self) -> None:
        """Re-home every arena-resident view back into private memory.

        A separate frame on purpose: the loop variables alias arena
        blocks, and they must be gone (frame exited) before the segments
        are closed — a single live export makes ``mmap.close`` raise
        ``BufferError``.
        """
        for _nid, _name, _off, _alloc, view, block in self._arena_views:
            if view._cols is block:
                view._allocate(view._alloc)
        self._arena_views = []

    def _cleanup(self) -> None:
        """Detach from shared memory before the worker exits.

        Every arena-resident view is re-homed back into private memory so
        no numpy view keeps a buffer export open — closing a segment with
        live exports raises ``BufferError`` from ``SharedMemory.__del__``
        at interpreter shutdown otherwise.
        """
        self._detach_views()
        self.arena = None
        if self.links is not None:
            self.links.out_segs = {}
            self.links.in_segs = {}
        for seg in self._segs:
            with suppress(Exception):  # platform close quirks
                seg.close()
        self._segs = []

    # -- the loop ----------------------------------------------------------- #

    def serve(self) -> None:
        try:
            self._serve()
        finally:
            self._cleanup()

    def _serve(self) -> None:
        ctrl = self.ctrl
        while True:
            try:
                cmd = ctrl.recv()
            except (EOFError, OSError):
                break
            try:
                op = cmd[0]
                if op == "run":
                    try:
                        for _ in range(cmd[1]):
                            self._one_cycle()
                    except _PeerFailure as exc:
                        # a peer died or stalled: report and return to the
                        # loop — the supervisor tears everyone down and
                        # respawns from the checkpoint
                        ctrl.send(("ran_failed", list(exc.peers), str(exc)))
                    except InjectedFailure as exc:
                        ctrl.send(("ran_failed", [self.shard], str(exc)))
                    else:
                        eng = self.engine
                        links = self.links
                        deltas = links.take_deltas() if links is not None else {}
                        ctrl.send(("ran", eng.now, eng._pending_items, deltas))
                elif op == "init":
                    ctrl.send(self._init(cmd[1]))
                elif op == "restore":
                    ctrl.send(self._restore(cmd[1]))
                elif op == "checkpoint":
                    ctrl.send(("ckpt", self._checkpoint()))
                elif op == "attach":
                    ctrl.send(self._attach(cmd[1], cmd[2], cmd[3]))
                elif op == "alive_ids":
                    ctrl.send(("alive_ids", self.engine.alive_node_ids()))
                elif op == "get_node":
                    node = self.engine.nodes.get(cmd[1])
                    ctrl.send(("node", None if node is None else _dumps(node)))
                elif op == "add_node":
                    self.engine.add_node(_loads(cmd[1]))
                    ctrl.send(("ok",))
                elif op == "state_map":
                    ctrl.send(("state_map", self._state_map()))
                elif op == "link_stats":
                    links = self.links
                    from repro.network.stats import WireStats

                    wire = WireStats()
                    for enc in self.engine._codec_out.values():
                        wire.merge(enc.stats)
                    ctrl.send(
                        (
                            "link_stats",
                            {
                                "shm_bytes": links.shm_bytes,
                                "inline_bytes": links.inline_bytes,
                                "chunk_retries": links.chunk_retries,
                                "crc_failures": links.crc_failures,
                                "dup_chunks": links.dup_chunks,
                                **self._seconds,
                                "decode_s": self.engine.decode_s,
                                # the whole worker runs paused, so this
                                # collection finds every unreachable
                                # reference cycle left since the last report
                                "cyclic_garbage": collect_garbage(),
                                "wire": {
                                    "tier": wire_tier(),
                                    **wire.as_dict(),
                                },
                            },
                        )
                    )
                elif op == "collect":
                    ctrl.send(("state", self._collect()))
                elif op == "stop":
                    ctrl.send(("stopped",))
                    break
                else:
                    ctrl.send(("error", f"unknown command {op!r}"))
            except Exception:
                try:
                    ctrl.send(("error", traceback.format_exc()))
                except (BrokenPipeError, OSError):  # parent went away
                    break


def _worker_main(
    shard: int, n_shards: int, ctrl, peer_conns, close_conns=()
) -> None:
    # under a fork start every worker inherits ALL pipe ends created
    # before its fork — including its siblings'.  Close them first, or a
    # dead sibling's pipes never reach EOF (the surviving holders keep
    # them open) and prompt crash detection is impossible.
    for conn in close_conns:
        with suppress(OSError):  # already closed
            conn.close()
    # a worker is a simulation process: it works on the state it unpickles,
    # none of which is cyclic, so it never runs the cyclic collector
    # (repro.utils.runtime); the parent's heap it inherited is left out too
    freeze_inherited()
    with collector_paused():
        _ShardWorker(shard, n_shards, ctrl, peer_conns).serve()


# --------------------------------------------------------------------------- #
# the parent-side facade                                                      #
# --------------------------------------------------------------------------- #


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platform
        return multiprocessing.get_context("spawn")


def _gate_snapshot() -> dict:
    from repro._native import native_kernel_enabled

    return {
        "mode": "fast" if fast_mode() else "reference",
        "native": native_kernel_enabled(),
        "wire_tier": wire_tier(),
        "intern_cap": _INTERN_CAP,
        "pin": _PIN_CPUS,
    }


class ShardedCycleEngine:
    """Parent-side facade of a process-sharded simulation run.

    Exposes the :class:`CycleEngine` surface the harness, the experiment
    runner and the CLI consume — ``run`` / ``run_until_drained``,
    ``nodes`` / ``node`` / ``add_node`` / ``alive_node_ids``, ``stats`` /
    ``log`` / ``pending_item_messages`` — while the node population lives
    in worker processes.  Reading ``nodes`` / ``stats`` / ``log`` after a
    run triggers a :meth:`collect`, which adopts the workers' state into
    the parent (the facade is then coherent until the next run).

    Construct through :func:`make_engine`; always :meth:`close` (or use as
    a context manager) so worker processes and shared-memory segments are
    released deterministically.
    """

    def __init__(
        self,
        nodes: Iterable[BaseNode],
        schedule: PublicationSchedule,
        transport: Transport | None = None,
        streams: RngStreams | None = None,
        churn: object | None = None,
        n_shards: int | None = None,
    ) -> None:
        nodes = list(nodes)
        self.n_shards = int(n_shards if n_shards is not None else shard_count())
        if self.n_shards < 2:
            raise SimulationError(
                "ShardedCycleEngine needs n_shards >= 2; "
                "make_engine returns a CycleEngine below that"
            )
        self.schedule = schedule
        self.transport = (
            transport if transport is not None else PerfectTransport()
        )
        if not self.transport.is_lossless():
            raise SimulationError("sharding requires a lossless transport")
        self.streams = streams if streams is not None else RngStreams(0)
        self.churn = churn
        self.now = 0
        self.cycles_run = 0
        self._observers: list = []
        self._pending = 0
        self._order: list[int] = []
        self._nodes: dict[int, BaseNode] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise SimulationError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
            self._order.append(node.node_id)
        self._dirty = False
        self._stats: TrafficStats | None = None
        self._log: DisseminationLog | None = None
        self._closed = False
        self._use_shm = shard_shm_enabled()
        self._arenas: dict[int, object] = {}
        self._own_segs: list = []
        self._procs: list = []
        self._ctrl: list = []
        # -- fault plane / supervision ---------------------------------- #
        self._faults = fault_schedule()
        recovery = _RECOVERY_MODE if _RECOVERY_MODE is not None else _env_recovery()
        if recovery == "auto":
            recovery = "restore" if self._faults is not None else "off"
        self._recovery = recovery
        #: supervision wraps every run in checkpoint + retry machinery;
        #: off by default so the fault-free path stays bitwise-identical
        self._supervised = self._recovery != "off" or self._faults is not None
        self._wire = {
            "timeout": _EXCHANGE_TIMEOUT,
            "retries": _EXCHANGE_RETRIES,
            "backoff": _BACKOFF_BASE,
        }
        self.recovery_stats = RecoveryStats()
        self.fault_log = FaultLog()
        self._fired: set = set()  # fatal fault keys already executed
        self._ckpt: dict | None = None
        try:
            self._start_workers(nodes)
        except Exception:
            self.close()
            raise

    # -- worker lifecycle --------------------------------------------------- #

    def _spawn_procs(self) -> None:
        """Start the worker processes and wire the control/peer pipes."""
        ctx = _mp_context()
        n = self.n_shards
        if self._use_shm:
            # start the resource tracker *before* forking: the workers then
            # share the parent's tracker and their attach-side registrations
            # collapse into the parent's single entry per segment (no
            # spurious "leaked shared_memory" warnings at worker exit)
            with suppress(Exception):  # tracker internals moved
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
        # create every pipe before any fork, so each worker can be handed
        # the complete list of ends that are NOT its own and close them —
        # a fork-started child inherits all of them otherwise, keeping a
        # dead sibling's pipes open and masking its EOF
        pair: dict = {}
        for i in range(n):
            for j in range(i + 1, n):
                pair[(i, j)] = ctx.Pipe()
        ctrls = [ctx.Pipe() for _ in range(n)]
        fork_start = ctx.get_start_method() == "fork"
        all_conns: list = []
        if fork_start:
            for conn_a, conn_b in pair.values():
                all_conns.append(conn_a)
                all_conns.append(conn_b)
            for parent_conn, child_conn in ctrls:
                all_conns.append(parent_conn)
                all_conns.append(child_conn)
        for w in range(n):
            parent_conn, child_conn = ctrls[w]
            peers = {}
            for p in range(n):
                if p == w:
                    continue
                i, j = (w, p) if w < p else (p, w)
                peers[p] = pair[(i, j)][0 if w == i else 1]
            mine = set(id(c) for c in peers.values())
            mine.add(id(child_conn))
            others = [c for c in all_conns if id(c) not in mine]
            proc = ctx.Process(
                target=_worker_main,
                args=(w, n, child_conn, peers, others),
                daemon=True,
                name=f"repro-shard-{w}",
            )
            proc.start()
            self._procs.append(proc)
            self._ctrl.append(parent_conn)
        # the parent keeps no end of the peer pipes: close its copies so a
        # dead worker surfaces as EOF instead of a silent hang
        for conn_a, conn_b in pair.values():
            conn_a.close()
            conn_b.close()
        for _parent_conn, child_conn in ctrls:
            child_conn.close()

    def _provision(self, cmds: list) -> None:
        """Initialise freshly spawned workers and attach shared memory.

        *cmds* is one ``("init", blob)`` or ``("restore", blob)`` command
        per worker; both reply ``("ready", arena_need)``, after which the
        parent creates the arena and mailbox segments (with the inline
        fallback when the platform has no usable shared memory) and
        completes the attach handshake.
        """
        n = self.n_shards
        for w in range(n):
            self._ctrl[w].send(cmds[w])
        needs = [self._expect(w, "ready")[1] for w in range(n)]

        arena_names: list = [None] * n
        out_names: list = [dict() for _ in range(n)]
        in_names: list = [dict() for _ in range(n)]
        if self._use_shm:
            try:
                from multiprocessing import shared_memory

                for w, need in enumerate(needs):
                    if need:
                        seg = shared_memory.SharedMemory(create=True, size=need)
                        self._own_segs.append(seg)
                        self._arenas[w] = seg
                        arena_names[w] = seg.name
                for src in range(n):
                    for dst in range(n):
                        if src == dst:
                            continue
                        seg = shared_memory.SharedMemory(
                            create=True, size=_MAILBOX_BYTES
                        )
                        self._own_segs.append(seg)
                        out_names[src][dst] = seg.name
                        in_names[dst][src] = seg.name
            except Exception:
                # no usable shared memory on this platform: inline fallback
                self._release_segs()
                self._arenas = {}
                arena_names = [None] * n
                out_names = [dict() for _ in range(n)]
                in_names = [dict() for _ in range(n)]
                self._use_shm = False
        for w in range(n):
            self._ctrl[w].send(("attach", arena_names[w], out_names[w], in_names[w]))
        for w in range(n):
            self._expect(w, "attached")

    def _start_workers(self, nodes: list) -> None:
        self._spawn_procs()

        from repro.gossip.views import array_views

        n = self.n_shards
        gates = _gate_snapshot()
        shards = [[] for _ in range(n)]
        for nid in self._order:
            shards[shard_of(nid, n)].append(self._nodes[nid])
        want_arena = self._use_shm and array_views()
        cmds = []
        for w in range(n):
            blob = _dumps(
                {
                    "seed": self.streams.seed,
                    "nodes": shards[w],
                    "schedule": self.schedule,
                    "transport": self.transport,
                    "churn": self.churn,
                    "gates": gates,
                    "want_arena": want_arena,
                    "faults": self._faults,
                    "suppressed": set(self._fired),
                    "wire": self._wire,
                }
            )
            cmds.append(("init", blob))
        self._provision(cmds)

    def _expect(self, worker: int, op: str) -> tuple:
        conn = self._ctrl[worker]
        deadline = time.monotonic() + _CTRL_TIMEOUT
        while True:
            if not conn.poll(max(0.0, deadline - time.monotonic())):
                raise SimulationError(
                    f"shard worker {worker} did not answer within "
                    f"{_CTRL_TIMEOUT:.0f}s (waiting for {op!r})"
                )
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                raise SimulationError(
                    f"shard worker {worker} died (waiting for {op!r})"
                ) from None
            if msg[0] == "fired":  # out-of-band fault notification
                self._note_fired(worker, msg[1])
                continue
            break
        if msg[0] == "error":
            raise SimulationError(f"shard worker {worker} failed:\n{msg[1]}")
        if msg[0] != op:
            raise SimulationError(
                f"shard worker {worker}: expected {op!r}, got {msg[0]!r}"
            )
        return msg

    def _note_fired(self, worker: int, key) -> None:
        """Record a fatal fault's key so a respawn cannot replay it."""
        key = tuple(key)
        if key not in self._fired:
            self._fired.add(key)
            self.fault_log.record(self.cycles_run, worker, "fault_fired", repr(key))

    def _broadcast(self, cmd: tuple, reply_op: str) -> list:
        """Send *cmd* to every worker; collect one reply each.

        Replies are drained in arrival order, not worker order: when one
        worker fails mid-cycle its siblings stay wedged at a mailbox
        barrier and never answer, so waiting on worker 0 first would
        turn any error into a timeout attributed to the wrong process.
        The first ``error`` reply aborts the run immediately — with the
        failing worker's real traceback — and tears the engine down
        (the wedged siblings are terminated by :meth:`close`).
        """
        if self._closed:
            raise SimulationError("engine is closed")
        for worker, conn in enumerate(self._ctrl):
            try:
                conn.send(cmd)
            except (BrokenPipeError, OSError):
                self.close()
                raise SimulationError(
                    f"shard worker {worker} died (control pipe broken "
                    f"before {reply_op!r})"
                ) from None

        replies: dict[int, tuple] = {}
        pending = {conn: w for w, conn in enumerate(self._ctrl)}
        deadline = time.monotonic() + _CTRL_TIMEOUT
        while pending:
            timeout = max(0.0, deadline - time.monotonic())
            ready = _conn_wait(list(pending), timeout)
            if not ready:
                missing = sorted(pending.values())
                self.close()
                raise SimulationError(
                    f"shard workers {missing} did not answer within "
                    f"{_CTRL_TIMEOUT:.0f}s (waiting for {reply_op!r})"
                )
            for conn in ready:
                worker = pending[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self.close()
                    raise SimulationError(
                        f"shard worker {worker} died "
                        f"(waiting for {reply_op!r})"
                    ) from None
                if msg[0] == "fired":  # out-of-band fault notification
                    self._note_fired(worker, msg[1])
                    continue
                del pending[conn]
                if msg[0] == "error":
                    self.close()
                    raise SimulationError(
                        f"shard worker {worker} failed:\n{msg[1]}"
                    )
                if msg[0] != reply_op:  # pragma: no cover - protocol bug
                    self.close()
                    raise SimulationError(
                        f"shard worker {worker}: expected {reply_op!r}, "
                        f"got {msg[0]!r}"
                    )
                replies[worker] = msg
        return [replies[w] for w in range(self.n_shards)]

    # -- population --------------------------------------------------------- #

    @property
    def nodes(self) -> dict[int, BaseNode]:
        """The node population, collected from the workers when stale.

        While a run is in flight between reads, the parent's copies lag;
        the first access after a run adopts the workers' current objects
        (the same instances later reads keep returning).
        """
        if self._dirty:
            self.collect()
        return self._nodes

    def node(self, node_id: int) -> BaseNode:
        """Look up a node by id (fresh worker copy while running)."""
        if not self._dirty or self._closed:
            try:
                return self._nodes[node_id]
            except KeyError:
                raise SimulationError(f"unknown node id {node_id}") from None
        if node_id not in self._nodes:
            raise SimulationError(f"unknown node id {node_id}")
        w = shard_of(node_id, self.n_shards)
        self._ctrl[w].send(("get_node", node_id))
        msg = self._expect(w, "node")
        if msg[1] is None:  # pragma: no cover - registry/worker divergence
            raise SimulationError(f"unknown node id {node_id}")
        return _loads(msg[1])

    def add_node(self, node: BaseNode) -> None:
        """Add a node joining mid-run (its first cycle is the next one)."""
        if self._closed:
            raise SimulationError("engine is closed")
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id}")
        w = shard_of(node.node_id, self.n_shards)
        self._ctrl[w].send(("add_node", _dumps(node)))
        self._expect(w, "ok")
        self._nodes[node.node_id] = node
        self._order.append(node.node_id)

    def alive_node_ids(self) -> list[int]:
        """Ids of alive nodes, concatenated in shard order."""
        replies = self._broadcast(("alive_ids",), "alive_ids")
        out: list[int] = []
        for msg in replies:
            out.extend(msg[1])
        return out

    # -- the run loop -------------------------------------------------------- #

    def add_observer(self, fn) -> None:
        """Register ``fn(engine, cycle)``; fired on the facade per cycle.

        Observers see the facade (aggregate clock/pending state), not live
        node objects — reading ``nodes`` from an observer forces a
        collect per cycle, which is correct but slow.
        """
        self._observers.append(fn)

    def _absorb_deltas(self, replies: list) -> None:
        for msg in replies:
            deltas = msg[3] if len(msg) > 3 else None
            if deltas:
                self.recovery_stats.chunk_retries += deltas.get("chunk_retries", 0)
                self.recovery_stats.crc_failures += deltas.get("crc_failures", 0)
                self.recovery_stats.dup_chunks += deltas.get("dup_chunks", 0)

    def _step(self, k: int) -> None:
        if self._supervised:
            self._step_supervised(k)
            return
        replies = self._broadcast(("run", k), "ran")
        self.now += k
        self.cycles_run += k
        self._pending = sum(msg[2] for msg in replies)
        self._absorb_deltas(replies)
        self._dirty = True
        self._stats = None
        self._log = None

    # -- supervision (fault plane active) ------------------------------------ #

    def _step_supervised(self, k: int) -> None:
        """Advance *k* cycles under checkpoint/retry supervision.

        Runs in chunks aligned to the checkpoint cadence: before each
        chunk a synchronized full-state checkpoint is taken when due, and
        a chunk that fails — a worker crashed, stalled past its deadline,
        or surfaced an injected failure — triggers a global
        rollback-replay: every worker is torn down and respawned from the
        last checkpoint (dead shards optionally entering degraded mode),
        the parent clock rolls back with them, and the loop re-runs the
        lost cycles.  Fired fatal faults are suppressed on replay, so the
        respawned population does not re-crash; every other draw replays
        bit-for-bit.
        """
        target = self.cycles_run + k
        recoveries = 0
        while self.cycles_run < target:
            dead = None
            attempted = 0
            if self._ckpt is None or (
                self.cycles_run - self._ckpt["cycle"] >= _CKPT_EVERY
            ):
                ok, result = self._try_checkpoint()
                if not ok:
                    if self._ckpt is None:
                        self.close()
                        raise SimulationError(
                            "shard worker failure before the first "
                            f"checkpoint (shards {sorted(result)})"
                        )
                    dead = result  # recover below, then retry the chunk
            if dead is None:
                chunk = min(
                    target - self.cycles_run,
                    _CKPT_EVERY - (self.cycles_run - self._ckpt["cycle"]),
                )
                ok, result = self._try_run(chunk)
                if ok:
                    self.now += chunk
                    self.cycles_run += chunk
                    self._pending = result
                    continue
                dead = result
                attempted = chunk
            recoveries += 1
            self.recovery_stats.worker_deaths += len(dead)
            if self._recovery == "off" or recoveries > _MAX_RECOVERIES:
                self.close()
                raise SimulationError(
                    f"shard worker failure at cycle {self.cycles_run} "
                    f"(dead/failed shards: {sorted(dead) or 'none'}; "
                    f"recovery={self._recovery!r}, "
                    f"{recoveries - 1} recoveries already spent)"
                )
            replayed = (self.cycles_run - self._ckpt["cycle"]) + attempted
            self.recovery_stats.recoveries += 1
            self.recovery_stats.replayed_cycles += replayed
            self.fault_log.record(
                self.cycles_run,
                -1,
                "recovery",
                f"rollback to cycle {self._ckpt['cycle']} "
                f"(dead shards {sorted(dead) or '[]'})",
            )
            degrade = dead if self._recovery == "degraded" else frozenset()
            self._respawn_from_checkpoint(degrade)
        self._dirty = True
        self._stats = None
        self._log = None

    def _try_run(self, k: int) -> tuple:
        """One supervised run chunk.

        Returns ``(True, pending_total)`` when every worker completed, or
        ``(False, dead_shards)`` when any worker died (control-pipe EOF),
        reported a peer/injected failure, or went silent past the
        worker-side exchange deadline plus control slack.
        """
        replies: dict[int, tuple] = {}
        dead: set[int] = set()
        failed: set[int] = set()
        pending: dict = {}
        for w, conn in enumerate(self._ctrl):
            try:
                conn.send(("run", k))
                pending[conn] = w
            except (BrokenPipeError, OSError):
                # died between runs (external SIGKILL): recover directly
                dead.add(w)
                self.fault_log.record(
                    self.cycles_run, w, "worker_death", "control pipe broken"
                )
        # workers bound their own waits by the exchange deadline; the
        # parent allows that plus control slack before declaring a wedge
        deadline = time.monotonic() + self._wire["timeout"] + _CTRL_TIMEOUT
        while pending:
            timeout = max(0.0, deadline - time.monotonic())
            ready = _conn_wait(list(pending), timeout)
            if not ready:
                for w in pending.values():
                    dead.add(w)
                    self.fault_log.record(
                        self.cycles_run, w, "worker_death", "silent past deadline"
                    )
                break
            for conn in ready:
                w = pending[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    del pending[conn]
                    dead.add(w)
                    self.fault_log.record(
                        self.cycles_run, w, "worker_death", "control pipe EOF"
                    )
                    continue
                op = msg[0]
                if op == "fired":
                    self._note_fired(w, msg[1])
                    continue
                del pending[conn]
                if op == "ran":
                    replies[w] = msg
                elif op == "ran_failed":
                    failed.add(w)
                    self.fault_log.record(self.cycles_run, w, "ran_failed", msg[2])
                elif op == "error":
                    failed.add(w)
                    self.fault_log.record(
                        self.cycles_run, w, "worker_error", msg[1][-2000:]
                    )
                else:  # pragma: no cover - protocol bug
                    self.close()
                    raise SimulationError(
                        f"shard worker {w}: expected 'ran', got {op!r}"
                    )
        if dead or failed:
            return (False, frozenset(dead))
        ordered = [replies[w] for w in range(self.n_shards)]
        self._absorb_deltas(ordered)
        return (True, sum(msg[2] for msg in ordered))

    def _try_checkpoint(self) -> tuple:
        """Synchronized full-state checkpoint of every shard.

        Returns ``(True, None)`` and installs the checkpoint only when
        every worker produced its blob; on any worker failure the
        previous checkpoint stays in place (never a partial one) and the
        dead/failed shard set is returned for the recovery path.
        """
        replies: dict[int, tuple] = {}
        dead: set[int] = set()
        pending: dict = {}
        for w, conn in enumerate(self._ctrl):
            try:
                conn.send(("checkpoint",))
                pending[conn] = w
            except (BrokenPipeError, OSError):
                dead.add(w)
                self.fault_log.record(
                    self.cycles_run, w, "worker_death", "control pipe broken"
                )
        deadline = time.monotonic() + _CTRL_TIMEOUT
        while pending:
            timeout = max(0.0, deadline - time.monotonic())
            ready = _conn_wait(list(pending), timeout)
            if not ready:
                dead.update(pending.values())
                break
            for conn in ready:
                w = pending[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    del pending[conn]
                    dead.add(w)
                    self.fault_log.record(
                        self.cycles_run, w, "worker_death", "control pipe EOF"
                    )
                    continue
                if msg[0] == "fired":
                    self._note_fired(w, msg[1])
                    continue
                del pending[conn]
                if msg[0] == "ckpt":
                    replies[w] = msg
                else:
                    dead.add(w)
                    self.fault_log.record(
                        self.cycles_run, w, "worker_error", str(msg[:2])
                    )
        if dead:
            return (False, frozenset(dead))
        blobs = [replies[w][1] for w in range(self.n_shards)]
        self._ckpt = {
            "cycle": self.cycles_run,
            "now": self.now,
            "pending": self._pending,
            "blobs": blobs,
        }
        nbytes = sum(len(b) for b in blobs)
        self.recovery_stats.checkpoints += 1
        self.recovery_stats.checkpoint_bytes += nbytes
        self.fault_log.record(self.cycles_run, -1, "checkpoint", f"{nbytes} bytes")
        return (True, None)

    def _teardown_workers(self) -> None:
        """Stop (escalating to kill) every worker and release all shm."""
        for conn in self._ctrl:
            with suppress(BrokenPipeError, OSError):
                conn.send(("stop",))
        for proc in self._procs:
            proc.join(timeout=1)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5)
        for conn in self._ctrl:
            with suppress(OSError):
                conn.close()
        self._ctrl = []
        self._procs = []
        self._arenas = {}
        self._release_segs()

    def _respawn_from_checkpoint(self, degrade_shards: frozenset) -> None:
        """Global rollback: fresh workers, every shard restored.

        Peers of a dead worker hold unrecoverable mid-barrier state (the
        barrier lost in-flight chunks and the interning tables advance in
        lock-step), so recovery replaces *all* workers — new processes,
        new pipes, new segments — and restores each from the checkpoint.
        Shards in *degrade_shards* come back with their population
        churned-offline for the degraded window instead of live.
        """
        from repro.gossip.views import array_views

        ckpt = self._ckpt
        self._teardown_workers()
        self._spawn_procs()
        gates = _gate_snapshot()
        want_arena = self._use_shm and array_views()
        until = ckpt["now"] + (_DEGRADED_FOR or _CKPT_EVERY)
        cmds = []
        for w in range(self.n_shards):
            spec = {
                "gates": gates,
                "want_arena": want_arena,
                "faults": self._faults,
                "suppressed": set(self._fired),
                "wire": self._wire,
                "state": ckpt["blobs"][w],
                "degrade": until if w in degrade_shards else None,
            }
            cmds.append(("restore", _dumps(spec)))
        self._provision(cmds)
        self.now = ckpt["now"]
        self.cycles_run = ckpt["cycle"]
        self._pending = ckpt["pending"]
        if degrade_shards:
            window = until - ckpt["now"]
            self.recovery_stats.degraded_cycles += window * len(degrade_shards)
            self.fault_log.record(
                self.cycles_run,
                -1,
                "degraded",
                f"shards {sorted(degrade_shards)} offline until cycle {until}",
            )

    def fault_stats(self) -> RecoveryStats:
        """The run's fault-plane counters (all zero when unsupervised)."""
        return self.recovery_stats

    def run(self, n_cycles: int) -> None:
        """Advance the simulation by *n_cycles* cycles."""
        if n_cycles <= 0:
            return
        if self._observers:
            for _ in range(n_cycles):
                cycle = self.now
                self._step(1)
                for fn in self._observers:
                    fn(self, cycle)
        else:
            self._step(n_cycles)

    def run_until_drained(self, max_extra: int = 200) -> int:
        """Run past the schedule until no item messages remain in flight."""
        extra = 0
        while extra < max_extra:
            if self.now > self.schedule.last_cycle and self._pending == 0:
                break
            self.run(1)
            extra += 1
        return extra

    def pending_item_messages(self) -> int:
        """Item copies in flight across all shards (post-cycle totals)."""
        return self._pending

    # -- state adoption ------------------------------------------------------ #

    @collector_paused()
    def collect(self) -> None:
        """Adopt the workers' node state, traffic counters and event logs.

        Per-worker logs/stats merge in shard order; node objects replace
        the parent's stale copies under their original insertion order.
        Idempotent between runs.  Runs with automatic cyclic collection
        paused (:mod:`repro.utils.runtime`): unpickling the population
        allocates much and frees nothing cyclic.
        """
        replies = self._broadcast(("collect",), "state")
        stats = TrafficStats()
        log = DisseminationLog()
        fresh: dict[int, BaseNode] = {}
        kills = rejoins = 0
        have_churn = False
        for msg in replies:
            nodes, stats_parts, wlog, churn_parts = _loads(msg[1])
            for node in nodes:
                fresh[node.node_id] = node
            _merge_stats_parts(stats, stats_parts)
            log.merge(wlog)
            if churn_parts is not None:
                have_churn = True
                kills += churn_parts[0]
                rejoins += churn_parts[1]
        # adopt worker state *into* the parent's existing node objects
        # (pickle-state transplant), so every reference taken before the
        # run — harness lists, a joiner returned by join_node, test
        # fixtures — observes the collected state under a stable identity
        current = self._nodes
        merged: dict[int, BaseNode] = {}
        for nid in self._order:
            node = fresh.get(nid)
            if node is None:  # pragma: no cover - registry divergence
                continue
            held = current.get(nid)
            if held is not None and held is not node:
                held.__setstate__(node.__getstate__())
                node = held
            merged[nid] = node
        self._nodes = merged
        self._stats = stats
        self._log = log
        if have_churn and self.churn is not None:
            # surface aggregate churn counters on the parent's model copy
            self.churn.total_kills = kills
            self.churn.total_rejoins = rejoins
        self._dirty = False

    @property
    def stats(self) -> TrafficStats:
        """Merged traffic counters across shards (collected on demand)."""
        if self._stats is None or self._dirty:
            self.collect()
        return self._stats

    @property
    def log(self) -> DisseminationLog:
        """Merged dissemination log across shards (collected on demand)."""
        if self._log is None or self._dirty:
            self.collect()
        return self._log

    # -- shared-memory state plane ------------------------------------------- #

    def mailbox_stats(self) -> list[dict]:
        """Per-shard mailbox traffic: bytes staged via shm vs inline.

        Sender-side counts since start-up, in shard order — the
        measurement hook behind the mailbox-overhead numbers in
        ``PERFORMANCE.md``.  Each dict carries the chunk-transport
        counters, the worker's own wall seconds since it started —
        ``open_s`` (sub-cycle A), ``encode_s`` (mailbox → frames),
        ``exchange_s`` (the barriers), ``decode_s`` (frames → rows) and
        ``cycle_s`` (whole cycles; the rest is compute) — plus a
        ``"wire"`` sub-dict: the active tier and the merged
        :class:`~repro.network.stats.WireStats` of the shard's outgoing
        link codecs (frame bytes per encoding tier, profile crossings by
        representation).  The seconds restart with a respawned worker.
        ``cyclic_garbage`` is what one full collection in the worker finds
        now — everything unreachable and cyclic its work left since the
        previous report, as the worker never collects on its own
        (:mod:`repro.utils.runtime`); zero for the stock protocol.
        """
        return [
            msg[1] for msg in self._broadcast(("link_stats",), "link_stats")
        ]

    def state_map(self) -> dict:
        """Arena placement of every shard-resident view.

        ``{node_id: {"rps"|"wup": (offset, alloc, n)}}`` for views still
        living in their shard's shared-memory arena.  Empty when shared
        memory is off or the views are dict-backed.
        """
        if not self._arenas:
            return {}
        merged: dict = {}
        for msg in self._broadcast(("state_map",), "state_map"):
            merged.update(msg[1])
        return merged

    def view_columns(self, node_id: int, proto: str = "rps") -> tuple:
        """One view's live ``(ids, ts)`` columns, read zero-copy.

        Reads the shard arena mapping directly — no worker pickle of the
        view — returning defensive copies of the two columns.  Raises
        when the view is not arena-resident (shared memory off, dict
        views, or the view outgrew its block).
        """
        placement = self.state_map().get(node_id, {}).get(proto)
        if placement is None:
            raise SimulationError(
                f"view {proto!r} of node {node_id} is not arena-resident"
            )
        offset, alloc, n = placement
        seg = self._arenas[shard_of(node_id, self.n_shards)]
        block = np.frombuffer(
            seg.buf, dtype=np.int64, count=3 * alloc, offset=offset
        ).reshape(3, alloc)
        return block[0, :n].copy(), block[1, :n].copy()

    # -- teardown ------------------------------------------------------------ #

    def _release_segs(self) -> None:
        # close and unlink in separate suppressions: a failed close (live
        # buffer export, platform quirk) must never leave the segment
        # registered — the unlink is what prevents a leak
        for seg in self._own_segs:
            with suppress(Exception):  # live export / double close
                seg.close()
            with suppress(Exception):  # already unlinked
                seg.unlink()
        self._own_segs = []

    def close(self) -> None:
        """Stop the workers and release shared-memory segments.

        Safe against abnormal worker exits: a worker that died mid-phase
        (SIGKILL, crash fault) is skipped by the escalation chain and
        every parent-owned segment is unlinked regardless — the engine
        never leaves shared memory behind.
        """
        if self._closed:
            return
        self._closed = True
        self._teardown_workers()

    def __enter__(self) -> "ShardedCycleEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering dependent
        with suppress(Exception):
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedCycleEngine(shards={self.n_shards}, "
            f"nodes={len(self._nodes)}, now={self.now}, "
            f"pending={self._pending})"
        )


def make_engine(
    nodes: Iterable[BaseNode],
    schedule: PublicationSchedule,
    transport: Transport | None = None,
    streams: RngStreams | None = None,
    churn: object | None = None,
    run_config=None,
) -> "CycleEngine | ShardedCycleEngine":
    """Construct the engine the current ``REPRO_SHARDS`` setting asks for.

    The facade factory systems go through: with the gate at its default
    of 1 this *is* ``CycleEngine(...)`` — no worker, no shared memory, no
    behavioural delta of any kind.  Above 1 it returns a
    :class:`ShardedCycleEngine` when the configuration supports sharding,
    and falls back to the single-process engine (with a warning) when it
    does not: lossy/latency transports (per-message RNG draws have no
    deterministic cross-process order) or populations too small to give
    every shard at least two nodes.

    *run_config* (a :class:`repro.api.RunConfig`, duck-typed on
    ``apply()``) pins the whole gate matrix for the construction — the
    workers snapshot the gates at spawn, so the engine keeps the config's
    behaviour after the context exits.
    """
    if run_config is not None:
        with run_config.apply():
            return make_engine(
                nodes, schedule, transport=transport, streams=streams, churn=churn
            )
    n = shard_count()
    nodes = list(nodes)
    if n <= 1:
        return CycleEngine(
            nodes, schedule, transport=transport, streams=streams, churn=churn
        )
    tr = transport if transport is not None else PerfectTransport()
    if not tr.is_lossless():
        warnings.warn(
            "REPRO_SHARDS>1 requires a lossless transport; "
            "running single-process",
            RuntimeWarning,
            stacklevel=2,
        )
        return CycleEngine(nodes, schedule, transport=tr, streams=streams, churn=churn)
    if len(nodes) < 2 * n:
        warnings.warn(
            f"population of {len(nodes)} is too small for {n} shards; "
            "running single-process",
            RuntimeWarning,
            stacklevel=2,
        )
        return CycleEngine(nodes, schedule, transport=tr, streams=streams, churn=churn)
    return ShardedCycleEngine(
        nodes,
        schedule,
        transport=tr,
        streams=streams,
        churn=churn,
        n_shards=n,
    )
