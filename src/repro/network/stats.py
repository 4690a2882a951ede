"""Traffic accounting.

Counts attempted/delivered/dropped messages and delivered bytes, split by
protocol kind (:class:`~repro.network.message.MessageKind`).  The experiment
harness derives from these counters:

* the paper's "Messages / Cycles / Nodes" x-axis of Figures 3d-3f (item
  messages only — the quantity Table III reports as ``Mess./User``);
* the per-protocol bandwidth split of Figure 8b, converting bytes to Kbps
  given the gossip-cycle duration (30 s in the paper's deployment runs).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.network.message import Envelope, MessageKind

__all__ = ["TrafficStats", "RecoveryStats", "WireStats"]


@dataclass
class TrafficStats:
    """Mutable counters for one simulation run."""

    sent: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    delivered: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    dropped: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    bytes_delivered: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def record(self, envelope: Envelope, delivered: bool) -> None:
        """Record one transmission attempt and its outcome."""
        kind = envelope.kind
        self.sent[kind] += 1
        if delivered:
            self.delivered[kind] += 1
            self.bytes_delivered[kind] += envelope.size_bytes
        else:
            self.dropped[kind] += 1

    def record_parts(self, kind: MessageKind, size_bytes: int, delivered: bool) -> None:
        """Record one attempt from its parts (no envelope construction).

        The engine's lossless fast path accounts gossip legs without
        materialising an :class:`~repro.network.message.Envelope`; the
        counters move exactly as :meth:`record` would move them.
        """
        self.sent[kind] += 1
        if delivered:
            self.delivered[kind] += 1
            self.bytes_delivered[kind] += size_bytes
        else:
            self.dropped[kind] += 1

    def record_items_bulk(self, delivered: int, dropped: int, nbytes: int) -> None:
        """Account a whole cycle's item sends in one update.

        *delivered* attempts reached an alive target carrying *nbytes*
        total; *dropped* attempts targeted dead or unknown nodes.  Totals
        match *delivered + dropped* per-envelope :meth:`record` calls.
        """
        kind = MessageKind.ITEM
        self.sent[kind] += delivered + dropped
        if delivered:
            self.delivered[kind] += delivered
            self.bytes_delivered[kind] += nbytes
        if dropped:
            self.dropped[kind] += dropped

    # -- derived quantities -------------------------------------------------

    def total_sent(self) -> int:
        """All transmission attempts across protocols."""
        return sum(self.sent.values())

    def item_messages(self) -> int:
        """Attempted BEEP item transmissions (the paper's message metric)."""
        return self.sent[MessageKind.ITEM]

    def gossip_messages(self) -> int:
        """Attempted RPS + WUP transmissions."""
        return self.sent[MessageKind.RPS] + self.sent[MessageKind.WUP]

    def loss_rate(self, kind: MessageKind | None = None) -> float:
        """Observed drop fraction, overall or for one protocol kind."""
        if kind is None:
            sent = self.total_sent()
            dropped = sum(self.dropped.values())
        else:
            sent = self.sent[kind]
            dropped = self.dropped[kind]
        return dropped / sent if sent else 0.0

    def messages_per_user_per_cycle(self, n_nodes: int, n_cycles: int) -> float:
        """Item messages normalised the way Figures 3d-3f plot them."""
        if n_nodes <= 0 or n_cycles <= 0:
            return 0.0
        return self.item_messages() / n_cycles / n_nodes

    def messages_per_user(self, n_nodes: int) -> float:
        """Item messages per user (Table III's ``Mess./User``)."""
        if n_nodes <= 0:
            return 0.0
        return self.item_messages() / n_nodes

    def bandwidth_kbps(
        self,
        n_nodes: int,
        n_cycles: int,
        cycle_seconds: float,
        kind: MessageKind | None = None,
    ) -> float:
        """Average per-node consumed bandwidth in Kbps (Figure 8b).

        Parameters
        ----------
        n_nodes / n_cycles:
            Run dimensions.
        cycle_seconds:
            Wall-clock duration of one gossip cycle (30 s in the paper's
            emulation runs, ~5 min in the prototype).
        kind:
            Restrict to one protocol family, or ``None`` for the total.
        """
        if n_nodes <= 0 or n_cycles <= 0 or cycle_seconds <= 0:
            return 0.0
        if kind is None:
            nbytes = sum(self.bytes_delivered.values())
        else:
            nbytes = self.bytes_delivered[kind]
        seconds = n_cycles * cycle_seconds
        return (nbytes * 8.0 / 1000.0) / seconds / n_nodes

    def merge(self, other: "TrafficStats") -> None:
        """Accumulate counters from another stats object in place."""
        for kind in MessageKind:
            self.sent[kind] += other.sent[kind]
            self.delivered[kind] += other.delivered[kind]
            self.dropped[kind] += other.dropped[kind]
            self.bytes_delivered[kind] += other.bytes_delivered[kind]


@dataclass
class WireStats:
    """Per-link wire-codec counters of one sharded run.

    Maintained by each :class:`~repro.simulation.wire.LinkEncoder` and
    surfaced through ``mailbox_stats()`` so the bench can attribute
    mailbox bytes to encoding tiers: how many profile crossings were
    uid references, full column packs, set-op deltas, or
    pickle fallbacks, and how the frame bytes split between the typed
    sections and the embedded pickles.
    """

    #: mailbox frames encoded / their total serialized size
    frames: int = 0
    frame_bytes: int = 0
    #: mailbox rows (messages or item sends) carried
    rows: int = 0
    #: view entries carried by gossip rows
    entries: int = 0
    #: profile crossings by representation
    ref_profiles: int = 0
    full_profiles: int = 0
    delta_profiles: int = 0
    pickled_profiles: int = 0
    #: rows the fast path could not express (embedded-pickle fallback)
    overflow_rows: int = 0
    #: frame bytes by section family
    column_bytes: int = 0
    full_bytes: int = 0
    delta_bytes: int = 0
    pickle_bytes: int = 0
    #: deterministic link-table resets (shared cap rule firings)
    cap_resets: int = 0

    def merge(self, other: "WireStats") -> None:
        """Accumulate counters from another stats object in place."""
        self.frames += other.frames
        self.frame_bytes += other.frame_bytes
        self.rows += other.rows
        self.entries += other.entries
        self.ref_profiles += other.ref_profiles
        self.full_profiles += other.full_profiles
        self.delta_profiles += other.delta_profiles
        self.pickled_profiles += other.pickled_profiles
        self.overflow_rows += other.overflow_rows
        self.column_bytes += other.column_bytes
        self.full_bytes += other.full_bytes
        self.delta_bytes += other.delta_bytes
        self.pickle_bytes += other.pickle_bytes
        self.cap_resets += other.cap_resets

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form (bench JSON, ``mailbox_stats()``, CLI)."""
        return {
            "frames": self.frames,
            "frame_bytes": self.frame_bytes,
            "rows": self.rows,
            "entries": self.entries,
            "ref_profiles": self.ref_profiles,
            "full_profiles": self.full_profiles,
            "delta_profiles": self.delta_profiles,
            "pickled_profiles": self.pickled_profiles,
            "overflow_rows": self.overflow_rows,
            "column_bytes": self.column_bytes,
            "full_bytes": self.full_bytes,
            "delta_bytes": self.delta_bytes,
            "pickle_bytes": self.pickle_bytes,
            "cap_resets": self.cap_resets,
        }


@dataclass
class RecoveryStats:
    """Fault-plane and self-healing counters of one sharded run.

    Maintained by the :class:`~repro.simulation.sharding.ShardedCycleEngine`
    supervisor (checkpoints, recoveries) and its workers' mailbox fabric
    (chunk retries, CRC failures, duplicate drops).  All zeros on a
    fault-free run with supervision off — the counters exist so the
    acceptance question "what did the run survive?" has a recorded answer.
    """

    #: mailbox chunks retransmitted (timeout or NACK-triggered)
    chunk_retries: int = 0
    #: chunks whose CRC failed validation at the receiver
    crc_failures: int = 0
    #: duplicate chunks discarded by sequence-number dedup
    dup_chunks: int = 0
    #: worker processes observed dead (crash fault, SIGKILL, wedged-killed)
    worker_deaths: int = 0
    #: rollback-replay recoveries performed
    recoveries: int = 0
    #: cycles of discarded work re-executed after rollbacks
    replayed_cycles: int = 0
    #: cycles during which a recovered shard's population ran churned-offline
    degraded_cycles: int = 0
    #: checkpoints taken / their total pickled size
    checkpoints: int = 0
    checkpoint_bytes: int = 0

    def merge(self, other: "RecoveryStats") -> None:
        """Accumulate counters from another stats object in place."""
        self.chunk_retries += other.chunk_retries
        self.crc_failures += other.crc_failures
        self.dup_chunks += other.dup_chunks
        self.worker_deaths += other.worker_deaths
        self.recoveries += other.recoveries
        self.replayed_cycles += other.replayed_cycles
        self.degraded_cycles += other.degraded_cycles
        self.checkpoints += other.checkpoints
        self.checkpoint_bytes += other.checkpoint_bytes

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form (bench JSON, experiment reports, CLI)."""
        return {
            "chunk_retries": self.chunk_retries,
            "crc_failures": self.crc_failures,
            "dup_chunks": self.dup_chunks,
            "worker_deaths": self.worker_deaths,
            "recoveries": self.recoveries,
            "replayed_cycles": self.replayed_cycles,
            "degraded_cycles": self.degraded_cycles,
            "checkpoints": self.checkpoints,
            "checkpoint_bytes": self.checkpoint_bytes,
        }
