"""The cycle-based simulation engine.

Per cycle, in order (ARCHITECTURE.md, "Layer map"; the barrier-split form
is its "Cycle-barrier lifecycle"):

1. transport per-cycle state resets (congestion counters);
2. churn injection (optional) — kills and rejoins;
3. the item inbox filled during the *previous* cycle becomes current;
4. scheduled publications are injected at their sources;
5. every alive node, in a freshly shuffled order, runs its gossip
   maintenance (:meth:`~repro.simulation.node.BaseNode.begin_cycle`);
   gossip request/reply pairs complete synchronously within the cycle,
   subject to transport loss;
6. every alive node drains its current inbox — as one per-node batch
   (:meth:`~repro.simulation.node.BaseNode.receive_items`) on the batched
   delivery path, or one copy at a time
   (:meth:`~repro.simulation.node.BaseNode.receive_item`) on the scalar
   path; forwards triggered by these receipts are enqueued for the *next*
   cycle — one hop per cycle, aligning hop counts with the paper's cycle
   time unit;
7. cycle observers fire (used by the Figure 7 dynamics experiments).

All loss, traffic accounting and event logging funnel through the engine's
``gossip`` / ``send_item`` / ``log_*`` methods, so every protocol is measured
identically.

In ``fast`` mode (:mod:`repro.core.gates`) under a lossless unit-delay
transport the engine runs the **batched delivery pipeline** (see
:mod:`repro.simulation.delivery`): every item send of a cycle is buffered
and flushed in one bulk pass (one traffic-stats update, ordered
future-inbox extension, no per-message envelopes), nodes receive their
whole cycle inbox at once, and event logging happens in bulk appends.
Outcomes are bitwise-identical at fixed seeds to the per-envelope path
that ``REPRO_MODE=reference`` and lossy transports run.  The engine never
sees the view store: node views live behind the :mod:`repro.gossip.views`
facade.

Under ``REPRO_SHARDS=N`` (``N`` > 1) the population runs **process-
sharded**: each worker drives its shard with a subclass of this engine
whose routing methods divert cross-shard traffic into barrier-flushed
mailboxes, and the parent holds a facade with this class's surface (see
:mod:`repro.simulation.sharding` — construction goes through its
``make_engine`` factory).  At the default of 1 that factory returns this
class unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable

from repro.core.gates import fast_mode
from repro.core.news import ItemCopy
from repro.network.message import Envelope, MessageKind, payload_wire_size
from repro.network.stats import TrafficStats
from repro.network.transport import PerfectTransport, Transport
from repro.simulation.events import DisseminationLog
from repro.simulation.node import BaseNode
from repro.simulation.schedule import PublicationSchedule
from repro.utils.exceptions import SimulationError
from repro.utils.rng import RngStreams

__all__ = ["CycleEngine"]

Observer = Callable[["CycleEngine", int], None]


class CycleEngine:
    """Drives a population of protocol nodes through gossip cycles.

    Parameters
    ----------
    nodes:
        The initial population.  More nodes may join later through
        :meth:`add_node` (cold-start experiments).
    schedule:
        The publication schedule (also the authority on dense item indices).
    transport:
        Delivery model; defaults to :class:`PerfectTransport`.
    streams:
        Root randomness; the engine draws its ``engine-order`` (node
        shuffling) and ``transport`` (loss decisions) streams from it.
    churn:
        Optional churn model with an ``apply(engine, cycle)`` method.
    """

    def __init__(
        self,
        nodes: Iterable[BaseNode],
        schedule: PublicationSchedule,
        transport: Transport | None = None,
        streams: RngStreams | None = None,
        churn: "object | None" = None,
    ) -> None:
        self.nodes: dict[int, BaseNode] = {}
        for node in nodes:
            if node.node_id in self.nodes:
                raise SimulationError(f"duplicate node id {node.node_id}")
            self.nodes[node.node_id] = node
            node._alive_listener = self._on_alive_changed
        self.schedule = schedule
        self.transport = transport if transport is not None else PerfectTransport()
        self.streams = streams if streams is not None else RngStreams(0)
        self.churn = churn

        self._order_rng = self.streams.get("engine-order")
        self._transport_rng = self.streams.get("transport")

        self.stats = TrafficStats()
        self.log = DisseminationLog()
        self.now: int = 0
        self.cycles_run: int = 0

        #: arrival cycle -> node id -> [(sender, copy, via_like)]
        self._future_inboxes: dict[int, dict[int, list[tuple[int, ItemCopy, bool]]]] = (
            defaultdict(lambda: defaultdict(list))
        )
        self._observers: list[Observer] = []
        #: running count of item copies in flight (O(1) pending queries)
        self._pending_items: int = 0
        #: alive-id list, maintained incrementally: invalidated by the
        #: nodes' alive-listener hook instead of being rebuilt every cycle
        self._alive_ids: list[int] | None = None

        #: per-cycle outgoing item buffer (the batched delivery path):
        #: ``(target_id, (sender_id, copy, via_like))`` rows, flushed into
        #: the future inboxes and the traffic stats in one bulk pass
        self._send_buf: list[tuple[int, tuple[int, ItemCopy, bool]]] = []
        self._buf_bytes: int = 0
        self._buf_dropped: int = 0
        self._buffering: bool = False

        self.transport.setup(self.nodes.keys(), self._transport_rng)
        #: lossless unit-delay transports never drop and never consult the
        #: RNG, so per-message attempt()/delay() dispatch — and, with
        #: delivery batching, per-message envelopes — can be skipped
        self._lossless = bool(self.transport.is_lossless())

    # ------------------------------------------------------------------ #
    # population management                                               #
    # ------------------------------------------------------------------ #

    def add_node(self, node: BaseNode) -> None:
        """Add a node joining mid-run (its first cycle is the next one)."""
        if node.node_id in self.nodes:
            raise SimulationError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        node._alive_listener = self._on_alive_changed
        self._alive_ids = None

    def _on_alive_changed(self, node_id: int, alive: bool) -> None:
        self._alive_ids = None

    def alive_node_ids(self) -> list[int]:
        """Ids of nodes currently alive (cached between liveness changes)."""
        cached = self._alive_ids
        if cached is None:
            cached = [nid for nid, n in self.nodes.items() if n.alive]
            self._alive_ids = cached
        return list(cached)

    def node(self, node_id: int) -> BaseNode:
        """Look up a node by id."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node id {node_id}") from None

    # ------------------------------------------------------------------ #
    # routing (the only way nodes touch the network)                      #
    # ------------------------------------------------------------------ #

    def gossip(
        self,
        sender_id: int,
        target_id: int,
        payload: object,
        kind: MessageKind,
    ) -> None:
        """Route one gossip request and, if any, its reply.

        Both legs pass the transport's loss model independently; a lost
        request silently ends the exchange (gossip protocols are designed
        for exactly this).

        Under a lossless transport the exchange runs envelope-free: both
        legs are accounted straight into the traffic counters
        (:meth:`TrafficStats.record_parts`) — same counts, same bytes, no
        per-message object construction.
        """
        if self._lossless:
            target = self.nodes.get(target_id)
            ok = target is not None and target._alive
            self.stats.record_parts(kind, payload_wire_size(payload), ok)
            if not ok:
                return
            reply = target.on_gossip(payload, kind, self, self.now)
            if reply is None:
                return
            sender = self.nodes.get(sender_id)
            rok = sender is not None and sender._alive
            self.stats.record_parts(kind, payload_wire_size(reply), rok)
            if rok:
                sender.on_gossip(reply, kind, self, self.now)
            return
        env = Envelope(
            sender_id, target_id, kind, payload, payload_wire_size(payload)
        )
        target = self.nodes.get(target_id)
        ok = (
            target is not None
            and target.alive
            and self.transport.attempt(env, self._transport_rng)
        )
        self.stats.record(env, ok)
        if not ok:
            return
        reply = target.on_gossip(payload, kind, self, self.now)
        if reply is None:
            return
        renv = Envelope(
            target_id, sender_id, kind, reply, payload_wire_size(reply)
        )
        sender = self.nodes.get(sender_id)
        rok = (
            sender is not None
            and sender.alive
            and self.transport.attempt(renv, self._transport_rng)
        )
        self.stats.record(renv, rok)
        if rok:
            sender.on_gossip(reply, kind, self, self.now)

    def send_item(
        self,
        sender_id: int,
        target_id: int,
        copy: ItemCopy,
        via_like: bool,
    ) -> None:
        """Send one item copy.

        Arrival is after ``transport.delay(...)`` cycles — 1 under the
        paper's one-hop-per-cycle model, longer under
        :class:`~repro.network.transport.LatencyTransport`.

        While the engine is inside a batched cycle, sends are buffered and
        flushed in one bulk pass at cycle end (:meth:`_flush_item_sends`)
        — no envelope, no per-message stats update.  The buffered rows
        reach the future inboxes in exactly the order the scalar path
        would have appended them.  The receiver may fork *copy*, never
        mutate it in place: pass a copy nothing else will edit.
        """
        if self._buffering:
            target = self.nodes.get(target_id)
            if target is not None and target._alive:
                self._send_buf.append(
                    (target_id, (sender_id, copy, via_like))
                )
                self._buf_bytes += copy.wire_size()
                self._pending_items += 1
            else:
                self._buf_dropped += 1
            return
        env = Envelope(
            sender_id,
            target_id,
            MessageKind.ITEM,
            copy,
            copy.wire_size(),
            via_like=via_like,
        )
        target = self.nodes.get(target_id)
        ok = (
            target is not None
            and target.alive
            and (
                self._lossless
                or self.transport.attempt(env, self._transport_rng)
            )
        )
        self.stats.record(env, ok)
        if ok:
            if self._lossless:
                delay = 1
            else:
                delay = max(
                    1, int(self.transport.delay(env, self._transport_rng))
                )
            self._future_inboxes[self.now + delay][target_id].append(
                (sender_id, copy, via_like)
            )
            self._pending_items += 1

    def send_fanout(
        self,
        sender_id: int,
        targets: list[int],
        copy: ItemCopy,
        via_like: bool,
        bump_dislikes: bool = False,
    ) -> None:
        """Fan one item copy out to several targets (BEEP's ship loop).

        Unbuffered (the scalar reference path), each target is sent its
        own forwarded clone (hop count +1, optionally a bumped dislike
        counter), exactly as Algorithm 2 reads.  On the batched path the
        original is advanced once (:meth:`ItemCopy.advance_hop` — the
        sender never touches it again) and that one object is buffered
        for every alive target, with a single wire-size measurement: most
        copies of a fan-out die as duplicates, so a receiver takes its
        private copy only for a first receipt
        (:meth:`~repro.core.news.ItemCopy.fork`).
        """
        extra = 1 if bump_dislikes else 0
        if not self._buffering:
            for target in targets:
                self.send_item(
                    sender_id, target, copy.clone_for_forward(extra), via_like
                )
            return
        entry = (sender_id, copy.advance_hop(extra), via_like)
        nodes_get = self.nodes.get
        buf = self._send_buf
        n = 0
        for target in targets:
            node = nodes_get(target)
            if node is not None and node._alive:
                buf.append((target, entry))
                n += 1
        self._buf_dropped += len(targets) - n
        self._buf_bytes += copy.wire_size() * n
        self._pending_items += n

    def _flush_item_sends(self) -> None:
        """Apply the cycle's buffered item sends in one bulk pass."""
        buf = self._send_buf
        dropped = self._buf_dropped
        if buf or dropped:
            self.stats.record_items_bulk(len(buf), dropped, self._buf_bytes)
        if buf:
            inboxes = self._future_inboxes[self.now + 1]
            for target_id, entry in buf:
                inboxes[target_id].append(entry)
            self._send_buf = []
        self._buf_bytes = 0
        self._buf_dropped = 0

    # ------------------------------------------------------------------ #
    # event logging (called by node implementations)                      #
    # ------------------------------------------------------------------ #

    def log_delivery(
        self,
        node_id: int,
        copy: ItemCopy,
        liked: bool,
        via_like: bool,
    ) -> None:
        """Record a first receipt (including the publisher's own, hops=0)."""
        self.log.log_delivery(
            self.schedule.index_of(copy.item.item_id),
            node_id,
            self.now,
            copy.hops,
            copy.dislikes,
            liked,
            via_like,
        )

    def log_duplicate(self) -> None:
        """Record a duplicate receipt (dropped per SIR)."""
        self.log.log_duplicate()

    def log_duplicates(self, n: int) -> None:
        """Record *n* duplicate receipts at once (batched delivery path)."""
        self.log.log_duplicates(n)

    def log_deliveries(
        self,
        node_id: int,
        item_ids: list[int],
        hops: list[int],
        dislikes: list[int],
        liked: list[bool],
        via_like: list[bool],
    ) -> None:
        """Record one node's first receipts of this cycle in bulk.

        Column-aligned lists in arrival order; produces exactly the rows
        the per-receipt :meth:`log_delivery` calls would.
        """
        index_map = self.schedule.index_map
        self.log.log_deliveries(
            [index_map[iid] for iid in item_ids],
            node_id,
            self.now,
            hops,
            dislikes,
            liked,
            via_like,
        )

    def log_forwards(
        self,
        node_id: int,
        item_ids: list[int],
        hops: list[int],
        liked: list[bool],
        n_targets: list[int],
    ) -> None:
        """Record one node's forwarding actions of this cycle in bulk."""
        index_map = self.schedule.index_map
        self.log.log_forwards(
            [index_map[iid] for iid in item_ids],
            node_id,
            self.now,
            hops,
            liked,
            n_targets,
        )

    def log_forward(
        self,
        node_id: int,
        copy: ItemCopy,
        liked: bool,
        n_targets: int,
    ) -> None:
        """Record one forwarding action with its realised fanout."""
        self.log.log_forward(
            self.schedule.index_of(copy.item.item_id),
            node_id,
            self.now,
            copy.hops,
            liked,
            n_targets,
        )

    # ------------------------------------------------------------------ #
    # observers                                                           #
    # ------------------------------------------------------------------ #

    def add_observer(self, fn: Observer) -> None:
        """Register a callback fired after every cycle: ``fn(engine, cycle)``."""
        self._observers.append(fn)

    # ------------------------------------------------------------------ #
    # the cycle loop                                                      #
    # ------------------------------------------------------------------ #

    def run(self, n_cycles: int) -> None:
        """Advance the simulation by *n_cycles* cycles."""
        for _ in range(n_cycles):
            self._run_cycle()

    def run_until_drained(self, max_extra: int = 200) -> int:
        """Run past the schedule until no item messages remain in flight.

        Returns the number of extra cycles executed.  Used by experiments to
        let dissemination complete after the last publication.
        """
        extra = 0
        while extra < max_extra:
            if self.now > self.schedule.last_cycle and self._pending_items == 0:
                break
            self._run_cycle()
            extra += 1
        return extra

    def _run_cycle(self) -> None:
        now = self.now
        self.transport.begin_cycle()
        if self.churn is not None:
            self.churn.apply(self, now)

        # batched delivery: buffer every item send of the cycle and flush
        # once; only safe when no per-message loss/delay draws exist
        batching = self._lossless and fast_mode()
        self._buffering = batching

        # messages whose delay expires this cycle become deliverable
        inbox = self._future_inboxes.pop(now, {})
        if inbox:
            self._pending_items -= sum(len(v) for v in inbox.values())

        # publications (skipped silently if the source is dead under churn)
        for item in self.schedule.items_at(now):
            source = self.nodes.get(item.source)
            if source is not None and source.alive:
                source.publish(item, self, now)

        # gossip maintenance, fresh random order each cycle
        ids = self.alive_node_ids()
        self._order_rng.shuffle(ids)
        for nid in ids:
            node = self.nodes[nid]
            if node.alive:  # may have been killed by a same-cycle exchange
                node.begin_cycle(self, now)

        # item deliveries from the previous cycle
        delivery_ids = [nid for nid in inbox if nid in self.nodes]
        self._order_rng.shuffle(delivery_ids)
        if batching:
            nodes = self.nodes
            for nid in delivery_ids:
                node = nodes[nid]
                if node._alive:
                    node.receive_items(inbox[nid], self, now)
            self._buffering = False
            self._flush_item_sends()
        else:
            for nid in delivery_ids:
                node = self.nodes[nid]
                if not node.alive:
                    continue
                for _sender, copy, via_like in inbox[nid]:
                    node.receive_item(copy, via_like, self, now)

        for fn in self._observers:
            fn(self, now)

        self.now += 1
        self.cycles_run += 1

    # ------------------------------------------------------------------ #

    def pending_item_messages(self) -> int:
        """Item copies currently in flight (any future arrival cycle).

        O(1): maintained as a running counter by ``send_item`` and the
        cycle loop's inbox hand-over.
        """
        return self._pending_items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CycleEngine(nodes={len(self.nodes)}, now={self.now}, "
            f"pending={self.pending_item_messages()})"
        )
