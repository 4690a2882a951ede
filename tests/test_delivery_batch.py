"""The batched delivery machinery, unit by unit.

The ``fast`` pipeline's delivery (buffered bulk sends, per-node batch
receipt, bulk event logging — ``repro.simulation.delivery``) must be
**bitwise-identical** to the one-envelope-at-a-time pipeline at fixed
seeds.  Whole runs of both are compared in
``tests/test_pipeline_grid.py``; these tests pin the parts: the send
buffer and its accounting, the one-forwarded-copy-per-fan-out sharing
rule and the forks that keep it safe, first-receipt splitting, and the
bulk log/traffic appends against their scalar forms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.gates import mode
from repro.core.news import ItemCopy, NewsItem
from repro.core.profiles import UserProfile
from repro.datasets import survey_dataset
from repro.network.message import MessageKind
from repro.network.stats import TrafficStats
from repro.network.transport import (
    PerfectTransport,
    UniformLossTransport,
)
from repro.simulation.delivery import split_first_receipts
from repro.simulation.engine import CycleEngine
from repro.simulation.events import DisseminationLog
from repro.simulation.node import BaseNode
from repro.simulation.schedule import PublicationSchedule
from repro.simulation.sharding import _ShardEngine, sharding
from repro.simulation.wire import LinkDecoder
from repro.utils.rng import RngStreams


class _CountingNode(BaseNode):
    """Counts receipts; forwards nothing."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def begin_cycle(self, engine, now):
        pass

    def receive_item(self, copy, via_like, engine, now):
        self.received.append((copy.item.item_id, via_like))

    def publish(self, item, engine, now):
        for target in range(1, 3):
            engine.send_item(
                self.node_id, target, ItemCopy(item), via_like=True
            )


def _engine(nodes, transport=None):
    item = NewsItem.publish(source=0, created_at=0, title="only")
    schedule = PublicationSchedule([(0, item)])
    return (
        CycleEngine(
            nodes, schedule, transport=transport, streams=RngStreams(3)
        ),
        item,
    )


class TestBufferedSends:
    def test_buffered_sends_arrive_next_cycle_in_order(self):
        nodes = [_CountingNode(i) for i in range(3)]
        engine, item = _engine(nodes)
        assert engine._lossless
        engine.run(1)
        # sends buffered during the publish phase are pending after flush
        assert engine.pending_item_messages() == 2
        engine.run(1)
        assert engine.pending_item_messages() == 0
        assert nodes[1].received == [(item.item_id, True)]
        assert nodes[2].received == [(item.item_id, True)]

    def test_dead_target_counts_as_dropped(self):
        nodes = [_CountingNode(i) for i in range(3)]
        nodes[2].alive = False
        engine, _item = _engine(nodes)
        engine.run(1)
        assert engine.stats.sent[MessageKind.ITEM] == 2
        assert engine.stats.delivered[MessageKind.ITEM] == 1
        assert engine.stats.dropped[MessageKind.ITEM] == 1
        assert engine.pending_item_messages() == 1

    def test_lossy_transport_disables_batching(self):
        nodes = [_CountingNode(i) for i in range(3)]
        engine, _item = _engine(nodes, transport=UniformLossTransport(0.5))
        assert not engine._lossless
        engine.run(2)  # scalar path; just must not crash and must account
        assert engine.stats.sent[MessageKind.ITEM] == 2

    def test_zero_loss_transport_is_lossless(self):
        assert UniformLossTransport(0.0).is_lossless()
        assert not UniformLossTransport(0.1).is_lossless()
        assert PerfectTransport().is_lossless()


class TestSendFanout:
    def _fresh_copy(self):
        item = NewsItem.publish(source=0, created_at=0, title="x")
        copy = ItemCopy(item)
        copy.profile.set(7, 0, 1.0)
        return copy

    def test_scalar_mode_clones_every_target(self):
        nodes = [_CountingNode(i) for i in range(4)]
        engine, _item = _engine(nodes)
        engine._buffering = False
        copy = self._fresh_copy()
        engine.send_fanout(0, [1, 2, 3], copy, via_like=True)
        # original untouched in scalar mode (clones advanced instead)
        assert copy.hops == 0
        assert engine.pending_item_messages() == 3

    @pytest.mark.parametrize("dead", [None, 2, 3])
    def test_buffered_mode_shares_one_forwarded_copy(self, dead):
        nodes = [_CountingNode(i) for i in range(4)]
        if dead is not None:
            nodes[dead].alive = False
        alive = [t for t in (1, 2, 3) if t != dead]
        engine, _item = _engine(nodes)
        engine._buffering = True
        copy = self._fresh_copy()
        copy.hops, copy.dislikes = 5, 2
        engine.send_fanout(0, [1, 2, 3], copy, via_like=False, bump_dislikes=True)
        rows = engine._send_buf
        assert [target for target, _entry in rows] == alive
        # one forwarding action = one in-flight object, advanced exactly once
        assert all(entry[1] is copy for _target, entry in rows)
        assert (copy.hops, copy.dislikes) == (6, 3)
        engine._buffering = False
        engine._flush_item_sends()
        assert engine.stats.delivered[MessageKind.ITEM] == len(alive)
        assert engine.stats.dropped[MessageKind.ITEM] == 3 - len(alive)
        assert engine.pending_item_messages() == len(alive)

    def test_shard_engine_ships_the_same_object_on_remote_legs(self):
        item = NewsItem.publish(source=0, created_at=0, title="only")
        engine = _ShardEngine(
            [_CountingNode(0), _CountingNode(2)],
            PublicationSchedule([(0, item)]),
            PerfectTransport(),
            RngStreams(3),
            None,
            shard=0,
            n_shards=2,
        )
        engine._buffering = True
        copy = self._fresh_copy()
        engine.send_fanout(0, [1, 2, 3], copy, via_like=True)
        assert (copy.hops, copy.dislikes) == (1, 0)
        assert [(t, e[1] is copy) for t, e in engine._send_buf] == [(2, True)]
        remote = engine._item_out[1]
        assert [(t, s, v) for t, s, _c, v in remote] == [(1, 0, True), (3, 0, True)]
        assert all(row[2] is copy for row in remote)
        # a fan-out with no local leg still advances exactly once
        far = self._fresh_copy()
        engine.send_fanout(0, [1, 3], far, via_like=False, bump_dislikes=True)
        assert (far.hops, far.dislikes) == (1, 1)
        assert [row[2] is far for row in remote[2:]] == [True, True]
        # one frame carries each forwarded object once: the receiving shard
        # sees the same sharing, and its recipients fork just the same
        frame = engine.take_mailbox(engine._item_out, "items")[1]
        rows = LinkDecoder(engine._codec_out[1].tier).decode(frame)
        assert [r[0] for r in rows] == [1, 3, 1, 3]
        assert rows[0][2] is rows[1][2] and rows[2][2] is rows[3][2]
        assert rows[0][2] is not rows[2][2]
        assert (rows[2][2].hops, rows[2][2].dislikes) == (1, 1)

    def test_forks_are_independent(self):
        flight = self._fresh_copy()  # rates item 7 at timestamp 0
        flight.profile.set(8, 5, 0.5)
        flight.advance_hop(1)
        before = dict(flight.profile.scores)
        a, b = flight.fork(), flight.fork()
        for fork in (a, b):
            assert fork.item is flight.item
            assert (fork.hops, fork.dislikes) == (1, 1)
            assert fork.profile.scores == before
        liker = UserProfile()
        liker.record_opinion(9, 3, True)
        a.profile.integrate(liker)
        a.advance_hop()
        b.profile.purge_older_than(4)
        assert flight.profile.scores == before
        assert (flight.hops, flight.dislikes) == (1, 1)
        assert sorted(a.profile.scores) == [7, 8, 9] and a.hops == 2
        assert sorted(b.profile.scores) == [8] and b.hops == 1

    def test_mutating_receiver_cannot_reach_other_recipients(self):
        class _Scribbler(_CountingNode):
            def receive_item(self, copy, via_like, engine, now):
                copy.profile.set(100 + self.node_id, 0, 1.0)
                copy.dislikes += 10
                self.received.append(copy)

            def publish(self, item, engine, now):
                pass

        nodes = [_Scribbler(i) for i in range(4)]
        engine, _item = _engine(nodes)
        copy = self._fresh_copy()
        with mode("fast"):
            engine._buffering = True
            engine.send_fanout(0, [1, 2, 3], copy, via_like=True)
            engine._buffering = False
            engine._flush_item_sends()
            engine.run(2)
        for node in nodes[1:]:
            (kept,) = node.received
            assert kept is not copy
            assert sorted(kept.profile.scores) == [7, 100 + node.node_id]
            assert kept.dislikes == 10
        assert sorted(copy.profile.scores) == [7] and copy.dislikes == 0

    def test_duplicates_are_never_forked(self, monkeypatch):
        forks = []
        fork = ItemCopy.fork
        monkeypatch.setattr(
            ItemCopy, "fork", lambda self: forks.append(1) or fork(self)
        )
        data = survey_dataset(n_base_users=30, n_base_items=24, seed=3)
        with mode("fast"), sharding(1):
            system = WhatsUpSystem(data, WhatsUpConfig(f_like=8), seed=3)
            system.run(drain=True)
        log = system.engine.log
        hops = log.arrays()["d_hops"]
        assert log.duplicates > 0
        # one fork per first receipt; a publisher's own receipt (hops 0)
        # is not a receipt off the wire
        assert len(forks) == int((hops > 0).sum())


class TestSplitFirstReceipts:
    def _copies(self, ids):
        items = {
            i: NewsItem.publish(source=0, created_at=0, title=f"t{i}")
            for i in set(ids)
        }
        return [(0, ItemCopy(items[i]), bool(i % 2)) for i in ids]

    def test_in_batch_and_seen_duplicates(self):
        deliveries = self._copies([1, 2, 1, 3, 2, 1])
        seen = {deliveries[3][1].item.item_id}  # item 3 already seen
        fresh, dups = split_first_receipts(deliveries, seen)
        assert [c.item.title for c, _v in fresh] == ["t1", "t2"]
        assert dups == 4
        assert len(seen) == 3  # 1 and 2 added

    def test_arrival_order_preserved(self):
        deliveries = self._copies([5, 4, 6])
        fresh, dups = split_first_receipts(deliveries, set())
        assert dups == 0
        assert [c.item.title for c, _v in fresh] == ["t5", "t4", "t6"]


class TestBulkLogging:
    def test_bulk_rows_match_scalar_appends(self):
        scalar = DisseminationLog()
        for args in ((0, 1, 2, 3, 0, True, True), (1, 1, 2, 0, 1, False, True)):
            scalar.log_delivery(*args)
        scalar.log_forward(0, 1, 2, 3, True, 4)
        scalar.log_duplicate()
        scalar.log_duplicate()

        bulk = DisseminationLog()
        bulk.log_deliveries(
            [0, 1], 1, 2, [3, 0], [0, 1], [True, False], [True, True]
        )
        bulk.log_forwards([0], 1, 2, [3], [True], [4])
        bulk.log_duplicates(2)

        sa, ba = scalar.arrays(), bulk.arrays()
        for key in sa:
            assert np.array_equal(sa[key], ba[key]), key
        assert scalar.duplicates == bulk.duplicates == 2

    def test_record_items_bulk_matches_record(self):
        bulk = TrafficStats()
        bulk.record_items_bulk(delivered=3, dropped=2, nbytes=900)
        assert bulk.sent[MessageKind.ITEM] == 5
        assert bulk.delivered[MessageKind.ITEM] == 3
        assert bulk.dropped[MessageKind.ITEM] == 2
        assert bulk.bytes_delivered[MessageKind.ITEM] == 900
