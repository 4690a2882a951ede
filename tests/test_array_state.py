"""The array-backed view store: unit parity with the dict store.

:class:`ArrayView` keeps a view's entries in preallocated columns with
native bookkeeping kernels, :class:`View` in a dict; the store follows the
tier (:func:`repro.gossip.views.array_views`) and every externally
observable outcome is **bitwise identical** on either.  These tests pin
the unit level of that promise, and the packed-profile memo both stores
share:

* *the gate* — ``set_mode`` / ``mode`` toggle and restore, and
  ``make_view`` builds the store the pipeline's tier selects;
* *operation parity* — mirrored random op sequences on :class:`View` and
  :class:`ArrayView` leave identical entries, order, RNG state and wire
  sizes, with the kernels and on :class:`ArrayView`'s numpy paths alike;
* *columnar shipments* — the column blocks gossip messages carry agree
  with the per-descriptor walk;
* *pack parity* — a profile's memoised pack is element-identical to a
  from-scratch build after any mutation mix
  (set/remove/purge/integrate/copy/snapshot).

Whole-run equivalence of the pipelines lives in
``tests/test_pipeline_grid.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gates import fast_mode, mode, set_mode
from repro.core.profiles import (
    FrozenProfile,
    ItemProfile,
    PackedView,
    UserProfile,
)
from repro.core.similarity import native_available, native_kernel
from repro.gossip.rps import RpsProtocol
from repro.gossip.vicinity import ClusteringProtocol
from repro.gossip.views import ArrayView, View, ViewEntry, make_view


def entry(nid: int, ts: int = 0, likes: tuple = ()) -> ViewEntry:
    profile = FrozenProfile({i: 1.0 for i in likes}, is_binary=True)
    return ViewEntry(nid, f"10.0.0.{nid}", profile, ts)


class TestGate:
    def test_toggle_returns_previous(self):
        first = set_mode("reference")
        try:
            assert set_mode(first) == "reference"
            assert fast_mode() is (first == "fast")
            with pytest.raises(ValueError, match="quick"):
                set_mode("quick")
            assert fast_mode() is (first == "fast")
        finally:
            set_mode(first)

    def test_context_manager_restores_on_error(self):
        before = fast_mode()
        flipped = "reference" if before else "fast"
        with pytest.raises(RuntimeError), mode(flipped):
            assert fast_mode() is (not before)
            raise RuntimeError("boom")
        assert fast_mode() is before

    def test_factory_honours_gate(self):
        """The view store follows the tier: columns only with the kernels."""
        with mode("fast"), native_kernel(True):
            store = ArrayView if native_available() else View
            assert type(make_view(5, owner_id=1)) is store
        with mode("fast"), native_kernel(False):
            assert type(make_view(5, owner_id=1)) is View
        with mode("reference"), native_kernel(True):
            assert type(make_view(5, owner_id=1)) is View


class TestViewOperationParity:
    """Mirrored op sequences must leave both backends bit-identical."""

    @pytest.mark.parametrize("native", [True, False], ids=["native", "pure"])
    def test_random_op_sequences(self, native):
        if native and not native_available():
            pytest.skip("native extension not built")
        with native_kernel(native):
            ops_rng = np.random.default_rng(17)
            legacy = View(5, owner_id=99)
            array = ArrayView(5, owner_id=99)
            g1 = np.random.default_rng(42)
            g2 = np.random.default_rng(42)
            for step in range(400):
                op = ops_rng.integers(8)
                if op <= 2:
                    batch = [
                        entry(
                            int(ops_rng.integers(1, 30)),
                            int(ops_rng.integers(0, 20)),
                            tuple(
                                int(x)
                                for x in ops_rng.integers(0, 50, size=3)
                            ),
                        )
                        for _ in range(int(ops_rng.integers(1, 12)))
                    ]
                    legacy.upsert_all(batch)
                    array.upsert_all(batch)
                elif op == 3:
                    legacy.trim_random(g1)
                    array.trim_random(g2)
                elif op == 4:
                    nid = int(ops_rng.integers(1, 30))
                    legacy.remove(nid)
                    array.remove(nid)
                elif op == 5:
                    cutoff = int(ops_rng.integers(0, 15))
                    assert legacy.evict_older_than(
                        cutoff
                    ) == array.evict_older_than(cutoff)
                elif op == 6:
                    scores = {
                        e.node_id: float(ops_rng.random()) for e in legacy
                    }
                    legacy.trim_ranked(scores=scores)
                    array.trim_ranked(scores=scores)
                else:
                    legacy.trim_ranked(key=lambda e: e.node_id % 5)
                    array.trim_ranked(key=lambda e: e.node_id % 5)
                # entry identity, order, selection and accounting all match
                assert legacy.entries() == array.entries(), step
                assert legacy.oldest() == array.oldest(), step
                assert legacy.node_ids() == array.node_ids(), step
                assert legacy.wire_size() == array.wire_size(), step
                assert legacy.sample(3, g1) == array.sample(3, g2), step
                assert legacy.profiles() == array.profiles(), step
            # both consumed identical randomness throughout
            assert g1.integers(1 << 30) == g2.integers(1 << 30)

    def test_basic_facade(self):
        v = ArrayView(4, owner_id=9)
        v.upsert(entry(1, ts=5))
        v.upsert(entry(9, ts=1))  # owner: never stored
        v.upsert(entry(1, ts=3))  # stale: ignored
        v.upsert(entry(2, ts=0))
        assert len(v) == 2
        assert 1 in v and 9 not in v
        assert v.get(1).timestamp == 5
        assert [e.node_id for e in v] == [1, 2]
        assert v.oldest().node_id == 2
        v.remove(1)
        assert v.node_ids() == [2]
        assert not v.is_full()

    def test_growth_beyond_preallocation(self):
        v = ArrayView(2, owner_id=0)
        batch = [entry(i, ts=i) for i in range(1, 120)]
        v.upsert_all(batch)
        assert len(v) == 119
        assert v.node_ids() == list(range(1, 120))
        assert v.oldest().node_id == 1
        ref = View(2, owner_id=0)
        ref.upsert_all(batch)
        assert ref.entries() == v.entries()


class TestColumnarShipments:
    """The shipped column blocks must agree with the walked measures.

    The protocols get an :class:`ArrayView` put in directly, so the
    shipment paths run with the kernels and, under ``REPRO_NATIVE=0``, on
    the store's numpy paths.
    """

    def _protocol_pair(self):
        a = RpsProtocol(1, 8, np.random.default_rng(0))
        b = RpsProtocol(2, 8, np.random.default_rng(1))
        a.view = ArrayView(8, owner_id=1)
        b.view = ArrayView(8, owner_id=2)
        for nid in range(3, 12):
            a.view.upsert(entry(nid, ts=nid, likes=(nid,)))
            b.view.upsert(entry(nid + 5, ts=nid, likes=(nid, 1)))
        return a, b

    def test_rps_wire_precompute_matches_walk(self):
        a, b = self._protocol_pair()
        prof = UserProfile()
        prof.record_opinion(5, 0, True)
        snap = prof.snapshot()
        for now in range(20):
            started = a.initiate(snap, now)
            assert started is not None
            _partner, msg = started
            walked = 1 + sum(_descriptor_size(e) for e in msg.entries)
            assert msg.wire_size() == walked
            reply = b.handle(msg, snap, now)
            if reply is not None:
                assert reply.wire_size() == 1 + sum(
                    _descriptor_size(e) for e in reply.entries
                )
                a.handle(reply, snap, now)

    def test_clustering_wire_precompute_matches_walk(self):
        proto = ClusteringProtocol(0, 6, "wup", np.random.default_rng(3))
        proto.view = ArrayView(6, owner_id=0)
        for nid in range(1, 7):
            proto.view.upsert(entry(nid, ts=nid, likes=(nid,)))
        prof = UserProfile()
        prof.record_opinion(1, 0, True)
        started = proto.initiate(prof.snapshot(), 9)
        assert started is not None
        _partner, msg = started
        assert msg.wire_size() == 1 + sum(
            _descriptor_size(e) for e in msg.entries
        )

    def test_upsert_columns_equals_upsert_all(self):
        a, _b = self._protocol_pair()
        prof = UserProfile()
        snap = prof.snapshot()
        payload, _wire, cols = a._shipment(snap, 9, exclude=4)
        via_cols = ArrayView(8, owner_id=50)
        via_cols.upsert_columns(payload, cols)
        via_all = ArrayView(8, owner_id=50)
        via_all.upsert_all(payload)
        assert via_cols.entries() == via_all.entries()
        assert via_cols.wire_size() == via_all.wire_size()

    def test_entries_with_columns_alignment(self):
        a, _b = self._protocol_pair()
        entries, cols = a.view.entries_with_columns()
        assert [e.node_id for e in entries] == a.view.node_ids()
        if cols is not None:
            _ref, _stride, count = cols
            assert count == len(entries)
        a.view = View(8, owner_id=1)
        a.view.upsert(entry(3, ts=3))
        entries, cols = a.view.entries_with_columns()
        assert [e.node_id for e in entries] == [3] and cols is None


def _descriptor_size(e: ViewEntry) -> int:
    from repro.gossip.views import descriptor_wire_size

    return descriptor_wire_size(e)


class TestPackMemoParity:
    """Memoised pack == from-scratch build, element-wise, after any mutation.

    Packs are rebuilt from the dicts whenever the version moved, so none
    of this depends on the view store.
    """

    @staticmethod
    def _assert_pack_matches(profile, where):
        pack = profile.packed()
        fresh = PackedView(profile)
        assert np.array_equal(pack.rated_ids, fresh.rated_ids), where
        assert np.array_equal(pack.rated_scores, fresh.rated_scores), where
        assert np.array_equal(pack.liked_ids, fresh.liked_ids), where
        assert pack.norm == fresh.norm, where

    def test_user_profile_mutation_mix(self):
        rng = np.random.default_rng(3)
        profile = UserProfile()
        for _ in range(60):
            profile.set(
                int(rng.integers(0, 10_000)),
                int(rng.integers(0, 30)),
                float(rng.integers(0, 2)),
            )
        profile.packed()  # hold a memo the mutations below make stale
        for step in range(200):
            op = rng.integers(5)
            if op <= 1:
                for _ in range(int(rng.integers(1, 6))):
                    profile.set(
                        int(rng.integers(0, 10_000)),
                        int(rng.integers(0, 40)),
                        float(rng.integers(0, 2)),
                    )
            elif op == 2:
                ids = list(profile.scores)
                profile.remove(ids[int(rng.integers(len(ids)))])
            elif op == 3:
                profile.purge_older_than(int(rng.integers(0, 25)))
            else:
                profile.snapshot()
            self._assert_pack_matches(profile, step)

    def test_item_profile_integrate_and_clone_chain(self):
        rng = np.random.default_rng(7)
        item = ItemProfile()
        for _ in range(40):
            item.set(
                int(rng.integers(0, 5_000)),
                int(rng.integers(0, 30)),
                float(rng.random()),
            )
        item.packed()
        for step in range(30):
            liker = UserProfile()
            for _ in range(int(rng.integers(5, 60))):
                liker.set(
                    int(rng.integers(0, 5_000)),
                    int(rng.integers(0, 30)),
                    float(rng.integers(0, 2)),
                )
            item.integrate(liker)
            self._assert_pack_matches(item, f"integrate {step}")
            item.purge_older_than(int(rng.integers(0, 20)))
            self._assert_pack_matches(item, f"purge {step}")
            clone = item.copy()
            self._assert_pack_matches(clone, f"clone {step}")
            if step % 2:
                item = clone

    def test_cow_clone_shares_pack_columns(self):
        item = ItemProfile()
        for i in range(30):
            item.set(i, 0, 0.5)
        pack = item.packed()
        clone = item.copy()
        assert clone.packed().rated_ids is pack.rated_ids
        # neither side may see the other's later edits, in dicts or packs
        clone.set(999, 1, 1.0)
        assert np.array_equal(item.packed().rated_ids, pack.rated_ids)
        assert 999 not in item.scores
        item.set(777, 1, 1.0)
        assert 777 not in clone.scores
        self._assert_pack_matches(item, "parent after both edits")
        self._assert_pack_matches(clone, "clone after both edits")
