"""Native kernel (:mod:`repro._native`) unit, parity and gating tests.

The compiled tier must be **bitwise-identical** to the scalar metrics and
to the Python trim/argmax selections — every parity assertion below uses
``==`` on floats, never approx.  On boxes without a C toolchain (or with
``REPRO_NATIVE=0`` set) the whole module degrades to the gating tests
that prove the pure-Python fallback stays in charge.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro._native import (
    ensure_built,
    kernel,
    native_available,
    native_kernel,
    native_kernel_enabled,
    set_native_kernel,
)
from repro.core.profiles import FrozenProfile, UserProfile
from repro.core.similarity import (
    cosine_similarity,
    jaccard_similarity,
    overlap_similarity,
    score_candidates,
    wup_similarity,
)
from repro.gossip.views import View, ViewEntry
from tests.conftest import make_item_profile, make_user_profile

#: Build the extension in place when a toolchain is available, unless the
#: user explicitly disabled the native tier for this run.  The no-compiler
#: CI leg (fresh checkout, REPRO_NATIVE=0) skips every parity test below
#: and still exercises the graceful-fallback assertions.
if os.environ.get("REPRO_NATIVE", "1").lower() in ("0", "false", "no", "off"):
    NK = None
else:
    NK = ensure_built()

needs_native = pytest.mark.skipif(
    NK is None, reason="native kernel unavailable (no cffi/C toolchain)"
)


@pytest.fixture(autouse=True)
def _native_on():
    """Pin the native gate on (restored on exit) for the parity tests."""
    with native_kernel(True):
        yield


def binary_pool(seed: int = 0, k: int = 12) -> list[FrozenProfile]:
    """A varied binary pool: overlapping, disjoint, empty, dislike-heavy."""
    rng = np.random.default_rng(seed)
    pool = []
    for _j in range(k):
        profile = UserProfile()
        for iid in rng.integers(0, 40, size=int(rng.integers(0, 12))):
            profile.record_opinion(int(iid), 0, bool(rng.integers(0, 2)))
        pool.append(profile.snapshot())
    pool.append(UserProfile().snapshot())  # empty profile, norm 0
    only_dislikes = UserProfile()
    for iid in (1, 2, 3):
        only_dislikes.record_opinion(iid, 0, False)
    pool.append(only_dislikes.snapshot())  # rated but norm 0
    return pool


class TestScoreProfilesParity:
    """One C call per pool must equal the scalar metric pair-by-pair."""

    @needs_native
    @pytest.mark.parametrize(
        "metric_fn,code",
        [
            (wup_similarity, 0),
            (cosine_similarity, 2),
            (jaccard_similarity, 3),
            (overlap_similarity, 4),
        ],
    )
    def test_owner_as_chooser_bitwise(self, metric_fn, code):
        owner = make_user_profile([1, 5, 9, 14], [2, 7]).snapshot()
        pool = binary_pool()
        out = NK.score_profiles(owner, pool, code)
        assert out is not None
        assert out.tolist() == [metric_fn(owner, c) for c in pool]

    @needs_native
    def test_wup_owner_as_candidate_bitwise(self):
        owner = make_user_profile([1, 5, 9, 14], [2, 7]).snapshot()
        pool = binary_pool(seed=3)
        out = NK.score_profiles(owner, pool, 1)
        assert out is not None
        assert out.tolist() == [wup_similarity(c, owner) for c in pool]

    @needs_native
    @pytest.mark.parametrize(
        "metric_fn,code", [(wup_similarity, 5), (cosine_similarity, 6)]
    )
    def test_item_owner_orientation_bitwise(self, metric_fn, code):
        # BEEP's orientation: real-valued item profile as candidate side
        item = make_item_profile({1: 0.75, 5: 0.5, 9: 1.0, 11: 0.0, 30: 0.25})
        pool = binary_pool(seed=7)
        out = NK.score_profiles(item, pool, code)
        assert out is not None
        assert out.tolist() == [metric_fn(c, item) for c in pool]

    @needs_native
    def test_zero_norm_item_scores_zero(self):
        item = make_item_profile({1: 0.0, 2: 0.0})
        pool = binary_pool(seed=1)
        out = NK.score_profiles(item, pool, 5)
        assert out is not None and out.tolist() == [0.0] * len(pool)

    @needs_native
    def test_lazy_snapshot_descriptor_filled_from_c(self):
        owner = make_user_profile([1, 2]).snapshot()
        cand = make_user_profile([2, 3]).snapshot()
        assert cand._nd is None  # packed lazily
        out = NK.score_profiles(owner, [cand], 0)
        assert out is not None
        assert cand._nd is not None  # the kernel triggered _pack()
        assert out.tolist() == [wup_similarity(owner, cand)]

    @needs_native
    def test_mutable_profiles_resolve_via_packed(self):
        owner = make_user_profile([1, 2, 3])  # mutable UserProfile
        pool = [make_user_profile([2, 3, 4]), make_user_profile([9])]
        out = NK.score_profiles(owner, pool, 0)
        assert out is not None
        assert out.tolist() == [wup_similarity(owner, c) for c in pool]

    @needs_native
    def test_non_binary_pool_member_falls_back(self):
        owner = make_user_profile([1, 2]).snapshot()
        pool = [make_user_profile([2]).snapshot(), make_item_profile({2: 0.5})]
        assert NK.score_profiles(owner, pool, 0) is None  # wup needs binary
        # ...but the liked-set metrics take any profile shape
        out = NK.score_profiles(owner, pool, 3)
        assert out is not None
        assert out.tolist() == [jaccard_similarity(owner, c) for c in pool]

    @needs_native
    def test_foreign_objects_fall_back_cleanly(self):
        owner = make_user_profile([1]).snapshot()
        assert NK.score_profiles(owner, [object()], 0) is None
        assert NK.score_profiles(object(), [owner], 0) is None
        assert NK.score_profiles(owner, [owner], 99) is not None  # unknown
        # unknown codes score 0.0 (defensive); dispatch never emits them


class TestMergeRankParity:
    """The fused score+trim must match the Python trim's kept dict exactly."""

    @staticmethod
    def entries(profiles, timestamps):
        return [
            ViewEntry(100 + i, "a", p, ts)
            for i, (p, ts) in enumerate(zip(profiles, timestamps, strict=True))
        ]

    @needs_native
    def test_matches_trim_ranked_aligned(self):
        owner = make_user_profile([1, 5, 9, 14, 20], [2]).snapshot()
        pool = binary_pool(seed=5)
        rng = np.random.default_rng(2)
        entries = self.entries(pool, rng.integers(0, 6, len(pool)).tolist())
        capacity = 5

        keep = NK.merge_rank(owner, entries, 0, capacity)
        assert keep is not None

        reference = View(capacity, owner_id=0)
        reference.upsert_all(entries)
        scores = [wup_similarity(owner, e.profile) for e in entries]
        reference.trim_ranked_aligned(entries, scores)

        kept = [entries[i] for i in keep.tolist()]
        assert [e.node_id for e in kept] == reference.node_ids()

    @needs_native
    def test_tie_break_order_is_timestamp_then_node_id(self):
        owner = make_user_profile([1]).snapshot()
        same = make_user_profile([1]).snapshot()  # identical scores
        entries = [
            ViewEntry(3, "a", same, 5),
            ViewEntry(7, "a", same, 9),
            ViewEntry(4, "a", same, 9),
        ]
        keep = NK.merge_rank(owner, entries, 0, 2)
        # all scores tie: freshest timestamp first, then smaller node id
        assert [entries[i].node_id for i in keep.tolist()] == [4, 7]

    @needs_native
    def test_capacity_at_least_pool_keeps_everything(self):
        owner = make_user_profile([1]).snapshot()
        entries = self.entries(binary_pool(seed=8), [0] * 14)
        keep = NK.merge_rank(owner, entries, 0, 50)
        assert keep is not None and len(keep) == len(entries)


class TestSelectionKernels:
    @needs_native
    def test_item_argmax_matches_flatnonzero(self):
        item = make_item_profile({1: 0.9, 5: 0.4, 9: 0.7})
        pool = binary_pool(seed=11)
        tied = NK.item_argmax(item, pool, 5)
        assert tied is not None
        scores = np.array([wup_similarity(c, item) for c in pool])
        assert tied.tolist() == np.flatnonzero(scores == scores.max()).tolist()

    @needs_native
    def test_item_argmax_all_zero_ties_everyone(self):
        item = make_item_profile({999: 1.0})  # matches nobody
        pool = binary_pool(seed=13)
        tied = NK.item_argmax(item, pool, 5)
        assert tied is not None
        assert tied.tolist() == list(range(len(pool)))

    @needs_native
    def test_rank_topk_matches_tuple_sort(self):
        rng = np.random.default_rng(3)
        scores = rng.random(40)
        scores[7] = scores[21]  # force a score tie
        ts = rng.integers(0, 8, 40).astype(np.int64)
        nids = np.arange(40, dtype=np.int64)
        out = NK.rank_topk(scores, ts, nids, 12)
        rows = sorted(
            ((scores[i], int(ts[i]), -i, i) for i in range(40)), reverse=True
        )
        assert out.tolist() == [r[3] for r in rows[:12]]


class TestDispatchIntegration:
    @needs_native
    def test_score_candidates_native_equals_python_tiers(self):
        owner = make_user_profile(list(range(0, 30, 2)), [1, 3]).snapshot()
        pool = binary_pool(seed=17, k=30)
        with native_kernel(True):
            native_scores = score_candidates(owner, pool, "wup")
        with native_kernel(False):
            python_scores = score_candidates(owner, pool, "wup")
        assert native_scores == python_scores

    @needs_native
    def test_default_stack_is_served_by_the_fused_kernels(self, monkeypatch):
        """A silent fall-through to the Python tier fails here, not in a bench.

        On ``RunConfig()`` every Vicinity merge must be one ``merge_rank``
        call and every dislike orientation one ``item_argmax`` call, none
        declining (``None``), and ``score_candidates`` is never entered.
        """
        from repro import _native, api
        from repro.core import WhatsUpConfig, WhatsUpSystem, beep
        from repro.datasets import survey_dataset
        from repro.gossip import vicinity

        served = {"merge_rank": 0, "item_argmax": 0}

        def counting(name):
            original = getattr(_native.NativeKernel, name)

            def wrapper(self, *args):
                out = original(self, *args)
                assert out is not None, f"{name} declined a protocol pool"
                served[name] += 1
                return out

            monkeypatch.setattr(_native.NativeKernel, name, wrapper)

        def entered(*_args, **_kwargs):
            raise AssertionError("score_candidates entered on the default stack")

        counting("merge_rank")
        counting("item_argmax")
        monkeypatch.setattr(vicinity, "score_candidates", entered)
        monkeypatch.setattr(beep, "score_candidates", entered)
        with api.RunConfig().apply():
            dataset = survey_dataset(
                n_base_users=60, n_base_items=80, publish_cycles=8, seed=5
            )
            system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=5)
            system.engine.run(12)
        assert served["merge_rank"] > 0 and served["item_argmax"] > 0

    def test_gate_setter_returns_previous(self):
        previous = set_native_kernel(False)
        try:
            assert set_native_kernel(previous) is False
        finally:
            set_native_kernel(previous)

    def test_context_manager_restores_on_error(self):
        before = native_kernel_enabled()
        with pytest.raises(RuntimeError), native_kernel(not before):
            raise RuntimeError("boom")
        assert native_kernel_enabled() == before

    def test_kernel_none_when_gate_off(self):
        with native_kernel(False):
            assert kernel() is None
            assert not native_kernel_enabled()

    def test_missing_extension_degrades_gracefully(self):
        # whatever the build state, the gate never raises and enabled()
        # implies availability
        assert native_kernel_enabled() == (
            native_available() and native_kernel_enabled()
        )
        if not native_available():
            with native_kernel(True):
                assert kernel() is None


class TestBuildStamp:
    """A build whose stamp no longer matches its sources is never trusted."""

    @pytest.fixture
    def stale(self, monkeypatch):
        """A faked stale stamp, a fresh load memo and a recording builder."""
        import repro._native as native
        from repro._native import build_native

        if native._probe() != "fresh":
            pytest.skip("no freshly built extension to fake stale")
        monkeypatch.setattr(build_native, "source_digest", lambda: "0" * 64)
        monkeypatch.setattr(native, "_loaded", native._UNSET)
        builds: list[bool] = []
        # records the rebuild request and reports it failed: nothing is built
        monkeypatch.setattr(
            build_native, "build_inplace", lambda verbose=False: builds.append(verbose)
        )
        return native, builds

    def test_stale_build_is_unavailable_with_one_warning(self, stale):
        native, builds = stale
        with pytest.warns(RuntimeWarning) as record:
            assert native.load() is None
            assert not native_available()
            assert kernel() is None
        rebuild = "python -m repro._native.build_native"
        stale_warnings = [w for w in record if rebuild in str(w.message)]
        assert len(stale_warnings) == 1
        assert builds == []

    def test_ensure_built_rebuilds_a_stale_build(self, stale):
        native, builds = stale
        assert native.ensure_built() is None
        assert builds == [False]


class TestStatePlaneKernels:
    """The ArrayView bookkeeping kernels vs their Python equivalents."""

    @staticmethod
    def _array_view(capacity=8, owner=99, n=12, seed=4):
        from repro.gossip.views import ArrayView

        rng = np.random.default_rng(seed)
        v = ArrayView(capacity, owner_id=owner)
        entries = [
            ViewEntry(
                int(nid),
                f"10.0.0.{int(nid)}",
                FrozenProfile({int(nid): 1.0}, is_binary=True),
                int(rng.integers(0, 10)),
            )
            for nid in rng.choice(500, size=n, replace=False)
        ]
        v.upsert_all(entries)
        return v

    @needs_native
    def test_state_oldest_matches_python_min(self):
        v = self._array_view()
        with native_kernel(True):
            native_pick = v.oldest()
        with native_kernel(False):
            python_pick = v.oldest()
        assert native_pick == python_pick

    @needs_native
    def test_state_find_matches_index(self):
        v = self._array_view()
        nid = v.node_ids()[3]
        assert NK.state_find(v._cols_addr, v._alloc, len(v), nid) == 3
        assert NK.state_find(v._cols_addr, v._alloc, len(v), 10**6) == -1

    @needs_native
    def test_state_upsert_equals_python_loop(self):
        from repro.gossip.views import ArrayView

        rng = np.random.default_rng(9)
        base = [
            ViewEntry(i, "a", FrozenProfile({i: 1.0}, is_binary=True), i)
            for i in rng.choice(40, size=10, replace=False)
        ]
        # incoming batch with in-batch duplicates, owner rows, stale rows
        inc = [
            ViewEntry(
                int(nid),
                "b",
                FrozenProfile({int(nid): 1.0, 7: 1.0}, is_binary=True),
                int(ts),
            )
            for nid, ts in zip(
                rng.choice(45, size=14, replace=True),
                rng.integers(0, 20, size=14),
                strict=True,
            )
        ]
        inc.append(ViewEntry(99, "o", FrozenProfile({}, is_binary=True), 50))
        cols_arr = np.empty((3, len(inc)), dtype=np.int64)
        cols_arr[0] = [e.node_id for e in inc]
        cols_arr[1] = [e.timestamp for e in inc]
        cols_arr[2] = [0] * len(inc)
        via_kernel = ArrayView(8, owner_id=99)
        via_kernel.upsert_all(base)
        with native_kernel(True):
            via_kernel.upsert_columns(
                tuple(inc), (cols_arr, len(inc), len(inc))
            )
        via_python = ArrayView(8, owner_id=99)
        via_python.upsert_all(base)
        with native_kernel(False):
            via_python.upsert_all(inc)
        assert via_kernel.entries() == via_python.entries()
        assert via_kernel.node_ids() == via_python.node_ids()

    @needs_native
    def test_state_select_reorders_and_releases(self):
        import sys

        v = self._array_view(n=10)
        entries = v.entries()
        dropped = entries[0]
        refs_before = sys.getrefcount(dropped)
        sel = np.array([3, 1, 2], dtype=np.int64)
        kept_expect = [entries[3], entries[1], entries[2]]
        assert NK.state_select(
            v._cols_addr, v._alloc, v._pobj_addr, len(v), sel, sel.size
        )
        v._n = sel.size
        v._mutations += 1
        assert v.entries() == kept_expect
        assert v.node_ids() == [e.node_id for e in kept_expect]
        # dropped payload references were released by the kernel
        assert sys.getrefcount(dropped) < refs_before

    @needs_native
    def test_state_trim_drop_equals_mask_compaction(self):
        from repro.gossip.views import ArrayView

        rng = np.random.default_rng(21)
        shared = [
            ViewEntry(
                int(nid),
                "a",
                FrozenProfile({int(nid): 1.0}, is_binary=True),
                int(rng.integers(0, 10)),
            )
            for nid in rng.choice(500, size=12, replace=False)
        ]
        v1 = ArrayView(8, owner_id=99)
        v1.upsert_all(shared)
        v2 = ArrayView(8, owner_id=99)
        v2.upsert_all(shared)
        drop = np.array([0, 5, 11], dtype=np.int64)
        new_n = NK.state_trim_drop(
            v1._cols_addr, v1._alloc, v1._pobj_addr, len(v1), drop, drop.size
        )
        assert new_n == 9
        v1._n = new_n
        v1._mutations += 1
        keep = np.array(
            [i for i in range(12) if i not in (0, 5, 11)], dtype=np.int64
        )
        with native_kernel(False):
            v2._select(keep)
        assert v1.entries() == v2.entries()
        assert v1.node_ids() == v2.node_ids()

    @needs_native
    def test_state_ship_wire_total_matches_walk(self):
        from repro.gossip.views import descriptor_wire_size

        v = self._array_view(n=9, seed=8)
        own = ViewEntry(99, "o", FrozenProfile({1: 1.0}, is_binary=True), 7)
        shipped, cols, wire = v.ship_all_except(
            v.node_ids()[2], own, 99, 7
        )
        assert len(shipped) == 8
        assert wire == 1 + descriptor_wire_size(own) + sum(
            descriptor_wire_size(e) for e in shipped
        )
        arr, stride, count = cols
        assert count == 9 and stride == 9
        assert arr[0, 0] == 99 and arr[1, 0] == 7

    @needs_native
    def test_state_ship_selected_bumps_past_exclusion(self):
        v = self._array_view(n=9, seed=8)
        ids = v.node_ids()
        excl_slot = 4
        own = ViewEntry(99, "o", FrozenProfile({}, is_binary=True), 3)
        sel = np.array([2, 4, 6], dtype=np.int64)  # candidate indices
        shipped, cols, _wire = v.ship_selected(sel, excl_slot, own, 99, 3)
        # candidates at/after the excluded slot map to slot+1
        assert [e.node_id for e in shipped] == [ids[2], ids[5], ids[7]]
        arr, _stride, _count = cols
        assert list(arr[0, 1:]) == [ids[2], ids[5], ids[7]]
