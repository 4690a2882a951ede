"""Tests for the batch similarity subsystem.

Covers the guarantees of the pool scoring stack:

* :func:`repro.core.similarity.score_candidates` matches the scalar metrics
  pairwise — to 1e-12 by requirement, and bitwise in practice — across
  binary, real-valued, empty and disjoint profiles and both orientations
  of the asymmetric WUP metric (the generated-profile form of this claim
  is ``test_scoring_tiers_agree_bitwise`` in
  ``tests/test_property_invariants.py``);
* ``View.trim_ranked`` with precomputed scores (and the aligned fast path)
  selects exactly what the key-based form selects (whole runs on the
  scalar and pool paths are compared in ``tests/test_pipeline_grid.py``);
* the engine's O(1) pending-message counter and cached alive-id list stay
  coherent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.profiles import FrozenProfile, UserProfile, pack_id_array
from repro.core.similarity import (
    available_metrics,
    get_metric,
    metric_name_of,
    score_candidates,
    wup_similarity,
)
from repro.datasets import survey_dataset
from repro.gossip.views import View, ViewEntry
from repro.utils.exceptions import ConfigurationError
from tests.conftest import make_item_profile


def random_binary_frozen(rng, n_items=40, universe=500) -> FrozenProfile:
    ids = rng.choice(universe, size=n_items, replace=False)
    return FrozenProfile(
        {int(i): float(rng.random() < 0.6) for i in ids}, is_binary=True
    )


def random_real_frozen(rng, n_items=40, universe=500) -> FrozenProfile:
    ids = rng.choice(universe, size=n_items, replace=False)
    return FrozenProfile(
        {int(i): float(rng.random()) for i in ids}, is_binary=False
    )


class TestScoreCandidatesEquivalence:
    @pytest.mark.parametrize("metric", ["wup", "cosine", "jaccard", "overlap"])
    @pytest.mark.parametrize("role", ["n", "c"])
    def test_binary_pools_match_scalar(self, metric, role):
        rng = np.random.default_rng(101)
        fn = get_metric(metric)
        for _trial in range(8):
            owner = random_binary_frozen(rng, n_items=int(rng.integers(1, 60)))
            pool = [
                random_binary_frozen(rng, n_items=int(rng.integers(0, 60)))
                for _ in range(12)
            ]
            got = score_candidates(owner, pool, metric, owner_role=role)
            for c, s in zip(pool, got, strict=True):
                want = fn(owner, c) if role == "n" else fn(c, owner)
                assert s == pytest.approx(want, abs=1e-12)
                assert s == want  # bitwise, by construction

    @pytest.mark.parametrize("metric", ["wup", "cosine"])
    @pytest.mark.parametrize("role", ["n", "c"])
    def test_real_valued_pools_match_scalar(self, metric, role):
        rng = np.random.default_rng(202)
        fn = get_metric(metric)
        for _trial in range(6):
            owner = random_real_frozen(rng, n_items=int(rng.integers(1, 80)))
            pool = [
                random_real_frozen(rng, n_items=int(rng.integers(0, 80)))
                for _ in range(8)
            ] + [random_binary_frozen(rng) for _ in range(4)]
            got = score_candidates(owner, pool, metric, owner_role=role)
            for c, s in zip(pool, got, strict=True):
                want = fn(owner, c) if role == "n" else fn(c, owner)
                assert s == pytest.approx(want, abs=1e-12)

    def test_item_profile_owner_matches_scalar(self):
        # BEEP orientation: live mutable ItemProfile against binary peers
        rng = np.random.default_rng(7)
        item = make_item_profile(
            {int(i): float(rng.random()) for i in rng.choice(300, 50, replace=False)}
        )
        pool = [random_binary_frozen(rng, n_items=25) for _ in range(10)]
        got = score_candidates(item, pool, "wup", owner_role="c")
        want = [wup_similarity(p, item) for p in pool]
        assert got == want

    def test_empty_and_disjoint_profiles(self):
        empty = FrozenProfile({}, is_binary=True)
        a = FrozenProfile({1: 1.0, 2: 1.0, 3: 0.0}, is_binary=True)
        b = FrozenProfile({9: 1.0, 10: 0.0}, is_binary=True)  # disjoint from a
        for metric in available_metrics():
            fn = get_metric(metric)
            got = score_candidates(a, [empty, b, a], metric)
            assert got[0] == fn(a, empty) == 0.0
            assert got[1] == fn(a, b) == 0.0
            assert got[2] == fn(a, a)
            assert score_candidates(empty, [a, b], metric) == [0.0, 0.0]

    def test_custom_callable_falls_back_to_pairwise(self):
        calls = []

        def fake_metric(a, b):
            calls.append((a, b))
            return 0.5

        owner = FrozenProfile({1: 1.0}, is_binary=True)
        pool = [FrozenProfile({2: 1.0}, is_binary=True)] * 3
        assert metric_name_of(fake_metric) is None
        assert score_candidates(owner, pool, fake_metric) == [0.5] * 3
        assert len(calls) == 3

    def test_empty_pool_and_bad_role(self):
        owner = FrozenProfile({1: 1.0}, is_binary=True)
        assert score_candidates(owner, [], "wup") == []
        with pytest.raises(ConfigurationError):
            score_candidates(owner, [owner], "wup", owner_role="x")
        with pytest.raises(ConfigurationError):
            score_candidates(owner, [owner], "not-a-metric")


class TestPackedSnapshots:
    def test_packed_arrays_sorted_and_aligned(self):
        snap = FrozenProfile({30: 1.0, 5: 0.0, 17: 0.5}, is_binary=False)
        assert snap.rated_ids.tolist() == [5, 17, 30]
        assert snap.rated_scores.tolist() == [0.0, 0.5, 1.0]
        assert snap.liked_ids.tolist() == [17, 30]

    def test_uid_is_stable_per_version_and_fresh_after_mutation(self):
        profile = UserProfile()
        profile.record_opinion(1, 0, True)
        s1 = profile.snapshot()
        assert profile.snapshot().uid == s1.uid  # memoised
        profile.record_opinion(2, 0, True)
        s2 = profile.snapshot()
        assert s2.uid != s1.uid
        assert s2.version > s1.version

    def test_pack_id_array_handles_out_of_range_ids(self):
        arr = pack_id_array({-1: 0, 3: 0, 2**63 + 5: 0}.keys(), 3)
        assert arr.dtype == np.uint64
        assert len(set(arr.tolist())) == 3

    def test_huge_item_ids_score_correctly(self):
        big = 2**63 + 11  # realistic 8-byte digests exceed int64
        a = FrozenProfile({big: 1.0, 3: 1.0}, is_binary=True)
        b = FrozenProfile({big: 1.0}, is_binary=True)
        assert score_candidates(a, [b], "wup")[0] == wup_similarity(a, b)


class TestTrimRankedScores:
    def entries(self, n=9):
        rng = np.random.default_rng(31)
        out = []
        for nid in range(1, n + 1):
            profile = FrozenProfile(
                {int(i): 1.0 for i in rng.choice(50, 5, replace=False)},
                is_binary=True,
            )
            out.append(ViewEntry(nid, "10.0.0.1", profile, int(rng.integers(10))))
        return out

    def test_scores_mapping_matches_key_form(self):
        rng = np.random.default_rng(8)
        entries = self.entries()
        scores = {e.node_id: float(rng.choice([0.0, 0.25, 0.5])) for e in entries}
        v_key, v_scores = View(4, owner_id=0), View(4, owner_id=0)
        v_key.upsert_all(entries)
        v_scores.upsert_all(entries)
        v_key.trim_ranked(lambda e: scores[e.node_id])
        v_scores.trim_ranked(scores=scores)
        assert v_key.node_ids() == v_scores.node_ids()

    def test_aligned_form_matches_mapping_form(self):
        rng = np.random.default_rng(9)
        entries = self.entries()
        aligned = [float(rng.choice([0.0, 0.25, 0.5])) for _ in entries]
        mapping = {e.node_id: s for e, s in zip(entries, aligned, strict=True)}
        v_map, v_aligned = View(4, owner_id=0), View(4, owner_id=0)
        v_map.upsert_all(entries)
        v_aligned.upsert_all(entries)
        v_map.trim_ranked(scores=mapping)
        v_aligned.trim_ranked_aligned(v_aligned.entries(), aligned)
        assert v_map.node_ids() == v_aligned.node_ids()

    def test_exactly_one_ranking_source_required(self):
        v = View(2, owner_id=0)
        with pytest.raises(ConfigurationError):
            v.trim_ranked()
        with pytest.raises(ConfigurationError):
            v.trim_ranked(lambda e: 0.0, scores={})

    def test_missing_scores_use_default(self):
        entries = self.entries(3)
        v = View(1, owner_id=0)
        v.upsert_all(entries)
        v.trim_ranked(scores={entries[2].node_id: 1.0}, default=0.0)
        assert v.node_ids() == [entries[2].node_id]

    def test_mutation_count_advances(self):
        v = View(2, owner_id=0)
        tag = v.mutation_count
        v.upsert_all(self.entries(4))
        assert v.mutation_count > tag
        tag = v.mutation_count
        v.trim_ranked(scores={})
        assert v.mutation_count > tag


class TestEngineCounters:
    def _system(self):
        # unit tests of the single-process engine's internal counters
        # (_future_inboxes, the alive-id cache): pin REPRO_SHARDS=1 so a
        # forced sharded environment (the CI sharded leg) does not swap
        # the facade in under them
        from repro.simulation.sharding import sharding

        dataset = survey_dataset(
            n_base_users=40, n_base_items=50, publish_cycles=10, seed=3
        )
        with sharding(1):
            return WhatsUpSystem(dataset, WhatsUpConfig(f_like=5), seed=3)

    def test_pending_counter_matches_inbox_contents(self):
        system = self._system()
        engine = system.engine
        seen = []

        def check(eng, cycle):
            actual = sum(
                len(copies)
                for per_node in eng._future_inboxes.values()
                for copies in per_node.values()
            )
            seen.append((eng.pending_item_messages(), actual))

        engine.add_observer(check)
        engine.run(12)
        assert seen and all(counter == actual for counter, actual in seen)

    def test_pending_counter_drains_to_zero(self):
        system = self._system()
        system.run(12, drain=True)
        assert system.engine.pending_item_messages() == 0
        assert not system.engine._future_inboxes

    def test_alive_cache_tracks_direct_flag_writes(self):
        system = self._system()
        engine = system.engine
        all_ids = engine.alive_node_ids()
        engine.nodes[3].alive = False  # direct write, as churn models do
        assert 3 not in engine.alive_node_ids()
        engine.nodes[3].alive = True
        assert sorted(engine.alive_node_ids()) == sorted(all_ids)


class TestCopyOnWriteProfiles:
    def test_clone_mutation_does_not_leak_to_parent(self):
        parent = make_item_profile({1: 0.5, 2: 1.0})
        clone = parent.copy()
        clone.set(9, 0, 1.0)
        assert 9 not in parent
        parent.set(10, 0, 0.25)
        assert 10 not in clone
        assert clone.score_of(1) == 0.5

    def test_unmutated_clone_shares_storage(self):
        parent = make_item_profile({1: 0.5})
        clone = parent.copy()
        assert clone._scores is parent._scores  # COW: no copy until write

    def test_purge_fast_path_skips_scan_but_stays_correct(self):
        profile = make_item_profile({})
        profile.set(1, 10, 1.0)
        profile.set(2, 20, 0.5)
        assert profile.purge_older_than(5) == 0  # below min ts: no-op
        assert profile.purge_older_than(15) == 1
        assert 1 not in profile and 2 in profile
        assert profile.purge_older_than(15) == 0
