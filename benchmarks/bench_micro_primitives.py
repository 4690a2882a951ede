"""Micro-benchmarks of the hot primitives.

Unlike the macro table/figure benchmarks (one full simulation per round),
these measure the inner-loop costs that dominate a run — useful for
tracking performance regressions in the similarity metrics, gossip
merges and the engine cycle loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.news import ItemCopy, NewsItem
from repro.core.profiles import FrozenProfile, ItemProfile, PackedView, UserProfile
from repro.core.similarity import (
    cosine_similarity,
    native_kernel,
    pairwise_wup,
    score_candidates,
    wup_similarity,
)
from repro.datasets import survey_dataset
from repro.gossip.rps import RpsMessage, RpsProtocol
from repro.gossip.vicinity import ClusteringProtocol
from repro.gossip.views import ArrayView, View, ViewEntry
from repro.network.message import MessageKind
from repro.simulation.delivery import split_first_receipts
from repro.simulation.engine import CycleEngine
from repro.simulation.node import BaseNode
from repro.simulation.schedule import PublicationSchedule
from repro.simulation.wire import LinkDecoder, LinkEncoder

#: the two state-plane backends every bookkeeping primitive is measured on
PLANES = ["legacy", "array"]


def _profile_pair(n_items=120, overlap=0.4, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.choice(10_000, size=n_items, replace=False)
    a, b = UserProfile(), UserProfile()
    for iid in base:
        r = rng.random()
        if r < overlap:
            a.record_opinion(int(iid), 0, True)
            b.record_opinion(int(iid), 0, rng.random() < 0.7)
        elif r < 0.7:
            a.record_opinion(int(iid), 0, rng.random() < 0.5)
        else:
            b.record_opinion(int(iid), 0, rng.random() < 0.5)
    return a.snapshot(), b.snapshot()


@pytest.mark.benchmark(group="micro-similarity")
def test_micro_wup_similarity(benchmark):
    a, b = _profile_pair()
    result = benchmark(wup_similarity, a, b)
    assert 0.0 <= result <= 1.0


@pytest.mark.benchmark(group="micro-similarity")
def test_micro_cosine_similarity(benchmark):
    a, b = _profile_pair()
    result = benchmark(cosine_similarity, a, b)
    assert 0.0 <= result <= 1.0


@pytest.mark.benchmark(group="micro-similarity")
def test_micro_wup_vs_item_profile(benchmark):
    # the BEEP orientation path: binary candidate vs real-valued item profile
    a, _ = _profile_pair()
    rng = np.random.default_rng(3)
    item = ItemProfile()
    for iid in rng.choice(10_000, size=150, replace=False):
        item.set(int(iid), 0, float(rng.random()))
    result = benchmark(wup_similarity, a, item)
    assert 0.0 <= result <= 1.0


@pytest.mark.benchmark(group="micro-similarity")
def test_micro_pairwise_wup_matrix(benchmark):
    rng = np.random.default_rng(1)
    rated = rng.random((240, 500)) < 0.4
    likes = rated & (rng.random((240, 500)) < 0.6)
    out = benchmark(pairwise_wup, likes, rated)
    assert out.shape == (240, 240)


@pytest.mark.benchmark(group="micro-gossip")
def test_micro_clustering_merge(benchmark):
    rng = np.random.default_rng(5)
    own, _ = _profile_pair(seed=9)
    proto = ClusteringProtocol(0, 20, wup_similarity, np.random.default_rng(0))
    candidates = []
    for nid in range(1, 61):
        scores = {
            int(i): 1.0 for i in rng.choice(10_000, size=40, replace=False)
        }
        candidates.append(
            ViewEntry(nid, "10.0.0.1", FrozenProfile(scores, is_binary=True), 0)
        )

    def merge_once():
        proto.merge(own, candidates)

    benchmark(merge_once)
    assert len(proto.view) == 20


def _candidate_pool(k, n_items=60, universe=20_000, seed=7):
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(k):
        ids = rng.choice(universe, size=n_items, replace=False)
        pool.append(
            FrozenProfile(
                {int(i): float(rng.random() < 0.7) for i in ids},
                is_binary=True,
            )
        )
    return pool


@pytest.mark.benchmark(group="micro-batch")
@pytest.mark.parametrize("pool_size", [16, 64, 256])
def test_micro_score_candidates_pool(benchmark, pool_size):
    # pool scoring across pool sizes: one native score_profiles call per
    # pool, or the set-algebra pool loop when the extension is absent
    owner, _ = _profile_pair(seed=11)
    pool = _candidate_pool(pool_size)
    result = benchmark(score_candidates, owner, pool, "wup")
    assert len(result) == pool_size
    assert all(0.0 <= s <= 1.0 for s in result)


@pytest.mark.benchmark(group="micro-gossip")
def test_micro_clustering_merge_paper_view(benchmark):
    # paper-swept operating point: fLIKE=25 -> WUPvs=50, merge pool of a
    # full received view + RPS view on top of the node's own entries
    own, _ = _profile_pair(seed=13)
    proto = ClusteringProtocol(0, 50, "wup", np.random.default_rng(1))
    candidates = [
        ViewEntry(nid, "10.0.0.1", profile, 0)
        for nid, profile in enumerate(_candidate_pool(120, seed=22), start=1)
    ]

    def merge_once():
        proto.merge(own, candidates)

    benchmark(merge_once)
    assert len(proto.view) == 50


@pytest.mark.benchmark(group="micro-engine")
def test_micro_engine_cycle_throughput(benchmark):
    dataset = survey_dataset(n_base_users=100, n_base_items=120, seed=2)
    system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=8), seed=2)
    system.run(10, drain=False)  # warm the overlay and the stream

    def one_cycle():
        system.engine.run(1)

    benchmark.pedantic(one_cycle, rounds=10, iterations=1)
    # >= 11: under --benchmark-disable (CI smoke) pedantic runs one round
    assert system.engine.cycles_run >= 11


# --------------------------------------------------------------------------
# gossip bookkeeping primitives (PR 4 array state plane vs legacy)
# --------------------------------------------------------------------------
#
# These measure the order-pinned state machinery the similarity kernels
# left as the wall: view merge-dedup, ranked trims, random trims,
# shipment/wire accounting, per-receipt profile mutation.  Each primitive
# runs on both state-plane backends; paired medians go to PERFORMANCE.md.


def _descriptor_batch(k=17, seed=31, universe=4000, n_items=40):
    rng = np.random.default_rng(seed)
    batch = []
    for nid in rng.choice(400, size=k, replace=False):
        scores = {
            int(i): 1.0
            for i in rng.choice(universe, size=n_items, replace=False)
        }
        batch.append(
            ViewEntry(
                int(nid),
                "10.0.0.1",
                FrozenProfile(scores, is_binary=True),
                int(rng.integers(0, 30)),
            )
        )
    return batch


def _view(plane, capacity=30, owner=999, prefill=30, seed=7):
    cls = View if plane == "legacy" else ArrayView
    v = cls(capacity, owner_id=owner)
    v.upsert_all(_descriptor_batch(prefill, seed=seed))
    return v


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_view_upsert_all(benchmark, plane):
    # the merge-dedup inner loop: steady-state replacement of a shipped
    # batch (equal timestamps -> freshest-wins replaces every row)
    view = _view(plane)
    batch = _descriptor_batch(17, seed=5)
    benchmark(view.upsert_all, batch)
    assert len(view) <= 30 + 17


@pytest.mark.benchmark(group="micro-bookkeeping")
def test_micro_view_upsert_columns_kernel(benchmark):
    # the columnar shipment path: one state_upsert kernel call (array
    # plane only; falls back to upsert_all without the extension)
    sender = RpsProtocol(1, 30, np.random.default_rng(0))
    sender.view = ArrayView(30, owner_id=1)
    sender.view.upsert_all(_descriptor_batch(30, seed=9))
    profile = UserProfile()
    profile.record_opinion(3, 0, True)
    payload, _wire, cols = sender._shipment(profile.snapshot(), 5, exclude=2)
    view = _view("array", seed=11)
    benchmark(view.upsert_columns, payload, cols)


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_view_ranked_trim(benchmark, plane):
    # the clustering merge's trim: 60 candidates -> keep top 20
    rng = np.random.default_rng(3)
    base = _descriptor_batch(60, seed=13)
    scores = [float(s) for s in rng.random(60)]

    def setup():
        cls = View if plane == "legacy" else ArrayView
        v = cls(20, owner_id=999)
        v.upsert_all(base)
        return (v, v.entries(), list(scores)), {}

    def trim(v, entries, aligned):
        v.trim_ranked_aligned(entries, aligned)
        return v

    result = benchmark.pedantic(trim, setup=setup, rounds=40)
    assert len(result) == 20


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_view_trim_random(benchmark, plane):
    # the RPS merge rule: shrink 47 -> 30 by uniform sample
    base = _descriptor_batch(47, seed=17)
    rng = np.random.default_rng(23)

    def setup():
        cls = View if plane == "legacy" else ArrayView
        v = cls(30, owner_id=999)
        v.upsert_all(base)
        return (v,), {}

    result = benchmark.pedantic(
        lambda v: (v.trim_random(rng), v)[1], setup=setup, rounds=40
    )
    assert len(result) == 30


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_shipment_wire_accounting(benchmark, plane):
    # pricing a full gossip shipment: wire-column sum vs descriptor walk
    view = _view(plane)
    result = benchmark(view.wire_size)
    assert result > 0


@pytest.mark.benchmark(group="micro-bookkeeping")
@pytest.mark.parametrize("plane", PLANES)
def test_micro_view_oldest(benchmark, plane):
    # tail peer selection, twice per node per cycle
    view = _view(plane)
    result = benchmark(view.oldest)
    assert result is not None


@pytest.mark.benchmark(group="micro-bookkeeping")
def test_micro_profile_integrate(benchmark):
    # Algorithm 1's addToNewsProfile: fold a liker into the item profile
    # (steady state: every id present -> the averaging path)
    rng = np.random.default_rng(29)
    item = ItemProfile()
    liker = UserProfile()
    for iid in rng.choice(20_000, size=150, replace=False):
        item.set(int(iid), 0, float(rng.random()))
        liker.set(int(iid), 0, float(rng.integers(0, 2)))
    benchmark(item.integrate, liker)
    assert len(item) == 150


@pytest.mark.benchmark(group="micro-bookkeeping")
def test_micro_profile_snapshot_pack(benchmark):
    # per-opinion profile mutation + scored snapshot: the per-receipt
    # path (set bumps the version; the next snapshot packs afresh)
    rng = np.random.default_rng(37)
    profile = UserProfile()
    for iid in rng.choice(20_000, size=200, replace=False):
        profile.set(int(iid), 0, float(rng.integers(0, 2)))
    target = int(next(iter(profile.scores)))

    def mutate_and_pack():
        profile.set(target, 1, 1.0)
        return profile.snapshot().rated_ids

    ids = benchmark(mutate_and_pack)
    assert ids.size == 200


class _Sink(BaseNode):
    """An alive target with no behaviour: the fan-out only reads liveness."""

    def begin_cycle(self, engine, now):
        pass

    def receive_item(self, copy, via_like, engine, now):
        pass

    def publish(self, item, engine, now):
        pass


@pytest.mark.benchmark(group="micro-dissemination")
def test_micro_fanout_first_receipts(benchmark, monkeypatch):
    # one liker's fan-out on the batched path: 16 targets, 12 of which have
    # seen the item already; of the 4 first receipts, 3 dislike it and score
    # its profile against a 30-peer RPS pool.  Per content, not per send:
    # no clone, one fork per first receipt, one pack for the whole family.
    rng = np.random.default_rng(41)
    item = NewsItem.publish(source=0, created_at=0, title="flash")
    liker_profile = ItemProfile()
    for iid in rng.choice(20_000, size=150, replace=False):
        liker_profile.set(int(iid), 0, float(rng.random()))
    pool = _candidate_pool(30)
    targets = list(range(1, 17))
    first, dislikers = {3, 7, 11, 15}, {3, 7, 11}
    engine = CycleEngine(
        [_Sink(i) for i in range(17)], PublicationSchedule([(0, item)])
    )

    def fanout():
        # the liker's integrate leaves it a private, never-packed content
        profile = liker_profile.copy()
        profile.set(item.item_id, 0, 1.0)
        copy = ItemCopy(item, profile, hops=2)
        engine._buffering = True
        engine.send_fanout(0, targets, copy, via_like=True)
        engine._buffering = False
        engine._flush_item_sends()
        scored = 0
        for target, rows in engine._future_inboxes.pop(engine.now + 1).items():
            seen = set() if target in first else {item.item_id}
            fresh, _duplicates = split_first_receipts(rows, seen)
            for fork, _via_like in fresh:
                if target in dislikers:
                    score_candidates(fork.profile, pool, "wup", owner_role="c")
                    scored += 1
        return scored

    counts = {"clone": 0, "fork": 0, "pack": 0}

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(ItemCopy, "clone_for_forward", "clone")
    counted(ItemCopy, "fork", "fork")
    counted(PackedView, "__init__", "pack")
    assert fanout() == 3
    monkeypatch.undo()
    assert counts["clone"] == 0 and counts["fork"] == 4
    assert counts["pack"] <= 1  # 0 where the native tier is absent
    print(f"\nfan-out of 16, 4 first receipts, 3 scored: {counts}")
    assert benchmark(fanout) == 3


def _gossip_flushes(n_flushes=12, n_nodes=450, k=18, keep=4, seed=43):
    """Mailbox flushes shaped like ``synthetic-shard2``'s gossip barriers.

    Every cycle each node stamps a fresh descriptor (one in twenty after
    re-rating an item, so its profile crosses as a delta) and the stamps
    of the last *keep* cycles stay in circulation; every node ships *k*
    circulating descriptors with their column block.  A stamp is new to
    the link once and then re-shipped about twenty times — ≈ 95 % of a
    flush's crossings are descriptors the link has carried before.
    """
    rng = np.random.default_rng(seed)
    scores = [
        {int(i): float(rng.random() < 0.7) for i in rng.choice(5_000, 40, False)}
        for _ in range(n_nodes)
    ]
    profiles = [FrozenProfile(s, is_binary=True, version=0) for s in scores]
    circulating: list = []
    flushes = []
    for cycle in range(n_flushes):
        for nid in range(n_nodes):
            if cycle and rng.random() < 0.05:
                scores[nid][int(rng.integers(5_000, 10_000))] = 1.0
                profiles[nid] = FrozenProfile(
                    scores[nid], is_binary=True, version=cycle
                )
        circulating.append(
            [
                ViewEntry(
                    nid, f"10.0.{nid >> 8 & 255}.{nid & 255}", profiles[nid], cycle
                )
                for nid in range(n_nodes)
            ]
        )
        pool = [entry for stamps in circulating[-keep:] for entry in stamps]
        rows = []
        for sender in range(n_nodes):
            entries = tuple(
                pool[i] for i in rng.choice(len(pool), k, False).tolist()
            )
            cols = np.array(
                [
                    [e.node_id for e in entries],
                    [e.timestamp for e in entries],
                    [64] * k,
                ],
                dtype=np.int64,
            )
            msg = RpsMessage(sender, entries, sender % 2 == 0, 64 * k, (cols, k, k))
            rows.append((sender, (sender + 1) % n_nodes, MessageKind.RPS, msg))
        flushes.append(rows)
    return flushes


@pytest.mark.benchmark(group="micro-wire")
def test_micro_wire_codec_repeat_heavy(benchmark):
    # codec CPU of the delta wire where it matters: gossip re-ships the
    # same descriptors flush after flush, so a crossing should cost one
    # table lookup on the sender and one gather slot on the receiver
    warm, *flushes = _gossip_flushes()

    def fresh_link():
        enc, dec = LinkEncoder("delta"), LinkDecoder("delta")
        dec.decode(enc.encode(warm, "gossip"))  # first crossings, untimed
        return (enc, dec), {}

    def cross(enc, dec):
        decoded = 0
        for rows in flushes:
            decoded += len(dec.decode(enc.encode(rows, "gossip")))
        return enc, dec, decoded

    enc, dec, n_rows = benchmark.pedantic(
        cross, setup=fresh_link, rounds=5, iterations=1
    )
    assert n_rows == sum(len(rows) for rows in flushes)
    crossings = enc.stats.entries
    repeats = 1.0 - enc.descriptor_count() / crossings
    print(
        f"\n{enc.stats.frames - 1} timed flushes, {crossings} crossings of "
        f"{enc.descriptor_count()} descriptors: {repeats:.1%} repeats"
    )
    assert 0.9 < repeats < 0.97
    assert enc.descriptor_count() == dec.descriptor_count()
