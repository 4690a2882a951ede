"""Property-based invariants (hypothesis).

Equivalence contracts the fast paths rest on, checked over *generated*
inputs rather than one fixed seed:

* **View ↔ ArrayView mirrored ops** — any sequence of upserts, removals,
  evictions and trims leaves the columnar backend observably identical to
  the dict-backed one (entries, order, oldest-selection, wire accounting,
  RNG consumption).
* **Pack memo = from-scratch build** — after any sequence of
  ``set``/``remove``/``purge_older_than``/``integrate``/``copy``/
  ``snapshot``/``freeze``, a profile's memoised :class:`PackedView` and its
  snapshots' packed columns equal a sort of the score dict, and
  copy-on-write clones keep the state they were cloned at.
* **Copy-on-write family = one pack per content** — over a generated tree
  of ``copy()``-related item profiles, a held pack always describes its
  holder's own scores, a member that mutates never returns the family's
  pack again, and the un-mutated members share one :class:`PackedView`.
* **Scoring tiers = scalar metrics** — the fused native kernels and the
  set-algebra pool loops return the scalar metrics' exact bits for every
  metric and both orientations.
* **Pipelines = reference** — over generated small runs (seed, population,
  fanout, loss, length) the ``fast`` pipeline, with and without the
  kernels, leaves the ``reference`` pipeline's exact full state.
* **Delta link = lock-step stores** — a rule-based state machine drives
  one ``LinkEncoder``/``LinkDecoder`` pair through generated frames,
  profile edits, overflow rows, cap resets and checkpoint round-trips;
  what is decoded equals what was encoded and both ends' tables agree
  after every step.

Profiles: ``HYPOTHESIS_PROFILE=ci`` (CI: 100 examples per property) or the
default ``dev`` (fast local iteration).
"""

from __future__ import annotations

import math
import os
import pickle

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro._native import load as load_native, native_kernel
from repro.core.profiles import FrozenProfile, ItemProfile, UserProfile
from repro.core.similarity import (
    _native_pool_code,
    available_metrics,
    get_metric,
    score_candidates,
    wup_pool_binary,
    wup_pool_vs_item,
)
from repro.gossip.views import ArrayView, View, ViewEntry
from tests.conftest import make_item_profile

settings.register_profile("ci", max_examples=100, deadline=None)
settings.register_profile(
    "dev", max_examples=15, deadline=None, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


# --------------------------------------------------------------------------- #
# View <-> ArrayView mirrored-operation equivalence                           #
# --------------------------------------------------------------------------- #

_upsert = st.tuples(
    st.just("upsert"),
    st.integers(min_value=1, max_value=24),  # node id (owner 99 excluded)
    st.integers(min_value=0, max_value=30),  # timestamp
    st.frozensets(st.integers(min_value=0, max_value=40), max_size=4),
)
_remove = st.tuples(st.just("remove"), st.integers(min_value=1, max_value=24))
_evict = st.tuples(st.just("evict"), st.integers(min_value=0, max_value=30))
_trim_random = st.tuples(
    st.just("trim_random"), st.integers(min_value=0, max_value=2**16)
)
_trim_ranked = st.tuples(
    st.just("trim_ranked"), st.integers(min_value=0, max_value=2**16)
)
_view_ops = st.lists(
    st.one_of(_upsert, _remove, _evict, _trim_random, _trim_ranked),
    min_size=1,
    max_size=60,
)


def _entry(nid: int, ts: int, likes: frozenset) -> ViewEntry:
    profile = FrozenProfile({i: 1.0 for i in likes}, is_binary=True)
    return ViewEntry(nid, f"10.0.0.{nid}", profile, ts)


@given(ops=_view_ops, capacity=st.integers(min_value=1, max_value=8))
def test_arrayview_mirrors_dict_view(ops, capacity):
    legacy = View(capacity, owner_id=99)
    array = ArrayView(capacity, owner_id=99)
    for op in ops:
        if op[0] == "upsert":
            e = _entry(op[1], op[2], op[3])
            legacy.upsert(e)
            array.upsert(e)
        elif op[0] == "remove":
            legacy.remove(op[1])
            array.remove(op[1])
        elif op[0] == "evict":
            assert legacy.evict_older_than(op[1]) == array.evict_older_than(
                op[1]
            )
        elif op[0] == "trim_random":
            # same seed, separate generators: both backends must consume
            # the stream identically to stay equivalent downstream
            legacy.trim_random(np.random.default_rng(op[1]))
            array.trim_random(np.random.default_rng(op[1]))
        else:  # trim_ranked by a seeded score table
            rng = np.random.default_rng(op[1])
            scores = {e.node_id: float(rng.random()) for e in legacy}
            legacy.trim_ranked(scores=scores)
            array.trim_ranked(scores=scores)
        # observable state identical after *every* op, not just at the end
        assert legacy.entries() == array.entries()
        assert legacy.node_ids() == array.node_ids()
        assert legacy.oldest() == array.oldest()
        assert len(legacy) == len(array)
        assert legacy.wire_size() == array.wire_size()


@given(
    shipment=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=24),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_bulk_upsert_equals_sequential(shipment):
    """``upsert_all`` is observably the fold of per-entry ``upsert``."""
    entries = [_entry(nid, ts, frozenset()) for nid, ts in shipment]
    for cls in (View, ArrayView):
        bulk = cls(6, owner_id=99)
        seq = cls(6, owner_id=99)
        bulk.upsert_all(entries)
        for e in entries:
            seq.upsert(e)
        assert bulk.entries() == seq.entries()


# --------------------------------------------------------------------------- #
# pack memo = from-scratch build                                              #
# --------------------------------------------------------------------------- #

_pack_item_ids = st.integers(min_value=0, max_value=60)
_set_op = st.tuples(
    st.just("set"),
    _pack_item_ids,
    st.integers(min_value=0, max_value=40),  # timestamp
    st.sampled_from([0.0, 1.0, 0.5, -1.0]),  # score (binary + graded)
)
_remove_op = st.tuples(st.just("remove"), _pack_item_ids)
_purge_op = st.tuples(st.just("purge"), st.integers(min_value=0, max_value=41))
_pack_op = st.tuples(st.just("pack"))  # hold a memo for later ops to stale
_integrate_op = st.tuples(
    st.just("integrate"),
    st.dictionaries(_pack_item_ids, st.booleans(), max_size=6),  # liker
    st.integers(min_value=0, max_value=40),  # the liker's timestamps
)
_copy_op = st.tuples(st.just("copy"), st.booleans())  # carry on with the clone?
_freeze_op = st.tuples(st.just("freeze"))  # snapshot() / freeze()
_profile_ops = st.lists(
    st.one_of(
        _set_op,
        _remove_op,
        _purge_op,
        _pack_op,
        _integrate_op,
        _copy_op,
        _freeze_op,
    ),
    min_size=1,
    max_size=80,
)


def _assert_columns_from_scratch(packed, scores: dict, norm: float) -> None:
    """*packed* (a pack or a snapshot) equals a sort of *scores*' rows."""
    rows = sorted(scores.items())
    ids = np.array([iid for iid, _ in rows], dtype=np.uint64)
    vals = np.array([s for _, s in rows], dtype=np.float64)
    np.testing.assert_array_equal(packed.rated_ids, ids)
    np.testing.assert_array_equal(packed.rated_scores, vals)
    np.testing.assert_array_equal(packed.liked_ids, ids[vals > 0.0])
    assert packed.norm == norm


def _snapshot_norm(scores: dict) -> float:
    norm2 = 0.0
    for s in scores.values():
        norm2 += s * s
    return math.sqrt(norm2) if norm2 > 0.0 else 0.0


def _apply(profile, op, left_behind: list):
    """Apply one generated op; returns the profile the sequence goes on with.

    Ops a kind does not have (``integrate``/``copy`` on a user profile) are
    no-ops.  A ``copy`` appends the side that stays behind, with the scores
    it had, to *left_behind*.
    """
    is_user = isinstance(profile, UserProfile)
    if op[0] == "set":
        if is_user:
            profile.record_opinion(op[1], op[2], op[3] > 0.0)
        else:
            profile.set(op[1], op[2], op[3])
    elif op[0] == "remove":
        profile.remove(op[1])
    elif op[0] == "purge":
        profile.purge_older_than(op[1])
    elif op[0] == "pack":
        profile.packed()
    elif op[0] == "integrate" and not is_user:
        liker = UserProfile()
        for iid, liked in op[1].items():
            liker.record_opinion(iid, op[2], liked)
        profile.integrate(liker)
    elif op[0] == "copy" and not is_user:
        clone = profile.copy()
        stays, profile = (profile, clone) if op[1] else (clone, profile)
        left_behind.append((stays, dict(stays.scores)))
    elif op[0] == "freeze":
        frozen = profile.snapshot() if is_user else profile.freeze()
        scores = dict(profile.scores)
        assert frozen.scores == scores
        _assert_columns_from_scratch(frozen, scores, _snapshot_norm(scores))
    return profile


_profile_kinds = st.sampled_from([UserProfile, ItemProfile])


@given(kind=_profile_kinds, ops=_profile_ops)
@example(UserProfile, [("pack",), ("freeze",)])  # empty profile
@example(  # all-dislike: no liked ids, zero norm
    UserProfile,
    [("set", 1, 0, 0.0), ("set", 2, 0, 0.0), ("pack",), ("freeze",)],
)
@example(  # purge to empty under a held memo
    ItemProfile,
    [("set", 1, 3, 1.0), ("set", 2, 5, 0.5), ("pack",), ("purge", 41)],
)
def test_pack_memo_equals_fresh_build(kind, ops):
    """``packed()`` and snapshots equal a from-scratch build after any ops.

    The sequence holds memos mid-way (``pack``), so every later mutation
    has a stale memo to get past; copy-on-write clones left behind must
    keep the state they were cloned at.
    """
    profile = kind()
    left_behind: list = []
    for op in ops:
        profile = _apply(profile, op, left_behind)
        _assert_columns_from_scratch(profile.packed(), profile.scores, profile.norm)
    for stays, scores in left_behind:
        assert stays.scores == scores
        _assert_columns_from_scratch(stays.packed(), scores, stays.norm)


@given(kind=_profile_kinds, ops=_profile_ops)
def test_pack_memo_is_version_stable(kind, ops):
    """Consuming ``packed()`` twice with no mutation returns one object."""
    profile = kind()
    for op in ops:
        profile = _apply(profile, op, [])
    assert profile.packed() is profile.packed()


# --------------------------------------------------------------------------- #
# copy-on-write family = one pack per content                                 #
# --------------------------------------------------------------------------- #

_family_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**16),  # which member (mod size)
        st.one_of(
            _set_op,
            _remove_op,
            _purge_op,
            _pack_op,
            _integrate_op,
            st.tuples(st.just("clear")),
            st.tuples(st.just("fork")),  # member.copy() joins the family
        ),
    ),
    min_size=1,
    max_size=60,
)


def _held_pack(profile):
    """The pack *profile* would return from ``packed()`` unbuilt, or ``None``."""
    cell = profile._pack_memo
    return None if cell is None else cell[0]


@given(ops=_family_ops)
@example(  # pack the family, then one member leaves it by each mutator
    [
        (0, ("set", 1, 3, 1.0)),
        (0, ("set", 2, 5, 0.5)),
        (0, ("fork",)),
        (0, ("fork",)),
        (1, ("fork",)),
        (2, ("pack",)),
        (0, ("integrate", {1: True, 9: False}, 4)),
        (1, ("purge", 4)),
        (2, ("clear",)),
        (3, ("remove", 2)),
    ]
)
def test_cow_family_packs_track_each_members_content(ops):
    """Interleaved forks, mutations and packs over a tree of item profiles.

    After every step, every pack a member holds equals a from-scratch
    build of *that member's* scores — a sibling's mutation, detach or
    re-pack never shows through the shared cell — and a member whose
    content changed no longer returns the pack its family shares.
    """
    members = [ItemProfile()]
    for pick, op in ops:
        member = members[pick % len(members)]
        before, family_pack = dict(member.scores), _held_pack(member)
        if op[0] == "fork":
            members.append(member.copy())
        elif op[0] == "clear":
            member.clear()
        else:
            _apply(member, op, [])
        if family_pack is not None and member.scores != before:
            assert member.packed() is not family_pack
        for m in members:
            held = _held_pack(m)
            if held is not None:
                _assert_columns_from_scratch(held, m.scores, m.norm)
    for m in members:
        _assert_columns_from_scratch(m.packed(), m.scores, m.norm)
        assert m.packed() is m.packed()


@given(
    scores=st.dictionaries(
        _pack_item_ids, st.sampled_from([0.0, 0.5, 1.0]), max_size=8
    ),
    parents=st.lists(st.integers(min_value=0, max_value=2**16), max_size=12),
    packed_early=st.booleans(),
    leavers=st.sets(st.integers(min_value=0, max_value=12)),
)
def test_unmutated_siblings_share_one_pack_build(
    scores, parents, packed_early, leavers
):
    """N co-owners of one content cost exactly one ``PackedView`` build."""
    root = make_item_profile(scores)
    if packed_early:
        root.packed()  # forks made after the pack join its cell all the same
    family = [root]
    for pick in parents:
        family.append(family[pick % len(family)].copy())
    packs = [m.packed() for m in reversed(family)]
    assert all(pack is packs[0] for pack in packs)
    # members that leave take nothing with them: the rest keep the one pack
    gone = {i for i in leavers if i < len(family)}
    for i in gone:
        family[i].set(61, 0, 1.0)
        assert family[i].packed() is not packs[0]
        _assert_columns_from_scratch(
            family[i].packed(), family[i].scores, family[i].norm
        )
    for i, m in enumerate(family):
        if i not in gone:
            assert m.packed() is packs[0]
            _assert_columns_from_scratch(m.packed(), scores, m.norm)


# --------------------------------------------------------------------------- #
# scoring tiers = scalar metrics (ROADMAP item 4c)                            #
# --------------------------------------------------------------------------- #

_item_ids = st.integers(min_value=0, max_value=24)
_binary_scores = st.dictionaries(_item_ids, st.sampled_from([0.0, 1.0]), max_size=10)
_real_scores = st.dictionaries(
    _item_ids,
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
    max_size=10,
)


@given(
    owner_scores=_real_scores,
    owner_is_item=st.booleans(),
    pool_scores=st.lists(_binary_scores, max_size=12),
    real_members=st.lists(_real_scores, max_size=2),
    stamps=st.lists(st.integers(0, 5), min_size=14, max_size=14),
    capacity=st.integers(min_value=1, max_value=14),
)
# empty owner and empty member; a disjoint pool; an all-dislike owner and
# member; a zero-norm item against likers of its ids
@example({}, False, [{}, {1: 1.0}], [], [0] * 14, 1)
@example({1: 1.0, 2: 1.0}, False, [{7: 1.0, 8: 0.0}] * 9, [], [0] * 14, 3)
@example({1: 0.5, 2: 0.0}, False, [{1: 0.0, 2: 0.0}, {1: 1.0}], [], [0] * 14, 1)
@example({1: 0.0, 2: 0.0}, True, [{1: 1.0, 2: 1.0}] * 8, [], [0] * 14, 2)
def test_scoring_tiers_agree_bitwise(
    owner_scores, owner_is_item, pool_scores, real_members, stamps, capacity
):
    """Native kernels == set-algebra loops == scalar metrics, with ``==``.

    The owner is a binary snapshot or a live real-valued item profile (the
    two shapes the protocols score against); the pool is binary snapshots,
    optionally with real-valued members the binary kernels must decline.
    """
    if owner_is_item:
        owner = make_item_profile(owner_scores)
    else:
        owner = FrozenProfile(
            {i: float(s > 0.0) for i, s in owner_scores.items()}, is_binary=True
        )
    pool = [FrozenProfile(d, is_binary=True) for d in pool_scores]
    pool += [FrozenProfile(d, is_binary=False) for d in real_members]
    binary_pool = not real_members
    entries = [ViewEntry(100 + i, "a", p, stamps[i]) for i, p in enumerate(pool)]
    nk = load_native()  # None on a checkout without the extension

    for name in available_metrics():
        fn = get_metric(name)
        for role in ("n", "c"):
            want = [fn(owner, c) if role == "n" else fn(c, owner) for c in pool]
            with native_kernel(False):
                assert score_candidates(owner, pool, name, owner_role=role) == want
            with native_kernel(True):
                assert score_candidates(owner, pool, name, owner_role=role) == want
            if name == "wup" and binary_pool:
                if role == "n" and not owner_is_item:
                    assert wup_pool_binary(owner, pool) == want
                if role == "c" and owner_is_item:
                    assert wup_pool_vs_item(pool, owner) == want

            code = _native_pool_code(name, role, not owner_is_item)
            if nk is None or code is None or not pool:
                continue
            got = nk.score_profiles(owner, pool, code)
            if binary_pool or code in (3, 4):
                assert got is not None
            if got is None:
                continue
            assert got.tolist() == want
            if role == "n":
                if len(pool) <= capacity:
                    continue  # the merge only ranks a pool it has to trim
                keep = nk.merge_rank(owner, entries, code, capacity)
                reference = View(capacity, owner_id=0)
                reference.upsert_all(entries)
                with native_kernel(False):
                    reference.trim_ranked_aligned(entries, want)
                assert [entries[i].node_id for i in keep] == reference.node_ids()
            elif code in (5, 6):  # the fused BEEP orientation
                tied = nk.item_argmax(owner, pool, code)
                best = max(want)
                assert tied.tolist() == [i for i, s in enumerate(want) if s == best]


# --------------------------------------------------------------------------- #
# pipelines = reference                                                       #
# --------------------------------------------------------------------------- #


@given(
    seed=st.integers(min_value=0, max_value=2**16 - 1),
    n_users=st.integers(min_value=12, max_value=40),
    f_like=st.integers(min_value=2, max_value=12),
    loss=st.sampled_from([0.0, 0.1]),
    cycles=st.integers(min_value=3, max_value=12),
)
def test_pipelines_agree_on_generated_runs(seed, n_users, f_like, loss, cycles):
    """``fast`` (kernels on or off) == ``reference``, on the whole state."""
    from repro.datasets import survey_dataset
    from tests.test_pipeline_grid import run_pipeline

    dataset = survey_dataset(
        n_base_users=n_users, n_base_items=20, publish_cycles=4, seed=seed
    )
    run = dict(f_like=f_like, seed=seed, cycles=cycles, loss=loss)
    reference = run_pipeline("reference", dataset, **run)
    for pipeline in ("fast", "fast-nokernel"):
        assert run_pipeline(pipeline, dataset, **run) == reference, pipeline


# --------------------------------------------------------------------------- #
# shard-partition invariance (ROADMAP item 5a)                                #
# --------------------------------------------------------------------------- #
#
# The sharded engine's determinism contract, as properties over generated
# (seed, cycle-count) rather than the suites' one fixed seed:
#
# * **the wire is pure transport** — the cross-shard mailbox encoding
#   (``pickle`` / ``columns`` / ``delta``) and the staging medium (shm
#   arenas vs inline pipes) never change a single bit of the outcome;
# * **run-to-run determinism** — the same (seed, shards) always lands on
#   the same state.
#
# Deliberate deviation: outcomes are *not* invariant to the shard count
# itself — per-shard RNG streams are salted by shard id, by design (see
# repro.simulation.sharding), so N=2 and N=4 are different (each
# internally reproducible) timelines.  The cross-count property that does
# hold, shards=1 ≡ the direct single-process engine, is pinned by
# tests/test_sharding.py.
#
# Sharded runs spawn worker processes, so these properties run few, heavy
# examples: the per-test ``@settings`` below deliberately overrides the
# module profile's example count.

_WIRE_EXAMPLES = 8 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 3

_shard_dataset = None
_shard_baselines: dict = {}


def _wire_dataset():
    global _shard_dataset
    if _shard_dataset is None:
        from repro.datasets import survey_dataset

        _shard_dataset = survey_dataset(
            n_base_users=36, n_base_items=30, seed=4
        )
    return _shard_dataset


def _sharded_state(seed: int, cycles: int, tier: str, shm: bool):
    from repro.core import WhatsUpConfig, WhatsUpSystem
    from repro.simulation.sharding import shard_shm, shard_wire, sharding

    with sharding(2), shard_shm(shm), shard_wire(tier):
        system = WhatsUpSystem(
            _wire_dataset(), WhatsUpConfig(f_like=6), seed=seed
        )
        try:
            system.run(cycles=cycles, drain=False)
            state = {
                node.node_id: (
                    node.alive,
                    tuple(sorted(node.wup.view.node_ids())),
                    tuple(sorted(node.rps.view.node_ids())),
                    tuple(sorted(node.profile.scores.items())),
                    tuple(sorted(node.seen)),
                )
                for node in system.nodes
            }
            arrays = system.engine.log.arrays()
            state["_log"] = tuple(
                (key, tuple(arrays[key].tolist())) for key in sorted(arrays)
            )
            return state
        finally:
            system.close()


def _delta_baseline(seed: int, cycles: int):
    key = (seed, cycles)
    if key not in _shard_baselines:
        _shard_baselines[key] = _sharded_state(seed, cycles, "delta", True)
    return _shard_baselines[key]


@settings(max_examples=_WIRE_EXAMPLES, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16 - 1),
    cycles=st.integers(min_value=3, max_value=6),
    shm=st.booleans(),
)
def test_wire_tier_is_pure_transport(seed, cycles, shm):
    """The pickle tier on any medium matches the delta/shm run at the seed."""
    assert _sharded_state(seed, cycles, "pickle", shm) == _delta_baseline(
        seed, cycles
    )


@settings(max_examples=_WIRE_EXAMPLES, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16 - 1))
def test_sharded_delta_run_is_deterministic(seed):
    """Same (seed, shards) → bit-identical state, every time."""
    assert _sharded_state(seed, 4, "delta", True) == _delta_baseline(seed, 4)


# --------------------------------------------------------------------------- #
# the delta link's lock-step stores, as a state machine                       #
# --------------------------------------------------------------------------- #
#
# One directed link under generated traffic.  The model is what the link
# has carried in the current table generation: every rule ships a frame,
# decodes it, and checks it against the rows that went in.  The stores
# (uid registry, delta bases, descriptor table) are never inspected
# directly — only through what a later frame decodes to, and through the
# two size accessors both ends must agree on.

_LINK_CAP = 5  # uid-table bound the cap rule applies (descriptors: 8x)
_link_nodes = st.integers(min_value=0, max_value=9)


class DeltaLinkMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        from repro.simulation.wire import LinkDecoder, LinkEncoder

        self.enc = LinkEncoder("delta")
        self.dec = LinkDecoder("delta")
        self.timelines: dict[int, dict] = {}  # node id -> live score dict
        self.snapshots: dict[int, FrozenProfile] = {}  # node id -> current
        self.clock = 0
        #: descriptors carried in this table generation, as sent
        self.carried: list[ViewEntry] = []
        #: descriptor value -> the object the decoder resolved it to
        self.resolved: dict[tuple, ViewEntry] = {}

    # -- model helpers ----------------------------------------------------- #

    def _snapshot(self, nid: int) -> FrozenProfile:
        if nid not in self.snapshots:
            self.timelines[nid] = {nid: 1.0, nid + 20: 0.0, nid + 40: 1.0}
            self._freeze(nid)
        return self.snapshots[nid]

    def _freeze(self, nid: int) -> None:
        previous = self.snapshots.get(nid)
        self.snapshots[nid] = FrozenProfile(
            dict(self.timelines[nid]),
            is_binary=True,
            version=0 if previous is None else previous.version + 1,
        )

    def _stamp(self, nid: int) -> ViewEntry:
        self.clock += 1
        return ViewEntry(
            nid, f"10.0.{nid >> 8 & 255}.{nid & 255}", self._snapshot(nid), self.clock
        )

    def _sizes(self) -> tuple:
        return (
            self.enc.table_size(),
            self.enc.descriptor_count(),
            self.dec.table_size(),
            self.dec.descriptor_count(),
        )

    def _cross(self, *shipments: tuple) -> None:
        """Ship one frame (a message per shipment); check what comes out."""
        from repro.gossip.rps import RpsMessage
        from repro.gossip.vicinity import ClusteringMessage
        from repro.network.message import MessageKind
        from tests.test_wire import assert_messages_equal

        rows = []
        for n, entries in enumerate(shipments):
            k = len(entries)
            cols = None
            if n % 2 == 0 and k:
                block = [[e[0] for e in entries], [e[3] for e in entries], [7] * k]
                cols = (np.array(block, dtype=np.int64), k, k)
            wire = None if n % 3 == 0 else 7 * k
            if n % 2:
                msg = ClusteringMessage(n, tuple(entries), False, wire, cols)
                rows.append((n, n + 1, MessageKind.WUP, msg))
            else:
                msg = RpsMessage(n, tuple(entries), True, wire, cols)
                rows.append((n, n + 1, MessageKind.RPS, msg))
        out = self.dec.decode(self.enc.encode(rows, "gossip"))
        assert len(out) == len(rows)
        for (a, b, kind, sent), (da, db, dkind, got) in zip(rows, out, strict=True):
            assert (a, b, kind) == (da, db, dkind)
            assert_messages_equal(sent, got)
            if any(e[1].startswith("203.") for e in sent.entries):
                continue  # an overflow row: plain pickle, nothing tabled
            for e, d in zip(sent.entries, got.entries, strict=True):
                self.carried.append(e)
                key = (e[0], e[3], e[2].uid)
                # one shared object per descriptor per table generation
                assert self.resolved.setdefault(key, d) is d

    # -- rules ------------------------------------------------------------- #

    @rule(
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
        fresh=st.lists(_link_nodes, max_size=3),
        split=st.integers(min_value=0, max_value=8),
    )
    def frame_of_known_and_new(self, picks, fresh, split):
        # equal-valued copies, as a sender rebuilds descriptors per shipment
        known = [
            ViewEntry(*self.carried[i % len(self.carried)])
            for i in picks
            if self.carried
        ]
        entries = known + [self._stamp(nid) for nid in fresh]
        self._cross(tuple(entries[:split]), tuple(entries[split:]), ())

    @rule(nid=_link_nodes)
    def restamp_known_profile(self, nid):
        self._cross((self._stamp(nid),))

    @rule(nid=_link_nodes, item=st.integers(0, 60), like=st.booleans())
    def rate_then_ship(self, nid, item, like):
        self._snapshot(nid)
        self.timelines[nid][item] = 1.0 if like else 0.0
        self._freeze(nid)
        self._cross((self._stamp(nid),))

    @rule(nid=_link_nodes)
    def forget_then_ship(self, nid):
        self._snapshot(nid)
        timeline = self.timelines[nid]
        if len(timeline) > 1:
            del timeline[next(iter(timeline))]
            self._freeze(nid)
        self._cross((self._stamp(nid),))

    @rule(nid=_link_nodes, base=st.integers(100, 10**6))
    def rekey_then_ship(self, nid, base):
        # nothing survives: the diff is not worth a delta, ships whole
        self.timelines[nid] = {base + i: float(i % 2) for i in range(4)}
        self._freeze(nid)
        self._cross((self._stamp(nid),))

    @rule(nid=_link_nodes)
    def exotic_key_then_ship(self, nid):
        self._snapshot(nid)
        self.timelines[nid][-1 - nid] = 1.0  # cannot ride a uint64 column
        self._freeze(nid)
        self._cross((self._stamp(nid),))

    @rule(nid=_link_nodes, lead=_link_nodes)
    def custom_address_row(self, nid, lead):
        weird = ViewEntry(nid, "203.0.113.7", self._snapshot(nid), self.clock)
        before = self._sizes()
        # valid first crossings ahead of the bad entry must not be tabled
        self._cross((self._stamp(lead), weird), (weird,))
        assert self._sizes() == before

    @rule()
    def cap_reset(self):
        fired = self.enc.cap_reset(_LINK_CAP)
        assert self.dec.cap_reset(_LINK_CAP) == fired
        if fired:  # a new table generation on both ends
            assert self._sizes() == (0, 0, 0, 0)
            self.carried.clear()
            self.resolved.clear()

    @rule()
    def checkpoint_roundtrip(self):
        self.enc = pickle.loads(pickle.dumps(self.enc))
        self.dec = pickle.loads(pickle.dumps(self.dec))
        self.resolved.clear()  # the restored table holds new objects

    # -- invariants -------------------------------------------------------- #

    @invariant()
    def tables_in_lock_step(self):
        assert self.enc.table_size() == self.dec.table_size()
        assert self.enc.descriptor_count() == self.dec.descriptor_count()

    @invariant()
    def every_crossing_accounted_once(self):
        stats = self.enc.stats
        assert stats.entries == (
            stats.ref_profiles
            + stats.full_profiles
            + stats.delta_profiles
            + stats.pickled_profiles
        )


TestDeltaLinkMachine = DeltaLinkMachine.TestCase
