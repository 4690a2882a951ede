"""Tests for the process-sharded cycle engine (repro.simulation.sharding).

Covers the PR's determinism contract:

* ``REPRO_SHARDS=1`` constructs the plain single-process engine — bitwise
  identical to a directly-built :class:`CycleEngine` run;
* shard counts 2 and 4 are deterministic run-to-run at a fixed seed,
  including under churn, mid-run cold-start joins, the reference
  pipeline and the dict view store;
* the shared-memory staging layer never changes outcomes: shm on vs off,
  and forced multi-chunk mailbox flushes, produce identical bits;
* the shard arena really is shared memory: the parent reads live view
  columns zero-copy, and the native state kernels operate on mapped
  blocks;
* the pickle-safety layer (ArrayView / FrozenProfile / BaseNode) drops
  process-local address caches and rebuilds coherent state.
"""

from __future__ import annotations

import pickle
import warnings as _warnings

import numpy as np
import pytest

import repro.simulation.sharding as sharding_mod
from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.gates import mode
from repro.core.profiles import FrozenProfile
from repro.core.similarity import native_kernel
from repro.datasets import survey_dataset
from repro.gossip.views import ArrayView, ViewEntry
from repro.network.transport import UniformLossTransport
from repro.simulation.engine import CycleEngine
from repro.simulation.events import DisseminationLog
from repro.simulation.sharding import (
    ShardedCycleEngine,
    ShardRngStreams,
    make_engine,
    shard_of,
    shard_shm,
    sharding,
)

SEED = 11
CYCLES = 15


def always_like(node_id, item):
    """Module-level opinion oracle: picklable into shard workers."""
    return True


@pytest.fixture(scope="module")
def dataset():
    return survey_dataset(n_base_users=36, n_base_items=30, seed=4)


def system_state(system) -> dict:
    """Every outcome dissemination can influence, per node and globally."""
    state = {}
    for node in system.nodes:
        state[node.node_id] = (
            node.alive,
            tuple(sorted(node.wup.view.node_ids())),
            tuple(sorted(node.rps.view.node_ids())),
            tuple(sorted(node.profile.scores.items())),
            tuple(sorted(node.seen)),
        )
    log = system.engine.log
    arrays = log.arrays()
    state["_log"] = tuple(
        (key, tuple(arrays[key].tolist())) for key in sorted(arrays)
    )
    state["_duplicates"] = log.duplicates
    stats = system.engine.stats
    state["_traffic"] = tuple(
        (str(kind), stats.sent[kind], stats.delivered[kind],
         stats.bytes_delivered[kind])
        for kind in sorted(stats.sent, key=str)
    )
    return state


def run_sharded(dataset, n_shards, *, cycles=CYCLES, churn=None, shm=True):
    """One fixed-seed sharded run; returns the final state snapshot."""
    with sharding(n_shards), shard_shm(shm):
        system = WhatsUpSystem(
            dataset, WhatsUpConfig(f_like=6), seed=SEED, churn=churn
        )
        try:
            system.run(cycles=cycles, drain=False)
            return system_state(system)
        finally:
            system.close()


# --------------------------------------------------------------------------- #
# gate + partition basics                                                     #
# --------------------------------------------------------------------------- #


def test_gate_selects_engine_type(dataset):
    """The factory honours the gate (whatever the ambient environment)."""
    with sharding(1):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        assert type(system.engine) is CycleEngine
    with sharding(2):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        assert isinstance(system.engine, ShardedCycleEngine)
        system.close()


def test_shard1_bitwise_identical_to_direct_engine(dataset):
    """At shards=1 the factory output IS the plain engine, bit for bit.

    The gated system's engine must be the exact single-process class (no
    wrapper), and a run through it must match a run whose engine was
    constructed by hand from the same population.
    """
    with sharding(1):
        gated = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
    assert type(gated.engine) is CycleEngine
    gated.run(cycles=CYCLES, drain=False)

    with sharding(1):
        direct = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
    # swap in a hand-built CycleEngine over the same nodes/schedule:
    # identical construction args, no factory involvement at all
    direct.engine = CycleEngine(
        direct.nodes,
        dataset.schedule(),
        streams=direct.streams,
    )
    direct.run(cycles=CYCLES, drain=False)
    assert system_state(gated) == system_state(direct)


def test_shard_of_is_stable_modulo():
    assert [shard_of(nid, 4) for nid in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_shard_rng_streams_are_independent_and_reproducible():
    a0 = ShardRngStreams(5, 0).get("engine-order").random(4)
    a0b = ShardRngStreams(5, 0).get("engine-order").random(4)
    a1 = ShardRngStreams(5, 1).get("engine-order").random(4)
    assert np.array_equal(a0, a0b)
    assert not np.array_equal(a0, a1)


def test_lossy_transport_falls_back_single_process(dataset):
    nodes = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED).nodes
    with sharding(2), pytest.warns(RuntimeWarning, match="lossless"):
        engine = make_engine(
            nodes,
            dataset.schedule(),
            transport=UniformLossTransport(loss_rate=0.2),
        )
    assert type(engine) is CycleEngine


def test_tiny_population_falls_back_single_process(dataset):
    nodes = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED).nodes
    with sharding(32), pytest.warns(RuntimeWarning, match="too small"):
        engine = make_engine(nodes[:10], dataset.schedule())
    assert type(engine) is CycleEngine


# --------------------------------------------------------------------------- #
# determinism                                                                 #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def shard2_state(dataset):
    return run_sharded(dataset, 2)


def test_shard2_deterministic(dataset, shard2_state):
    assert run_sharded(dataset, 2) == shard2_state


def test_shard4_deterministic(dataset):
    assert run_sharded(dataset, 4) == run_sharded(dataset, 4)


def test_shm_off_matches_shm_on(dataset, shard2_state):
    """The staging transport (shm vs inline pipes) never changes bits."""
    assert run_sharded(dataset, 2, shm=False) == shard2_state


def test_multi_chunk_mailboxes_match(dataset, shard2_state, monkeypatch):
    """Blobs forced through many tiny chunks produce identical outcomes."""
    monkeypatch.setattr(sharding_mod, "_INLINE_CHUNK", 64)
    assert run_sharded(dataset, 2, shm=False) == shard2_state
    monkeypatch.setattr(sharding_mod, "_MAILBOX_BYTES", 2048)
    assert run_sharded(dataset, 2, shm=True) == shard2_state


def test_sharded_run_delivers_and_accounts(dataset, shard2_state):
    deliveries = dict(shard2_state["_log"])["d_item"]
    assert len(deliveries) > 0
    traffic = dict(
        (kind, sent) for kind, sent, _d, _b in shard2_state["_traffic"]
    )
    assert traffic.get("rps", 0) > 0
    assert traffic.get("item", 0) > 0


def test_scalar_pipeline_under_sharding_deterministic(dataset):
    with mode("reference"):
        a = run_sharded(dataset, 2, cycles=10)
        b = run_sharded(dataset, 2, cycles=10)
    assert a == b


def test_legacy_state_under_sharding_deterministic(dataset):
    """``fast`` without the kernels: dict views, no view arena to map."""
    with mode("fast"), native_kernel(False):
        a = run_sharded(dataset, 2, cycles=10)
        b = run_sharded(dataset, 2, cycles=10)
    assert a == b


def test_churn_under_sharding_deterministic(dataset):
    from repro.simulation import ChurnModel

    def fresh_churn():
        return ChurnModel(kill_rate=0.06, rejoin_after=2, start_cycle=2)

    a = run_sharded(dataset, 2, churn=fresh_churn())
    b = run_sharded(dataset, 2, churn=fresh_churn())
    assert a == b
    # kills actually happened and the aggregate counters surfaced
    churn = fresh_churn()
    run_sharded(dataset, 2, churn=churn)
    assert churn.total_kills > 0


def test_coldstart_join_under_sharding(dataset):
    def run_with_joins():
        with sharding(2):
            system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
            try:
                system.run(cycles=6, drain=False)
                j1 = system.join_node(1001, opinion=always_like)
                system.join_node(1002, opinion=always_like)
                assert j1.node_id == 1001
                system.run(cycles=8, drain=False)
                return system_state(system)
            finally:
                system.close()

    a = run_with_joins()
    b = run_with_joins()
    assert a == b
    assert a[1001][0] is True  # joiner alive
    assert len(a[1001][4]) > 0  # joiner received items


# --------------------------------------------------------------------------- #
# the facade surface                                                          #
# --------------------------------------------------------------------------- #


def test_facade_api(dataset):
    with sharding(2):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        engine = system.engine
        assert isinstance(engine, ShardedCycleEngine)
        try:
            n_users = dataset.n_users
            assert sorted(engine.alive_node_ids()) == list(range(n_users))
            system.run(cycles=5, drain=False)
            assert engine.now == 5
            assert engine.pending_item_messages() >= 0
            # node() fetches a live worker copy mid-run
            node = engine.node(3)
            assert node.node_id == 3
            # nodes property collects and is coherent afterwards
            assert sorted(engine.nodes) == list(range(n_users))
            # drain to empty
            system.run()
            assert engine.pending_item_messages() == 0
            assert engine.cycles_run > 5
        finally:
            system.close()
        # closed facade refuses further work
        with pytest.raises(Exception):
            engine.run(1)


def test_facade_observers_fire_per_cycle(dataset):
    with sharding(2):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        seen = []
        system.engine.add_observer(lambda eng, cycle: seen.append(cycle))
        try:
            system.run(cycles=4, drain=False)
        finally:
            system.close()
    assert seen == [0, 1, 2, 3]


def test_run_until_drained_sharded(dataset):
    with sharding(2):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        try:
            system.run()  # publish window + drain
            assert system.engine.pending_item_messages() == 0
        finally:
            system.close()


# --------------------------------------------------------------------------- #
# the shared-memory state plane                                               #
# --------------------------------------------------------------------------- #


def test_parent_reads_view_columns_zero_copy(dataset):
    with sharding(2), mode("fast"), native_kernel(True):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        engine = system.engine
        try:
            if not engine._arenas:
                pytest.skip("no view arena: no shared memory or no extension")
            system.run(cycles=5, drain=False)
            placement = engine.state_map()
            assert placement  # arena-resident views exist
            ids, ts = engine.view_columns(7, "rps")
            worker_copy = engine.node(7)
            assert ids.tolist() == worker_copy.rps.view.node_ids()
            assert len(ts) == len(ids)
        finally:
            system.close()


def test_collected_views_are_coherent_and_mutable(dataset):
    """Collected (unpickled) views rebuild private state that still works."""
    with sharding(2):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        try:
            system.run(cycles=5, drain=False)
            view = system.engine.nodes[0].rps.view
            before = view.node_ids()
            stub = FrozenProfile({}, is_binary=True)
            view.upsert(ViewEntry(424242, "10.9.9.9", stub, 99))
            assert 424242 in view.node_ids()
            assert len(view.node_ids()) == len(before) + 1
        finally:
            system.close()


def _entry_stub():
    return FrozenProfile({}, is_binary=True)


def test_arrayview_rehome_onto_shared_memory():
    shared_memory = pytest.importorskip("multiprocessing.shared_memory")
    profile_stub = _entry_stub()

    def entry(nid, ts):
        return ViewEntry(nid, f"10.0.0.{nid}", profile_stub, ts)

    view = ArrayView(8, owner_id=99)
    twin = ArrayView(8, owner_id=99)
    for nid in range(6):
        view.upsert(entry(nid, nid * 3))
        twin.upsert(entry(nid, nid * 3))

    seg = shared_memory.SharedMemory(create=True, size=3 * 8 * 32)
    try:
        block = np.frombuffer(seg.buf, dtype=np.int64, count=3 * 24)
        block = block.reshape(3, 24)
        view.rehome(block)
        assert view._cols_addr == block.ctypes.data
        assert view.node_ids() == twin.node_ids()
        # mutations on the mapped block stay in lock-step with the twin
        for nid in range(6, 12):
            view.upsert(entry(nid, nid))
            twin.upsert(entry(nid, nid))
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        view.trim_random(rng_a)
        twin.trim_random(rng_b)
        assert view.node_ids() == twin.node_ids()
        assert view.oldest() == twin.oldest()
        # the shared segment really holds the data
        assert block[0, : len(view)].tolist() == view.node_ids()
        # release numpy views before closing the segment
        view._allocate(view._alloc)
        del block
    finally:
        seg.close()
        seg.unlink()


def test_rehome_rejects_undersized_block():
    view = ArrayView(8, owner_id=1)
    stub = _entry_stub()
    for nid in range(5):
        view.upsert(ViewEntry(nid + 2, "a", stub, nid))
    from repro.utils.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        view.rehome(np.empty((3, 2), dtype=np.int64))


# --------------------------------------------------------------------------- #
# pickle safety                                                               #
# --------------------------------------------------------------------------- #


def test_arrayview_pickle_roundtrip_rebinds_addresses():
    stub = _entry_stub()
    view = ArrayView(6, owner_id=50)
    for nid in range(5):
        view.upsert(ViewEntry(nid, "a", stub, nid * 2))
    clone = pickle.loads(pickle.dumps(view))
    assert clone.node_ids() == view.node_ids()
    assert clone.mutation_count == view.mutation_count
    assert clone._cols_addr == clone._cols.ctypes.data
    assert clone._ids.base is clone._cols
    # mutations after the round trip stay in lock-step with the original
    clone.upsert(ViewEntry(77, "a", stub, 9))
    view.upsert(ViewEntry(77, "a", stub, 9))
    assert clone.node_ids() == view.node_ids()
    assert clone.oldest().node_id == view.oldest().node_id


def test_frozen_profile_pickle_drops_native_descriptor():
    from repro.core.profiles import UserProfile

    profile = UserProfile()
    for iid in range(8):
        profile.record_opinion(iid, 1, iid % 2 == 0)
    snap = profile.snapshot()
    _ = snap.rated_ids  # materialise the packed arrays
    snap._pack()
    assert snap._nd is not None
    clone = pickle.loads(pickle.dumps(snap))
    assert clone._nd is None
    assert clone.uid == snap.uid
    assert clone.scores == snap.scores
    assert np.array_equal(clone.rated_ids, snap.rated_ids)


def test_node_pickle_drops_engine_hook_and_cache(dataset):
    # needs a live single-process engine so the alive-listener hook is
    # armed on the parent-side node objects
    with sharding(1):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
    system.run(cycles=3, drain=False)
    node = system.nodes[5]
    assert node._alive_listener is not None
    clone = pickle.loads(pickle.dumps(node))
    assert clone._alive_listener is None
    assert clone.beep._pool_view is None  # the RPS pool memo is rebuilt lazily
    assert clone.rps.view.node_ids() == node.rps.view.node_ids()
    assert clone.profile.scores == node.profile.scores


# --------------------------------------------------------------------------- #
# log merging                                                                 #
# --------------------------------------------------------------------------- #


def test_dissemination_log_merge():
    a = DisseminationLog()
    a.log_delivery(0, 1, 2, 3, 0, True, True)
    a.log_forward(0, 1, 2, 3, True, 4)
    a.log_duplicates(2)
    b = DisseminationLog()
    b.log_delivery(5, 6, 7, 8, 1, False, False)
    b.log_duplicate()
    a.merge(b)
    assert a.n_deliveries == 2
    assert a.n_forwards == 1
    assert a.duplicates == 3
    assert a.d_item == [0, 5]
    assert a.d_liked == [True, False]


def test_no_stray_warnings_from_sharded_teardown(dataset):
    """A full construct/run/close cycle emits no warnings at all."""
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        run_sharded(dataset, 2, cycles=4)


# --------------------------------------------------------------------------- #
# programmatic configuration (repro.api.RunConfig)                            #
# --------------------------------------------------------------------------- #


def test_runconfig_programmatic_path_bitwise(dataset, shard2_state):
    """``run_config=RunConfig(shards=2)`` ≙ the ``sharding(2)`` context.

    The typed API and the env/context gates are the same resolution
    path: a programmatic sharded run reproduces the gated run bit for
    bit, and nothing leaks once the system is built.
    """
    from repro.api import RunConfig

    before = sharding_mod.shard_count()
    system = WhatsUpSystem(
        dataset,
        WhatsUpConfig(f_like=6),
        seed=SEED,
        run_config=RunConfig(shards=2),
    )
    try:
        assert sharding_mod.shard_count() == before  # scoped to construction
        system.run(cycles=CYCLES, drain=False)
        state = system_state(system)
    finally:
        system.close()
    assert state == shard2_state


def test_runconfig_wire_tier_sweep_bitwise(dataset, shard2_state):
    """The pickle wire tier selected through RunConfig matches the default."""
    from repro.api import RunConfig

    system = WhatsUpSystem(
        dataset,
        WhatsUpConfig(f_like=6),
        seed=SEED,
        run_config=RunConfig(shards=2, wire_tier="pickle"),
    )
    try:
        system.run(cycles=CYCLES, drain=False)
        assert system_state(system) == shard2_state
    finally:
        system.close()
