"""Tests for the fault plane and the self-healing sharded engine.

Covers the robustness PR's acceptance criteria:

* fault schedules parse from the DSL, JSON text and JSON files, and
  round-trip through their spec form;
* the same seed + fault schedule yields bitwise-identical runs at N=4,
  including a worker crash + rollback-replay recovery mid-run — and the
  recovered run matches the fault-free run exactly;
* chunk-level faults (drop / duplicate / corrupt / delay) self-heal on
  the wire: retransmission, sequence dedup and CRC re-request leave the
  simulation state untouched while the counters record the healing — a
  duplicate is counted whether it lands inside its barrier or after it;
* an externally SIGKILLed worker is detected promptly, the run completes
  through checkpoint recovery, and ``close()`` leaks no shared-memory
  segments and triggers no resource-tracker warnings;
* degraded mode reports the dead shard's population churned-offline for
  the recovery window, then brings it back.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import warnings as _warnings
import zlib

import pytest

import repro.simulation.sharding as sharding_mod
from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.datasets import survey_dataset
from repro.simulation.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    fault_schedule,
    faults,
)
from repro.simulation.sharding import ShardedCycleEngine, sharding
from repro.utils.exceptions import SimulationError

SEED = 11
CYCLES = 15


@pytest.fixture(scope="module")
def dataset():
    return survey_dataset(n_base_users=36, n_base_items=30, seed=4)


@pytest.fixture(autouse=True)
def fast_recovery(monkeypatch):
    """Tight checkpoint cadence + fast retransmission for every test."""
    monkeypatch.setattr(sharding_mod, "_CKPT_EVERY", 4)
    monkeypatch.setattr(sharding_mod, "_BACKOFF_BASE", 0.05)
    monkeypatch.setattr(sharding_mod, "_EXCHANGE_TIMEOUT", 60.0)


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


def run_faulted(dataset, schedule, *, recovery=None, cycles=CYCLES, shards=4):
    """One fixed-seed sharded run under a fault schedule.

    Returns ``(state, recovery_stats_dict, fault_log_kinds)``.
    """
    env_before = os.environ.get("REPRO_SHARD_RECOVERY")
    if recovery is None:
        os.environ.pop("REPRO_SHARD_RECOVERY", None)
    else:
        os.environ["REPRO_SHARD_RECOVERY"] = recovery
    try:
        with faults(schedule), sharding(shards):
            system = WhatsUpSystem(
                dataset, WhatsUpConfig(f_like=6), seed=SEED
            )
            try:
                system.run(cycles=cycles, drain=False)
                stats = system.fault_stats()
                kinds = sorted(
                    {k for _c, _s, k, _d in system.engine.fault_log.events()}
                )
                return system_state(system), stats, kinds
            finally:
                system.close()
    finally:
        if env_before is None:
            os.environ.pop("REPRO_SHARD_RECOVERY", None)
        else:
            os.environ["REPRO_SHARD_RECOVERY"] = env_before


# --------------------------------------------------------------------------- #
# schedule parsing                                                            #
# --------------------------------------------------------------------------- #


def test_dsl_parses_points_phases_and_params():
    sched = FaultSchedule.parse("crash@5:1:q,stall@8:2:open:0.25,drop_chunk@3:0:i")
    assert [e.kind for e in sched.events] == ["drop_chunk", "crash", "stall"]
    crash = next(e for e in sched.events if e.kind == "crash")
    assert (crash.cycle, crash.shard, crash.phase) == (5, 1, "q")
    stall = next(e for e in sched.events if e.kind == "stall")
    assert stall.param == 0.25


def test_json_and_file_specs_parse(tmp_path):
    spec = (
        '{"seed": 7, "events": ['
        '{"kind": "crash", "cycle": 4, "shard": 2},'
        '{"kind": "delay_chunk", "cycle": 2, "shard": 0, "phase": "i",'
        ' "param": 0.1}]}'
    )
    inline = FaultSchedule.parse(spec)
    assert inline.seed == 7
    assert len(inline.events) == 2
    path = tmp_path / "faults.json"
    path.write_text(spec, encoding="utf-8")
    from_file = FaultSchedule.parse(str(path))
    assert from_file.events == inline.events


def test_spec_roundtrip():
    sched = FaultSchedule.parse("crash@5:1:q,corrupt_chunk@2:3:r")
    again = FaultSchedule.parse(sched.to_spec())
    assert again.events == sched.events
    assert again.seed == sched.seed


def test_bad_specs_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSchedule.parse("meteor@1:0")
    with pytest.raises(ValueError, match="unknown fault phase"):
        FaultEvent("crash", 1, 0, phase="z")
    with pytest.raises(ValueError, match="need kind@cycle"):
        FaultSchedule.parse("crash@5")
    with pytest.raises(ValueError, match="prob"):
        FaultEvent("crash", 1, 0, prob=1.5)


def test_env_gate_installs_and_clears():
    assert fault_schedule() is None  # the default: no faults
    with faults("crash@1:0"):
        active = fault_schedule()
        assert active is not None and len(active.events) == 1
    assert fault_schedule() is None


def test_injector_suppression_skips_fired_events():
    sched = FaultSchedule([FaultEvent("stall", 3, 0, phase="q", param=0.0)])
    fired_keys = []
    injector = FaultInjector(sched, 0, notify=fired_keys.append)
    injector.at_phase(3, "q")
    assert fired_keys == [("stall", 3, 0, "q")]
    # a respawned injector seeded with the fired set must not replay
    respawned = FaultInjector(sched, 0, suppressed=injector.fired)
    respawned.at_phase(3, "q")  # would stall again otherwise
    assert respawned.fired == injector.fired


# --------------------------------------------------------------------------- #
# determinism under faults (N=4, crash + recovery mid-run)                    #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fault_free_state(dataset):
    with faults(None), sharding(4):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        try:
            system.run(cycles=CYCLES, drain=False)
            return system_state(system)
        finally:
            system.close()


def test_crash_recovery_deterministic_and_exact(dataset, fault_free_state):
    """Same seed + schedule → identical runs; recovery replays exactly.

    The rollback-replay recovery restores the crashed run to the very
    state the fault-free run reaches: every RNG draw, delivery and view
    entry replays bit-for-bit once the crash is suppressed.
    """
    a, stats_a, kinds_a = run_faulted(dataset, "crash@5:1:q")
    b, stats_b, _ = run_faulted(dataset, "crash@5:1:q")
    assert a == b
    assert a == fault_free_state
    assert stats_a["worker_deaths"] == 1
    assert stats_a["recoveries"] == 1
    assert stats_a["replayed_cycles"] > 0
    assert stats_a["checkpoints"] > 0
    assert stats_a["checkpoint_bytes"] > 0
    # the semantic counters must agree between runs; the wire-healing
    # counters (retries/CRC/dups) and checkpoint_bytes are excluded —
    # a surviving peer racing the supervisor's death detection may
    # squeeze in a retransmit in one run and not the other, without
    # affecting state (retransmits are idempotent, chunks dedup by seq)
    timing = {"checkpoint_bytes", "chunk_retries", "crc_failures", "dup_chunks"}
    assert {k: v for k, v in stats_a.items() if k not in timing} == {
        k: v for k, v in stats_b.items() if k not in timing
    }
    assert "fault_fired" in kinds_a
    assert "recovery" in kinds_a
    assert "worker_death" in kinds_a


def test_chunk_faults_self_heal_bitwise(dataset, fault_free_state):
    """Drop/dup/corrupt/delay chunks heal on the wire: state untouched."""
    schedule = (
        "drop_chunk@6:2:q,dup_chunk@7:3:i,corrupt_chunk@9:0:r,"
        "delay_chunk@4:1:q:0.02,stall@3:0:r:0.02"
    )
    state, stats, _ = run_faulted(dataset, schedule)
    assert state == fault_free_state
    assert stats["chunk_retries"] >= 2  # the drop and the corruption
    # >= 1, not == 1: on a slow box the receiver can re-read the
    # corrupted buffer off a timeout-driven re-announce before the
    # clean retransmit lands, counting the same corruption twice
    assert stats["crc_failures"] >= 1
    assert stats["dup_chunks"] >= 1
    assert stats["worker_deaths"] == 0
    assert stats["recoveries"] == 0


def test_late_duplicate_chunk_is_counted_not_stashed():
    """A duplicate that lands after its barrier closed is still a duplicate.

    The peer is scripted over the raw pipe, so the interleaving is exact:
    the ack for our chunk is queued *ahead* of the peer's data (the peer
    took our chunk while it was still in an earlier barrier — only
    possible with a third shard, hence no second ``_PeerLinks`` here), so
    barrier 1 closes on the data chunk and leaves its duplicate unread.
    Barrier 2 must count it and drop it, not park it as data of a dead
    tag.
    """
    ours, theirs = multiprocessing.Pipe()
    links = sharding_mod._PeerLinks(0, {1: ours}, {}, {})

    def chunk(tag, data):
        return ("d", tag, 0, len(data), True, zlib.crc32(data), data)

    try:
        one, two = (0, "q"), (0, "r")
        theirs.send(("a", one, 0))
        theirs.send(chunk(one, b"first"))
        theirs.send(chunk(one, b"first"))  # the duplicate
        assert links.exchange(one, {1: b"ours"}) == [(1, b"first")]
        assert links.dup_chunks == 0  # still in the pipe
        theirs.send(("a", two, 0))
        theirs.send(chunk(two, b"second"))
        assert links.exchange(two, {1: b"ours"}) == [(1, b"second")]
        assert links.dup_chunks == 1
        assert links._stash == {}
        # the straggler was re-acknowledged under its own tag
        sent = []
        while theirs.poll(0):
            sent.append(theirs.recv())
        assert [m[:3] for m in sent if m[0] == "a"] == [
            ("a", one, 0),
            ("a", one, 0),
            ("a", two, 0),
        ]
    finally:
        ours.close()
        theirs.close()


def test_duplicated_chunk_between_two_links_heals_across_barriers():
    """Two real link ends in threads: seq 0 duplicated on barrier 1."""
    end_a, end_b = multiprocessing.Pipe()
    wire = {"timeout": 20.0, "backoff": 0.05}
    injector = FaultInjector(FaultSchedule.parse("dup_chunk@0:0:q"), 0)
    link_a = sharding_mod._PeerLinks(0, {1: end_a}, {}, {}, injector, wire)
    link_b = sharding_mod._PeerLinks(1, {0: end_b}, {}, {}, None, wire)
    got: dict = {}

    def drive(name, links, peer):
        got[name] = [
            links.exchange((0, phase), {peer: f"{name}-{phase}".encode()})
            for phase in ("q", "r")
        ]

    threads = [
        threading.Thread(target=drive, args=("a", link_a, 1)),
        threading.Thread(target=drive, args=("b", link_b, 0)),
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        end_a.close()
        end_b.close()
    assert got["a"] == [[(1, b"b-q")], [(1, b"b-r")]]
    assert got["b"] == [[(0, b"a-q")], [(0, b"a-r")]]
    assert (link_a.dup_chunks, link_b.dup_chunks) == (0, 1)
    assert link_a._stash == {} and link_b._stash == {}


def test_corrupt_arena_recovers_from_checkpoint(dataset, fault_free_state):
    state, stats, kinds = run_faulted(dataset, "corrupt_arena@6:2:open")
    assert state == fault_free_state
    assert stats["recoveries"] == 1
    assert stats["worker_deaths"] == 0  # the process survived, state didn't
    assert "ran_failed" in kinds


def test_degraded_mode_reports_shard_offline_then_recovers(dataset):
    state, stats, kinds = run_faulted(
        dataset, "crash@5:1:q", recovery="degraded"
    )
    assert stats["recoveries"] == 1
    assert stats["degraded_cycles"] > 0
    assert "degraded" in kinds
    # the window closed before the run ended: everyone is back online
    assert all(entry[0] for nid, entry in state.items() if isinstance(nid, int))
    # the outage is visible in the record even after recovery: the
    # degraded run delivered a different (smaller or shifted) event set
    deliveries = dict(state["_log"])["d_item"]
    assert len(deliveries) > 0


def test_unsupervised_run_keeps_zero_fault_counters(dataset):
    with faults(None), sharding(2):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        try:
            system.run(cycles=6, drain=False)
            stats = system.fault_stats()
            assert stats is not None
            assert all(v == 0 for v in stats.values())
        finally:
            system.close()


def test_single_process_has_no_fault_plane(dataset):
    with sharding(1):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        assert system.fault_stats() is None


# --------------------------------------------------------------------------- #
# external SIGKILL: recovery, teardown, no shared-memory leaks                #
# --------------------------------------------------------------------------- #


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - platform without /dev/shm
        return set()


def test_sigkill_mid_run_recovers_and_leaks_nothing(dataset, monkeypatch):
    """A worker SIGKILLed mid-run: run completes, nothing leaks."""
    monkeypatch.setenv("REPRO_SHARD_RECOVERY", "restore")
    before = _shm_entries()
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")  # tracker warnings fail the test
        with faults(None), sharding(4):
            system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
            engine = system.engine
            assert isinstance(engine, ShardedCycleEngine)
            victim = engine._procs[2]

            # killed after cycle 3 by the run's own clock, not a wall-clock
            # timer a fast run can outlive
            def kill_after_cycle_3(_engine, cycle):
                if cycle == 3:
                    os.kill(victim.pid, signal.SIGKILL)

            engine.add_observer(kill_after_cycle_3)
            try:
                system.run(cycles=20, drain=False)
                stats = system.fault_stats()
                assert stats["worker_deaths"] >= 1
                assert stats["recoveries"] >= 1
                assert stats["checkpoints"] >= 1
                assert stats["checkpoint_bytes"] > 0
                assert system.engine.now == 20
            finally:
                system.close()
    assert _shm_entries() - before == set()


def test_sigkill_without_recovery_fails_fast_and_leaks_nothing(dataset):
    """Unsupervised engines still tear down cleanly after a worker dies."""
    before = _shm_entries()
    with faults(None), sharding(4):
        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=6), seed=SEED)
        engine = system.engine
        system.run(cycles=2, drain=False)
        os.kill(engine._procs[1].pid, signal.SIGKILL)
        with pytest.raises(SimulationError):
            system.run(cycles=10, drain=False)
        system.close()  # idempotent after the error path closed already
    assert _shm_entries() - before == set()


def test_runconfig_programmatic_fault_path(dataset, fault_free_state):
    """``RunConfig(faults=..., recovery=...)`` ≙ the env/context gates.

    The typed API drives the whole fault pipeline — schedule install,
    recovery policy, checkpoint cadence, retransmission knobs — and the
    recovered run still lands on the fault-free state, with nothing
    leaked after construction.
    """
    from repro.api import RunConfig
    from repro.simulation.faults import fault_schedule

    cfg = RunConfig(
        shards=4,
        faults="crash@5:1:q",
        recovery="restore",
        checkpoint_every=4,
        backoff=0.05,
        exchange_timeout=60.0,
    )
    system = WhatsUpSystem(
        dataset, WhatsUpConfig(f_like=6), seed=SEED, run_config=cfg
    )
    try:
        assert fault_schedule() is None  # scoped to construction
        system.run(cycles=CYCLES, drain=False)
        stats = system.fault_stats()
        state = system_state(system)
    finally:
        system.close()
    assert state == fault_free_state
    assert stats["worker_deaths"] == 1
    assert stats["recoveries"] == 1
    assert stats["checkpoints"] > 0
