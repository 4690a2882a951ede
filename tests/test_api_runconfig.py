"""Tests for repro.api.RunConfig — the typed gate-matrix API.

The contract under test:

* ``RunConfig()`` equals the out-of-the-box pipeline, and
  ``RunConfig.from_env()`` on a clean environment equals ``RunConfig()``
  (env parity: same spellings, floors, and invalid-value fallbacks the
  owning modules use);
* ``as_env()`` is the exact inverse of ``from_env()``;
* ``apply()`` activates every gate/knob for the block and restores all
  prior state on exit — including when the block raises;
* the plumbing: ``WhatsUpSystem(run_config=)``, ``make_engine(run_config=)``
  and ``run_experiment(run_config=)`` all construct under the config.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.simulation.sharding as sharding_mod
from repro._native import native_kernel_enabled
from repro.api import RunConfig
from repro.core import WhatsUpConfig, WhatsUpSystem
from repro.core.gates import fast_mode
from repro.datasets import survey_dataset
from repro.simulation.faults import fault_schedule
from repro.simulation.sharding import shard_count, wire_tier


@pytest.fixture
def clean_env(monkeypatch):
    """Strip every REPRO_* gate so from_env() sees the defaults."""
    import os

    for name in list(os.environ):
        if name.startswith("REPRO_"):
            monkeypatch.delenv(name)
    return os.environ


VARIANT = dict(
    mode="reference",
    native=False,
    shards=4,
    shard_shm=False,
    wire_tier="pickle",
    pin_cpus=True,
    faults="crash@5:1:q",
    recovery="degraded",
    checkpoint_every=3,
    degraded_window=6,
    max_recoveries=2,
    ctrl_timeout=30.0,
    exchange_timeout=45.5,
    retries=9,
    backoff=0.25,
)


class TestEnvParity:
    def test_defaults_match_clean_env(self, clean_env):
        assert RunConfig.from_env() == RunConfig()

    def test_as_env_roundtrips_defaults(self):
        cfg = RunConfig()
        assert RunConfig.from_env(cfg.as_env()) == cfg
        assert "REPRO_FAULTS" not in cfg.as_env()

    def test_as_env_roundtrips_every_field(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert fields == set(VARIANT) and len(fields) == 15
        cfg = RunConfig(**VARIANT)
        env = cfg.as_env()
        assert env["REPRO_FAULTS"] == "crash@5:1:q"
        assert RunConfig.from_env(env) == cfg

    def test_from_env_parses_module_spellings(self):
        env = {
            "REPRO_MODE": " Reference ",
            "REPRO_NATIVE": "0 ",  # trailing blank, as from a .env file
            "REPRO_SHARD_SHM": "off\n",  # trailing newline, as from a secret
            "REPRO_SHARD_PIN_CPUS": " 1",
            "REPRO_SHARDS": "3",
            "REPRO_SHARD_WIRE": " Pickle ",
            "REPRO_FAULTS": "  ",
        }
        cfg = RunConfig.from_env(env)
        assert cfg.mode == "reference"
        assert cfg.native is False
        assert cfg.shard_shm is False
        assert cfg.pin_cpus is True
        assert cfg.shards == 3
        assert cfg.wire_tier == "pickle"
        assert cfg.faults is None  # blank spec means no schedule

    def test_from_env_applies_module_floors_and_fallbacks(self):
        cfg = RunConfig.from_env(
            {
                "REPRO_MODE": "quick",  # unknown -> default
                "REPRO_SHARDS": "zero",  # unparseable -> default
                "REPRO_SHARD_WIRE": "msgpack",  # unknown -> default
                "REPRO_SHARD_RECOVERY": "prayer",  # unknown -> default
                "REPRO_SHARD_CHECKPOINT": "0",  # floored
                "REPRO_SHARD_BACKOFF": "0.000001",  # floored
                "REPRO_SHARD_RETRIES": "0",  # floored
            }
        )
        assert cfg.mode == "fast"
        assert cfg.shards == 1
        assert cfg.wire_tier == "delta"
        assert cfg.recovery == "auto"
        assert cfg.checkpoint_every == 1
        assert cfg.backoff == 0.005
        assert cfg.retries == 1

    def test_validation_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="mode"):
            RunConfig(mode="quick")
        with pytest.raises(ValueError, match="wire tier"):
            RunConfig(wire_tier="msgpack")
        with pytest.raises(ValueError, match="recovery"):
            RunConfig(recovery="prayer")
        with pytest.raises(ValueError, match="shards"):
            RunConfig(shards=0)

    def test_frozen_and_replace(self):
        cfg = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.shards = 4
        derived = cfg.replace(shards=4, wire_tier="pickle")
        assert (derived.shards, derived.wire_tier) == (4, "pickle")
        assert cfg.shards == 1  # original untouched
        with pytest.raises(ValueError):
            cfg.replace(wire_tier="msgpack")


class TestApply:
    # the restore assertions compare against *captured* prior state, not
    # hard-coded defaults — the tier-1 CI legs run this suite under env
    # gates (REPRO_SHARDS=4, REPRO_MODE=reference, …) and apply() must put
    # back whatever was set, defaults or not

    def test_apply_sets_and_restores_everything(self):
        cfg = RunConfig(**VARIANT)
        before = (
            fast_mode(),
            native_kernel_enabled(),
            shard_count(),
            wire_tier(),
            fault_schedule(),
            sharding_mod.shard_knobs(),
        )
        with cfg.apply():
            assert fast_mode() is False
            assert native_kernel_enabled() is False
            assert shard_count() == 4
            assert wire_tier() == "pickle"
            schedule = fault_schedule()
            assert schedule is not None
            assert [e.kind for e in schedule.events] == ["crash"]
            knobs = sharding_mod.shard_knobs()
            assert knobs["pin_cpus"] is True
            assert knobs["recovery"] == "degraded"
            assert knobs["retries"] == 9
        assert before == (
            fast_mode(),
            native_kernel_enabled(),
            shard_count(),
            wire_tier(),
            fault_schedule(),
            sharding_mod.shard_knobs(),
        )

    def test_apply_restores_on_exception(self):
        before = (shard_count(), wire_tier())
        cfg = RunConfig(shards=2, wire_tier="pickle")
        with pytest.raises(RuntimeError, match="boom"), cfg.apply():
            assert shard_count() == 2
            raise RuntimeError("boom")
        assert (shard_count(), wire_tier()) == before

    def test_apply_nests(self):
        before = wire_tier()
        with RunConfig(wire_tier="pickle").apply():
            with RunConfig(wire_tier="delta").apply():
                assert wire_tier() == "delta"
            assert wire_tier() == "pickle"
        assert wire_tier() == before


class TestPlumbing:
    @pytest.fixture(scope="class")
    def dataset(self):
        return survey_dataset(n_base_users=24, n_base_items=20, seed=3)

    def test_whatsup_system_constructs_under_config(self, dataset):
        before = shard_count()
        cfg = RunConfig(shards=2)
        system = WhatsUpSystem(
            dataset, WhatsUpConfig(f_like=5), seed=7, run_config=cfg
        )
        try:
            assert type(system.engine).__name__ == "ShardedCycleEngine"
            assert shard_count() == before  # config never leaked
            system.run(cycles=4, drain=False)
            assert system.engine.now == 4
            assert any(node.profile.scores for node in system.nodes)
        finally:
            system.close()

    def test_system_matches_env_gated_run(self, dataset):
        """run_config=RunConfig(shards=2) ≙ the sharding() context."""

        def state(system):
            return [
                (node.node_id, sorted(node.profile.scores.items()),
                 sorted(node.seen))
                for node in system.nodes
            ]

        with sharding_mod.sharding(2):
            ref = WhatsUpSystem(dataset, WhatsUpConfig(f_like=5), seed=7)
            try:
                ref.run(cycles=6, drain=False)
                want = state(ref)
            finally:
                ref.close()
        system = WhatsUpSystem(
            dataset, WhatsUpConfig(f_like=5), seed=7,
            run_config=RunConfig(shards=2),
        )
        try:
            system.run(cycles=6, drain=False)
            assert state(system) == want
        finally:
            system.close()

    def test_make_engine_accepts_run_config(self, dataset):
        from repro.simulation.sharding import make_engine

        system = WhatsUpSystem(dataset, WhatsUpConfig(f_like=5), seed=7)
        engine = make_engine(
            system.nodes,
            dataset.schedule(),
            streams=system.streams,
            run_config=RunConfig(shards=2, wire_tier="pickle"),
        )
        try:
            assert type(engine).__name__ == "ShardedCycleEngine"
        finally:
            engine.close()

    def test_run_experiment_accepts_run_config(self):
        from repro.experiments import ScaleProfile, run_experiment

        tiny = ScaleProfile(
            name="tiny",
            survey_base_users=30,
            survey_base_items=30,
            survey_replication=1,
            synthetic_users=40,
            synthetic_items_per_community=2,
            digg_users=30,
            digg_items=30,
            publish_cycles=8,
            fanouts_survey=(2, 4),
            fanouts_synthetic=(2, 4),
            fanouts_digg=(2, 4),
        )
        before = wire_tier()
        cfg = RunConfig(wire_tier="pickle")
        rep = run_experiment("table1", tiny, seed=2, run_config=cfg)
        assert "Synthetic" in rep.text
        assert wire_tier() == before  # restored
