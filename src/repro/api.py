"""The typed run-configuration API: one object for the whole gate matrix.

One two-valued ``mode`` (``reference`` | ``fast``,
:mod:`repro.core.gates`) selects the pipeline; the layers around it — the
native tier, sharding, the wire tier, faults, recovery, timeouts — each
have a ``REPRO_*`` variable, a module setter and a context manager.
:class:`RunConfig` holds all of them in a frozen dataclass:

>>> from repro.api import RunConfig
>>> cfg = RunConfig(shards=4, wire_tier="delta", faults="crash@5:1:q")
>>> with cfg.apply():                                  # doctest: +SKIP
...     system = WhatsUpSystem(dataset, seed=7)
...     system.run(cycles=20)

or, equivalently, pass it where engines are built —
``WhatsUpSystem(dataset, run_config=cfg)``, ``make_engine(...,
run_config=cfg)``, ``run_experiment(exp_id, scale, run_config=cfg)`` —
and construction (for ``WhatsUpSystem`` also every run and join) executes
under :meth:`RunConfig.apply` for you.

The env vars remain as the *defaults-loading layer*:
:meth:`RunConfig.from_env` parses them with exactly the rules the
modules themselves use (same spellings, same floors, same fallbacks), so
``RunConfig.from_env().apply()`` is a no-op relative to current
behaviour, and the CLI resolves flags → env → defaults through this one
class.  :meth:`as_env` is the inverse, for spawning subprocesses that
must inherit a configuration.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.core.gates import (
    MODES,
    env_choice,
    env_flag,
    env_float,
    env_int,
    env_raw,
    set_mode,
)

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """A complete, immutable run configuration.

    Field defaults equal the env-gate defaults, so ``RunConfig()`` is
    the out-of-the-box pipeline.  Derive variants with :meth:`replace`,
    activate with :meth:`apply` (or by passing the config to
    ``WhatsUpSystem`` / ``make_engine`` / ``run_experiment``).
    """

    # -- pipeline ---------------------------------------------------------- #
    #: ``reference`` — the paper's algorithms as written (per-pair scalar
    #: scoring, one envelope at a time, dict views), the equivalence
    #: oracle — or ``fast`` (``REPRO_MODE``)
    mode: str = "fast"
    #: compiled C kernels for ``fast`` (``REPRO_NATIVE``); mirrors a
    #: platform property — without the extension the tier is off whatever
    #: this says, and setting it off reproduces the no-compiler box
    native: bool = True

    # -- sharding --------------------------------------------------------- #
    #: worker-process count; 1 = single-process (``REPRO_SHARDS``)
    shards: int = 1
    #: shared-memory arenas/mailboxes between shards (``REPRO_SHARD_SHM``)
    shard_shm: bool = True
    #: cross-shard mailbox encoding: ``pickle`` | ``delta``
    #: (``REPRO_SHARD_WIRE``)
    wire_tier: str = "delta"
    #: pin each worker to one CPU on multi-core hosts
    #: (``REPRO_SHARD_PIN_CPUS``)
    pin_cpus: bool = False

    # -- fault plane / supervision ---------------------------------------- #
    #: fault schedule spec (DSL/JSON/path), or ``None`` (``REPRO_FAULTS``)
    faults: str | None = None
    #: recovery policy: ``off`` | ``restore`` | ``degraded`` | ``auto``
    #: (``REPRO_SHARD_RECOVERY``)
    recovery: str = "auto"
    #: checkpoint cadence in cycles, supervised runs
    #: (``REPRO_SHARD_CHECKPOINT``)
    checkpoint_every: int = 8
    #: degraded-mode offline window, cycles; 0 = one checkpoint interval
    #: (``REPRO_SHARD_DEGRADED``)
    degraded_window: int = 0
    #: rollback-replay attempts before giving up
    #: (``REPRO_SHARD_MAX_RECOVERIES``)
    max_recoveries: int = 8

    # -- timeouts / retransmission ---------------------------------------- #
    #: parent-side worker-reply timeout, seconds (``REPRO_SHARD_TIMEOUT``)
    ctrl_timeout: float = 600.0
    #: per-barrier chunk-exchange deadline, seconds
    #: (``REPRO_SHARD_EXCHANGE_TIMEOUT``)
    exchange_timeout: float = 600.0
    #: chunk retransmissions per peer per barrier (``REPRO_SHARD_RETRIES``)
    retries: int = 4
    #: first retransmission/heartbeat wait, seconds; doubles per idle
    #: round (``REPRO_SHARD_BACKOFF``)
    backoff: float = 5.0

    def __post_init__(self) -> None:
        from repro.simulation.sharding import _RECOVERY_MODES
        from repro.simulation.wire import WIRE_TIERS

        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (expected one of {MODES})")
        if self.wire_tier not in WIRE_TIERS:
            raise ValueError(
                f"unknown wire tier {self.wire_tier!r} "
                f"(expected one of {WIRE_TIERS})"
            )
        if self.recovery not in _RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {self.recovery!r} "
                f"(expected one of {_RECOVERY_MODES})"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")

    # ------------------------------------------------------------------ #

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "RunConfig":
        """The configuration the env vars currently select.

        Parses each variable with the exact rules its owning module
        applies at import — the shared :mod:`repro.core.gates` helpers
        (same flag spellings, same numeric floors, same invalid-value
        fallbacks) — so activating the result changes nothing: ``with
        RunConfig.from_env().apply(): ...`` behaves identically to the
        bare environment.
        """
        from repro.simulation.sharding import _RECOVERY_MODES
        from repro.simulation.wire import WIRE_TIERS

        env = os.environ if environ is None else environ
        return cls(
            mode=env_choice("REPRO_MODE", "fast", MODES, env=env),
            native=env_flag("REPRO_NATIVE", env=env),
            shards=env_int("REPRO_SHARDS", 1, floor=1, env=env),
            shard_shm=env_flag("REPRO_SHARD_SHM", env=env),
            wire_tier=env_choice("REPRO_SHARD_WIRE", "delta", WIRE_TIERS, env=env),
            pin_cpus=env_flag("REPRO_SHARD_PIN_CPUS", default=False, env=env),
            faults=env_raw("REPRO_FAULTS", env=env).strip() or None,
            recovery=env_choice(
                "REPRO_SHARD_RECOVERY", "auto", _RECOVERY_MODES, env=env
            ),
            checkpoint_every=env_int("REPRO_SHARD_CHECKPOINT", 8, floor=1, env=env),
            degraded_window=env_int("REPRO_SHARD_DEGRADED", 0, floor=0, env=env),
            max_recoveries=env_int(
                "REPRO_SHARD_MAX_RECOVERIES", 8, floor=1, env=env
            ),
            ctrl_timeout=env_float("REPRO_SHARD_TIMEOUT", 600.0, env=env),
            exchange_timeout=env_float(
                "REPRO_SHARD_EXCHANGE_TIMEOUT", 600.0, env=env
            ),
            retries=env_int("REPRO_SHARD_RETRIES", 4, floor=1, env=env),
            backoff=env_float("REPRO_SHARD_BACKOFF", 5.0, floor=0.005, env=env),
        )

    def as_env(self) -> dict[str, str]:
        """The env-var dict selecting this configuration.

        The inverse of :meth:`from_env` (``from_env(cfg.as_env())``
        round-trips every field) — for spawning subprocesses that must
        inherit the configuration.  ``REPRO_FAULTS`` is omitted when no
        schedule is set, matching the unset-means-none convention.
        """
        env = {
            "REPRO_MODE": self.mode,
            "REPRO_NATIVE": "1" if self.native else "0",
            "REPRO_SHARDS": str(self.shards),
            "REPRO_SHARD_SHM": "1" if self.shard_shm else "0",
            "REPRO_SHARD_WIRE": self.wire_tier,
            "REPRO_SHARD_PIN_CPUS": "1" if self.pin_cpus else "0",
            "REPRO_SHARD_RECOVERY": self.recovery,
            "REPRO_SHARD_CHECKPOINT": str(self.checkpoint_every),
            "REPRO_SHARD_DEGRADED": str(self.degraded_window),
            "REPRO_SHARD_MAX_RECOVERIES": str(self.max_recoveries),
            "REPRO_SHARD_TIMEOUT": repr(self.ctrl_timeout),
            "REPRO_SHARD_EXCHANGE_TIMEOUT": repr(self.exchange_timeout),
            "REPRO_SHARD_RETRIES": str(self.retries),
            "REPRO_SHARD_BACKOFF": repr(self.backoff),
        }
        if self.faults is not None:
            env["REPRO_FAULTS"] = self.faults
        return env

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with *changes* applied (fields validate as usual)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #

    @contextmanager
    def apply(self) -> Iterator["RunConfig"]:
        """Activate every gate and knob; restore all prior state on exit.

        The one context manager replacing the per-module stack.  The
        sharding knobs are consulted when an engine is *constructed*;
        ``mode`` and ``native`` are read per merge and per cycle, and the
        view store is chosen when a node is built — so build *and* run
        the system inside the block, as ``WhatsUpSystem(run_config=…)``
        does.
        Exception-safe — the previous state comes back even when the
        guarded block raises.
        """
        from repro._native import set_native_kernel
        from repro.simulation.faults import set_fault_schedule
        from repro.simulation.sharding import (
            set_shard_count,
            set_shard_knobs,
            set_shard_shm,
        )
        from repro.simulation.wire import set_wire_tier

        undo: list[tuple[Any, Any]] = []

        def _set(setter: Any, value: Any) -> None:
            undo.append((setter, setter(value)))

        try:
            _set(set_mode, self.mode)
            _set(set_native_kernel, self.native)
            _set(set_shard_count, self.shards)
            _set(set_shard_shm, self.shard_shm)
            _set(set_wire_tier, self.wire_tier)
            _set(set_fault_schedule, self.faults)
            undo.append(
                (
                    lambda prev: set_shard_knobs(**prev),
                    set_shard_knobs(
                        pin_cpus=self.pin_cpus,
                        recovery=self.recovery,
                        checkpoint_every=self.checkpoint_every,
                        degraded_window=self.degraded_window,
                        max_recoveries=self.max_recoveries,
                        ctrl_timeout=self.ctrl_timeout,
                        exchange_timeout=self.exchange_timeout,
                        retries=self.retries,
                        backoff=self.backoff,
                    ),
                )
            )
            yield self
        finally:
            while undo:
                setter, previous = undo.pop()
                setter(previous)
