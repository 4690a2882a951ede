"""The declared contracts the RL rules enforce.

Every registry the lint pack consults lives here, in one reviewed place:
a rule never guesses which module owns a contract — it reads these
declarations.  Tests inject alternative :class:`Contracts` instances to
exercise the rules against fixture trees (see
``tests/lint_fixtures/``).

Paths are repo-root-relative POSIX strings and are matched by suffix, so
the tool works from any working directory and on any OS.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_pickle_safe() -> dict[str, dict[str, tuple[str, ...]]]:
    # file suffix -> {class name: process-local cache attrs the
    # __getstate__/__setstate__ pair must address}
    return {
        "src/repro/gossip/views.py": {
            "ArrayView": ("_cols_addr", "_pobj_addr", "_ids", "_ts", "_wire"),
        },
        "src/repro/simulation/wire.py": {
            "LinkEncoder": ("_addrs",),
            "LinkDecoder": ("_addrs",),
        },
        "src/repro/simulation/node.py": {
            "BaseNode": ("_alive_listener",),
        },
        "src/repro/core/beep.py": {
            "BeepForwarder": ("_pool_view",),
        },
        "src/repro/core/profiles.py": {
            "PackedView": ("_nd",),
            "FrozenProfile": ("_nd",),
        },
    }


@dataclass(frozen=True)
class Contracts:
    """Registry-declared inputs of the RL rules."""

    #: the single module allowed to read ``REPRO_*`` env vars (RL002)
    gate_registry_module: str = "src/repro/core/gates.py"

    #: modules whose ``time.monotonic``/``perf_counter``/``sleep`` calls
    #: are wall-clock protocol/reporting code, not simulation state
    #: (RL001); ``time.time()`` is banned even here
    wall_clock_modules: tuple[str, ...] = (
        "src/repro/cli.py",
        "src/repro/experiments/runner.py",
        "src/repro/simulation/sharding.py",
        "src/repro/simulation/faults.py",
    )

    #: ``numpy.random`` attributes that are constructors/seeding types,
    #: not draws from the hidden global generator (RL001)
    np_random_ok: tuple[str, ...] = (
        "Generator",
        "BitGenerator",
        "default_rng",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
    )

    #: classes that cross the shard boundary and must drop process-local
    #: caches in a ``__getstate__``/``__setstate__`` pair (RL004)
    pickle_safe_classes: dict[str, dict[str, tuple[str, ...]]] = field(
        default_factory=_default_pickle_safe
    )

    #: the module whose ``WIRE_MESSAGE_REGISTRY`` literal declares the
    #: codec treatment of every NamedTuple that can cross a shard
    #: mailbox (RL007)
    wire_registry_module: str = "src/repro/simulation/wire.py"

    #: modules whose NamedTuple classes are wire-visible and must appear
    #: in the registry (RL007)
    wire_message_modules: tuple[str, ...] = (
        "src/repro/network/message.py",
        "src/repro/gossip/rps.py",
        "src/repro/gossip/vicinity.py",
        "src/repro/gossip/views.py",
        "src/repro/core/profiles.py",
    )

    #: the only modules allowed to unpickle (mailbox/checkpoint planes;
    #: RL008)
    mailbox_modules: tuple[str, ...] = (
        "src/repro/simulation/sharding.py",
        "src/repro/simulation/wire.py",
    )

    #: directory names skipped while recursing into lint roots (explicitly
    #: named paths are always scanned)
    exclude_dirs: tuple[str, ...] = (
        "__pycache__",
        "lint_fixtures",
        ".git",
        "build",
        ".ruff_cache",
        ".mypy_cache",
    )


DEFAULT_CONTRACTS = Contracts()
