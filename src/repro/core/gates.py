"""The ``REPRO_*`` gate registry: every env-var read goes through here.

This module is the **single declared gate-registry module** of the tree
(lint rule RL002 in :mod:`tools.repro_lint`): no other module under
``src/repro`` may read a ``REPRO_*`` environment variable directly.
Gate-owning modules call these helpers once at import time to seed their
module globals; programmatic callers use :class:`repro.api.RunConfig`,
which parses a passed-in mapping with the same helpers and therefore the
same spellings, floors, and invalid-value fallbacks.

Parse rules (shared with ``RunConfig.from_env``):

* **flags** — any of ``0``/``false``/``no``/``off`` (case-insensitive,
  surrounding whitespace ignored) disables, everything else enables;
* **ints/floats** — parsed with an optional floor (``max(floor, value)``)
  and an invalid-value fallback to the default, so a typo in the
  environment selects the documented default instead of crashing an
  import;
* **choices** — stripped, lower-cased, and validated against the owning
  module's declared tuple, falling back to the default;
* **raw** — the verbatim string (callers own any further parsing, e.g.
  the fault-schedule DSL).

The helpers accept an explicit ``env`` mapping so ``RunConfig.from_env``
(and tests) can parse arbitrary snapshots without touching the process
environment.

The pipeline mode
-----------------

The one gate this module owns: ``REPRO_MODE`` / ``RunConfig.mode``.
``reference`` is the paper's Algorithms 1–2 as written — per-pair scalar
scoring, one envelope at a time, dict views, never the native kernels —
and the oracle every equivalence test compares against; ``fast`` (the
default) scores whole pools, batches a cycle's deliveries and, on the
native tier, keeps views in columns
(:func:`repro.gossip.views.array_views`). Outcomes are
**bitwise-identical** at fixed seeds.  The mode is read per merge, per
forward and per cycle: build *and* run a system inside one :func:`mode`
block (``RunConfig.apply`` does).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Mapping

__all__ = [
    "DISABLED_WORDS",
    "MODES",
    "env_flag",
    "env_int",
    "env_float",
    "env_choice",
    "env_raw",
    "fast_mode",
    "set_mode",
    "mode",
]

#: the flag spellings that turn a gate off (case-insensitive)
DISABLED_WORDS = ("0", "false", "no", "off")


def _mapping(env: Mapping[str, str] | None) -> Mapping[str, str]:
    return os.environ if env is None else env


def env_flag(
    name: str,
    default: bool = True,
    *,
    env: Mapping[str, str] | None = None,
) -> bool:
    """Parse a boolean gate: off iff the value is a disabled word."""
    raw = _mapping(env).get(name, "1" if default else "0")
    return raw.strip().lower() not in DISABLED_WORDS


def env_int(
    name: str,
    default: int,
    *,
    floor: int | None = None,
    env: Mapping[str, str] | None = None,
) -> int:
    """Parse an integer knob with an optional floor and default fallback."""
    try:
        value = int(_mapping(env).get(name, default))
    except ValueError:
        value = default
    return value if floor is None else max(floor, value)


def env_float(
    name: str,
    default: float,
    *,
    floor: float | None = None,
    env: Mapping[str, str] | None = None,
) -> float:
    """Parse a float knob with an optional floor and default fallback."""
    try:
        value = float(_mapping(env).get(name, default))
    except ValueError:
        return default
    return value if floor is None else max(floor, value)


def env_choice(
    name: str,
    default: str,
    choices: tuple[str, ...],
    *,
    env: Mapping[str, str] | None = None,
) -> str:
    """Parse an enum knob: strip + lower-case, fall back on unknown values."""
    raw = _mapping(env).get(name, default).strip().lower()
    return raw if raw in choices else default


def env_raw(
    name: str,
    default: str = "",
    *,
    env: Mapping[str, str] | None = None,
) -> str:
    """The verbatim variable value; callers own any further parsing."""
    return _mapping(env).get(name, default)


#: the two pipelines, oracle first
MODES = ("reference", "fast")

_fast = env_choice("REPRO_MODE", "fast", MODES) == "fast"


def fast_mode() -> bool:
    """Whether the ``fast`` pipeline is active (else ``reference``)."""
    return _fast


def set_mode(name: str) -> str:
    """Select the pipeline by name; returns the previous mode's name."""
    global _fast
    if name not in MODES:
        raise ValueError(f"unknown mode {name!r} (expected one of {MODES})")
    previous = "fast" if _fast else "reference"
    _fast = name == "fast"
    return previous


@contextmanager
def mode(name: str) -> Iterator[None]:
    """Context manager pinning the pipeline mode, restoring it on exit."""
    previous = set_mode(name)
    try:
        yield
    finally:
        set_mode(previous)
