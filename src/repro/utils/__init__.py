"""Shared utilities for the WHATSUP reproduction.

This subpackage holds infrastructure that every other layer relies on:

* :mod:`repro.utils.exceptions` — the library's exception hierarchy;
* :mod:`repro.utils.hashing` — stable 8-byte identifiers for news items,
  mirroring the hash identifiers the paper describes in Section II-A;
* :mod:`repro.utils.rng` — deterministic random-stream management so that
  every experiment is reproducible from a single integer seed;
* :mod:`repro.utils.runtime` — the runtime policy: which phases run with
  the cyclic collector paused (the only module that touches :mod:`gc`);
* :mod:`repro.utils.tables` — plain-text table rendering used by the
  experiment harness to print paper-style result tables;
* :mod:`repro.utils.validation` — small argument-checking helpers shared by
  configuration objects.
"""

from repro.utils.exceptions import (
    ConfigurationError,
    DatasetError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.utils.hashing import item_digest, stable_hash64
from repro.utils.rng import RngStreams, spawn_generator
from repro.utils.tables import format_table, format_distribution
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "ConfigurationError",
    "DatasetError",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "item_digest",
    "stable_hash64",
    "RngStreams",
    "spawn_generator",
    "format_table",
    "format_distribution",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
]
