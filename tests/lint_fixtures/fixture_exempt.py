# repro-lint-fixture: treat-as-src
"""Declared-exempt usages: none of these may produce findings.

The lint-pack test injects a Contracts instance that names this file as
the gate registry, a wall-clock module, a mailbox module and the
collector's owner all at once, so every call below sits inside its
sanctioned scope.
"""

import gc
import os
import pickle
import time


def registry_read() -> str:
    return os.environ.get("REPRO_FIXTURE_GATE", "1")


def wall_clock() -> float:
    return time.monotonic()


def mailbox_decode(blob: bytes):
    return pickle.loads(blob)


def collector_owner() -> bool:
    return gc.isenabled()
