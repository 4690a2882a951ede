# repro-lint-fixture: treat-as-src
"""Seeded RL009 violations: the cyclic collector touched off its owner."""

import gc  # seed:RL009
from gc import collect  # seed:RL009


def pause_here() -> None:
    gc.disable()  # seed:RL009


def sweep() -> int:
    return gc.collect(2) + collect()  # seed:RL009


def fine(collector) -> bool:
    # other objects' collect/disable methods are not the gc module
    collector.collect()
    return collector.disable()
