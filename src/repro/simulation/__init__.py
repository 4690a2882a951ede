"""Cycle-based simulation substrate.

The paper evaluates WHATSUP with cycle-based simulations ("our simulations
use the duration of a gossip cycle as a time unit", Section IV-D).  This
subpackage provides the engine those experiments run on:

* :mod:`repro.simulation.events` — compact struct-of-arrays logs of every
  first delivery and every forwarding action, from which all user metrics
  (precision/recall/F1) and dissemination analyses (hops, dislike counters,
  popularity) are derived after the run;
* :mod:`repro.simulation.schedule` — the publication schedule mapping cycles
  to the news items injected at that cycle;
* :mod:`repro.simulation.node` — the protocol-node interface every system
  under test implements (WHATSUP, the CF baselines, homogeneous gossip,
  cascading);
* :mod:`repro.simulation.engine` — the engine proper: per cycle it runs
  gossip maintenance, injects publications, and delivers item messages
  enqueued during the previous cycle (one hop per cycle);
* :mod:`repro.simulation.delivery` — the ``fast`` pipeline's batched
  delivery: the per-cycle batch helper the engine and nodes share
  (bitwise-identical to the per-envelope path at fixed seeds);
* :mod:`repro.simulation.churn` — node kill/rejoin injection for the
  robustness extension experiments;
* :mod:`repro.simulation.sharding` — the process-sharded scale-out engine:
  ``REPRO_SHARDS=N`` partitions the population across worker processes
  with per-shard deterministic RNG streams, shared-memory state arenas
  and columnar shard-boundary mailboxes flushed at cycle barriers.
"""

from repro.simulation.churn import ChurnModel
from repro.simulation.engine import CycleEngine
from repro.simulation.events import DisseminationLog
from repro.simulation.node import BaseNode
from repro.simulation.schedule import PublicationSchedule
# NOTE: the `sharding(n)` context manager is deliberately not re-exported
# here — binding it as `repro.simulation.sharding` would shadow the
# submodule of the same name; import it from repro.simulation.sharding
from repro.simulation.sharding import (
    ShardedCycleEngine,
    make_engine,
    set_shard_count,
    shard_count,
)

__all__ = [
    "BaseNode",
    "ChurnModel",
    "CycleEngine",
    "DisseminationLog",
    "PublicationSchedule",
    "ShardedCycleEngine",
    "make_engine",
    "set_shard_count",
    "shard_count",
]
