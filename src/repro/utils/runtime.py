"""Runtime policy: the cyclic collector stays off the simulation's clock.

WHATSUP's simulated state — profiles, view descriptors, item copies — is
acyclic data: reference counting frees it the moment a cycle drops it.
CPython's cyclic collector therefore finds nothing to free inside a run;
it only re-walks live objects, hundreds of times per run.  The
simulation's hot phases run with automatic collection paused instead:

* :func:`collector_paused` — the restore-guarded pause entered by
  :meth:`~repro.simulation.engine.CycleEngine.run` /
  :meth:`~repro.simulation.engine.CycleEngine.run_until_drained`,
  :class:`~repro.core.system.WhatsUpSystem` construction,
  :meth:`~repro.simulation.sharding.ShardedCycleEngine.collect` and, for
  their whole life, the shard workers;
* :func:`freeze_inherited` — a forked shard worker moves the heap it
  inherited from the parent out of the collector's sight (it never uses
  those objects; it works on the state it unpickles);
* :func:`collect_garbage` — one explicit collection, returning how many
  unreachable objects it found: the worker's ``cyclic_garbage`` report in
  ``mailbox_stats()``, which ``tests/test_runtime.py`` holds at zero.

The pause relies on one invariant — the cycle loop creates no reference
cycles — which ``tests/test_runtime.py`` enforces for both pipelines,
lossy transports, churn, cold-start joins and shard workers.  This is the
only module in ``src/repro`` that touches :mod:`gc` (repro-lint RL009).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused", "collect_garbage", "freeze_inherited"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with automatic cyclic collection off.

    On exit the caller's collector state comes back — enabled or
    disabled — also when the body raises, so pauses nest freely.  Explicit
    :func:`gc.collect` calls still work inside.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def freeze_inherited() -> None:
    """Exclude every object alive now from all future collections.

    Called once by a freshly forked shard worker: the parent's heap it
    inherited is never the worker's to collect, and leaving it out also
    keeps the collector from touching (and copying) the shared pages.
    """
    gc.freeze()


def collect_garbage() -> int:
    """Run a full collection; the number of unreachable objects it found."""
    return gc.collect()
