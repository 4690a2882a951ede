"""Batched per-cycle item delivery (the dissemination hot path).

PR 1 made similarity scoring cheap; the remaining per-message cost of a BEEP
copy is the dissemination machinery itself — envelope construction, traffic
accounting, future-inbox bookkeeping, duplicate suppression and event
logging, each paid once per copy.  This module hosts the batched delivery
subsystem that amortises those costs per *cycle* instead:

* the engine buffers every item send of a cycle and flushes them in one bulk
  pass (one traffic-stats update, one future-inbox extension run, no
  envelopes) — see :meth:`repro.simulation.engine.CycleEngine._flush_item_sends`;
  a fan-out buffers one forwarded object for all its targets, so a copy
  in a batched inbox may be shared between recipients: fork before
  keeping or mutating;
* nodes receive their whole cycle inbox at once
  (:meth:`repro.simulation.node.BaseNode.receive_items`), which lets WHATSUP
  resolve duplicate suppression with one pass over the batch
  (:func:`split_first_receipts`, forking first receipts only — most copies
  of a fan-out die as duplicates), apply profile updates in a single sweep,
  and score every disliked item of the cycle against the same memoised RPS
  pool (:meth:`repro.core.beep.BeepForwarder.forward_batch`).

The batch path engages only under a lossless unit-delay transport (where no
per-message loss draws exist) and is **bitwise-identical** to the scalar
path: same RNG consumption order, same event-log rows, same profiles and
views at fixed seeds.  ``REPRO_BATCH_DELIVERY=0`` (or
:func:`set_delivery_batching`) restores the scalar one-envelope-at-a-time
pipeline everywhere — the equivalence benchmarks and the CI scalar leg run
both paths and assert identical outcomes.

This gate composes freely with the array-state gate
(:mod:`repro.core.arraystate`): the delivery pipeline only touches node
state through the view/profile facades, so any pipeline × state-plane
combination produces the same bits (asserted by the churn equivalence
grid in ``tests/test_delivery_batch.py``).  It also composes with the
process-sharded engine (:mod:`repro.simulation.sharding`): each shard
worker consults the gate for its own sub-cycle — batched and scalar
delivery produce identical bits at any fixed shard count, because local
sends reach the future inboxes in the same relative order on either
path and cross-shard sends are ordered by the mailbox protocol alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING

from repro.core.gates import env_flag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.news import ItemCopy

__all__ = [
    "delivery_batching_enabled",
    "set_delivery_batching",
    "delivery_batching",
    "split_first_receipts",
]

_delivery_enabled = env_flag("REPRO_BATCH_DELIVERY")


def delivery_batching_enabled() -> bool:
    """Whether the batched per-cycle delivery path is active."""
    return _delivery_enabled


def set_delivery_batching(enabled: bool) -> bool:
    """Enable/disable delivery batching; returns the previous setting.

    The scalar fallback produces identical outcomes (views, profiles,
    delivery logs) at fixed seeds; the switch exists for the equivalence
    benchmarks, the CI scalar leg and debugging.  Prefer the
    :func:`delivery_batching` context manager outside hot paths — it
    restores the previous setting even when the guarded block raises.
    """
    global _delivery_enabled
    previous = _delivery_enabled
    _delivery_enabled = bool(enabled)
    return previous


@contextmanager
def delivery_batching(enabled: bool):
    """Context manager pinning the delivery-batching gate, restoring on exit.

    The restore-guarded form of :func:`set_delivery_batching`: one failing
    test inside the block can no longer leak a scalar/batch pipeline
    setting into the rest of the suite.
    """
    previous = set_delivery_batching(enabled)
    try:
        yield
    finally:
        set_delivery_batching(previous)


def split_first_receipts(
    deliveries: "list[tuple[int, ItemCopy, bool]]",
    seen: set[int],
) -> "tuple[list[tuple[ItemCopy, bool]], int]":
    """Partition one node's cycle batch into first receipts and duplicates.

    Implements the SIR duplicate rule for a whole per-cycle batch: a message
    is a *first receipt* when its item is neither in *seen* nor delivered
    earlier in the same batch.  *seen* is updated in place with the fresh
    item ids.

    Returns ``(fresh, n_duplicates)`` where *fresh* is the ``(copy,
    via_like)`` list in arrival order — exactly the receipts the scalar
    per-message path would have processed, in the same order.  A copy in
    a batched inbox may be shared with the other recipients of its
    fan-out, so each fresh row carries a private
    :meth:`~repro.core.news.ItemCopy.fork`; duplicates are never forked.

    The mask is resolved with C-level set membership rather than a packed
    ``np.unique`` first-occurrence pass: the numpy formulation was measured
    at 4-8× *slower* across batch sizes 20-120 (the id extraction is a
    Python-level attribute walk either way, and ``unique`` sorts), so the
    set sweep — one batch-level call instead of one engine round-trip per
    message — is the whole win here.  Duplicates never reach the node
    callback or the engine: they are counted in one
    :meth:`~repro.simulation.events.DisseminationLog.log_duplicates` update.
    """
    n = len(deliveries)
    fresh = []
    for _sender, copy, via_like in deliveries:
        iid = copy.item.item_id
        if iid not in seen:
            seen.add(iid)
            fresh.append((copy.fork(), via_like))
    return fresh, n - len(fresh)
