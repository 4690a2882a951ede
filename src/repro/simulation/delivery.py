"""Batched per-cycle item delivery (the dissemination hot path).

The per-message cost of a BEEP copy is the dissemination machinery itself —
envelope construction, traffic accounting, future-inbox bookkeeping,
duplicate suppression and event logging, each paid once per copy.  This
module hosts the batched delivery subsystem that amortises those costs per
*cycle* instead:

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

The batch path is the ``fast`` pipeline's delivery
(:mod:`repro.core.gates`) and engages only under a lossless unit-delay
transport (where no per-message loss draws exist).  It is
**bitwise-identical** to the one-envelope-at-a-time path that
``REPRO_MODE=reference`` and every lossy transport run — same RNG
consumption order, same event-log rows, same profiles and views at fixed
seeds (``tests/test_pipeline_grid.py``) — at any shard count: each shard
worker reads the mode for its own sub-cycle, local sends reach the future
inboxes in the same relative order on either path, and cross-shard sends
are ordered by the mailbox protocol alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.news import ItemCopy

__all__ = ["split_first_receipts"]


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
