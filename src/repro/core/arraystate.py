"""The array-state gate: columnar view store vs the dict view store.

The gate decides one thing: which view store
:func:`repro.gossip.views.make_view` builds — the columnar
:class:`~repro.gossip.views.ArrayView` (on, the default) or the
dict/NamedTuple :class:`~repro.gossip.views.View` (``REPRO_ARRAY_STATE=0``).
Under ``REPRO_SHARDS>1`` the shard engine maps a view arena only when
there are column blocks to put in it.  Profiles and their packed arrays
are the same on both settings.

Both stores produce **bitwise-identical** outcomes at fixed seeds — same
RNG draws, same view contents and order, same traffic bytes.  The gate
exists for the equivalence tests, the CI dict-view-store leg and
debugging, exactly like the sibling gates
(``repro.core.similarity.batch_scoring``,
``repro.simulation.delivery.delivery_batching``,
``repro._native.native_kernel``).

The gate is consulted when a view is *constructed*, so toggling it
mid-run changes how new views are laid out without invalidating existing
ones — both stores implement the same facade and interoperate.  For
apples-to-apples runs, construct and run each system entirely inside one
:func:`array_state` block, as the equivalence tests do.

Column layout and ownership
---------------------------

An :class:`~repro.gossip.views.ArrayView` owns exactly two stores:

* ``_cols`` — one preallocated ``(3, alloc)`` ``int64`` block whose rows
  are the node-id, timestamp and wire-size columns.  Slot order
  replicates dict insertion-order semantics exactly: replacement keeps
  the slot, insertion appends, deletion compacts preserving relative
  order — so iteration order, and therefore every downstream RNG draw,
  matches the legacy dict bit for bit.
* ``_pobj`` — the slot-aligned numpy *object* column holding the
  :class:`~repro.gossip.views.ViewEntry` payload references.

The base addresses of both are cached on the view and handed to the
native state kernels as plain integers (the zero-marshaling contract —
see the :mod:`repro._native` module docstring).  Three ownership rules
follow:

* **Addresses are process-local.**  Pickling serialises live rows only
  and rebuilds the block (and its cached addresses) on unpickling; the
  cached native descriptors on packed profiles are nulled the same way.
* **The numeric block is relocatable; the payload column is not.**
  :meth:`~repro.gossip.views.ArrayView.rehome` moves ``_cols`` into
  caller-provided storage — under ``REPRO_SHARDS>1`` a per-shard
  ``multiprocessing.shared_memory`` arena — and rebinds the addresses;
  ``_pobj`` holds object references and always stays private to the
  owning process.
* **Growth falls back to private memory.**  A view that outgrows a
  mapped block reallocates privately and abandons the arena slot (the
  shard arena is a bump allocator without ``free``); correctness never
  depends on residency, only the zero-copy read path does.

Packed profile columns (sorted ``uint64`` ids + ``float64`` scores) are
reallocated whenever a mutated profile is packed again and are therefore
**never** mapped into shared memory — the measured design trade-offs live
in ``PERFORMANCE.md`` (section "Process-sharded cycles").
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.gates import env_flag

__all__ = [
    "array_state_enabled",
    "set_array_state",
    "array_state",
]

_array_enabled = env_flag("REPRO_ARRAY_STATE")


def array_state_enabled() -> bool:
    """Whether new views are built on the columnar store."""
    return _array_enabled


def set_array_state(enabled: bool) -> bool:
    """Select the columnar view store; returns the previous setting.

    Prefer the :func:`array_state` context manager outside hot paths — it
    restores the previous setting even when the guarded block raises.
    """
    global _array_enabled
    previous = _array_enabled
    _array_enabled = bool(enabled)
    return previous


@contextmanager
def array_state(enabled: bool):
    """Context manager pinning the array-state gate, restoring on exit.

    The restore-guarded form of :func:`set_array_state`: one failing test
    inside the block cannot leak a state-plane setting into the rest of
    the suite.
    """
    previous = set_array_state(enabled)
    try:
        yield
    finally:
        set_array_state(previous)
