"""Optional compiled kernels for the similarity/selection hot loops.

This package hosts the **native tier** of the two-tier similarity
dispatch (native → set-algebra/scalar, see
:mod:`repro.core.similarity`): a small C extension, built with cffi from
:mod:`repro._native.build_native`, that scores packed candidate pools,
performs the merge trim / argmax selections, and runs the
:class:`~repro.gossip.views.ArrayView` bookkeeping (``state_*`` kernels)
at C speed — for the ``fast`` pipeline; ``reference`` never consults it.

The extension is strictly optional:

* when the compiled module is absent (no C toolchain, fresh checkout), the
  loader reports "unavailable" and every caller stays on the pure-Python
  tier with dict views — the tree imports and passes its test suite
  without a compiler;
* ``REPRO_NATIVE=0`` (or :func:`set_native_kernel` /
  :func:`native_kernel`) mirrors that platform property on a machine
  that has the extension — the no-compiler pipeline, store included —
  which the equivalence tests use to prove both tiers produce
  bitwise-identical outcomes.

Build in place (writes ``_kernels.*.so`` next to this file)::

    PYTHONPATH=src python -m repro._native.build_native

The descriptor contract (``_nd``)
---------------------------------

The profile-scoring kernels never unpack Python containers per call.
Every packed profile object (:class:`~repro.core.profiles.FrozenProfile`,
``PackedView``) lazily caches a ``_nd`` tuple::

    (is_binary, liked_ptr, n_liked, rated_ptr, n_rated, scores_ptr, norm)

where the ``*_ptr`` fields are the **raw base addresses** of the packed
``uint64``/``float64`` arrays (``ndarray.ctypes.data``).  The C side
decodes the tuple (``parse_nd``) and walks the arrays directly.  Two
rules make this sound:

* **Lifetime** — a descriptor is valid only while its owning pack object
  keeps the arrays alive, which the pack guarantees by construction for
  its whole lifetime (the arrays are immutable-by-convention; any
  mutation produces a *new* pack and a new descriptor).
* **Process-locality** — raw addresses never survive a process boundary.
  The pickle layer (``__getstate__``) nulls ``_nd`` on every pack class,
  and the kernels refill it via the object's ``_pack()`` on first native
  contact in the receiving process.  The same rule covers the address
  caches on :class:`~repro.gossip.views.ArrayView`.

The address contract (state kernels)
------------------------------------

The ``state_*`` bookkeeping kernels take the view's column-block base
address and payload-column base address as **plain integers** cached on
the view (no per-call ``from_buffer`` marshaling; the first-cut design
that marshalled buffers per call measured *slower* than the numpy tier).
The addresses are refreshed whenever the block is reallocated — including
:meth:`~repro.gossip.views.ArrayView.rehome`, which moves the block into
a ``multiprocessing.shared_memory`` arena under the sharded engine.  A
mapped address is an address: the kernels are agnostic to whether the
memory is private or shared (asserted by the shm parity tests in
``tests/test_sharding.py``).

GIL notes
---------

cffi releases the GIL around extension calls, but every kernel that
touches a ``PyObject`` — the candidate-list scoring loops, and the state
kernels that move payload references with refcounting (``state_upsert``,
``state_select``, ``state_trim_drop``) — re-acquires it via
``PyGILState_Ensure`` for exactly the object-touching region.  The
purely numeric kernels (``rank_topk``, ``state_oldest``,
``state_find``, ``state_ship``) run GIL-free.  Shard workers are
separate processes with separate interpreters, so the GIL never couples
shards; no kernel ever blocks while holding it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.gates import env_flag

__all__ = [
    "NativeKernel",
    "load",
    "ensure_built",
    "native_available",
    "native_kernel_enabled",
    "set_native_kernel",
    "native_kernel",
    "kernel",
]


class NativeKernel:
    """Thin marshaling wrapper around the compiled cffi module.

    All entry points take C-contiguous numpy arrays (``uint64`` ids,
    ``int64`` offsets/keys, ``float64`` scores) and return fresh numpy
    arrays; zero-copy ``from_buffer`` views are passed to C, so no array
    contents are ever copied for a call.
    """

    __slots__ = ("ffi", "lib")

    def __init__(self, module) -> None:
        self.ffi = module.ffi
        self.lib = module.lib

    # -- buffer helpers ----------------------------------------------------

    def _i64(self, arr: np.ndarray):
        if arr.size == 0:
            return self.ffi.NULL
        return self.ffi.from_buffer("int64_t[]", arr)

    def _f64(self, arr: np.ndarray):
        if arr.size == 0:
            return self.ffi.NULL
        return self.ffi.from_buffer("double[]", arr)

    # -- object-walking kernels --------------------------------------------

    def score_profiles(
        self, owner, profiles: list, code: int
    ) -> np.ndarray | None:
        """Scores of a pool (a *list* of profile-likes) against *owner*.

        ``code`` is a metric/orientation code from the table in
        :mod:`repro._native.build_native`.  Returns ``None`` when any pool
        member cannot take the native path (missing packed descriptor,
        non-binary profile under a binary fast-path code) — the caller
        falls back to the set-algebra / scalar tier.

        The objects are walked inside C while the GIL is held; ``id()``
        hands over borrowed pointers to objects the caller keeps alive for
        the duration of the call.
        """
        k = len(profiles)
        out = np.empty(k, dtype=np.float64)
        if k == 0:
            return out
        rc = self.lib.whatsup_score_profiles(
            id(owner), id(profiles), code, self._f64(out)
        )
        return out if rc >= 0 else None

    def merge_rank(
        self, owner, entries: list, code: int, capacity: int
    ) -> np.ndarray | None:
        """The fused Vicinity merge inner loop: score + ranked trim.

        Scores every :class:`~repro.gossip.views.ViewEntry` in *entries*
        against *owner* and returns the indices of the top-*capacity*
        entries in descending ``(score, timestamp, -node_id)`` order — the
        exact total order (and hence kept set *and* kept dict order) of
        the Python trim.  ``None`` → caller falls back.
        """
        k = len(entries)
        out = np.empty(min(int(capacity), k), dtype=np.int64)
        if k == 0:
            return out
        kept = self.lib.whatsup_merge_rank(
            id(owner), id(entries), code, capacity, self._i64(out)
        )
        if kept < 0:
            return None
        return out[:kept]

    def item_argmax(
        self, item, profiles: list, code: int
    ) -> np.ndarray | None:
        """Fused dislike orientation: tie indices of the best chooser.

        Scores *item* (real-valued profile, candidate side) against the
        binary chooser pool and returns the ascending indices tied for the
        maximum — the same tie set ``flatnonzero(scores == scores.max())``
        yields, so the caller's uniform tie-break consumes identical RNG
        draws.  ``None`` → caller falls back.
        """
        k = len(profiles)
        out = np.empty(k, dtype=np.int64)
        if k == 0:
            return out
        n = self.lib.whatsup_item_argmax(
            id(item), id(profiles), code, self._i64(out)
        )
        if n < 0:
            return None
        return out[:n]

    # -- array-based selection kernel --------------------------------------

    def rank_topk(
        self,
        scores: np.ndarray,
        timestamps: np.ndarray,
        node_ids: np.ndarray,
        capacity: int,
    ) -> np.ndarray | None:
        """Indices of the top-*capacity* rows in descending
        ``(score, timestamp, -node_id)`` order, or ``None`` on failure."""
        k = scores.size
        out = np.empty(min(capacity, k), dtype=np.int64)
        kept = self.lib.whatsup_rank_topk(
            self._f64(scores),
            self._i64(timestamps),
            self._i64(node_ids),
            k,
            capacity,
            self._i64(out),
        )
        if kept < 0:
            return None  # pragma: no cover - malloc failure
        return out[:kept]

    # -- array-state plane kernels (ArrayView bookkeeping) -----------------
    #
    # These take cached integer addresses of the view's column block and
    # payload-reference array (the view keeps the backing numpy arrays
    # alive and refreshes the addresses on reallocation), so a call
    # marshals nothing — not even a from_buffer view.

    def state_oldest(self, cols_addr: int, stride: int, n: int) -> int:
        """Slot of the smallest ``(timestamp, node_id)`` key, or ``-1``."""
        return int(self.lib.whatsup_state_oldest(cols_addr, stride, n))

    def state_find(self, cols_addr: int, stride: int, n: int, nid: int) -> int:
        """Slot holding node id *nid*, or ``-1``."""
        return int(self.lib.whatsup_state_find(cols_addr, stride, n, nid))

    def state_upsert(
        self,
        cols_addr: int,
        stride: int,
        pobj_addr: int,
        n: int,
        alloc: int,
        inc: np.ndarray,
        inc_stride: int,
        inc_n: int,
        entries,
        owner: int,
    ) -> tuple[int, int]:
        """Freshest-wins columnar-shipment merge (``upsert_all`` in C).

        Mutates the view's columns and payload references in place;
        *entries* (a tuple/list aligned with the incoming columns) is
        kept alive by this frame for the duration of the call.  Returns
        ``(new_n, applied_count)``; raises on an allocation overrun —
        callers reserve capacity first, so that is a broken invariant,
        not a fallback case.
        """
        rc = int(
            self.lib.whatsup_state_upsert(
                cols_addr,
                stride,
                pobj_addr,
                n,
                alloc,
                self._i64(inc),
                inc_stride,
                inc_n,
                id(entries),
                owner,
            )
        )
        if rc < 0:
            raise RuntimeError(
                "state_upsert: entries shorter than the shipped columns, "
                "or reserved-column overrun"
            )
        return rc >> 32, rc & 0xFFFFFFFF

    def state_select(
        self,
        cols_addr: int,
        stride: int,
        pobj_addr: int,
        n: int,
        sel: np.ndarray,
        k: int,
    ) -> bool:
        """Keep exactly the slots in *sel* (any order), in ``sel`` order.

        Returns ``False`` on scratch-allocation failure (caller falls
        back to the numpy gather — same result).
        """
        rc = self.lib.whatsup_state_select(
            cols_addr, stride, pobj_addr, n, self._i64(sel), k
        )
        return rc >= 0

    def state_trim_drop(
        self,
        cols_addr: int,
        stride: int,
        pobj_addr: int,
        n: int,
        drop: np.ndarray,
        k_drop: int,
    ) -> int:
        """Compact away the slots in *drop*; returns the new count or -1."""
        return int(
            self.lib.whatsup_state_trim_drop(
                cols_addr, stride, pobj_addr, n, self._i64(drop), k_drop
            )
        )

    def state_ship(
        self,
        cols_addr: int,
        stride: int,
        sel: "np.ndarray | None",
        k: int,
        excl_slot: int,
        own_id: int,
        own_ts: int,
        own_wire: int,
        out: np.ndarray,
    ) -> int:
        """Assemble a shipment block into *out*; returns its wire total.

        With *sel* the candidate indices are bumped past *excl_slot* in
        place (the caller reuses them to gather payload references); with
        ``sel=None`` every slot but *excl_slot* ships.  ``-1`` → some
        descriptor was unmemoised; the caller prices by walking.
        """
        return int(
            self.lib.whatsup_state_ship(
                cols_addr,
                stride,
                self.ffi.NULL if sel is None else self._i64(sel),
                k,
                excl_slot,
                own_id,
                own_ts,
                own_wire,
                self._i64(out),
            )
        )


#: memoised load result: unset / NativeKernel / None (= unavailable)
_UNSET = object()
_loaded: object = _UNSET


def load() -> NativeKernel | None:
    """The wrapped compiled module, or ``None`` when it is not built."""
    global _loaded
    if _loaded is _UNSET:
        try:
            from repro._native import _kernels  # type: ignore[attr-defined]
        except ImportError:
            _loaded = None
        else:
            _loaded = NativeKernel(_kernels)
    return _loaded  # type: ignore[return-value]


def ensure_built(verbose: bool = False) -> NativeKernel | None:
    """Load the extension, building it in place first if necessary.

    Requires cffi and a C toolchain; returns ``None`` (never raises) when
    either is missing, leaving the Python tiers in charge.
    """
    global _loaded
    kernel_mod = load()
    if kernel_mod is not None:
        return kernel_mod
    try:
        from repro._native.build_native import build_inplace
    except ImportError:
        return None
    if build_inplace(verbose=verbose) is None:
        return None
    _loaded = _UNSET
    return load()


def native_available() -> bool:
    """Whether the compiled extension is importable."""
    return load() is not None


#: the user-facing gate: ``REPRO_NATIVE=0`` disables the native tier even
#: when the extension is built; the tier is also auto-disabled (regardless
#: of this flag) whenever the extension is absent
_native_enabled = env_flag("REPRO_NATIVE")


def native_kernel_enabled() -> bool:
    """Whether the native tier is active (gate on *and* extension built)."""
    return _native_enabled and load() is not None


def set_native_kernel(enabled: bool) -> bool:
    """Set the native-tier gate; returns the previous gate value.

    Enabling the gate on a tree without the compiled extension is a no-op
    in effect: :func:`native_kernel_enabled` stays ``False`` until the
    extension is built (graceful degradation, not an error).
    """
    global _native_enabled
    previous = _native_enabled
    _native_enabled = bool(enabled)
    return previous


@contextmanager
def native_kernel(enabled: bool):
    """Context manager pinning the native gate, restoring it on exit.

    The restore-guarded form of :func:`set_native_kernel` — tests and
    benchmarks use this so a failure inside the block cannot leak the
    setting into unrelated code.
    """
    previous = set_native_kernel(enabled)
    try:
        yield
    finally:
        set_native_kernel(previous)


def kernel() -> NativeKernel | None:
    """The hot-path accessor: the kernel when the native tier is active.

    Returns ``None`` when the gate is off or the extension is missing, so
    call sites dispatch with one cheap truthiness check.
    """
    if not _native_enabled:
        return None
    return load()
