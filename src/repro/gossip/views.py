"""Bounded peer views for gossip protocols (paper Section II).

Each protocol at each node maintains a *view*: a bounded data structure of
entries, one per known peer, where every entry carries

* the peer's network address (modelled; used only for wire-size accounting),
* the peer's node identifier,
* the peer's interest profile (a :class:`~repro.core.profiles.FrozenProfile`
  snapshot taken when the peer last gossiped), and
* a timestamp recording when the peer generated that information.

Both the RPS and the clustering protocol periodically contact the entry with
the **oldest** timestamp — the paper follows Jelasity et al.'s tail-based
peer selection, which actively refreshes the stalest information and evicts
dead peers.
"""

from __future__ import annotations

import heapq
from contextlib import suppress
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from repro._native import kernel as _native
from repro.core.gates import fast_mode
from repro.core.profiles import FrozenProfile
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ViewEntry",
    "View",
    "ArrayView",
    "array_views",
    "make_view",
    "descriptor_wire_size",
    "shipment_wire_size",
]

#: Modelled wire size of an entry's fixed fields: IPv4 address (4) + node id
#: (8) + timestamp (8).
_ENTRY_FIXED_BYTES = 4 + 8 + 8

#: Native ranked-trim crossover: below this many candidate rows the Python
#: tuple sort beats the kernel call's array-marshaling overhead.
_NATIVE_TRIM_MIN_ROWS = 16

#: Gossiped profiles travel as compact set digests, not as full triplet
#: lists: the similarity metrics only need the liked/rated *sets*, so a
#: production implementation ships two Bloom filters at ~10 bits per entry
#: (1.25 B) plus a 16-byte filter header.  This keeps WUP's view-management
#: bandwidth in the paper's "about 4 Kbps" regime (Section V-F) instead of
#: ballooning with the profile window.
_PROFILE_DIGEST_HEADER_BYTES = 16
_PROFILE_DIGEST_BYTES_PER_ENTRY = 1.25


def shipment_wire_size(entries: Iterable[ViewEntry]) -> int:
    """Total modelled size of shipped descriptors, in bytes.

    The hoisted form of ``sum(descriptor_wire_size(e) for e in entries)``:
    gossip messages measure their payload once per transmission, and at
    paper scale that sum runs over ~10⁵ descriptors per cycle — reading
    the memo slot inline skips a Python call per descriptor.
    """
    total = 0
    for e in entries:
        size = getattr(e[2], "wire_cache", None)  # e[2] = entry.profile
        if size is None:
            size = descriptor_wire_size(e)
        total += size
    return total


def descriptor_wire_size(entry: "ViewEntry") -> int:
    """Modelled serialized size of one view entry, in bytes.

    The size depends only on the (immutable) profile snapshot, so it is
    memoised on the snapshot — descriptors are re-shipped every cycle but
    re-measured once.  ``ceil(1.25 * n)`` is computed in integer arithmetic.
    """
    profile = entry.profile
    size = getattr(profile, "wire_cache", None)
    if size is None:
        size = (
            _ENTRY_FIXED_BYTES
            + _PROFILE_DIGEST_HEADER_BYTES
            + (5 * len(profile) + 3) // 4
        )
        with suppress(AttributeError):
            # mutable / foreign profile-likes: recompute per call
            profile.wire_cache = size
    return size


class ViewEntry(NamedTuple):
    """One peer descriptor inside a view.

    A NamedTuple: descriptors are constructed per shipment and their fields
    read per merged candidate on the gossip hot path, where C-level tuple
    construction and access beat a (frozen) dataclass measurably.

    Attributes
    ----------
    node_id:
        The peer's identifier.
    address:
        The peer's (modelled) network address.
    profile:
        Immutable snapshot of the peer's user profile at *timestamp*.
    timestamp:
        Cycle at which the peer generated this descriptor.  Fresher
        descriptors for the same peer always win during merges.
    """

    node_id: int
    address: str
    profile: FrozenProfile
    timestamp: int

    def aged_copy(self, timestamp: int) -> "ViewEntry":
        """Return the same descriptor with a rewritten timestamp."""
        return self._replace(timestamp=timestamp)


class View:
    """A bounded, per-peer-deduplicated set of :class:`ViewEntry`.

    Parameters
    ----------
    capacity:
        Maximum number of entries (the paper's ``RPSvs`` / ``WUPvs``).
    owner_id:
        The owning node's id; descriptors for the owner are never stored
        (a node does not keep itself in its own view).
    """

    __slots__ = (
        "capacity",
        "owner_id",
        "_entries",
        "_mutations",
        "_list_cache",
        "_list_tag",
    )

    def __init__(self, capacity: int, owner_id: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"view capacity must be > 0, got {capacity}")
        self.capacity = int(capacity)
        self.owner_id = int(owner_id)
        self._entries: dict[int, ViewEntry] = {}
        self._mutations: int = 0
        #: entry-list memo, keyed by the mutation counter: the list is
        #: rebuilt at most once per content change however many times the
        #: gossip layer reads it within an exchange
        self._list_cache: list[ViewEntry] = []
        self._list_tag: int = -1

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __iter__(self) -> Iterator[ViewEntry]:
        return iter(self._entries.values())

    def _entry_list(self) -> list[ViewEntry]:
        """The memoised entry list (shared — callers must not mutate)."""
        if self._list_tag != self._mutations:
            self._list_cache = list(self._entries.values())
            self._list_tag = self._mutations
        return self._list_cache

    def entries(self) -> list[ViewEntry]:
        """All entries (insertion order; do not rely on ordering)."""
        return list(self._entry_list())

    def entries_except(self, exclude: int) -> list[ViewEntry]:
        """All entries but the one for *exclude* (single pass).

        Gossip shipments exclude the partner's own descriptor; this avoids
        materialising the full :meth:`entries` list first.
        """
        entries = self._entry_list()
        if exclude not in self._entries:
            return list(entries)
        return [e for e in entries if e.node_id != exclude]

    def node_ids(self) -> list[int]:
        """Identifiers of all peers currently in the view."""
        return list(self._entries.keys())

    def profiles(self) -> list:
        """The stored peers' profile snapshots, in entry order.

        The facade accessor consumers (BEEP's orientation pool, the
        cold-start popularity scan) use instead of reaching into entry
        internals — it survives any storage-backend swap.
        """
        return [e[2] for e in self._entry_list()]

    def get(self, node_id: int) -> ViewEntry | None:
        """The entry for *node_id*, or ``None``."""
        return self._entries.get(node_id)

    @property
    def mutation_count(self) -> int:
        """Counter bumped on every content change (cache invalidation tag)."""
        return self._mutations

    #: (timestamp, node_id) sort key for :meth:`oldest` — a C-level
    #: itemgetter over the NamedTuple fields keeps the per-cycle partner
    #: selection off the Python bytecode loop (it runs twice per node per
    #: cycle; field indices follow :class:`ViewEntry`)
    _OLDEST_KEY = itemgetter(3, 0)

    def oldest(self) -> ViewEntry | None:
        """The entry with the smallest timestamp (gossip target selection).

        Ties are broken by node id so behaviour is deterministic under a
        fixed seed.
        """
        if not self._entries:
            return None
        return min(self._entries.values(), key=View._OLDEST_KEY)

    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    # -- mutation ---------------------------------------------------------

    def upsert(self, entry: ViewEntry) -> None:
        """Insert *entry*, keeping the freshest descriptor per peer.

        Ignores descriptors of the owner.  May grow the view beyond capacity;
        callers must follow with :meth:`trim_random` or :meth:`trim_ranked`.
        """
        if entry.node_id == self.owner_id:
            return
        current = self._entries.get(entry.node_id)
        if current is None or entry.timestamp >= current.timestamp:
            self._entries[entry.node_id] = entry
            self._mutations += 1

    def upsert_columns(
        self,
        entries: "tuple[ViewEntry, ...] | list[ViewEntry]",
        cols: "object | None" = None,
    ) -> None:
        """Merge a shipment; the dict backend ignores shipped columns.

        The facade twin of :meth:`ArrayView.upsert_columns`: callers hand
        over whatever the message carried and each backend consumes what
        it can use.
        """
        self.upsert_all(entries)

    def entries_with_columns(self):
        """``(entries, None)`` — the dict backend has no columns."""
        return self._entry_list(), None

    def upsert_all(self, entries: Iterable[ViewEntry]) -> None:
        """Bulk :meth:`upsert` (inlined: this runs per merged descriptor).

        Fields are read by tuple index (``entry[0]`` = node id, ``entry[3]``
        = timestamp): C-level indexing on the hottest loop of the gossip
        layer, where every merged descriptor passes through.
        """
        stored = self._entries
        owner = self.owner_id
        get = stored.get
        changed = 0
        for entry in entries:
            nid = entry[0]
            if nid == owner:
                continue
            current = get(nid)
            if current is None or entry[3] >= current[3]:
                stored[nid] = entry
                changed += 1
        if changed:
            self._mutations += changed

    def remove(self, node_id: int) -> None:
        """Drop the entry for *node_id* (no-op if absent)."""
        if self._entries.pop(node_id, None) is not None:
            self._mutations += 1

    def evict_older_than(self, cutoff: int) -> int:
        """Drop entries with ``timestamp < cutoff`` (churn healing).

        Returns the number of entries evicted.
        """
        stale = [nid for nid, e in self._entries.items() if e.timestamp < cutoff]
        for nid in stale:
            del self._entries[nid]
        if stale:
            self._mutations += 1
        return len(stale)

    def trim_random(self, rng: np.random.Generator) -> None:
        """Shrink to capacity by keeping a uniform random sample.

        This is the RPS merge rule: "the receiving node renews its view by
        keeping a random sample of the union of its own view and the
        received one" (Section II).
        """
        excess = len(self._entries) - self.capacity
        if excess <= 0:
            return
        ids = list(self._entries.keys())
        # permutation prefix = uniform sample without replacement, cheaper
        # than Generator.choice for the small sizes views work at
        drop = rng.permutation(len(ids))[:excess].tolist()
        for idx in drop:
            del self._entries[ids[idx]]
        self._mutations += 1

    def trim_ranked(
        self,
        key: "Callable[[ViewEntry], float] | None" = None,
        *,
        scores: "Mapping[int, float] | None" = None,
        default: float = 0.0,
    ) -> None:
        """Shrink to capacity keeping the entries with the **highest** score.

        This is the clustering merge rule: keep the candidates whose profiles
        are closest to the owner's.  Ties are broken by descriptor freshness
        then node id for determinism.

        Parameters
        ----------
        key:
            Maps a :class:`ViewEntry` to a sortable score (scalar path).
        scores:
            Precomputed ``node_id -> score`` mapping (batch path); entries
            missing from the mapping score *default*.  Exactly one of *key*
            and *scores* must be given.

        Only the top ``capacity`` entries are selected (``heapq.nlargest``),
        avoiding a full sort of the merge's candidate pool.
        """
        if (key is None) == (scores is None):
            raise ConfigurationError(
                "trim_ranked needs exactly one of `key` and `scores`"
            )
        if len(self._entries) <= self.capacity:
            return
        if scores is not None:
            # delegate to the aligned fast path — one ranking implementation
            get = scores.get
            entries = list(self._entries.values())
            self.trim_ranked_aligned(
                entries, [get(e.node_id, default) for e in entries]
            )
            return

        def rank(e: ViewEntry):
            return (key(e), e.timestamp, -e.node_id)

        keep = heapq.nlargest(self.capacity, self._entries.values(), key=rank)
        self._entries = {e.node_id: e for e in keep}
        self._mutations += 1

    def keep_ranked(
        self, entries: "list[ViewEntry]", indices: "np.ndarray"
    ) -> None:
        """Replace the view's contents with a ranked selection.

        *entries* is the snapshot the caller just scored and *indices* the
        kept entry indices **in rank order** (best first) — the output of
        the native ``merge_rank`` kernel.  The rebuilt dict's insertion
        order matches :meth:`trim_ranked_aligned`'s exactly, which keeps
        every downstream iteration (sampling, shipping) and hence RNG
        consumption identical.
        """
        self._entries = {
            entries[i][0]: entries[i] for i in indices.tolist()
        }
        self._mutations += 1

    def trim_ranked_aligned(
        self, entries: "list[ViewEntry]", scores: "list[float]"
    ) -> None:
        """Ranked trim from scores aligned with an :meth:`entries` snapshot.

        The fast path behind :meth:`trim_ranked`'s mapping form: *entries*
        must be the snapshot the caller just scored (``self.entries()``
        taken after its last mutation) and *scores* its aligned scores.
        One pass builds ``(score, timestamp, -node_id, index)`` rows and a
        C-level tuple sort selects the top ``capacity`` — the same total
        order as :meth:`trim_ranked` without a key call per candidate.
        (``numpy.lexsort`` and ``heapq.nlargest`` formulations were both
        measured and rejected: slower at the merge pool sizes the
        protocols produce, ~40-70 candidates.)
        """
        k = len(entries)
        if k <= self.capacity:
            return
        rows = sorted(
            (
                (scores[i], e[3], -e[0], i)
                for i, e in enumerate(entries)
            ),
            reverse=True,
        )
        self._entries = {
            entries[row[3]][0]: entries[row[3]]
            for row in rows[: self.capacity]
        }
        self._mutations += 1

    def sample(self, k: int, rng: np.random.Generator) -> list[ViewEntry]:
        """Uniform sample (without replacement) of ``min(k, len)`` entries."""
        entries = self._entry_list()
        if k >= len(entries):
            return list(entries)
        idx = rng.permutation(len(entries))[:k].tolist()
        return [entries[i] for i in idx]

    def wire_size(self) -> int:
        """Modelled serialized size of the whole view, in bytes."""
        return shipment_wire_size(self._entries.values())

    def storage_nbytes(self) -> int:
        """In-memory footprint of the view's own containers, in bytes.

        Counts the storage this backend owns (dict + list memo), not the
        shared :class:`ViewEntry`/profile objects — the facade accessor
        the memory benchmarks use on either backend.
        """
        import sys

        return sys.getsizeof(self._entries) + sys.getsizeof(self._list_cache)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"View(owner={self.owner_id}, size={len(self)}/{self.capacity})"
        )


class ArrayView:
    """Array-backed view storage behind the :class:`View` facade.

    The columnar twin of :class:`View`.  Entries live in one preallocated
    state block per view:

    * ``_cols`` — a ``(3, alloc)`` ``int64`` block whose rows are the
      node-id, timestamp and wire-size columns (``_ids``/``_ts``/``_wire``
      are row views into it);
    * ``_pobj`` — the payload-reference column: a numpy *object* array
      holding the :class:`ViewEntry` objects, slot-aligned with the
      columns.

    The base addresses of both are cached on the view (refreshed on
    reallocation), so the native bookkeeping kernels
    (:meth:`~repro._native.NativeKernel.state_upsert`,
    ``state_select``, ``state_oldest``) receive plain integers and walk
    the columns — including moving the payload references — entirely in
    C, with no per-call buffer marshaling and no per-entry field reads.

    Slot order replicates dict insertion-order semantics exactly —
    replacement keeps the slot, insertion appends, deletion compacts
    preserving relative order — and every method draws RNG exactly as its
    :class:`View` counterpart, so a fixed-seed run is **bitwise
    identical** under either backend (``tests/test_pipeline_grid.py``
    enforces this end to end).

    Node ids and timestamps must fit ``int64`` (every simulation id is a
    small int; exotic keys belong on the dict backend).

    Columnar shipments are described by a ``(ref, stride, count)`` tuple
    — the backing ``(3, stride)`` array (kept alive by the tuple), its
    row stride and the number of shipped rows — produced by
    :meth:`ship_selected` / :meth:`ship_all_except` /
    :meth:`entries_with_columns` and consumed by :meth:`upsert_columns`.
    """

    __slots__ = (
        "capacity",
        "owner_id",
        "_n",
        "_alloc",
        "_cols",
        "_ids",
        "_ts",
        "_wire",
        "_pobj",
        "_cols_addr",
        "_pobj_addr",
        "_index",
        "_index_tag",
        "_mutations",
    )

    def __init__(self, capacity: int, owner_id: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"view capacity must be > 0, got {capacity}")
        self.capacity = int(capacity)
        self.owner_id = int(owner_id)
        self._n = 0
        self._mutations = 0
        #: id -> slot map, rebuilt lazily when a lookup finds it stale
        self._index: dict[int, int] = {}
        self._index_tag: int = -1
        self._allocate(max(self.capacity + 8, 16))

    # -- internals --------------------------------------------------------

    def _allocate(self, alloc: int) -> None:
        """(Re)allocate the state block, carrying the live slots over."""
        cols = np.empty((3, alloc), dtype=np.int64)
        pobj = np.empty(alloc, dtype=object)
        n = self._n
        if n:
            cols[:, :n] = self._cols[:, :n]
            pobj[:n] = self._pobj[:n]
        self._cols = cols
        self._pobj = pobj
        self._ids = cols[0]
        self._ts = cols[1]
        self._wire = cols[2]
        self._alloc = alloc
        self._cols_addr = cols.ctypes.data
        self._pobj_addr = pobj.ctypes.data

    def _reserve(self, extra: int) -> None:
        """Grow the state block so ``extra`` appends cannot overrun it."""
        need = self._n + extra
        if need > self._alloc:
            self._allocate(max(self._alloc * 2, need))

    def _ensure_index(self) -> dict[int, int]:
        """The id→slot map, rebuilt only when a mutation left it stale."""
        if self._index_tag != self._mutations:
            self._index = {
                nid: i for i, nid in enumerate(self._ids[: self._n].tolist())
            }
            self._index_tag = self._mutations
        return self._index

    @staticmethod
    def _wire_of(entry: ViewEntry) -> int:
        """Memoised descriptor wire size, or ``-1`` when not memoisable."""
        profile = entry[2]
        size = getattr(profile, "wire_cache", None)
        if size is not None:
            return size
        size = descriptor_wire_size(entry)
        # mutable / foreign profile-likes take no memo: store a sentinel so
        # wire sums recompute them per call, like the dict backend's walk
        if getattr(profile, "wire_cache", None) is None:
            return -1
        return size

    def _select(self, sel: np.ndarray) -> None:
        """Keep exactly the slots in *sel* (any order), in ``sel`` order.

        The shared backend of compaction and ranked reordering: one
        ``state_select`` kernel call, or the equivalent numpy gather.
        """
        k = sel.size
        n = self._n
        nk = _native()
        if nk is None or not nk.state_select(
            self._cols_addr, self._alloc, self._pobj_addr, n, sel, k
        ):
            self._cols[:, :k] = self._cols[:, :n][:, sel]
            self._pobj[:k] = self._pobj[:n][sel]
            self._pobj[k:n] = None
        self._n = k
        self._mutations += 1

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._ensure_index()

    def __iter__(self) -> Iterator[ViewEntry]:
        return iter(self._pobj[: self._n].tolist())

    def entries(self) -> list[ViewEntry]:
        """All entries (insertion order; do not rely on ordering)."""
        return self._pobj[: self._n].tolist()

    def entries_except(self, exclude: int) -> list[ViewEntry]:
        """All entries but the one for *exclude* (single column scan)."""
        n = self._n
        hits = np.nonzero(self._ids[:n] == exclude)[0]
        pobj = self._pobj
        if hits.size == 0:
            return pobj[:n].tolist()
        s = int(hits[0])
        return pobj[:s].tolist() + pobj[s + 1 : n].tolist()

    def profiles(self) -> list:
        """The stored peers' profile snapshots, in slot order."""
        return [e[2] for e in self._pobj[: self._n].tolist()]

    def node_ids(self) -> list[int]:
        """Identifiers of all peers currently in the view."""
        return self._ids[: self._n].tolist()

    def get(self, node_id: int) -> ViewEntry | None:
        """The entry for *node_id*, or ``None``."""
        slot = self._ensure_index().get(node_id)
        return None if slot is None else self._pobj[slot]

    @property
    def mutation_count(self) -> int:
        """Counter bumped on every content change (cache invalidation tag)."""
        return self._mutations

    def oldest(self) -> ViewEntry | None:
        """The entry with the smallest ``(timestamp, node_id)`` key.

        The native tier resolves the tail selection in one pass over the
        columns; the numpy fallback takes a min + tie-scan.  Both produce
        the same slot as :class:`View`'s ``min(entries, key=(ts, nid))``.
        """
        n = self._n
        if n == 0:
            return None
        nk = _native()
        if nk is not None:
            slot = nk.state_oldest(self._cols_addr, self._alloc, n)
            if slot >= 0:
                return self._pobj[slot]
        ts = self._ts[:n]
        tied = np.nonzero(ts == ts.min())[0]
        if tied.size == 1:
            return self._pobj[int(tied[0])]
        return self._pobj[int(tied[int(self._ids[tied].argmin())])]

    def is_full(self) -> bool:
        return self._n >= self.capacity

    # -- shipping ---------------------------------------------------------

    def shipment_candidates(self, exclude: int) -> tuple[int, int]:
        """``(candidate_count, exclude_slot)`` without materialising lists.

        *candidate_count* is ``len(entries_except(exclude))`` — what the
        shipment sampler draws over; *exclude_slot* is the excluded
        entry's slot, or ``-1`` when absent.
        """
        n = self._n
        nk = _native()
        if nk is not None:
            slot = nk.state_find(self._cols_addr, self._alloc, n, exclude)
            return (n if slot < 0 else n - 1), slot
        hits = np.nonzero(self._ids[:n] == exclude)[0]
        if hits.size == 0:
            return n, -1
        return n - 1, int(hits[0])

    def ship_selected(
        self,
        sel: "np.ndarray | None",
        excl_slot: int,
        own_entry: ViewEntry,
        own_id: int,
        own_ts: int,
    ) -> tuple:
        """Build a columnar shipment from sampled candidate indices.

        *sel* (``int64``, mutated in place) indexes the candidate order
        of :meth:`shipment_candidates` — slot order minus the excluded
        slot; ``None`` ships the own descriptor alone.  Returns
        ``(shipped_entries, cols, wire)`` — the payload list for the
        message, the shipment's ``(ref, stride, count)`` column block
        (own descriptor row first), and its total modelled wire size
        (``None`` when a descriptor was not memoisable).  Off the native
        tier the columns are skipped entirely — the receiver's merge
        would not consume them.
        """
        nk = _native()
        own_wire = self._wire_of(own_entry)
        k = 0 if sel is None else sel.size
        if nk is None:
            if k:
                if excl_slot >= 0:
                    sel = sel + (sel >= excl_slot)
                pobj = self._pobj
                shipped = [pobj[i] for i in sel.tolist()]
            else:
                shipped = []
            return shipped, None, None
        out = np.empty((3, k + 1), dtype=np.int64)
        if k:
            total = nk.state_ship(
                self._cols_addr,
                self._alloc,
                sel,
                k,
                excl_slot,
                own_id,
                own_ts,
                own_wire,
                out,
            )
            shipped = self._pobj[sel].tolist()  # sel was bumped in place
        else:
            out[0, 0] = own_id
            out[1, 0] = own_ts
            out[2, 0] = own_wire
            total = own_wire
            shipped = []
        wire = 1 + total if total >= 0 else None
        return shipped, (out, k + 1, k + 1), wire

    def ship_all_except(
        self,
        exclude: int,
        own_entry: ViewEntry,
        own_id: int,
        own_ts: int,
    ) -> tuple:
        """Build a columnar shipment of the whole view but *exclude*.

        Same return shape as :meth:`ship_selected`.
        """
        n = self._n
        nk = _native()
        own_wire = self._wire_of(own_entry)
        pobj = self._pobj
        if nk is None:
            return self.entries_except(exclude), None, None
        s = nk.state_find(self._cols_addr, self._alloc, n, exclude)
        k = n if s < 0 else n - 1
        out = np.empty((3, k + 1), dtype=np.int64)
        total = nk.state_ship(
            self._cols_addr,
            self._alloc,
            None,
            k,
            s,
            own_id,
            own_ts,
            own_wire,
            out,
        )
        if s < 0:
            shipped = pobj[:n].tolist()
        else:
            shipped = pobj[:s].tolist() + pobj[s + 1 : n].tolist()
        wire = 1 + total if total >= 0 else None
        return shipped, (out, k + 1, k + 1), wire

    def entries_with_columns(self) -> tuple:
        """The entry list plus this view's live column block descriptor.

        For synchronous hand-off into another view's
        :meth:`upsert_columns` (the Vicinity merge folds the local RPS
        view in) — callers must consume the result before this view
        mutates again.
        """
        n = self._n
        return (
            self._pobj[:n].tolist(),
            (self._cols, self._alloc, n),
        )

    # -- mutation ---------------------------------------------------------

    def upsert(self, entry: ViewEntry) -> None:
        """Insert *entry*, keeping the freshest descriptor per peer."""
        nid = entry[0]
        if nid == self.owner_id:
            return
        index = self._ensure_index()
        slot = index.get(nid)
        if slot is None:
            self._reserve(1)
            slot = self._n
            self._ids[slot] = nid
            self._ts[slot] = entry[3]
            self._wire[slot] = self._wire_of(entry)
            self._pobj[slot] = entry
            index[nid] = slot
            self._n = slot + 1
        elif entry[3] >= self._ts[slot]:
            self._ts[slot] = entry[3]
            self._wire[slot] = self._wire_of(entry)
            self._pobj[slot] = entry
        else:
            return
        self._mutations += 1
        self._index_tag = self._mutations  # index kept coherent in place

    def upsert_columns(
        self,
        entries: "tuple[ViewEntry, ...] | list[ViewEntry]",
        cols: "tuple | None",
    ) -> None:
        """Merge a *columnar shipment*: entries plus their shipped columns.

        With columns and the native tier, the whole freshest-wins merge —
        id lookups, timestamp compares, wire accounting, payload-reference
        moves — runs in one ``state_upsert`` kernel call with zero
        marshaling.  Without columns (or off the native tier) this is
        exactly :meth:`upsert_all`; both apply identical replacements in
        identical order.
        """
        nk = _native()
        if cols is None or nk is None or not isinstance(entries, (tuple, list)):
            self.upsert_all(entries)
            return
        inc, stride, count = cols
        if count == 0:
            return
        self._reserve(count)
        new_n, applied = nk.state_upsert(
            self._cols_addr,
            self._alloc,
            self._pobj_addr,
            self._n,
            self._alloc,
            inc,
            stride,
            count,
            entries,
            self.owner_id,
        )
        self._n = new_n
        if applied:
            self._mutations += applied

    def upsert_all(self, entries: Iterable[ViewEntry]) -> None:
        """Bulk :meth:`upsert` — the same sequential freshest-wins loop
        as the dict backend, applied to the columns, so both backends make
        identical replacements in identical order.  Columnar shipments
        take :meth:`upsert_columns` instead, which runs the loop in C.
        """
        if not isinstance(entries, (list, tuple)):
            entries = list(entries)
        n_inc = len(entries)
        if n_inc == 0:
            return
        index = self._ensure_index()
        self._reserve(n_inc)
        ids = self._ids
        ts = self._ts
        wire = self._wire
        pobj = self._pobj
        wire_of = self._wire_of
        owner = self.owner_id
        get = index.get
        n = self._n
        changed = 0
        for e in entries:
            nid = e[0]
            if nid == owner:
                continue
            slot = get(nid)
            if slot is None:
                ids[n] = nid
                ts[n] = e[3]
                wire[n] = wire_of(e)
                pobj[n] = e
                index[nid] = n
                n += 1
            elif e[3] >= ts[slot]:
                ts[slot] = e[3]
                wire[slot] = wire_of(e)
                pobj[slot] = e
            else:
                continue
            changed += 1
        self._n = n
        if changed:
            self._mutations += changed
            self._index_tag = self._mutations

    def remove(self, node_id: int) -> None:
        """Drop the entry for *node_id* (no-op if absent)."""
        slot = self._ensure_index().get(node_id)
        if slot is None:
            return
        n = self._n
        self._cols[:, slot : n - 1] = self._cols[:, slot + 1 : n]
        self._pobj[slot : n - 1] = self._pobj[slot + 1 : n]
        self._pobj[n - 1] = None
        self._n = n - 1
        self._mutations += 1

    def evict_older_than(self, cutoff: int) -> int:
        """Drop entries with ``timestamp < cutoff`` (churn healing)."""
        n = self._n
        if n == 0:
            return 0
        keep = np.nonzero(self._ts[:n] >= cutoff)[0]
        evicted = n - keep.size
        if evicted:
            self._select(keep)
        return evicted

    def trim_random(self, rng: np.random.Generator) -> None:
        """Shrink to capacity by keeping a uniform random sample.

        Draws the same ``rng.permutation`` prefix as the dict backend,
        so both consume identical randomness and keep identical peers.
        """
        n = self._n
        excess = n - self.capacity
        if excess <= 0:
            return
        drop = rng.permutation(n)[:excess]
        nk = _native()
        if nk is not None:
            new_n = nk.state_trim_drop(
                self._cols_addr, self._alloc, self._pobj_addr, n, drop, excess
            )
            if new_n >= 0:
                self._n = new_n
                self._mutations += 1
                return
        keep_mask = np.ones(n, dtype=bool)
        keep_mask[drop] = False
        self._select(np.nonzero(keep_mask)[0])

    def trim_ranked(
        self,
        key: "Callable[[ViewEntry], float] | None" = None,
        *,
        scores: "Mapping[int, float] | None" = None,
        default: float = 0.0,
    ) -> None:
        """Shrink to capacity keeping the highest-scored entries.

        Same contract and total order as :meth:`View.trim_ranked`.
        """
        if (key is None) == (scores is None):
            raise ConfigurationError(
                "trim_ranked needs exactly one of `key` and `scores`"
            )
        if self._n <= self.capacity:
            return
        entries = self.entries()
        if scores is not None:
            get = scores.get
            self.trim_ranked_aligned(
                entries, [get(e.node_id, default) for e in entries]
            )
            return
        self.trim_ranked_aligned(entries, [key(e) for e in entries])

    def keep_ranked(
        self, entries: "list[ViewEntry]", indices: "np.ndarray"
    ) -> None:
        """Replace the view's contents with a ranked selection.

        *entries* must be the slot-aligned snapshot the caller just
        scored; the state block is rebuilt by one gather pass in rank
        order — the same kept order as :meth:`View.keep_ranked`'s dict
        rebuild.
        """
        n = self._n
        if len(entries) == n and (n == 0 or entries[0] is self._pobj[0]):
            # snapshot aligns with the slots: reorder the block in place
            self._select(indices)
            return
        self._rebuild([entries[i] for i in indices.tolist()])

    def _rebuild(self, kept: "list[ViewEntry]") -> None:
        """Reset the state block from an explicit entry list (rare path)."""
        k = len(kept)
        n_old = self._n
        self._n = 0
        self._reserve(k)
        ids = self._ids
        ts = self._ts
        wire = self._wire
        pobj = self._pobj
        wire_of = self._wire_of
        for i, e in enumerate(kept):
            ids[i] = e[0]
            ts[i] = e[3]
            wire[i] = wire_of(e)
            pobj[i] = e
        # release vacated payload slots, like every other compaction path
        if k < n_old:
            pobj[k:n_old] = None
        self._n = k
        self._mutations += 1

    def trim_ranked_aligned(
        self, entries: "list[ViewEntry]", scores: "list[float]"
    ) -> None:
        """Ranked trim from scores aligned with an :meth:`entries` snapshot.

        When the snapshot aligns with the slots (the hot case), the
        native ``rank_topk`` kernel reads the timestamp/id columns
        directly — no per-entry ``fromiter`` marshaling — and the Python
        fallback runs the same ``(score, timestamp, -node_id)`` tuple
        sort as the dict backend.
        """
        k = len(entries)
        if k <= self.capacity:
            return
        nk = _native()
        if nk is not None and k >= _NATIVE_TRIM_MIN_ROWS and k == self._n:
            try:
                keep = nk.rank_topk(
                    np.asarray(scores, dtype=np.float64),
                    self._ts[:k],
                    self._ids[:k],
                    self.capacity,
                )
            except (OverflowError, ValueError, TypeError):
                keep = None  # non-numeric scores: the tuple sort handles them
            if keep is not None:
                self.keep_ranked(entries, keep)
                return
        rows = sorted(
            ((scores[i], e[3], -e[0], i) for i, e in enumerate(entries)),
            reverse=True,
        )
        self.keep_ranked(
            entries,
            np.fromiter(
                (row[3] for row in rows[: self.capacity]),
                np.int64,
                count=min(self.capacity, k),
            ),
        )

    def sample(self, k: int, rng: np.random.Generator) -> list[ViewEntry]:
        """Uniform sample (without replacement) of ``min(k, len)`` entries."""
        n = self._n
        if k >= n:
            return self._pobj[:n].tolist()
        idx = rng.permutation(n)[:k].tolist()
        pobj = self._pobj
        return [pobj[i] for i in idx]

    # -- process boundaries ------------------------------------------------

    def __getstate__(self) -> dict:
        """Serialize the live slots only (no addresses, no row views).

        The cached base addresses (``_cols_addr``/``_pobj_addr``) and the
        ``_ids``/``_ts``/``_wire`` row aliases are only meaningful inside
        the owning process; a naive slot pickle would carry stale
        addresses and turn the row views into detached copies.  The shard
        workers (:mod:`repro.simulation.sharding`) round-trip node state
        through this reduced form.
        """
        n = self._n
        return {
            "capacity": self.capacity,
            "owner_id": self.owner_id,
            "cols": self._cols[:, :n].copy(),
            "entries": self._pobj[:n].tolist(),
            "mutations": self._mutations,
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.owner_id = state["owner_id"]
        cols = state["cols"]
        n = cols.shape[1]
        self._n = 0
        # the mutation counter survives the round trip: consumers (BEEP's
        # packed-pool memo) tag caches with it, and a reset could collide
        # with a stale tag taken before the transfer
        self._mutations = int(state["mutations"])
        self._index = {}
        self._index_tag = -1
        self._allocate(max(self.capacity + 8, 16, n))
        self._cols[:, :n] = cols
        pobj = self._pobj
        for i, entry in enumerate(state["entries"]):
            pobj[i] = entry
        self._n = n

    def rehome(self, cols: np.ndarray) -> None:
        """Move the numeric state block into caller-provided storage.

        *cols* must be a writable C-contiguous ``(3, alloc)`` ``int64``
        array — typically a view over a :mod:`multiprocessing.shared_memory`
        arena block (see ``repro.simulation.sharding``).  Live rows are
        copied over, the row views and cached base addresses are rebound,
        and every subsequent mutation — including the native state
        kernels, which receive the new base address — operates on the
        mapped memory.  The payload-reference column stays in private
        memory (object references cannot cross a process boundary).

        If the view later outgrows the mapped block, :meth:`_allocate`
        falls back to a fresh private allocation; the arena block is
        simply abandoned (the shard arena is a bump allocator).
        """
        alloc = int(cols.shape[1])
        n = self._n
        if cols.shape[0] != 3 or alloc < n:
            raise ConfigurationError(
                f"rehome block shape {cols.shape} cannot hold {n} rows"
            )
        cols[:, :n] = self._cols[:, :n]
        pobj = self._pobj
        if pobj.shape[0] != alloc:
            grown = np.empty(alloc, dtype=object)
            grown[:n] = pobj[:n]
            pobj = grown
        self._cols = cols
        self._pobj = pobj
        self._ids = cols[0]
        self._ts = cols[1]
        self._wire = cols[2]
        self._alloc = alloc
        self._cols_addr = cols.ctypes.data
        self._pobj_addr = pobj.ctypes.data

    def wire_size(self) -> int:
        """Modelled serialized size of the whole view: one column sum."""
        n = self._n
        sizes = self._wire[:n]
        if n == 0 or sizes.min() >= 0:
            return int(sizes.sum())
        # sentinel slots (non-memoisable profiles) re-measure per call,
        # matching the dict backend's walk for mutable profile-likes
        total = 0
        entries = self._pobj[:n].tolist()
        for i, size in enumerate(sizes.tolist()):
            total += size if size >= 0 else descriptor_wire_size(entries[i])
        return total

    def storage_nbytes(self) -> int:
        """In-memory footprint of the view's own containers, in bytes.

        The preallocated column block + payload-reference column + the
        lazy id index; shared entry/profile objects are not counted.
        """
        import sys

        return (
            self._cols.nbytes
            + self._pobj.nbytes
            + sys.getsizeof(self._index)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrayView(owner={self.owner_id}, "
            f"size={len(self)}/{self.capacity})"
        )


def array_views() -> bool:
    """Whether new views are columnar: the view store follows the tier.

    :class:`ArrayView`'s columns exist to be walked by the native
    ``state_*`` kernels and lose to the dict store without them, so it is
    the ``fast`` pipeline's store on the native tier only; :class:`View`
    serves ``reference`` and ``fast`` without the kernels.  The sharded
    engine maps a view arena on the same condition.
    """
    return fast_mode() and _native() is not None


def make_view(capacity: int, owner_id: int) -> "View | ArrayView":
    """Construct a view on the store :func:`array_views` selects.

    The facade factory every protocol goes through.  Both stores expose
    the same API, interoperate, and produce bitwise-identical outcomes at
    fixed seeds; existing views keep their store.
    """
    if array_views():
        return ArrayView(capacity, owner_id)
    return View(capacity, owner_id)
