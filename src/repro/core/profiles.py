"""User and item interest profiles (paper Section II-B/II-C).

A *profile* is a set of triplets ``<identifier, timestamp, score>`` with at
most one entry per item identifier:

* a **user profile** (the paper's ``P̃``) records the node's own opinions;
  scores are binary — ``1`` for *like*, ``0`` for *dislike*;
* an **item profile** (the paper's ``P^I``) travels with each circulating
  copy of a news item and aggregates, by score averaging, the user profiles
  of the nodes that liked the item along that copy's dissemination path
  (Algorithm 1, ``addToNewsProfile``).  Scores are reals in ``[0, 1]``.

Both kinds are purged of entries older than the *profile window*
(Section II-E), which keeps similarity focused on current interests and
makes inactive users look like fresh joiners.

Performance notes
-----------------
Similarity computations (``repro.core.similarity``) dominate the simulation's
run time, so profiles maintain, incrementally:

* ``liked`` — the set of identifiers with a strictly positive score (for a
  binary profile, exactly the liked items);
* ``norm`` — the Euclidean norm of the score vector, cached and invalidated
  on mutation;
* ``_min_ts`` — a lower bound on the oldest entry timestamp, so the
  per-receipt window purge can skip the full scan when nothing can be stale.

User profiles additionally expose :meth:`UserProfile.snapshot`, a cheap
immutable copy (memoised per mutation-version) that gossip messages carry,
mirroring the profile field of view entries in the paper's protocols.

:class:`FrozenProfile` snapshots carry two hooks for the native scoring
kernels (:mod:`repro._native`) and the delta wire
(:mod:`repro.simulation.wire`):

* packed sorted ``uint64`` id arrays (``liked_ids`` / ``rated_ids``) and the
  aligned ``rated_scores`` vector, computed lazily on first access and then
  reused for every kernel pass the snapshot participates in;
* a process-unique ``uid`` assigned at construction.  Because snapshots are
  memoised per mutation version, ``uid`` identifies one *(profile, version)*
  state: any ``set``/``remove``/``purge_older_than`` bumps the version and
  the next snapshot gets a fresh ``uid`` — the reference key a profile
  crosses a shard link under.

Item-copy profiles are copied once per send (scalar path) or per first
receipt (batched path); :meth:`ItemProfile.copy` is copy-on-write (the clone
shares the backing dicts until its first mutation), which skips the dict
copies entirely for the common receive-dislike-forward path that never
edits the profile.

Packed arrays follow one discipline: a pack is a function of the score
dict's content, built from scratch and never edited.  A
:class:`FrozenProfile` packs on first access.  A mutable profile keeps its
pack in a one-slot **pack cell** (``_pack_memo``, a one-element list) that
every copy-on-write co-owner of the same containers shares:
:meth:`ItemProfile.copy` hands the clone the source's cell,
:meth:`Profile.packed` fills the cell for the whole family — one build per
content, however many copies score it — and a mutator *rebinds* its own
``_pack_memo`` to ``None`` as it leaves the family.  It never clears the
shared cell in place: the co-owners still hold the content that pack
describes.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

__all__ = [
    "ProfileEntry",
    "PackedView",
    "Profile",
    "UserProfile",
    "ItemProfile",
    "FrozenProfile",
]

_MASK64 = (1 << 64) - 1


def pack_id_array(ids: Iterable[int], count: int) -> np.ndarray:
    """Pack item identifiers into a ``uint64`` array (unsorted).

    Identifiers are 8-byte digests in ``[0, 2**64)``
    (:func:`repro.utils.hashing.item_digest`); any out-of-range integer
    (e.g. a negative id in a synthetic test) is mapped through a 64-bit
    mask — an injective, consistent encoding, which is all the batch
    intersection kernel needs.  *ids* must be re-iterable (a dict view or
    sequence), as the masked fallback iterates a second time.
    """
    try:
        return np.fromiter(ids, dtype=np.uint64, count=count)
    except (OverflowError, ValueError, TypeError):
        return np.fromiter(
            ((iid & _MASK64) for iid in ids), dtype=np.uint64, count=count
        )


def _sorted_columns(
    scores: dict[int, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(liked_ids, rated_ids, rated_scores)`` of *scores*, ids ascending.

    The one from-scratch pack build: every packed array in this module is
    made here, from a score dict, and never edited afterwards.
    """
    n = len(scores)
    ids = pack_id_array(scores.keys(), n)
    vals = np.fromiter(scores.values(), dtype=np.float64, count=n)
    order = np.argsort(ids)
    ids = ids[order]
    vals = vals[order]
    return ids[vals > 0.0], ids, vals


class ProfileEntry(NamedTuple):
    """One ``<identifier, timestamp, score>`` triplet of a profile."""

    item_id: int
    timestamp: int
    score: float


def _native_descriptor(
    liked_ids: np.ndarray,
    rated_ids: np.ndarray,
    rated_scores: np.ndarray,
    norm: float,
    is_binary: bool,
) -> tuple:
    """The ``_nd`` descriptor tuple the native kernels read.

    Layout (see ``prof_desc`` in :mod:`repro._native.build_native`):
    ``(is_binary, liked_ptr, n_liked, rated_ptr, n_rated, scores_ptr,
    norm)``.  The raw addresses alias the packed arrays, so the descriptor
    is only valid while its owning pack object keeps them alive — which
    the pack does, by construction, for its whole lifetime.
    """
    return (
        1 if is_binary else 0,
        liked_ids.ctypes.data,
        liked_ids.size,
        rated_ids.ctypes.data,
        rated_ids.size,
        rated_scores.ctypes.data,
        float(norm),
    )


class PackedView:
    """Sorted packed arrays of a mutable profile at one mutation version.

    The same layout the native scoring kernels read off
    :class:`FrozenProfile` snapshots, for profiles that cannot be frozen
    cheaply (live :class:`ItemProfile` copies in BEEP's orientation path).
    ``uid`` is always ``None`` (a mutable profile has no snapshot identity);
    the slot stays because it is part of the pickled state that crosses
    shard links.
    ``_nd`` is the native-kernel descriptor, ``None`` until first native
    contact (the compiled kernels call :meth:`_pack` themselves, so the
    pure-Python tier never pays for it).

    Instances live in the pack cell :meth:`Profile.packed` fills, which a
    whole copy-on-write family shares — one item content fanned out to many
    uninterested nodes, or forwarded along a chain of them, is packed once
    and re-scored against each holder's RPS pool from the same arrays.
    """

    __slots__ = (
        "liked_ids",
        "rated_ids",
        "rated_scores",
        "norm",
        "is_binary",
        "uid",
        "_nd",
    )

    def __init__(self, profile: "Profile") -> None:
        self.liked_ids, self.rated_ids, self.rated_scores = _sorted_columns(
            profile._scores
        )
        self.norm = profile.norm
        self.is_binary = profile.is_binary
        self.uid = None
        self._nd: tuple | None = None

    def _pack(self) -> None:
        """Fill the native descriptor (called by the C kernels on demand)."""
        self._nd = _native_descriptor(
            self.liked_ids,
            self.rated_ids,
            self.rated_scores,
            self.norm,
            self.is_binary,
        )

    def __getstate__(self) -> dict:
        """Drop the native descriptor: its raw addresses are process-local.

        Everything else round-trips; the kernels refill ``_nd`` lazily on
        first native contact in the receiving process.
        """
        state = {name: getattr(self, name) for name in PackedView.__slots__}
        state["_nd"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)


class Profile:
    """Mutable mapping from item identifier to ``(timestamp, score)``.

    This is the common machinery shared by :class:`UserProfile` and
    :class:`ItemProfile`; it is rarely instantiated directly.
    """

    __slots__ = (
        "_scores",
        "_timestamps",
        "_liked",
        "_norm2",
        "_version",
        "_min_ts",
        "_shared",
        "_pack_memo",
    )

    #: Whether scores are guaranteed binary (0/1).  Similarity metrics use
    #: this to select a set-algebra fast path.
    is_binary = False

    def __init__(self, entries: Iterable[ProfileEntry] = ()) -> None:
        self._scores: dict[int, float] = {}
        self._timestamps: dict[int, int] = {}
        self._liked: set[int] = set()
        self._norm2: float = 0.0
        self._version: int = 0
        self._min_ts: float = math.inf
        self._shared: bool = False
        #: one-slot :class:`PackedView` cell, shared by the copy-on-write
        #: co-owners of the containers; ``None`` after any mutation
        self._pack_memo: list[PackedView | None] | None = None
        for entry in entries:
            self.set(entry.item_id, entry.timestamp, entry.score)

    # -- mutation ---------------------------------------------------------

    def _detach(self) -> None:
        """Materialise private containers (copy-on-write support)."""
        self._scores = dict(self._scores)
        self._timestamps = dict(self._timestamps)
        self._liked = set(self._liked)
        self._shared = False

    def set(self, item_id: int, timestamp: int, score: float) -> None:
        """Insert or replace the entry for *item_id*.

        A profile holds a single entry per identifier (Section II-B); setting
        an existing identifier overwrites its timestamp and score.
        """
        if self._shared:
            self._detach()
        old = self._scores.get(item_id)
        if old is not None:
            self._norm2 -= old * old
            if old > 0.0:
                self._liked.discard(item_id)
        self._scores[item_id] = score
        self._timestamps[item_id] = timestamp
        self._norm2 += score * score
        if score > 0.0:
            self._liked.add(item_id)
        if timestamp < self._min_ts:
            self._min_ts = timestamp
        self._version += 1
        self._pack_memo = None

    def remove(self, item_id: int) -> None:
        """Drop the entry for *item_id* (no-op if absent)."""
        if self._shared:
            self._detach()
        old = self._scores.pop(item_id, None)
        if old is None:
            return
        del self._timestamps[item_id]
        self._norm2 -= old * old
        if self._norm2 < 0.0:  # float drift guard
            self._norm2 = 0.0
        if old > 0.0:
            self._liked.discard(item_id)
        self._version += 1
        self._pack_memo = None

    def purge_older_than(self, cutoff: int) -> int:
        """Remove all entries with ``timestamp < cutoff``.

        Implements the profile-window cleaning of Section II-E (user
        profiles, periodic) and Algorithm 1 lines 8-10 (item profiles, before
        forwarding).

        Returns
        -------
        int
            The number of entries removed.
        """
        if cutoff <= self._min_ts:
            # every entry is provably >= cutoff: skip the scan entirely
            return 0
        stale = [iid for iid, ts in self._timestamps.items() if ts < cutoff]
        for iid in stale:
            self.remove(iid)
        if stale:
            self._min_ts = min(self._timestamps.values(), default=math.inf)
        else:
            # nothing was below cutoff after all: tighten the lower bound
            self._min_ts = cutoff
        return len(stale)

    def clear(self) -> None:
        """Drop every entry."""
        if self._shared:
            # co-owners keep the old containers; this profile starts fresh
            self._scores = {}
            self._timestamps = {}
            self._liked = set()
            self._shared = False
        else:
            self._scores.clear()
            self._timestamps.clear()
            self._liked.clear()
        self._norm2 = 0.0
        self._min_ts = math.inf
        self._version += 1
        self._pack_memo = None

    # -- queries ----------------------------------------------------------

    @property
    def scores(self) -> dict[int, float]:
        """Identifier → score mapping (do not mutate directly)."""
        return self._scores

    @property
    def liked(self) -> set[int]:
        """Identifiers with a strictly positive score."""
        return self._liked

    @property
    def norm(self) -> float:
        """Euclidean norm of the score vector, ``‖P‖``."""
        return math.sqrt(self._norm2) if self._norm2 > 0.0 else 0.0

    @property
    def version(self) -> int:
        """Mutation counter; increases on every change."""
        return self._version

    def packed(self) -> PackedView:
        """Sorted packed id/score arrays of the current content.

        Built once per content: the pack goes into the cell this profile
        shares with its copy-on-write co-owners, so the first member of a
        family to be scored packs for all of them.  Every mutator drops
        this profile's hold on the cell; the next call builds afresh.
        """
        cell = self._pack_memo
        if cell is None:
            cell = self._pack_memo = [None]
        pack = cell[0]
        if pack is None:
            pack = cell[0] = PackedView(self)
        return pack

    def storage_nbytes(self) -> int:
        """In-memory footprint of the profile's own containers, in bytes.

        Dict/set stores plus, when a packed memo is held, its array
        columns — the facade accessor the memory benchmarks read.
        """
        import sys

        total = (
            sys.getsizeof(self._scores)
            + sys.getsizeof(self._timestamps)
            + sys.getsizeof(self._liked)
        )
        pack = self._pack_memo[0] if self._pack_memo is not None else None
        if pack is not None:
            total += pack.rated_ids.nbytes + pack.rated_scores.nbytes
            total += pack.liked_ids.nbytes
        return total

    def score_of(self, item_id: int) -> float | None:
        """Score for *item_id*, or ``None`` when the item is unrated."""
        return self._scores.get(item_id)

    def timestamp_of(self, item_id: int) -> int | None:
        """Timestamp for *item_id*, or ``None`` when the item is unrated."""
        return self._timestamps.get(item_id)

    def entries(self) -> Iterator[ProfileEntry]:
        """Iterate over the profile's triplets (arbitrary order)."""
        for iid, score in self._scores.items():
            yield ProfileEntry(iid, self._timestamps[iid], score)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._scores

    def __len__(self) -> int:
        return len(self._scores)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={len(self)}, liked={len(self._liked)})"


class FrozenProfile:
    """An immutable, hashable snapshot of a profile at a point in time.

    Gossip messages in the paper carry node profiles inside view entries.
    Simulated messages carry :class:`FrozenProfile` objects: they preserve
    the profile's state at send time even if the owner keeps rating items,
    and they precompute the sets and norm the similarity metrics need.

    For the native kernels and the delta wire the snapshot additionally
    exposes

    * :attr:`liked_ids` / :attr:`rated_ids` — sorted ``uint64`` arrays of the
      liked / rated identifiers, and :attr:`rated_scores` — the ``float64``
      score vector aligned with ``rated_ids``.  All three are computed
      lazily on first access and memoised (snapshots are immutable);
    * :attr:`uid` — a process-unique integer identifying this snapshot, and
      :attr:`version` — the source profile's mutation version.  Together
      with per-version snapshot memoisation, ``uid`` is a version-keyed
      identity: a profile mutation produces a new snapshot with a new
      ``uid`` (the delta wire's per-link reference key).
    """

    __slots__ = (
        "scores",
        "liked",
        "rated",
        "norm",
        "is_binary",
        "uid",
        "version",
        "_liked_ids",
        "_rated_ids",
        "_rated_scores",
        "_nd",
        "wire_cache",
    )

    _uid_counter = itertools.count(1)

    def __init__(
        self,
        scores: dict[int, float],
        *,
        is_binary: bool,
        version: int = 0,
    ) -> None:
        self.scores: dict[int, float] = dict(scores)
        self.liked: frozenset[int] = frozenset(
            iid for iid, s in scores.items() if s > 0.0
        )
        self.rated: frozenset[int] = frozenset(scores)
        norm2 = 0.0
        for s in scores.values():
            norm2 += s * s
        self.norm: float = math.sqrt(norm2) if norm2 > 0.0 else 0.0
        self.is_binary: bool = is_binary
        self.uid: int = next(FrozenProfile._uid_counter)
        self.version: int = version
        self._liked_ids: np.ndarray | None = None
        self._rated_ids: np.ndarray | None = None
        self._rated_scores: np.ndarray | None = None
        #: native-kernel descriptor; ``None`` until :meth:`_pack` runs (the
        #: compiled kernels call ``_pack`` themselves on first contact)
        self._nd: tuple | None = None
        #: memo slot for the modelled wire size of descriptors carrying
        #: this snapshot (filled by repro.gossip.views.descriptor_wire_size)
        self.wire_cache: int | None = None

    def _pack(self) -> None:
        if self._rated_ids is None:
            self._liked_ids, self._rated_ids, self._rated_scores = _sorted_columns(
                self.scores
            )
        self._nd = _native_descriptor(
            self._liked_ids,
            self._rated_ids,
            self._rated_scores,
            self.norm,
            self.is_binary,
        )

    @property
    def liked_ids(self) -> np.ndarray:
        """Sorted ``uint64`` array of identifiers with positive score."""
        if self._liked_ids is None:
            self._pack()
        return self._liked_ids

    @property
    def rated_ids(self) -> np.ndarray:
        """Sorted ``uint64`` array of all rated identifiers."""
        if self._rated_ids is None:
            self._pack()
        return self._rated_ids

    @property
    def rated_scores(self) -> np.ndarray:
        """``float64`` scores aligned with :attr:`rated_ids`."""
        if self._rated_scores is None:
            self._pack()
        return self._rated_scores

    def __len__(self) -> int:
        return len(self.scores)

    def __getstate__(self) -> dict:
        """Serialize the canonical fields only; derived state rebuilds.

        Snapshots are the bulk of every cross-shard gossip blob (view
        shipments carry one per descriptor), so the wire form matters:
        the like/rated frozensets and the packed ``uint64``/``float64``
        arrays are pure functions of ``scores`` and are rebuilt (sets
        eagerly, arrays lazily on first pack contact) instead of
        travelling — measured ≈3× fewer bytes, ≈7× faster ``dumps`` and
        ≈2× faster combined dumps+loads on realistic shipment blobs
        (loads pay the set rebuild back).  The native descriptor
        (raw process-local addresses) never travels.  ``uid`` does
        round-trip: it stays globally consistent across shard workers
        because each worker allocates fresh uids from a disjoint range
        (see :mod:`repro.simulation.sharding`).
        """
        return {
            "scores": self.scores,
            "norm": self.norm,
            "is_binary": self.is_binary,
            "uid": self.uid,
            "version": self.version,
            "wire_cache": self.wire_cache,
        }

    def __setstate__(self, state: dict) -> None:
        scores = state["scores"]
        self.scores = scores
        self.liked = frozenset(
            iid for iid, s in scores.items() if s > 0.0
        )
        self.rated = frozenset(scores)
        self.norm = state["norm"]
        self.is_binary = state["is_binary"]
        self.uid = state["uid"]
        self.version = state["version"]
        self._liked_ids = None
        self._rated_ids = None
        self._rated_scores = None
        self._nd = None
        self.wire_cache = state["wire_cache"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrozenProfile(n={len(self.scores)}, liked={len(self.liked)})"


_MISSING = object()


def _same_float(a: float, b: float) -> bool:
    """Exact (bitwise-faithful) float equality: ±0.0 differ, NaN ≠ NaN."""
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


def score_delta(
    base: dict[int, float], new: dict[int, float]
) -> "tuple[list[int], list[float], list[int]] | None":
    """The set-op diff turning *base* into *new*.

    Returns ``(set_ids, set_values, removed_ids)`` — the minimal list of
    set-ops and removals whose replay over *base* produces *new* — or
    ``None`` when the diff is not strictly smaller than shipping the dict
    whole.  Comparison is float-exact (``-0.0`` vs ``0.0`` and NaN count
    as changes), so the replay is bitwise-faithful.

    Every profile mutation is a :meth:`Profile.set` or a removal, so when
    *base* and *new* are snapshots of one profile timeline this
    reconstructs the ops that ran between the two versions: surviving
    keys keep their *base* dict slots, (re)rated keys re-append in op
    order — replay reproduces *new*'s exact insertion order, not just its
    mapping.  The cross-shard wire (:mod:`repro.simulation.wire`) relies
    on both properties.
    """
    set_ids: list[int] = []
    set_vals: list[float] = []
    get = base.get
    for k, v in new.items():
        bv = get(k, _MISSING)
        if bv is _MISSING or not _same_float(bv, v):
            set_ids.append(k)
            set_vals.append(v)
    removed = [k for k in base if k not in new]
    # worth it only when strictly slimmer than the full (id, score) table
    if 2 * len(set_ids) + len(removed) >= 2 * len(new):
        return None
    return set_ids, set_vals, removed


def apply_score_delta(
    base: dict[int, float],
    set_ids: "list[int]",
    set_values: "list[float]",
    removed: "list[int]",
) -> dict[int, float]:
    """Replay a :func:`score_delta` diff over *base* (a new dict).

    Removals first, then the set-ops in order — the order the mutations
    originally ran, so the result's dict insertion order matches the
    sender's.  A removal naming an absent key raises ``KeyError``: the
    delta was made against a different base, and corrupting a profile
    silently would be far worse.
    """
    scores = dict(base)
    for k in removed:
        del scores[k]
    for k, v in zip(set_ids, set_values, strict=True):
        scores[k] = v
    return scores


class UserProfile(Profile):
    """A node's own opinion record ``P̃`` (binary scores).

    Updated when the user clicks like/dislike on a received item (Algorithm 1
    lines 5 and 7) or publishes an item (line 14).
    """

    __slots__ = ("_snapshot", "_snapshot_version")

    is_binary = True

    def __init__(self, entries: Iterable[ProfileEntry] = ()) -> None:
        super().__init__(entries)
        self._snapshot: FrozenProfile | None = None
        self._snapshot_version: int = -1

    def record_opinion(self, item_id: int, timestamp: int, liked: bool) -> None:
        """Record the user's opinion on an item.

        Parameters
        ----------
        item_id:
            The item's 8-byte identifier.
        timestamp:
            The item's creation timestamp (profile entries age by *item*
            time, so purging drops old *news*, not old *opinions*).
        liked:
            ``True`` → score 1 (like); ``False`` → score 0 (dislike).
        """
        self.set(item_id, timestamp, 1.0 if liked else 0.0)

    @property
    def rated(self) -> set[int]:
        """All identifiers the user has expressed an opinion on."""
        return set(self._scores)

    def snapshot(self) -> FrozenProfile:
        """Return an immutable snapshot (memoised per mutation version)."""
        if self._snapshot is None or self._snapshot_version != self._version:
            self._snapshot = FrozenProfile(
                self._scores, is_binary=True, version=self._version
            )
            self._snapshot_version = self._version
        return self._snapshot


class ItemProfile(Profile):
    """The community profile ``P^I`` carried by a circulating item copy.

    Two copies of the same item travelling along different paths have
    *different* item profiles: each reflects the interests of the portion of
    the network its copy traversed (Section II-B).
    """

    __slots__ = ()

    def integrate(self, user_profile: Profile) -> None:
        """Fold a liker's user profile into this item profile.

        Implements Algorithm 1's loop over the user profile (lines 3-4 /
        15-16) with ``addToNewsProfile`` (lines 18-22): for each tuple of the
        user profile, average with the existing score when the identifier is
        already present, otherwise insert the user's tuple.

        This runs once per like along every dissemination path, so the loop
        updates the backing containers directly instead of going through
        :meth:`set` — same arithmetic, an order of magnitude fewer calls.
        """
        if self._shared:
            self._detach()
        scores = self._scores
        timestamps = self._timestamps
        liked = self._liked
        norm2 = self._norm2
        min_ts = self._min_ts
        user_ts = user_profile._timestamps
        for iid, s_n in user_profile._scores.items():
            ts = user_ts[iid]
            existing = scores.get(iid)
            if existing is not None:
                # average, keeping the freshest timestamp so the entry ages
                # from its latest sighting
                if ts > timestamps[iid]:
                    timestamps[iid] = ts
                new = (existing + s_n) / 2.0
                norm2 -= existing * existing
                norm2 += new * new
                scores[iid] = new
                if new > 0.0:
                    liked.add(iid)
                elif existing > 0.0:
                    liked.discard(iid)
            else:
                scores[iid] = s_n
                timestamps[iid] = ts
                norm2 += s_n * s_n
                if s_n > 0.0:
                    liked.add(iid)
                if ts < min_ts:
                    min_ts = ts
        if norm2 < 0.0:  # float drift guard
            norm2 = 0.0
        self._norm2 = norm2
        self._min_ts = min_ts
        self._version += 1
        self._pack_memo = None

    def copy(self) -> "ItemProfile":
        """Logically deep-copy the profile (copy-on-write).

        A forked copy evolves independently, but most copies are never
        mutated again (a disliking receiver neither integrates nor, usually,
        purges anything), so the clone *shares* the backing containers and
        both sides materialise private copies only on their first mutation.
        The clone also joins the source's pack cell (made here, empty, when
        the source has none): whichever co-owner is scored first packs the
        shared content for all of them.  A pack's arrays are never written
        after construction, so sharing is safe.
        """
        clone = ItemProfile.__new__(ItemProfile)
        self._shared = True
        clone._scores = self._scores
        clone._timestamps = self._timestamps
        clone._liked = self._liked
        clone._norm2 = self._norm2
        clone._version = 0
        clone._min_ts = self._min_ts
        clone._shared = True
        cell = self._pack_memo
        if cell is None:
            cell = self._pack_memo = [None]
        clone._pack_memo = cell
        return clone

    def freeze(self) -> FrozenProfile:
        """Immutable snapshot (used by similarity-ranking code paths)."""
        return FrozenProfile(self._scores, is_binary=False, version=self._version)
