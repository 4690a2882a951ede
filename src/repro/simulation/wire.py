"""The cross-shard mailbox payload codec: a columnar delta wire.

Every cross-shard gossip payload used to cross as one interned pickle
(PR 5/6): NamedTuple messages, ``ViewEntry`` tuples and address strings
re-framed by the pickler every cycle, with only the profile *snapshots*
deduplicated per link.  At four shards ~75% of gossip crosses a link, so
that framing tax dominated the mailbox bytes.

This module encodes the payload in one of two tiers, selected by
``REPRO_SHARD_WIRE`` (default ``delta``):

``pickle``
    The PR 5/6 wire, verbatim: one pickle per mailbox with per-link
    snapshot interning (:func:`_dumps_interned` / :func:`_loads_interned`).
    Kept as the reference tier the equivalence tests sweep against.

``delta``
    Messages ship as flat typed blocks — one ``int64`` row table
    (sender, target, kind, flags, wire, entry count), the senders'
    ``(ids, ts, wire)`` view-column blocks verbatim, and one *descriptor
    index* per entry.  Every directed link keeps a **descriptor table**
    in lock-step on both ends, exactly like the uid registry: the first
    crossing of a descriptor — key ``(node id, timestamp, profile uid,
    address)``, every field validated — ships an ``(id, ts, uid)`` row
    plus its profile representation and takes the next index; every
    later crossing *is* that index.  Gossip re-ships the same
    descriptors cycle after cycle (≈ 95 % of a link's crossings), so the
    sender pays two exact-type checks and one dict lookup per entry and
    the receiver builds each message's ``entries`` as one gather from
    its table — a ``ViewEntry`` is constructed only for new descriptors,
    and a descriptor decodes to one shared (immutable) object per link.
    The descriptor address is a pure function of the node id (see
    ``RpsProtocol``), so it never travels.  A new descriptor's profile
    crosses by uid reference when the snapshot already crossed (8 bytes),
    as packed ``uint64``/``float64`` columns the first time, or — when
    the per-node base store already holds an older snapshot of the same
    node — as ``(base_uid, set-ops, removals)``, the diff between the
    two score dicts.  A snapshot usually differs from its predecessor by
    one opinion, so re-rating traffic collapses from full profiles to a
    few dozen bytes.

Frames are **not compressed**.  The link is a shared-memory mailbox on
one host: nothing consumes the bytes a ``zlib.compress`` would save,
while the compression itself sat on every worker's critical path
between two barriers (PERFORMANCE.md, "Why frames are not deflated").
Compression returns with a network transport, at the transport.
Per-section :class:`~repro.network.stats.WireStats` counters
(``column_bytes``, ``full_bytes``, ``delta_bytes``, ``pickle_bytes``)
account section sizes; ``frame_bytes`` (and the mailbox byte totals it
feeds) is the bytes that cross.

A gossip frame (``WIRE_FORMAT_VERSION`` 2) is an 8-byte header, an
``int64`` section-length vector and fifteen sections, 8-byte-typed ones
first so each starts aligned: row table · column blocks · descriptor
indices · new-descriptor ``(id, ts, uid)`` rows · FULL meta, norms, ids,
scores · DELTA meta, norms, set ids, set scores, removed ids · one tag
per new descriptor · overflow pickle.  An item frame is the row table
and one pickle of the copies.

Wire-format invariants:

* **Bitwise equivalence across tiers.**  Score dicts round-trip with
  their exact float bits *and* their exact insertion order (a delta
  applies removals then appends, reproducing the sender's dict order for
  any same-timeline base), norms/uids/versions travel verbatim, and the
  rebuilt messages carry the sender's exact column block — so a run's
  final state is bit-identical whichever tier carried it.
* **Deterministic lock-step tables.**  Sender and receiver grow their
  per-link tables identically (one registry entry per first-crossing
  uid, one base-store entry per node under a shared freshest-wins rule,
  one descriptor index per first-crossing descriptor, numbered in
  crossing order), so the same cap rule fires at the same cycle on both
  ends and clears all three — exactly the PR 5 interning discipline,
  now over three stores.
* **A row is tabled whole or not at all.**  Nothing is registered until
  every entry of a row validated, so a row that falls back to the
  overflow pickle leaves the tables untouched.
* **Fault-plane transparency.**  Frames are opaque bytes to the chunk
  protocol (CRC/ack/retransmit wraps them unchanged), and both codec
  ends — value-keyed tables included — pickle into checkpoints, so
  rollback-replay reproduces delta frames bit-for-bit.
* **Value-driven fallbacks.**  Rows or profiles the fast path cannot
  express (foreign payload types, custom addresses, exotic score keys)
  fall back to an embedded pickle, decided from the values alone —
  identical on replay.

A frame that cannot be decoded (missing uid, missing delta base, a
descriptor index the table does not hold, sections that do not add up)
raises — the link tables fell out of lock-step and corrupting a merge
silently would be far worse.
"""

from __future__ import annotations

import io
import pickle
import struct
from contextlib import contextmanager
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.core.gates import env_choice
from repro.network.stats import WireStats

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.profiles import FrozenProfile

__all__ = [
    "WIRE_TIERS",
    "WIRE_FORMAT_VERSION",
    "wire_tier",
    "set_wire_tier",
    "shard_wire",
    "LinkEncoder",
    "LinkDecoder",
]

#: bump when the frame layout changes; decoders reject other versions
WIRE_FORMAT_VERSION = 2

WIRE_TIERS = ("pickle", "delta")

#: codec treatment of every NamedTuple that can cross a shard mailbox.
#: A new wire-visible NamedTuple must be added here with a conscious
#: decision (lint rule RL007 enforces it): ``columns`` rides the typed
#: int64 fast path below, ``overflow`` crosses in the value-driven
#: pickled overflow sections, and ``embedded`` never travels standalone
#: (it is reconstructed from another message's payload).
WIRE_MESSAGE_REGISTRY: dict[str, str] = {
    "RpsMessage": "columns",
    "ClusteringMessage": "columns",
    "ViewEntry": "columns",
    "Envelope": "overflow",
    "ProfileEntry": "embedded",
}


_wire_tier = env_choice("REPRO_SHARD_WIRE", "delta", WIRE_TIERS)


def wire_tier() -> str:
    """The active cross-shard wire tier (``pickle`` or ``delta``)."""
    return _wire_tier


def set_wire_tier(tier: str) -> str:
    """Select the wire tier; returns the previous setting.

    Consulted when a sharded engine is *constructed* — each link codec
    pins the tier for its lifetime, so both ends of every link always
    agree (the setting crosses to the workers with the gate snapshot).
    """
    global _wire_tier
    if tier not in WIRE_TIERS:
        raise ValueError(
            f"unknown wire tier {tier!r} (expected one of {WIRE_TIERS})"
        )
    previous = _wire_tier
    _wire_tier = tier
    return previous


@contextmanager
def shard_wire(tier: str) -> Iterator[None]:
    """Context manager pinning the wire tier, restoring on exit."""
    previous = set_wire_tier(tier)
    try:
        yield
    finally:
        set_wire_tier(previous)


# --------------------------------------------------------------------------- #
# the pickle tier (PR 5/6 interned codec, moved here verbatim)                #
# --------------------------------------------------------------------------- #


def _dumps_interned(obj: object, sent: set) -> bytes:
    """Pickle *obj* with per-link profile interning (sender side).

    Profile snapshots are the bulk of every gossip blob, and most of them
    are re-shipped unchanged cycle after cycle (a profile only changes
    when its user rates an item).  Snapshots are immutable and carry a
    process-unique ``uid``, so a link only ever needs to move each
    snapshot's bytes **once**: the first crossing embeds the full
    canonical state, every later crossing is a uid reference resolved
    from the receiver's link registry (:func:`_loads_interned`).
    """
    from repro.core.profiles import FrozenProfile
    from repro.gossip.views import ViewEntry

    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)

    def persistent_id(o: object) -> tuple[Any, ...] | None:
        klass = type(o)
        if klass is FrozenProfile:
            uid = o.uid
            if uid in sent:
                return (1, uid)
            sent.add(uid)
            return (0, uid, o.__getstate__())
        if klass is ViewEntry and type(o[2]) is FrozenProfile:
            # a descriptor is fully determined by (node id, timestamp,
            # profile snapshot): the address is a pure function of the
            # node id, so the triple is a sound identity for re-shipped
            # descriptors (the ints/uid make the key hashable and small)
            key = (o[0], o[3], o[2].uid)
            if key in sent:
                return (3, key)
            sent.add(key)
            return (2, key, tuple(o))
        return None

    pickler.persistent_id = persistent_id
    pickler.dump(obj)
    return buf.getvalue()


def _loads_interned(blob: bytes, registry: dict) -> object:
    """Unpickle a blob produced by :func:`_dumps_interned` (receiver side).

    First-crossing snapshots are constructed from their embedded state
    and registered under their uid; reference crossings resolve from the
    registry.  A missing uid is a protocol error (the link tables fell
    out of lock-step) and raises ``KeyError`` — corrupting a merge
    silently would be far worse.
    """
    from repro.core.profiles import FrozenProfile
    from repro.gossip.views import ViewEntry

    unpickler = pickle.Unpickler(io.BytesIO(blob))

    def persistent_load(pid: tuple[Any, ...]) -> Any:
        tag = pid[0]
        if tag == 1 or tag == 3:
            return registry[pid[1]]
        if tag == 0:
            profile = FrozenProfile.__new__(FrozenProfile)
            profile.__setstate__(pid[2])
            registry[pid[1]] = profile
            return profile
        entry = ViewEntry._make(pid[2])
        registry[pid[1]] = entry
        return entry

    unpickler.persistent_load = persistent_load
    return unpickler.load()


# --------------------------------------------------------------------------- #
# frame layout                                                                #
# --------------------------------------------------------------------------- #

_MAGIC = 0xC3D7
#: magic, format version, phase, n_sections — padded to 8 bytes so every
#: 8-byte-typed section of a frame starts aligned
_HEADER = struct.Struct("<HBBB3x")

_PHASE_GOSSIP = 0
_PHASE_ITEMS = 1
_PHASES = {"gossip": _PHASE_GOSSIP, "items": _PHASE_ITEMS}

#: per-descriptor profile representation tags
_REF, _FULL, _DELTA, _PICKLED = 0, 1, 2, 3

#: gossip row flags
_F_REQUEST = 1  # message is a request (else a reply)
_F_COLS = 2  # the sender's column block travelled; rebuild cols
_F_OVERFLOW = 4  # row is in the embedded pickle, not the tables
_F_CLUSTERING = 8  # payload class is ClusteringMessage (else RpsMessage)

_MAX_I64 = (1 << 63) - 1

#: descriptors a link may hold per unit of the interning cap before the
#: shared reset fires on the descriptor table's size alone (a descriptor
#: is re-stamped every cycle while its profile uid stays, so the table
#: outgrows the uid set; this bounds it on runs whose profiles are quiet)
_DESC_PER_UID = 8

_I64 = np.dtype(np.int64)
_U64 = np.dtype(np.uint64)
_F64 = np.dtype(np.float64)
_U8 = np.dtype(np.uint8)

_uid_of = attrgetter("uid")


def _pack_frame(phase: int, sections: list[bytes]) -> bytes:
    lens = np.fromiter(
        (len(s) for s in sections), dtype=_I64, count=len(sections)
    )
    return b"".join(
        (
            _HEADER.pack(_MAGIC, WIRE_FORMAT_VERSION, phase, len(sections)),
            lens.tobytes(),
            *sections,
        )
    )


def _unpack_frame(blob: bytes) -> tuple[int, list]:
    magic, version, phase, n_sections = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC or version != WIRE_FORMAT_VERSION:
        raise ValueError(
            f"bad wire frame header (magic {magic:#x}, version {version}; "
            f"this codec speaks version {WIRE_FORMAT_VERSION})"
        )
    lens = np.frombuffer(
        blob, dtype=_I64, count=n_sections, offset=_HEADER.size
    )
    offset = _HEADER.size + 8 * n_sections
    mv = memoryview(blob)
    sections = []
    for length in lens.tolist():
        sections.append(mv[offset : offset + length])
        offset += length
    if offset != len(blob):
        raise ValueError(
            f"wire frame is {len(blob)} bytes, its sections claim {offset}"
        )
    return phase, sections


def _node_address(nid: int, cache: dict) -> str:
    """The descriptor address for *nid* — must mirror ``RpsProtocol``."""
    addr = cache.get(nid)
    if addr is None:
        addr = f"10.0.{nid >> 8 & 255}.{nid & 255}"
        cache[nid] = addr
    return addr


def _full_columns(scores: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """Pack a score dict as (uint64 ids, float64 values) in dict order.

    Returns ``None`` when a key cannot round-trip through ``uint64``
    (the caller falls back to an embedded pickle of the profile state).
    Order matters: the receiver rebuilds the dict with ``zip``, so the
    sender's insertion order is preserved bit-for-bit.
    """
    n = len(scores)
    for k in scores:
        if type(k) is not int or k < 0:
            return None
    try:
        ids = np.fromiter(scores.keys(), dtype=_U64, count=n)
        vals = np.fromiter(scores.values(), dtype=_F64, count=n)
    except (TypeError, ValueError, OverflowError):
        return None
    return ids, vals


def _delta_columns(
    base: dict, new: dict
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Columnarised :func:`repro.core.profiles.score_delta`, or ``None``.

    ``None`` when the diff is not worth shipping or a touched key cannot
    round-trip through ``uint64`` (the caller falls back to a full or
    pickled representation).
    """
    from repro.core.profiles import score_delta

    diff = score_delta(base, new)
    if diff is None:
        return None
    set_ids, set_vals, removed = diff
    for k in set_ids:
        if type(k) is not int or k < 0:
            return None
    for k in removed:
        if type(k) is not int or k < 0:
            return None
    try:
        ids = np.fromiter(set_ids, dtype=_U64, count=len(set_ids))
        vals = np.fromiter(set_vals, dtype=_F64, count=len(set_vals))
        rem = np.fromiter(removed, dtype=_U64, count=len(removed))
    except (TypeError, ValueError, OverflowError):  # pragma: no cover
        return None
    return ids, vals, rem


def _rebuild_profile(
    scores: dict[int, float],
    norm: float,
    is_binary: bool,
    uid: int,
    version: int,
    wire_cache: int | None,
) -> FrozenProfile:
    from repro.core.profiles import FrozenProfile

    profile = FrozenProfile.__new__(FrozenProfile)
    profile.__setstate__(
        {
            "scores": scores,
            "norm": norm,
            "is_binary": is_binary,
            "uid": uid,
            "version": version,
            "wire_cache": wire_cache,
        }
    )
    return profile


# --------------------------------------------------------------------------- #
# the link codec                                                              #
# --------------------------------------------------------------------------- #


class LinkEncoder:
    """Sender-side state of one directed cross-shard link.

    Holds the uid set of snapshots already shipped (reference crossings),
    the per-node base store the next delta diffs against, and the
    descriptor table — the index every already-shipped ``(node id,
    timestamp, profile uid, address)`` crosses as.  All three grow in
    lock-step with the peer :class:`LinkDecoder` — see :meth:`cap_reset`.
    Picklable, so checkpoints capture the wire state and rollback-replay
    reproduces every frame bit-for-bit.
    """

    __slots__ = ("tier", "stats", "_sent", "_bases", "_desc", "_addrs")

    def __init__(self, tier: str | None = None) -> None:
        tier = wire_tier() if tier is None else tier
        if tier not in WIRE_TIERS:
            raise ValueError(f"unknown wire tier {tier!r}")
        self.tier = tier
        self.stats = WireStats()
        #: uids (and, pickle tier, entry keys) already shipped
        self._sent: set = set()
        #: freshest shipped snapshot per node id (delta bases)
        self._bases: dict = {}
        #: (node id, timestamp, profile uid, address) -> descriptor index,
        #: numbered in order of first crossing (delta tier)
        self._desc: dict = {}
        #: node id -> rebuilt address string (validation memo; not synced)
        self._addrs: dict = {}

    def __getstate__(self) -> dict:
        return {
            "tier": self.tier,
            "stats": self.stats,
            "sent": self._sent,
            "bases": self._bases,
            "desc": self._desc,
        }

    def __setstate__(self, state: dict) -> None:
        self.tier = state["tier"]
        self.stats = state["stats"]
        self._sent = state["sent"]
        self._bases = state["bases"]
        self._desc = state["desc"]
        self._addrs = {}

    def table_size(self) -> int:
        return len(self._sent)

    def descriptor_count(self) -> int:
        return len(self._desc)

    def cap_reset(self, cap: int) -> bool:
        """Apply the deterministic table bound; returns whether it fired.

        Both ends of a link grow their tables identically (one ``_sent``
        entry per first-crossing uid, mirrored by one registry entry; one
        base-store entry per first-seen node, updated under a shared
        freshest-wins rule; one descriptor index per first-crossing
        descriptor), so the same size rule fires at the same cycle top on
        the sender and the receiver.
        """
        if len(self._sent) > cap or len(self._desc) > _DESC_PER_UID * cap:
            self._sent.clear()
            self._bases.clear()
            self._desc.clear()
            self.stats.cap_resets += 1
            return True
        return False

    # -- encoding ----------------------------------------------------------- #

    def encode(self, rows: list, phase: str) -> bytes:
        """Encode one mailbox flush (*rows*) for *phase* into one blob."""
        stats = self.stats
        if self.tier == "pickle":
            blob = _dumps_interned(rows, self._sent)
        elif phase == "items":
            blob = self._encode_items(rows)
        else:
            blob = self._encode_gossip(rows)
        stats.frames += 1
        stats.frame_bytes += len(blob)
        stats.rows += len(rows)
        return blob

    def _encode_gossip(self, rows: list) -> bytes:
        from repro.core.profiles import FrozenProfile
        from repro.gossip.rps import RpsMessage
        from repro.gossip.vicinity import ClusteringMessage
        from repro.gossip.views import ViewEntry
        from repro.network.message import MessageKind

        sent = self._sent
        bases = self._bases
        addrs = self._addrs
        desc = self._desc
        desc_get = desc.get
        stats = self.stats
        entry_only = {ViewEntry}
        frozen_only = {FrozenProfile}

        row_vals: list = []
        blocks: list = []
        idx: list = []
        new_vals: list = []
        tags = bytearray()
        full_meta: list = []
        full_norms: list = []
        full_ids: list = []
        full_scores: list = []
        delta_meta: list = []
        delta_norms: list = []
        delta_set_ids: list = []
        delta_set_scores: list = []
        delta_removed: list = []
        overflow: list = []
        pickled_profiles: list = []

        for row in rows:
            a, b, kind, msg = row
            # -- fast-path eligibility (value-driven, replay-identical) -- #
            mcls = type(msg)
            if mcls is RpsMessage:
                flags = 0
            elif mcls is ClusteringMessage:
                flags = _F_CLUSTERING
            else:
                flags = -1
            if kind is MessageKind.RPS:
                kcode = 0
            elif kind is MessageKind.WUP:
                kcode = 1
            else:
                kcode = -1
            ok = flags >= 0 and kcode >= 0
            entries = msg.entries if ok else ()
            ok = ok and type(entries) is tuple
            if ok:
                s = msg.sender
                w = msg.wire
                ok = (
                    isinstance(a, int)
                    and isinstance(b, int)
                    and isinstance(s, int)
                    and 0 <= a <= _MAX_I64
                    and 0 <= b <= _MAX_I64
                    and -_MAX_I64 <= s <= _MAX_I64
                    and (
                        w is None
                        or (isinstance(w, int) and 0 <= w <= _MAX_I64)
                    )
                )
            row_idx: list = []
            fresh: list = []  # row positions whose descriptor is not tabled
            if ok and entries:
                # two exact-type checks and one table lookup per
                # descriptor, each a C-level pass over the row.  A tabled
                # descriptor passed the full validation below when it
                # first crossed, and the key holds every field that
                # validation read.
                ok = set(map(type, entries)) == entry_only
                if ok:
                    nids, eaddrs, profs, stamps = zip(*entries, strict=True)
                    ok = set(map(type, profs)) == frozen_only
                if ok:
                    keys = zip(
                        nids, stamps, map(_uid_of, profs), eaddrs, strict=True
                    )
                    try:
                        row_idx = list(map(desc_get, keys))
                    except TypeError:  # an unhashable descriptor field
                        ok = False
                if ok and None in row_idx:
                    for pos, i in enumerate(row_idx):
                        if i is not None:
                            continue
                        nid = nids[pos]
                        ts = stamps[pos]
                        if (
                            not isinstance(nid, int)
                            or not isinstance(ts, int)
                            or not 0 <= nid <= _MAX_I64
                            or not -_MAX_I64 <= ts <= _MAX_I64
                            or eaddrs[pos] != _node_address(nid, addrs)
                        ):
                            ok = False
                            break
                        fresh.append(pos)
            if not ok:
                # whole row rides the embedded pickle (plain, un-interned:
                # rare, and it must not disturb the lock-step tables —
                # nothing above registered anything yet)
                row_vals.append((0, 0, 0, 0, _F_OVERFLOW, -1, 0))
                overflow.append(row)
                stats.overflow_rows += 1
                continue

            # -- the sender's column block, verbatim when present --------- #
            k = len(entries)
            cols = msg.cols
            if cols is not None:
                inc, stride, count = cols
                if (
                    isinstance(inc, np.ndarray)
                    and inc.dtype == _I64
                    and inc.shape == (3, k)
                    and stride == k
                    and count == k
                ):
                    flags |= _F_COLS
                    blocks.append(inc)
            if msg.is_request:
                flags |= _F_REQUEST
            row_vals.append(
                (a, b, msg.sender, kcode, flags, -1 if w is None else w, k)
            )
            stats.entries += k
            # a tabled descriptor's snapshot is in ``sent`` by construction
            # (both clear together), so it counts as a reference crossing
            stats.ref_profiles += k - len(fresh)

            # -- first crossings: register, ship columns + profile -------- #
            for pos in fresh:
                nid, eaddr, prof, ts = entries[pos]
                uid = prof.uid
                key = (nid, ts, uid, eaddr)
                i = desc_get(key)
                if i is not None:  # repeated within this row
                    row_idx[pos] = i
                    stats.ref_profiles += 1
                    continue
                row_idx[pos] = desc[key] = len(desc)
                new_vals.append((nid, ts, uid))
                if uid in sent:
                    tags.append(_REF)
                    stats.ref_profiles += 1
                    continue
                sent.add(uid)
                base = bases.get(nid)
                encoded = False
                if (
                    base is not None
                    and base.uid != uid
                    and base.is_binary == prof.is_binary
                    and base.version <= prof.version
                ):
                    diff = _delta_columns(base.scores, prof.scores)
                    if diff is not None:
                        ids_arr, vals_arr, rem_arr = diff
                        wc = prof.wire_cache
                        delta_meta.append(
                            (
                                base.uid,
                                prof.version,
                                -1 if wc is None else wc,
                                1 if prof.is_binary else 0,
                                ids_arr.size,
                                rem_arr.size,
                            )
                        )
                        delta_norms.append(prof.norm)
                        delta_set_ids.append(ids_arr)
                        delta_set_scores.append(vals_arr)
                        delta_removed.append(rem_arr)
                        tags.append(_DELTA)
                        stats.delta_profiles += 1
                        encoded = True
                if not encoded:
                    packed = _full_columns(prof.scores)
                    if packed is not None:
                        ids_arr, vals_arr = packed
                        wc = prof.wire_cache
                        full_meta.append(
                            (
                                prof.version,
                                -1 if wc is None else wc,
                                1 if prof.is_binary else 0,
                                ids_arr.size,
                            )
                        )
                        full_norms.append(prof.norm)
                        full_ids.append(ids_arr)
                        full_scores.append(vals_arr)
                        tags.append(_FULL)
                        stats.full_profiles += 1
                    else:
                        pickled_profiles.append(prof.__getstate__())
                        tags.append(_PICKLED)
                        stats.pickled_profiles += 1
                # freshest-wins base store; the decoder applies the same
                # rule to its reconstruction, keeping the ends in lock-step
                if base is None or base.version <= prof.version:
                    bases[nid] = prof
            idx.extend(row_idx)

        def _cat(parts: list[np.ndarray]) -> bytes:
            if not parts:
                return b""
            if len(parts) == 1:
                return np.ascontiguousarray(parts[0]).tobytes()
            return np.concatenate(parts).tobytes()

        def _table(vals: list) -> bytes:
            return np.array(vals, dtype=_I64).tobytes() if vals else b""

        row_tab = _table(row_vals)
        if blocks:
            col_tab = (
                np.concatenate(blocks, axis=1)
                if len(blocks) > 1
                else np.ascontiguousarray(blocks[0])
            ).tobytes()
        else:
            col_tab = b""
        idx_tab = np.fromiter(idx, dtype=_I64, count=len(idx)).tobytes()
        new_tab = _table(new_vals)
        pick = (
            pickle.dumps(
                (overflow, pickled_profiles),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            if overflow or pickled_profiles
            else b""
        )
        # every 8-byte-typed section first, so each starts aligned
        sections = [
            row_tab,
            col_tab,
            idx_tab,
            new_tab,
            _table(full_meta),
            np.fromiter(
                full_norms, dtype=_F64, count=len(full_norms)
            ).tobytes(),
            _cat(full_ids),
            _cat(full_scores),
            _table(delta_meta),
            np.fromiter(
                delta_norms, dtype=_F64, count=len(delta_norms)
            ).tobytes(),
            _cat(delta_set_ids),
            _cat(delta_set_scores),
            _cat(delta_removed),
            bytes(tags),
            pick,
        ]
        stats.column_bytes += sum(len(sections[i]) for i in (0, 1, 2, 3))
        stats.full_bytes += sum(len(sections[i]) for i in (4, 5, 6, 7))
        stats.delta_bytes += sum(len(sections[i]) for i in (8, 9, 10, 11, 12))
        stats.pickle_bytes += len(pick)
        return _pack_frame(_PHASE_GOSSIP, sections)

    def _encode_items(self, rows: list) -> bytes:
        # item rows: (target_id, sender_id, copy, via_like); the copies
        # carry mutable per-path ItemProfiles — no snapshot to intern, so
        # they cross as one plain pickle behind the int columns
        row_vals: list = []
        copies: list = []
        overflow: list = []
        for row in rows:
            target, sender, copy, via_like = row
            if (
                isinstance(target, int)
                and isinstance(sender, int)
                and 0 <= target <= _MAX_I64
                and 0 <= sender <= _MAX_I64
            ):
                row_vals.append((target, sender, 1 if via_like else 0, 0))
                copies.append(copy)
            else:
                row_vals.append((0, 0, 0, _F_OVERFLOW))
                overflow.append(row)
                self.stats.overflow_rows += 1
        row_tab = np.array(row_vals, dtype=_I64).tobytes() if row_vals else b""
        pick = pickle.dumps(
            (copies, overflow), protocol=pickle.HIGHEST_PROTOCOL
        )
        self.stats.column_bytes += len(row_tab)
        self.stats.pickle_bytes += len(pick)
        return _pack_frame(_PHASE_ITEMS, [row_tab, pick])


def _check_indices(idx: np.ndarray, known: int, fresh: int) -> None:
    """Validate a frame's descriptor-index vector against the link table.

    The sender numbers first crossings ``known, known + 1, …`` in order
    of first use, so the running maximum of a well-formed vector climbs
    one step at a time from the table length and ends on the last of the
    frame's *fresh* descriptor rows.  Anything else names a descriptor
    this link does not hold (``KeyError``, like an unknown uid) or ships
    descriptor rows nothing refers to (``ValueError``).
    """
    top = known - 1
    if idx.size:
        climb = np.maximum.accumulate(np.maximum(idx, top))
        steps = np.diff(climb, prepend=top)
        top = int(climb[-1])
        if int(idx.min()) < 0 or int(steps.max()) > 1 or top >= known + fresh:
            raise KeyError(
                "wire frame indexes a descriptor this link does not hold "
                f"(table {known}, fresh {fresh}; tables out of lock-step)"
            )
    if top != known + fresh - 1:
        raise ValueError(
            f"wire frame ships {fresh} descriptors, its rows refer to "
            f"{top + 1 - known}"
        )


class LinkDecoder:
    """Receiver-side state of one directed cross-shard link.

    Mirrors the peer :class:`LinkEncoder`: a uid registry of received
    snapshots, the per-node base store deltas resolve against and the
    descriptor table rows are gathered from, grown under the identical
    rules so the shared cap fires in lock-step.  A re-shipped descriptor
    decodes to the *same* ``ViewEntry`` object every time — entries are
    immutable, so views on this shard may share it.
    """

    __slots__ = ("tier", "_registry", "_bases", "_desc", "_addrs")

    def __init__(self, tier: str | None = None) -> None:
        tier = wire_tier() if tier is None else tier
        if tier not in WIRE_TIERS:
            raise ValueError(f"unknown wire tier {tier!r}")
        self.tier = tier
        #: uid (and, pickle tier, entry key) -> received object
        self._registry: dict = {}
        #: freshest received snapshot per node id (delta bases)
        self._bases: dict = {}
        #: descriptor index -> rebuilt ``ViewEntry`` (delta tier)
        self._desc: list = []
        #: node id -> rebuilt address string (one shared str per node)
        self._addrs: dict = {}

    def __getstate__(self) -> dict:
        return {
            "tier": self.tier,
            "registry": self._registry,
            "bases": self._bases,
            "desc": self._desc,
        }

    def __setstate__(self, state: dict) -> None:
        self.tier = state["tier"]
        self._registry = state["registry"]
        self._bases = state["bases"]
        self._desc = state["desc"]
        self._addrs = {}

    def table_size(self) -> int:
        return len(self._registry)

    def descriptor_count(self) -> int:
        return len(self._desc)

    def cap_reset(self, cap: int) -> bool:
        """The receiver half of :meth:`LinkEncoder.cap_reset`."""
        if len(self._registry) > cap or len(self._desc) > _DESC_PER_UID * cap:
            self._registry.clear()
            self._bases.clear()
            self._desc.clear()
            return True
        return False

    # -- decoding ----------------------------------------------------------- #

    def decode(self, blob: bytes) -> list:
        """Decode one mailbox blob back into its row list."""
        if self.tier == "pickle":
            return _loads_interned(blob, self._registry)
        phase, sections = _unpack_frame(blob)
        if phase == _PHASE_ITEMS:
            return self._decode_items(sections)
        return self._decode_gossip(sections)

    def _decode_gossip(self, sections: list) -> list:
        from repro.core.profiles import apply_score_delta
        from repro.gossip.rps import RpsMessage
        from repro.gossip.vicinity import ClusteringMessage
        from repro.gossip.views import ViewEntry
        from repro.network.message import MessageKind

        row_tab = np.frombuffer(sections[0], dtype=_I64).reshape(-1, 7)
        col_tab = np.frombuffer(sections[1], dtype=_I64).reshape(3, -1)
        idx_tab = np.frombuffer(sections[2], dtype=_I64)
        new_tab = np.frombuffer(sections[3], dtype=_I64).reshape(-1, 3)
        full_meta = np.frombuffer(sections[4], dtype=_I64).reshape(-1, 4)
        full_norms = np.frombuffer(sections[5], dtype=_F64)
        full_ids = np.frombuffer(sections[6], dtype=_U64)
        full_scores = np.frombuffer(sections[7], dtype=_F64)
        delta_meta = np.frombuffer(sections[8], dtype=_I64).reshape(-1, 6)
        delta_norms = np.frombuffer(sections[9], dtype=_F64)
        delta_set_ids = np.frombuffer(sections[10], dtype=_U64)
        delta_set_scores = np.frombuffer(sections[11], dtype=_F64)
        delta_removed = np.frombuffer(sections[12], dtype=_U64)
        tags = np.frombuffer(sections[13], dtype=_U8).tolist()
        overflow: tuple = ()
        pickled_profiles: tuple = ()
        if len(sections[14]):
            overflow, pickled_profiles = pickle.loads(sections[14])

        registry = self._registry
        bases = self._bases
        addrs = self._addrs
        table = self._desc
        if len(tags) != len(new_tab):
            raise ValueError(
                f"wire frame ships {len(new_tab)} descriptors, {len(tags)} tags"
            )
        _check_indices(idx_tab, len(table), len(new_tab))

        # -- first crossings, in index order: the only entries built ------ #
        fi = 0  # full-profile cursor
        f_off = 0  # full ids/scores offset
        di = 0  # delta cursor
        d_set = 0  # delta set-op offset
        d_rem = 0  # delta removal offset
        pi = 0  # pickled-profile cursor
        for tag, (nid, ts, uid) in zip(tags, new_tab.tolist(), strict=True):
            if tag == _REF:
                prof = registry[uid]
            else:
                if tag == _FULL:
                    meta = full_meta[fi]
                    n_sc = int(meta[3])
                    scores = dict(
                        zip(
                            full_ids[f_off : f_off + n_sc].tolist(),
                            full_scores[f_off : f_off + n_sc].tolist(),
                            strict=True,
                        )
                    )
                    f_off += n_sc
                    wc = int(meta[1])
                    prof = _rebuild_profile(
                        scores,
                        float(full_norms[fi]),
                        bool(meta[2]),
                        uid,
                        int(meta[0]),
                        None if wc < 0 else wc,
                    )
                    fi += 1
                elif tag == _DELTA:
                    meta = delta_meta[di]
                    base = bases.get(nid)
                    if base is None or base.uid != int(meta[0]):
                        raise KeyError(
                            f"wire delta for node {nid} names base uid "
                            f"{int(meta[0])} this link does not hold "
                            "(tables out of lock-step)"
                        )
                    n_sets = int(meta[4])
                    n_removed = int(meta[5])
                    scores = apply_score_delta(
                        base.scores,
                        delta_set_ids[d_set : d_set + n_sets].tolist(),
                        delta_set_scores[d_set : d_set + n_sets].tolist(),
                        delta_removed[d_rem : d_rem + n_removed].tolist(),
                    )
                    d_set += n_sets
                    d_rem += n_removed
                    wc = int(meta[2])
                    prof = _rebuild_profile(
                        scores,
                        float(delta_norms[di]),
                        bool(meta[3]),
                        uid,
                        int(meta[1]),
                        None if wc < 0 else wc,
                    )
                    di += 1
                else:  # _PICKLED
                    prof = _rebuild_profile(
                        **{
                            key: pickled_profiles[pi][key]
                            for key in (
                                "scores",
                                "norm",
                                "is_binary",
                                "uid",
                                "version",
                                "wire_cache",
                            )
                        }
                    )
                    pi += 1
                registry[uid] = prof
                base = bases.get(nid)
                if base is None or base.version <= prof.version:
                    bases[nid] = prof
            table.append(
                ViewEntry(nid, _node_address(nid, addrs), prof, ts)
            )

        # -- rows: every message's entries are a gather from the table ---- #
        kinds = (MessageKind.RPS, MessageKind.WUP)
        idx = idx_tab.tolist()
        tabled = table.__getitem__
        out: list = []
        ei = 0  # entry cursor
        ci = 0  # column-block cursor
        ov = 0  # overflow cursor
        for a, b, s, kcode, flags, w, k in row_tab.tolist():
            if flags & _F_OVERFLOW:
                out.append(overflow[ov])
                ov += 1
                continue
            lo = ei
            ei += k
            cols = None
            if flags & _F_COLS and k:
                # one private C-order copy per message: the kernel-merge
                # fast path reads the block by address and the frame
                # buffer is read-only
                cols = (col_tab[:, ci : ci + k].copy(), k, k)
                ci += k
            mcls = ClusteringMessage if flags & _F_CLUSTERING else RpsMessage
            msg = mcls(
                s,
                tuple(map(tabled, idx[lo:ei])),
                bool(flags & _F_REQUEST),
                None if w < 0 else w,
                cols,
            )
            out.append((a, b, kinds[kcode], msg))
        if ei != len(idx) or ci != col_tab.shape[1]:
            raise ValueError(
                f"wire frame rows cover {ei} entries and {ci} column slots "
                f"of {len(idx)} and {col_tab.shape[1]} shipped"
            )
        return out

    def _decode_items(self, sections: list) -> list:
        row_tab = np.frombuffer(sections[0], dtype=_I64).reshape(-1, 4)
        copies, overflow = pickle.loads(sections[1])
        out: list = []
        ci = 0
        ov = 0
        for target, sender, via_like, flags in row_tab.tolist():
            if flags & _F_OVERFLOW:
                out.append(overflow[ov])
                ov += 1
            else:
                out.append((target, sender, copies[ci], bool(via_like)))
                ci += 1
        return out
