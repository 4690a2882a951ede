"""News items and their circulating copies (paper Section II-A).

A news item consists of a title, a short description and a link.  The
publisher stamps it with a creation time and a **dislike counter** initialised
to zero, which BEEP increments every time a node that dislikes the item
forwards it anyway (the serendipity mechanism, Algorithm 2 line 26).  Nodes
identify items by an 8-byte hash recomputed locally
(:func:`repro.utils.hashing.item_digest`).

Two classes model this:

* :class:`NewsItem` — the immutable published object, shared by every copy;
* :class:`ItemCopy` — one copy in flight, carrying its own item profile and
  dislike counter.  Every receiver that keeps a copy works on a private one
  (cloned per send on the scalar path, forked per first receipt on the
  batched path), so divergent paths evolve divergent profiles, exactly as
  serialized network messages would.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profiles import ItemProfile
from repro.utils.hashing import item_digest

__all__ = ["NewsItem", "ItemCopy", "ITEM_HEADER_BYTES", "PROFILE_ENTRY_BYTES"]

#: Modelled wire size of an item header: the 8-byte id is *not* transmitted
#: (recomputed), but the copy ships a timestamp (8), a dislike counter (1),
#: and the human-readable payload — title (~80 B), short description
#: (~400 B) and link (~120 B), per Section II-A's item anatomy.
ITEM_HEADER_BYTES = 8 + 1 + 600

#: Modelled wire size of one profile entry: 8-byte identifier + 8-byte
#: timestamp + 8-byte score.
PROFILE_ENTRY_BYTES = 8 + 8 + 8


@dataclass(frozen=True)
class NewsItem:
    """An immutable published news item.

    Attributes
    ----------
    item_id:
        The 8-byte identifier (derived hash; see Section II-A).
    source:
        Node id of the publisher.
    created_at:
        Publication timestamp (simulation cycle).
    topic:
        Workload-level ground-truth tag (community index, Digg category or
        survey topic).  Carried for evaluation only — the protocols never
        read it; the paper's system is content-agnostic.
    title / description / link:
        Human-readable payload (size-modelled on the wire).
    """

    item_id: int
    source: int
    created_at: int
    topic: int = -1
    title: str = ""
    description: str = ""
    link: str = ""

    @staticmethod
    def publish(
        source: int,
        created_at: int,
        *,
        topic: int = -1,
        title: str | None = None,
        description: str = "",
        link: str = "",
    ) -> "NewsItem":
        """Create a news item, deriving its identifier from its fields."""
        if title is None:
            title = f"news-by-{source}-at-{created_at}"
        iid = item_digest(title, source, created_at)
        return NewsItem(
            item_id=iid,
            source=source,
            created_at=created_at,
            topic=topic,
            title=title,
            description=description,
            link=link,
        )


class ItemCopy:
    """One copy of a news item in flight.

    A plain slotted class (not a dataclass): one instance is created per
    BEEP transmission (scalar path) or first receipt (batched path), which
    makes construction cost part of the simulation's innermost loop.

    Attributes
    ----------
    item:
        The shared immutable :class:`NewsItem`.
    profile:
        This copy's item profile ``P^I`` (path-dependent; Algorithm 1).
    dislikes:
        The dislike counter ``d_I`` (bounded by the BEEP TTL).
    hops:
        Number of forwarding hops from the source to this copy.  Not part of
        the paper's wire format — we track it for the Figure 6 analysis.
    """

    __slots__ = ("item", "profile", "dislikes", "hops")

    def __init__(
        self,
        item: NewsItem,
        profile: ItemProfile | None = None,
        dislikes: int = 0,
        hops: int = 0,
    ) -> None:
        self.item = item
        self.profile = profile if profile is not None else ItemProfile()
        self.dislikes = dislikes
        self.hops = hops

    def clone_for_forward(self, extra_dislikes: int = 0) -> "ItemCopy":
        """Clone this copy for transmission to one more target.

        The clone's profile is a logically independent copy (copy-on-write:
        divergent paths materialise divergent profiles on first mutation)
        and its hop count is one greater.  *extra_dislikes* folds BEEP's
        dislike-counter increment (Algorithm 2 line 26) into the clone
        instead of a separate post-construction write.

        Built through ``__new__`` + direct slot writes: one clone per BEEP
        transmission makes the ``__init__`` dispatch (and its default-
        profile branch) measurable at paper scale.
        """
        clone = ItemCopy.__new__(ItemCopy)
        clone.item = self.item
        clone.profile = self.profile.copy()
        clone.dislikes = self.dislikes + extra_dislikes
        clone.hops = self.hops + 1
        return clone

    def advance_hop(self, extra_dislikes: int = 0) -> "ItemCopy":
        """Turn this copy *itself* into its forwarded form (move, no clone).

        The batched fan-out calls this once per forwarding action and puts
        the one advanced object in every target's inbox — the sender never
        touches the copy again after forwarding.  Counters advance exactly
        as :meth:`clone_for_forward` would set them on a clone.
        """
        self.dislikes += extra_dislikes
        self.hops += 1
        return self

    def fork(self) -> "ItemCopy":
        """A private copy of an in-flight copy: same counters, own profile.

        A copy in a batched inbox may be shared between recipients; a
        receiver forks it on first receipt, before keeping or mutating it
        (duplicates are dropped unforked).  The profile is copy-on-write
        and joins the original's pack cell (:meth:`ItemProfile.copy`).
        """
        clone = ItemCopy.__new__(ItemCopy)
        clone.item = self.item
        clone.profile = self.profile.copy()
        clone.dislikes = self.dislikes
        clone.hops = self.hops
        return clone

    def wire_size(self) -> int:
        """Modelled serialized size in bytes (header + item profile)."""
        return ITEM_HEADER_BYTES + PROFILE_ENTRY_BYTES * len(self.profile)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ItemCopy(item={self.item.item_id:#x}, n={len(self.profile)}, "
            f"dislikes={self.dislikes}, hops={self.hops})"
        )
