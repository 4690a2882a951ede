"""The WHATSUP node: WUP + BEEP + the user's opinion loop.

Ties together everything the paper's Figure 1 sketches: the user's
like/dislike opinions feed the user profile (Algorithm 1), the profile
feeds WUP's implicit social network (Section II), and BEEP disseminates
items over that network (Algorithm 2, Section III).

A node owns:

* its user profile ``P̃`` (binary opinions, window-purged);
* an RPS protocol instance (random overlay, view size 30);
* a WUP clustering instance (similar-peer overlay, view size 2·fLIKE);
* a BEEP forwarder (amplification + orientation);
* the SIR "seen" set (duplicate receipts are dropped).

The like/dislike decision is delegated to an *opinion oracle* — in
experiments this is the dataset's ground-truth matrix, standing in for the
human behind the paper's web widget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.beep import BeepForwarder
from repro.core.config import WhatsUpConfig
from repro.core.news import ItemCopy, NewsItem
from repro.core.profiles import ItemProfile, UserProfile
from repro.gossip.rps import RpsProtocol
from repro.gossip.vicinity import ClusteringProtocol
from repro.network.message import MessageKind
from repro.simulation.delivery import split_first_receipts
from repro.simulation.node import BaseNode
from repro.utils.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import CycleEngine

__all__ = ["WhatsUpNode", "OpinionFn"]

#: ``oracle(node_id, item) -> liked?`` — the simulated user's click.
OpinionFn = Callable[[int, NewsItem], bool]


class WhatsUpNode(BaseNode):
    """One WHATSUP participant.

    Parameters
    ----------
    node_id:
        The node's identifier (the dataset's user index).
    config:
        Protocol parameters (Table II).
    opinion:
        The opinion oracle consulted on first receipt of each item.
    streams:
        The experiment's root randomness; the node derives its private
        ``rps``/``wup``/``beep`` streams from it, so runs are reproducible
        and nodes are statistically independent.
    """

    __slots__ = ("config", "opinion", "profile", "rps", "wup", "beep", "seen")

    def __init__(
        self,
        node_id: int,
        config: WhatsUpConfig,
        opinion: OpinionFn,
        streams: RngStreams,
    ) -> None:
        super().__init__(node_id)
        self.config = config
        self.opinion = opinion
        self.profile = UserProfile()
        # passing the *registry name* keeps the WUP merge and BEEP
        # orientation on the pool-at-a-time scoring path
        metric = config.similarity
        self.rps = RpsProtocol(
            node_id,
            config.rps_view_size,
            streams.fresh(f"node-{node_id}-rps"),
        )
        self.wup = ClusteringProtocol(
            node_id,
            config.effective_wup_view_size,
            metric,
            streams.fresh(f"node-{node_id}-wup"),
        )
        self.beep = BeepForwarder(
            config, metric, streams.fresh(f"node-{node_id}-beep")
        )
        self.seen: set[int] = set()

    # ------------------------------------------------------------------ #
    # gossip maintenance                                                   #
    # ------------------------------------------------------------------ #

    def public_profile(self):
        """The profile snapshot *shared with other nodes* via gossip.

        Subclasses may override this to disclose a distorted view of the
        user's opinions (see :mod:`repro.privacy.obfuscation`); the node's
        own similarity rankings always use the true profile.
        """
        return self.profile.snapshot()

    def begin_cycle(self, engine: "CycleEngine", now: int) -> None:
        """Purge the profile window, then run RPS and WUP exchanges."""
        window_start = now - self.config.profile_window
        if window_start > 0:
            self.profile.purge_older_than(window_start)

        shared = self.public_profile()
        if now % self.config.rps_every == 0:
            started = self.rps.initiate(shared, now)
            if started is not None:
                partner, msg = started
                engine.gossip(self.node_id, partner, msg, MessageKind.RPS)
        if now % self.config.wup_every == 0:
            started = self.wup.initiate(
                shared, now, ranking_profile=self.profile.snapshot()
            )
            if started is not None:
                partner, msg = started
                engine.gossip(self.node_id, partner, msg, MessageKind.WUP)

    def on_gossip(
        self,
        msg: object,
        kind: MessageKind,
        engine: "CycleEngine",
        now: int,
    ) -> object | None:
        shared = self.public_profile()
        if kind is MessageKind.RPS:
            return self.rps.handle(msg, shared, now)
        if kind is MessageKind.WUP:
            # Vicinity feeds on the RPS view for fresh candidates; the view
            # is ranked against the node's *true* interests.  On the array
            # state plane the RPS view hands its columns over alongside the
            # entries, so the merge-dedup runs column-native end to end.
            rps_entries, rps_cols = self.rps.view.entries_with_columns()
            return self.wup.handle(
                msg,
                shared,
                now,
                rps_entries=rps_entries,
                ranking_profile=self.profile.snapshot(),
                rps_cols=rps_cols,
            )
        return None

    # ------------------------------------------------------------------ #
    # Algorithm 1: receiving / generating an item                          #
    # ------------------------------------------------------------------ #

    def receive_item(
        self,
        copy: ItemCopy,
        via_like: bool,
        engine: "CycleEngine",
        now: int,
    ) -> None:
        item = copy.item
        if item.item_id in self.seen:
            engine.log_duplicate()  # SIR: already infected/removed
            return
        self.seen.add(item.item_id)

        liked = bool(self.opinion(self.node_id, item))
        if liked:
            # lines 2-5: fold the *pre-update* user profile into the item
            # profile, then record the like
            copy.profile.integrate(self.profile)
            self.profile.record_opinion(item.item_id, item.created_at, True)
        else:
            # line 7
            self.profile.record_opinion(item.item_id, item.created_at, False)

        # lines 8-10: purge old entries from the item profile
        window_start = now - self.config.profile_window
        if window_start > 0:
            copy.profile.purge_older_than(window_start)

        engine.log_delivery(self.node_id, copy, liked, via_like)

        # line 11: hand over to BEEP
        self.beep.forward(
            self.node_id, copy, liked, self.wup.view, self.rps.view, engine
        )

    def receive_items(
        self,
        deliveries: "list[tuple[int, ItemCopy, bool]]",
        engine: "CycleEngine",
        now: int,
    ) -> None:
        """Batched Algorithm 1 over this node's whole per-cycle inbox.

        Same semantics as :meth:`receive_item` applied per message in
        arrival order, restructured into bulk passes: duplicate
        suppression in one sweep (:func:`split_first_receipts`, which
        forks the first receipts off the shared in-flight copies), then
        opinions and profile updates, then one bulk delivery-log append,
        then BEEP's forwarding fan-out
        (:meth:`~repro.core.beep.BeepForwarder.forward_batch`).  Profile
        state evolves in arrival order and BEEP draws its randomness per
        message exactly as the scalar path does, so outcomes are
        bitwise-identical at fixed seeds.
        """
        fresh, duplicates = split_first_receipts(deliveries, self.seen)
        if duplicates:
            engine.log_duplicates(duplicates)
        if not fresh:
            return

        profile = self.profile
        opinion = self.opinion
        node_id = self.node_id
        window_start = now - self.config.profile_window
        purge = window_start > 0
        liked_flags: list[bool] = []
        d_items: list[int] = []
        d_hops: list[int] = []
        d_dislikes: list[int] = []
        d_via: list[bool] = []
        for copy, via_like in fresh:
            item = copy.item
            liked = bool(opinion(node_id, item))
            if liked:
                # lines 2-5: fold the pre-update user profile into the
                # item profile, then record the like
                copy.profile.integrate(profile)
            profile.record_opinion(item.item_id, item.created_at, liked)
            # lines 8-10: purge old entries from the item profile
            if purge:
                copy.profile.purge_older_than(window_start)
            liked_flags.append(liked)
            d_items.append(item.item_id)
            d_hops.append(copy.hops)
            d_dislikes.append(copy.dislikes)
            d_via.append(via_like)

        # logged before forwarding: the fan-out advances this node's
        # private copy in place and ships it to every target
        engine.log_deliveries(
            node_id, d_items, d_hops, d_dislikes, liked_flags, d_via
        )

        # line 11: hand the batch to BEEP
        self.beep.forward_batch(
            node_id, fresh, liked_flags, self.wup.view, self.rps.view, engine
        )

    def publish(self, item: NewsItem, engine: "CycleEngine", now: int) -> None:
        """Algorithm 1, ``generateNewsItem``: the source's own path."""
        self.seen.add(item.item_id)
        # line 14: the source likes its own item *before* building the item
        # profile, so the fresh item profile includes the item itself
        self.profile.record_opinion(item.item_id, item.created_at, True)
        profile = ItemProfile()
        profile.integrate(self.profile)  # lines 15-16
        copy = ItemCopy(item=item, profile=profile, dislikes=0, hops=0)

        engine.log_delivery(self.node_id, copy, liked=True, via_like=True)
        # line 17: BEEP.forward — the source liked it, so the like path runs
        self.beep.forward(
            self.node_id, copy, True, self.wup.view, self.rps.view, engine
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WhatsUpNode(id={self.node_id}, profile={len(self.profile)}, "
            f"rps={len(self.rps.view)}, wup={len(self.wup.view)})"
        )
