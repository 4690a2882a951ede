"""Workload abstraction shared by all dataset generators.

A :class:`Dataset` bundles everything an experiment needs:

* the user population size;
* the ordered list of :class:`~repro.core.news.NewsItem` (each already
  stamped with its source node and publication cycle);
* the ground-truth boolean ``likes[user, item]`` matrix — the oracle behind
  the like/dislike buttons of the paper's user interface;
* optionally an explicit social graph (the Digg workload, used by the
  cascading baseline) and per-item topics (used by the C-Pub/Sub baseline).

The paper's three workloads (Table I) are produced by
:mod:`repro.datasets.synthetic`, :mod:`repro.datasets.digg` and
:mod:`repro.datasets.survey`; all of them are *generators* because the
original traces (an Arxiv crawl, a 2010 Digg crawl and an in-lab survey) are
not redistributable (ARCHITECTURE.md, "Layer map", lists the generators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.news import NewsItem
from repro.simulation.schedule import PublicationSchedule
from repro.utils.exceptions import DatasetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    # networkx is optional: only the Digg generator and repro.metrics.graph
    # import it, inside the functions that build or analyse graphs
    import networkx as nx

__all__ = ["Dataset", "OpinionOracle"]


@dataclass
class Dataset:
    """One evaluation workload.

    Attributes
    ----------
    name:
        Human-readable workload name (Table I's first column).
    n_users:
        Number of users; node ids are ``0 .. n_users - 1``.
    items:
        Workload items in publication order; ``items[i].created_at`` is the
        cycle at which item *i* is published and ``items[i].source`` the
        publishing node.  Dense item index *i* is used throughout the
        metrics code.
    likes:
        Boolean ``(n_users, n_items)`` ground-truth interest matrix.
    publish_cycles:
        The window ``[0, publish_cycles)`` over which items appear.
    social_graph:
        Optional explicit directed social graph (Digg); edges point from a
        user to the neighbours that receive her cascades.
    n_topics:
        Number of distinct topics (communities / categories), when the
        workload has them; ``0`` otherwise.
    """

    name: str
    n_users: int
    items: list[NewsItem]
    likes: np.ndarray
    publish_cycles: int
    social_graph: nx.DiGraph | None = None
    n_topics: int = 0
    _item_topics: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.likes = np.asarray(self.likes, dtype=bool)
        if self.likes.shape != (self.n_users, len(self.items)):
            raise DatasetError(
                f"likes matrix shape {self.likes.shape} does not match "
                f"({self.n_users}, {len(self.items)})"
            )
        if self.n_users <= 0 or not self.items:
            raise DatasetError("a dataset needs at least one user and one item")
        if self.publish_cycles <= 0:
            raise DatasetError("publish_cycles must be > 0")
        self._item_topics = np.asarray([it.topic for it in self.items], dtype=np.int64)
        for idx, item in enumerate(self.items):
            if not 0 <= item.source < self.n_users:
                raise DatasetError(
                    f"item {idx} has out-of-range source {item.source}"
                )
            if not 0 <= item.created_at < self.publish_cycles:
                raise DatasetError(
                    f"item {idx} publication cycle {item.created_at} outside "
                    f"[0, {self.publish_cycles})"
                )
            if not self.likes[item.source, idx]:
                raise DatasetError(
                    f"item {idx}'s source {item.source} does not like it; "
                    "publishers must be interested in their own items"
                )

    # -- derived views ------------------------------------------------------

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def item_topics(self) -> np.ndarray:
        """Per-item topic ids (``-1`` for untagged workloads)."""
        return self._item_topics

    def schedule(self) -> PublicationSchedule:
        """Build the engine's publication schedule from the item stamps."""
        return PublicationSchedule(
            (item.created_at, item) for item in self.items
        )

    def interested_counts(self) -> np.ndarray:
        """Per-item number of interested users (popularity numerator)."""
        return self.likes.sum(axis=0)

    def popularity(self) -> np.ndarray:
        """Per-item fraction of interested users (Figure 10's x-axis)."""
        return self.interested_counts() / float(self.n_users)

    def like_rate(self) -> float:
        """Overall fraction of (user, item) pairs that are likes."""
        return float(self.likes.mean())

    def topic_subscriptions(self) -> list[set[int]]:
        """Per-user topic subscriptions for the C-Pub/Sub baseline.

        Following Section IV-B: "we subscribe a user to a topic if she likes
        at least one item associated with that topic".
        """
        if self.n_topics <= 0:
            raise DatasetError(
                f"workload {self.name!r} has no topics; C-Pub/Sub needs a "
                "topic-tagged dataset"
            )
        subs: list[set[int]] = [set() for _ in range(self.n_users)]
        topics = self._item_topics
        for user in range(self.n_users):
            liked_items = np.flatnonzero(self.likes[user])
            subs[user] = {int(topics[i]) for i in liked_items if topics[i] >= 0}
        return subs

    def summary_row(self) -> tuple[str, int, int]:
        """The workload's Table I row: (name, #users, #news)."""
        return (self.name, self.n_users, self.n_items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dataset({self.name!r}, users={self.n_users}, "
            f"items={self.n_items}, like_rate={self.like_rate():.2f})"
        )


class OpinionOracle:
    """Callable adapter from the ground-truth matrix to per-node opinions.

    Nodes consult ``oracle(node_id, item)`` when an item first reaches them —
    the simulation stand-in for the user pressing like or dislike.
    """

    __slots__ = ("_likes", "_index_of")

    def __init__(self, dataset: Dataset) -> None:
        # plain nested lists: one oracle call per first receipt is a hot
        # path, and Python list indexing beats numpy scalar indexing there
        self._likes = np.asarray(dataset.likes, dtype=bool).tolist()
        self._index_of = {
            item.item_id: idx for idx, item in enumerate(dataset.items)
        }

    def __call__(self, node_id: int, item: NewsItem) -> bool:
        """Whether *node_id* likes *item* (ground truth)."""
        return self._likes[node_id][self._index_of[item.item_id]]
