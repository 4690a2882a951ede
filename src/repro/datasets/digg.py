"""Digg-like workload: categories + an explicit social graph.

The paper crawled Digg for three weeks in 2010, obtaining 750 users, 2500
news items and 40 categories, plus the explicit follower graph along which
Digg cascades items (Section IV-A).  To undo the bias of cascade-limited
exposure, the authors define a user's ground-truth interests as *all items
in the categories she published in* — category-driven interests decoupled
from the social graph.

Our generator reproduces the two structural properties the evaluation
exercises:

* **category-driven interests**: item categories follow a Zipf popularity
  law; each user is interested in a few categories (popularity-biased);
  she likes every item of her categories (plus optional noise);
* **a partially-aligned social graph**: a preferential-attachment follower
  graph in which a tunable ``homophily`` fraction of edges link users
  sharing a category and the rest are interest-blind.  Cascading over this
  graph reaches only a small part of each item's audience — the effect
  behind Table V's 0.09 recall for Cascade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.datasets._build import ensure_items_liked, finalize_items
from repro.datasets.base import Dataset
from repro.utils.exceptions import DatasetError
from repro.utils.rng import spawn_generator
from repro.utils.validation import check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["digg_dataset", "zipf_weights"]


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    """Normalised Zipf mass over ``n`` ranks: ``w_r ∝ 1 / (r+1)^exponent``."""
    check_positive("n", n)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _interest_sets(
    n_users: int,
    n_categories: int,
    popularity: np.ndarray,
    mean_interests: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Sample each user's interest categories, biased by popularity."""
    interests: list[np.ndarray] = []
    for _ in range(n_users):
        k = 1 + rng.poisson(max(mean_interests - 1.0, 0.0))
        k = min(int(k), n_categories)
        cats = rng.choice(n_categories, size=k, replace=False, p=popularity)
        interests.append(np.sort(cats))
    return interests


def _follower_graph(
    n_users: int,
    interests: list[np.ndarray],
    edges_per_user: int,
    homophily: float,
    rng: np.random.Generator,
) -> nx.DiGraph:
    """Preferential-attachment follower graph with interest homophily.

    Users join in random order; each joiner follows ``edges_per_user``
    existing *influencers*.  With probability ``homophily`` the influencer
    is drawn (follower-count-weighted) among users sharing a category with
    the joiner, otherwise among everyone.  An edge ``influencer → joiner``
    means the joiner receives the influencer's cascades.  Needs networkx.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(n_users))
    join_order = rng.permutation(n_users)
    category_members: dict[int, list[int]] = {}
    followers = np.ones(n_users)  # +1 smoothing for preferential attachment

    for pos, joiner in enumerate(join_order):
        joiner = int(joiner)
        existing = join_order[:pos]
        if len(existing) > 0:
            k = min(edges_per_user, len(existing))
            similar = [
                u
                for c in interests[joiner]
                for u in category_members.get(int(c), [])
            ]
            chosen: set[int] = set()
            for _ in range(k):
                pool: list[int]
                if similar and rng.random() < homophily:
                    pool = similar
                else:
                    pool = [int(u) for u in existing]
                weights = followers[pool]
                target = int(
                    np.asarray(pool)[
                        rng.choice(len(pool), p=weights / weights.sum())
                    ]
                )
                if target != joiner and target not in chosen:
                    chosen.add(target)
                    graph.add_edge(target, joiner)
                    followers[target] += 1.0
        for c in interests[joiner]:
            category_members.setdefault(int(c), []).append(joiner)
    return graph


def digg_dataset(
    n_users: int = 188,
    n_items: int = 625,
    n_categories: int = 40,
    *,
    zipf_exponent: float = 1.0,
    mean_interests: float = 3.0,
    edges_per_user: int = 8,
    homophily: float = 0.5,
    noise: float = 0.01,
    publish_cycles: int = 50,
    seed: int = 0,
) -> Dataset:
    """Generate the Digg-like workload.

    Parameters
    ----------
    n_users / n_items:
        Population and stream sizes.  Paper scale is 750 / 2500; the
        default is a 4×-reduced version for fast benchmarking.
    n_categories:
        Distinct news categories (paper: 40).
    zipf_exponent:
        Category-popularity skew (1.0 → classic Zipf).
    mean_interests:
        Mean number of categories per user (1 + Poisson sampling).
    edges_per_user:
        Follower edges each joining user creates (graph density).
    homophily:
        Fraction of follow edges constrained to shared-category users; the
        remainder is interest-blind, which is what caps cascade recall.
    noise:
        Probability of liking an item outside one's categories.
    publish_cycles / seed:
        Scheduling window and workload seed.

    Returns
    -------
    Dataset
        With ``social_graph`` set (the cascade substrate) and
        ``n_topics = n_categories``.

    Raises
    ------
    ImportError
        Without networkx: the social graph is a :class:`networkx.DiGraph`.
    """
    check_probability("homophily", homophily)
    check_probability("noise", noise)
    check_positive("edges_per_user", edges_per_user)
    if n_categories <= 0:
        raise DatasetError("n_categories must be > 0")
    rng = spawn_generator(seed, "dataset-digg")

    popularity = zipf_weights(n_categories, zipf_exponent)
    item_topics = rng.choice(n_categories, size=n_items, p=popularity)
    interests = _interest_sets(n_users, n_categories, popularity, mean_interests, rng)

    likes = np.zeros((n_users, n_items), dtype=bool)
    for user, cats in enumerate(interests):
        likes[user] = np.isin(item_topics, cats)
    if noise > 0.0:
        likes |= rng.random((n_users, n_items)) < noise

    ensure_items_liked(likes, rng)
    graph = _follower_graph(n_users, interests, edges_per_user, homophily, rng)
    items, likes = finalize_items("digg", item_topics, likes, publish_cycles, rng)
    return Dataset(
        name="Digg",
        n_users=n_users,
        items=items,
        likes=likes,
        publish_cycles=publish_cycles,
        social_graph=graph,
        n_topics=n_categories,
    )
