"""BEEP — the Biased EpidEmic dissemination Protocol (paper Section III).

BEEP follows the SIR epidemic model but is heterogeneous along two
dimensions, both driven by the receiving user's opinion (Algorithm 2):

* **Amplification** — a node that *likes* an item forwards it to ``fLIKE``
  targets; a node that *dislikes* it forwards it to a single target, and
  only while the copy's dislike counter is below the BEEP TTL.  User
  opinions thus act as a *social filter* on the epidemic's reproduction
  rate.
* **Orientation** — like-forwards pick targets **uniformly at random from
  the WUP view** (already interest-biased, and randomised to avoid
  over-clustering); dislike-forwards pick the **RPS-view node whose profile
  is most similar to the item's profile**, giving the item a chance to
  reach a distant interested community even though the current holder is
  not interested (serendipity / explore).

The implementation is a strategy object shared by WHATSUP nodes; it is
stateless apart from its RNG, so one instance per node suffices.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from repro._native import kernel as _native
from repro.core.config import WhatsUpConfig
from repro.core.gates import fast_mode
from repro.core.news import ItemCopy
from repro.core.similarity import (
    NATIVE_MIN_PAIRS,
    MetricFn,
    get_metric,
    metric_name_of,
    score_candidates,
)
from repro.gossip.views import View, ViewEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import CycleEngine

__all__ = ["BeepForwarder"]


class BeepForwarder:
    """Per-node BEEP forwarding logic (Algorithm 2).

    Parameters
    ----------
    config:
        The node's WHATSUP parameters (fanouts, TTL).
    metric:
        Similarity metric for dislike orientation — candidates are scored
        with ``metric(candidate_profile, item_profile)``, i.e. the
        candidate is the "chooser" ``n`` of the asymmetric WUP metric (how
        well the item's community profile matches what the candidate
        likes).  Registered metrics (name or function) are scored a pool
        at a time (fused native argmax, else
        :func:`~repro.core.similarity.score_candidates`); unregistered
        callables fall back to per-candidate scalar calls.
    rng:
        Target-sampling randomness.
    """

    __slots__ = (
        "config",
        "metric",
        "metric_name",
        "rng",
        "_pool_tag",
        "_pool_view",
        "_pool_entries",
        "_pool_profiles",
        "_pool_binary",
    )

    def __init__(
        self,
        config: WhatsUpConfig,
        metric: MetricFn | str,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.metric_name = metric_name_of(metric)
        self.metric = get_metric(metric) if isinstance(metric, str) else metric
        self.rng = rng
        # RPS pool memo, rebuilt only when the view's content changes: a
        # node receiving many disliked items in a cycle scores them all
        # against the same candidate list
        self._pool_tag: int = -1
        self._pool_view: View | None = None
        self._pool_entries: list[ViewEntry] = []
        self._pool_profiles: list = []
        self._pool_binary: bool = False

    def __getstate__(self) -> dict:
        """Serialize protocol state only: no pool memo.

        The RPS pool memo is a pure function of the current view content
        (rebuilt lazily on first use) — dropping it keeps node transfers
        slim and every outcome bit-identical.
        """
        return {
            "config": self.config,
            "metric": self.metric,
            "metric_name": self.metric_name,
            "rng": self.rng,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._pool_tag = -1
        self._pool_view = None
        self._pool_entries = []
        self._pool_profiles = []
        self._pool_binary = False

    def _view_pool(self, rps_view: View) -> list[ViewEntry]:
        """Refresh the memoised pool state for the current view generation."""
        tag = rps_view.mutation_count
        if self._pool_view is not rps_view or tag != self._pool_tag:
            # one facade walk serves both lists on either state plane
            self._pool_entries = entries = rps_view.entries()
            self._pool_profiles = [e.profile for e in entries]
            self._pool_binary = all(
                getattr(p, "is_binary", False) for p in self._pool_profiles
            )
            self._pool_tag = tag
            self._pool_view = rps_view
        return self._pool_entries

    # -- target selection --------------------------------------------------

    def like_targets(self, wup_view: View) -> list[int]:
        """Amplification: ``fLIKE`` uniform random picks from the WUP view.

        Random (not closest-first) selection avoids "forming too clustered
        a topology" (Section III-B).
        """
        entries = wup_view.sample(self.config.f_like, self.rng)
        return [e.node_id for e in entries]

    def dislike_targets(self, rps_view: View, copy: ItemCopy) -> list[int]:
        """Orientation: the RPS node(s) closest to the item's profile.

        Returns at most ``f_dislike`` node ids (the paper uses exactly 1).
        Entries with zero similarity still qualify — the paper picks the
        *most similar* node, falling back to an effectively random node
        when nothing matches (serendipity requires the item to keep
        moving).  Ties break **randomly**: a deterministic tie-break would
        systematically starve fresh nodes whose profiles still score zero
        against every item profile.
        """
        if len(rps_view) == 0:
            return []
        k = min(self.config.f_dislike, len(rps_view))
        if k == 0:
            return []
        item_profile = copy.profile
        if self.metric_name is not None and fast_mode():
            # one pass over the memoised pool: the item profile is the
            # candidate side ("c") of the asymmetric metric, the RPS peers
            # the choosers.  Scores come out in stable view order; the
            # scalar path below scores the same order, so both paths pick
            # identical targets from identical rng draws.  On the native
            # tier the paper's fanout of 1 runs fully fused (scoring +
            # argmax + tie detection in one C call over the memoised pool
            # — same tie set, hence identical rng draws); every other
            # shape (f_dislike > 1, jaccard/overlap, a pool member the
            # kernel cannot resolve) is scored by score_candidates.
            entries = self._view_pool(rps_view)
            nk = _native()
            if (
                nk is not None
                and k == 1
                and len(entries) >= NATIVE_MIN_PAIRS
                and self._pool_binary
                and not getattr(item_profile, "is_binary", False)
                and self.metric_name in ("wup", "cosine")
            ):
                tied = nk.item_argmax(
                    item_profile,
                    self._pool_profiles,
                    5 if self.metric_name == "wup" else 6,
                )
                if tied is not None:
                    pick = (
                        int(tied[0])
                        if tied.size == 1
                        else int(tied[int(self.rng.integers(tied.size))])
                    )
                    return [entries[pick].node_id]
            scores = score_candidates(
                item_profile,
                self._pool_profiles,
                self.metric_name,
                owner_role="c",
            )
        else:
            entries = rps_view.entries()
            metric = self.metric
            scores = [metric(e.profile, item_profile) for e in entries]
        return self._select_targets(entries, scores, k)

    def _select_targets(
        self, entries: list[ViewEntry], scores: list[float], k: int
    ) -> list[int]:
        """Pick the top-*k* node ids from aligned candidate scores."""
        if k == 1:
            # the paper's operating point: a single argmax with a uniform
            # draw among exact ties (fresh all-zero profiles stay reachable)
            best = max(scores)
            tied = [i for i, s in enumerate(scores) if s == best]
            pick = (
                tied[0]
                if len(tied) == 1
                else tied[int(self.rng.integers(len(tied)))]
            )
            return [entries[pick].node_id]
        # ablation fanouts (f_dislike > 1): shuffle for the random
        # tie-break, then take the stable top-k
        order = self.rng.permutation(len(entries))
        shuffled_scores = [scores[int(i)] for i in order]
        top = heapq.nlargest(
            k, range(len(order)), key=lambda i: (shuffled_scores[i], -i)
        )
        return [entries[int(order[i])].node_id for i in top]

    # -- the forwarding rule -------------------------------------------------

    def forward(
        self,
        node_id: int,
        copy: ItemCopy,
        liked: bool,
        wup_view: View,
        rps_view: View,
        engine: "CycleEngine",
    ) -> int:
        """Apply Algorithm 2 to one received (or published) item copy.

        Returns the number of targets the copy was sent to.  The caller has
        already updated the user profile and the copy's item profile
        (Algorithm 1); this method only chooses targets and ships clones.
        """
        if not liked:
            if copy.dislikes >= self.config.beep_ttl:
                return 0  # line 25/29: TTL reached, drop
            targets = self.dislike_targets(rps_view, copy)
        else:
            targets = self.like_targets(wup_view)

        if not targets:
            return 0
        for target in targets:
            # line 26 for the dislike path: dI <- dI + 1, folded in
            clone = copy.clone_for_forward(0 if liked else 1)
            engine.send_item(node_id, target, clone, via_like=liked)
        engine.log_forward(node_id, copy, liked, len(targets))
        return len(targets)

    def forward_batch(
        self,
        node_id: int,
        fresh: "list[tuple[ItemCopy, bool]]",
        liked_flags: list[bool],
        wup_view: View,
        rps_view: View,
        engine: "CycleEngine",
    ) -> None:
        """Apply Algorithm 2 to a node's whole per-cycle batch of receipts.

        Equivalent to calling :meth:`forward` once per ``(copy, liked)``
        pair in order, restructured for the batched delivery path:

        * target selection and shipping run per message in arrival
          order (identical RNG consumption to the scalar path), with the
          fan-out shipped uncloned through
          :meth:`~repro.simulation.engine.CycleEngine.send_fanout`;
        * forwarding actions are recorded in one bulk log append, with
          hop counts captured before the fan-out advances the original
          copy.
        """
        ttl = self.config.beep_ttl
        f_items: list[int] = []
        f_hops: list[int] = []
        f_liked: list[bool] = []
        f_targets: list[int] = []
        for (copy, _via), liked in zip(fresh, liked_flags, strict=True):
            if not liked:
                if copy.dislikes >= ttl:
                    continue  # line 25/29: TTL reached, drop
                targets = self.dislike_targets(rps_view, copy)
            else:
                targets = self.like_targets(wup_view)
            if not targets:
                continue
            f_items.append(copy.item.item_id)
            f_hops.append(copy.hops)
            f_liked.append(liked)
            f_targets.append(len(targets))
            engine.send_fanout(
                node_id, targets, copy, via_like=liked, bump_dislikes=not liked
            )
        if f_items:
            engine.log_forwards(node_id, f_items, f_hops, f_liked, f_targets)
