"""Interest-similarity metrics (paper Section II and Section V-A).

The paper's central algorithmic contribution is an **asymmetric variant of
cosine similarity**:

.. math::

    \\mathrm{Similarity}(n, c) =
        \\frac{sub(P_n, P_c) \\cdot P_c}
             {\\lVert sub(P_n, P_c) \\rVert \\; \\lVert P_c \\rVert}

where :math:`sub(P_n, P_c)` restricts node *n*'s profile to the items that
appear (with any score) in candidate *c*'s profile.  For the binary user
profiles of WHATSUP this reads:

* numerator — the number of items **liked by both** *n* and *c*;
* first denominator factor — the square root of the number of items liked by
  *n* **on which c expressed any opinion** (so a candidate that *dislikes*
  what *n* likes is penalised — spam aversion);
* second factor — the square root of the number of items liked by *c*
  (favouring candidates with small, selective profiles — which is what makes
  cold-starting nodes attractive neighbours, Section II-D).

This module implements that metric, the classical cosine baseline the paper
compares against, and two extra set metrics (Jaccard, overlap) used by our
ablation benchmarks.  It also provides vectorised all-pairs forms used by the
centralized baselines (C-WHATSUP) and the sociability/popularity analyses.

All scalar metrics share the signature ``metric(p_n, p_c) -> float`` where
both arguments are *profile-like*: any object exposing ``scores`` (id→score
mapping), ``liked`` (set of ids with positive score) and ``norm`` (Euclidean
norm).  :class:`repro.core.profiles.Profile` and
:class:`repro.core.profiles.FrozenProfile` both qualify.

Batch scoring
-------------
The simulation's hot path — Vicinity merges and BEEP's dislike orientation —
scores one reference profile against a whole *pool* of candidates.  The
paper's Table II bounds every such pool (RPS view 30, WUP view ``2·fLIKE``,
a 13-cycle profile window: 30–70 candidates of tens of entries), so pool
scoring is exactly two tiers, checked in order:

1. **native** — the fused C kernels of :mod:`repro._native`
   (``merge_rank``, ``item_argmax``, ``score_profiles``: sorted-array merge
   walks over the packed snapshots, with the merge trim and the argmax
   selection fused in).  Active only when the extension is built *and*
   ``REPRO_NATIVE`` is not ``0``; an absent extension, or a shape the
   kernels do not implement, silently falls through.
2. **set-algebra** — one Python call per pool with C-speed set
   intersections per pair (:func:`wup_pool_binary`,
   :func:`wup_pool_vs_item`), falling through to the per-pair scalar
   metric for every other shape.

:func:`score_candidates` is the general entry point (``score_profiles``,
else tier 2); the protocols try their fused kernel first and fall back to
it.  Both tiers produce **bitwise-identical** scores (integer set counts;
weighted sums accumulated in one canonical ascending-id order; the same
IEEE-754 expression shapes), so the dispatch is invisible to callers.

Pool scoring belongs to the ``fast`` pipeline: under
``REPRO_MODE=reference`` the protocols score every pair with the scalar
metric instead — the reference the equivalence tests compare both tiers
against.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro._native import kernel as _native
from repro._native import native_available, native_kernel
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ProfileLike",
    "wup_similarity",
    "cosine_similarity",
    "jaccard_similarity",
    "overlap_similarity",
    "get_metric",
    "available_metrics",
    "metric_name_of",
    "score_candidates",
    "native_available",
    "native_kernel",
    "pairwise_cosine",
    "pairwise_wup",
    "similarity_matrix",
]


@runtime_checkable
class ProfileLike(Protocol):
    """Structural type accepted by every scalar similarity metric."""

    @property
    def scores(self) -> dict[int, float]: ...  # noqa: E704 - protocol stub

    @property
    def liked(self) -> "frozenset[int] | set[int]": ...  # noqa: E704

    @property
    def norm(self) -> float: ...  # noqa: E704


def _rated_ids(profile: ProfileLike):
    """The identifiers a profile has *any* opinion on (likes and dislikes)."""
    rated = getattr(profile, "rated", None)
    if isinstance(rated, frozenset):
        # FrozenProfile precomputes this; mutable profiles expose a live
        # keys view instead (avoids copying in the hot path).
        return rated
    return profile.scores.keys()


def _is_binary(profile: ProfileLike) -> bool:
    flag = getattr(profile, "is_binary", None)
    return bool(flag)


def _all_binary(profiles) -> bool:
    """Whether every profile in an iterable is flagged binary (fast scan)."""
    try:
        return all(p.is_binary for p in profiles)
    except AttributeError:
        return False


def wup_similarity(p_n: ProfileLike, p_c: ProfileLike) -> float:
    """The paper's asymmetric WUP metric, ``Similarity(n, c)``.

    Parameters
    ----------
    p_n:
        The profile of the node *doing the choosing* (the view owner in WUP,
        or the candidate node in BEEP's dislike orientation).
    p_c:
        The candidate profile being scored (a peer's user profile in WUP; an
        item profile in BEEP orientation).

    Returns
    -------
    float
        A value in ``[0, 1]``; ``0`` when either profile is empty or the
        profiles share no liked item.

    Notes
    -----
    The metric is **asymmetric**: ``wup_similarity(a, b)`` generally differs
    from ``wup_similarity(b, a)``.  The paper argues this fits push-style
    dissemination, where users choose the next hops of items but have no
    control over who sends items to them.
    """
    norm_c = p_c.norm
    if norm_c == 0.0:
        return 0.0
    if _is_binary(p_n) and _is_binary(p_c):
        # Binary fast path (user-profile vs user-profile): pure set algebra.
        liked_n = p_n.liked
        if not liked_n:
            return 0.0
        common_liked = len(liked_n & p_c.liked)
        if common_liked == 0:
            return 0.0
        sub_norm2 = len(liked_n & _rated_ids(p_c))
        return common_liked / (math.sqrt(sub_norm2) * norm_c)

    # General path (real-valued scores, e.g. item profiles).  The partial
    # sums accumulate in ascending-identifier order — the canonical order
    # the batch kernel uses — so scalar and batch scores agree bitwise.
    scores_n = p_n.scores
    scores_c = p_c.scores
    if not scores_n or not scores_c:
        return 0.0
    dot = 0.0
    sub_norm2 = 0.0
    for iid in sorted(scores_n.keys() & scores_c.keys()):
        s_n = scores_n[iid]
        dot += s_n * scores_c[iid]
        sub_norm2 += s_n * s_n
    if dot == 0.0 or sub_norm2 == 0.0:
        return 0.0
    return dot / (math.sqrt(sub_norm2) * norm_c)


def cosine_similarity(p_n: ProfileLike, p_c: ProfileLike) -> float:
    """Classical cosine similarity between two profiles.

    The baseline metric from Tan et al. that the paper compares against
    (CF-Cos, WHATSUP-Cos).  Symmetric; ``0`` when either profile is empty.
    """
    norm_n = p_n.norm
    norm_c = p_c.norm
    if norm_n == 0.0 or norm_c == 0.0:
        return 0.0
    if _is_binary(p_n) and _is_binary(p_c):
        common = len(p_n.liked & p_c.liked)
        if common == 0:
            return 0.0
        return common / (norm_n * norm_c)
    scores_n = p_n.scores
    scores_c = p_c.scores
    dot = 0.0
    for iid in sorted(scores_n.keys() & scores_c.keys()):
        dot += scores_n[iid] * scores_c[iid]
    if dot == 0.0:
        return 0.0
    return dot / (norm_n * norm_c)


def jaccard_similarity(p_n: ProfileLike, p_c: ProfileLike) -> float:
    """Jaccard index of the two profiles' *liked* sets.

    Not used by WHATSUP itself; included for the metric-ablation benchmark
    (the paper's related work discusses Jaccard as a common CF metric).
    """
    liked_n = p_n.liked
    liked_c = p_c.liked
    if not liked_n or not liked_c:
        return 0.0
    inter = len(liked_n & liked_c)
    if inter == 0:
        return 0.0
    union = len(liked_n) + len(liked_c) - inter
    return inter / union


def overlap_similarity(p_n: ProfileLike, p_c: ProfileLike) -> float:
    """Overlap (Szymkiewicz–Simpson) coefficient of the liked sets."""
    liked_n = p_n.liked
    liked_c = p_c.liked
    if not liked_n or not liked_c:
        return 0.0
    inter = len(liked_n & liked_c)
    if inter == 0:
        return 0.0
    return inter / min(len(liked_n), len(liked_c))


MetricFn = Callable[[ProfileLike, ProfileLike], float]

_METRICS: dict[str, MetricFn] = {
    "wup": wup_similarity,
    "cosine": cosine_similarity,
    "jaccard": jaccard_similarity,
    "overlap": overlap_similarity,
}


def get_metric(name: str) -> MetricFn:
    """Look up a similarity metric by name.

    Parameters
    ----------
    name:
        One of ``"wup"``, ``"cosine"``, ``"jaccard"``, ``"overlap"``
        (case-insensitive).

    Raises
    ------
    ConfigurationError
        If the name is unknown.
    """
    try:
        return _METRICS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown similarity metric {name!r}; "
            f"available: {sorted(_METRICS)}"
        ) from None


def available_metrics() -> list[str]:
    """Names of all registered similarity metrics."""
    return sorted(_METRICS)


_METRIC_NAMES: dict[MetricFn, str] = {fn: name for name, fn in _METRICS.items()}


def metric_name_of(metric: MetricFn | str) -> str | None:
    """The registry name of a metric, or ``None`` for unknown callables.

    Accepts a registered name (validated, case-folded) or a metric function;
    custom callables that are not in the registry map to ``None``, which the
    batch entry points treat as "scalar only".
    """
    if isinstance(metric, str):
        name = metric.lower()
        if name not in _METRICS:
            raise ConfigurationError(
                f"unknown similarity metric {metric!r}; "
                f"available: {available_metrics()}"
            )
        return name
    return _METRIC_NAMES.get(metric)


# ---------------------------------------------------------------------------
# Batch scoring: the two-tier pool dispatch
# ---------------------------------------------------------------------------

#: The native tier's crossover: a kernel call carries a few µs of fixed
#: overhead (cffi dispatch, result-array allocation, first-contact packing
#: of fresh snapshots), which the C merge walks only amortise once the
#: pool is a handful of candidates deep.  Below this the set-algebra loops
#: win; the protocols' real pools (RPS views of 30, merge pools of 40-70)
#: sit comfortably above it.
NATIVE_MIN_PAIRS = 8


def _native_pool_code(name: str, role: str, owner_binary: bool) -> int | None:
    """The native kernel's metric/orientation code, or ``None``.

    Mirrors the C ``score_pair`` switch in
    :mod:`repro._native.build_native`: binary fast paths for ``wup`` /
    ``cosine`` (codes 0–2), liked-set metrics for any profiles (3–4), and
    the item-orientation codes for a real-valued owner on the candidate
    side (5–6).  ``None`` means "shape not implemented natively" and sends
    the call to the set-algebra / scalar tier.
    """
    if name == "wup":
        if role == "n":
            return 0 if owner_binary else None
        return 1 if owner_binary else 5
    if name == "cosine":
        if owner_binary:
            return 2
        return 6 if role == "c" else None
    if name == "jaccard":
        return 3
    if name == "overlap":
        return 4
    return None


def wup_pool_binary(
    owner: ProfileLike, candidates: Sequence[ProfileLike]
) -> list[float]:
    """WUP scores of one binary owner (chooser ``n``) against a binary pool.

    One Python call per *pool* with hoisted locals — per-pair function-call
    overhead is the dominant cost of merge scoring at the paper's
    window-bounded profile sizes.  Bitwise-equal to ``wup_similarity``'s
    binary fast path.
    """
    out = [0.0] * len(candidates)
    liked_n = owner.liked
    if not liked_n:
        return out
    sqrt = math.sqrt
    for i, c in enumerate(candidates):
        norm_c = c.norm
        if norm_c == 0.0:
            continue
        common = len(liked_n & c.liked)
        if common:
            out[i] = common / (sqrt(len(liked_n & _rated_ids(c))) * norm_c)
    return out


def wup_pool_vs_item(
    candidates: Sequence[ProfileLike], item: ProfileLike
) -> list[float]:
    """WUP scores of binary choosers against one real-valued item profile.

    BEEP's dislike orientation: each candidate is the chooser ``n``, the
    item profile the candidate side ``c``.  Skipping the chooser's
    explicit dislikes (score 0) drops exactly-zero terms from the general
    path's sums, so the result is bitwise-equal to ``wup_similarity``.
    """
    out = [0.0] * len(candidates)
    scores_c = item.scores
    norm_c = item.norm
    if norm_c == 0.0 or not scores_c:
        return out
    keys_c = scores_c.keys()
    sqrt = math.sqrt
    for i, p in enumerate(candidates):
        common = p.liked & keys_c  # = L_n ∩ R_c
        if not common:
            continue
        dot = 0.0
        for iid in sorted(common):
            dot += scores_c[iid]
        if dot != 0.0:
            out[i] = dot / (sqrt(len(common)) * norm_c)
    return out


def score_candidates(
    owner: ProfileLike,
    candidates: Sequence[ProfileLike] | Iterable[ProfileLike],
    metric: MetricFn | str = "wup",
    *,
    owner_role: str = "n",
) -> list[float]:
    """Score a whole candidate pool against one owner profile.

    Parameters
    ----------
    owner:
        The reference profile.  With ``owner_role="n"`` (default) it is the
        chooser ``n`` of the asymmetric WUP metric and each candidate is
        scored as ``metric(owner, candidate)`` — the Vicinity merge
        orientation.  With ``owner_role="c"`` the owner is the candidate
        side and the pool members are the choosers: ``metric(candidate,
        owner)`` — BEEP's dislike orientation, where many peer profiles are
        ranked against one item profile.
    candidates:
        The pool.
    metric:
        Registered metric name or function.  Unregistered callables are
        applied pair by pair.

    Returns
    -------
    list[float]
        Scores aligned with *candidates*, bitwise-equal to the scalar
        metric applied pairwise.

    Notes
    -----
    Two tiers.  With the native tier active, a pool of at least
    :data:`NATIVE_MIN_PAIRS` whose shape the kernels implement is scored
    in one C call over the packed arrays.  Everything else — no extension,
    a smaller pool, an unmapped (metric, role, owner-shape) combination,
    a pool member the kernel cannot resolve — takes the set-algebra pool
    loop for the two WUP shapes the protocols score, and the scalar
    metric pair by pair otherwise.  Both tiers give the same bits: the
    scalar general path accumulates in the kernels' canonical
    ascending-id order.
    """
    if owner_role not in ("n", "c"):
        raise ConfigurationError(
            f"owner_role must be 'n' or 'c', got {owner_role!r}"
        )
    cands = candidates if isinstance(candidates, list) else list(candidates)
    k = len(cands)
    if k == 0:
        return []
    name = metric_name_of(metric)
    if name is None:
        fn = metric
    else:
        owner_binary = _is_binary(owner)
        nk = _native()
        if nk is not None and k >= NATIVE_MIN_PAIRS:
            code = _native_pool_code(name, owner_role, owner_binary)
            if code is not None:
                native_scores = nk.score_profiles(owner, cands, code)
                if native_scores is not None:
                    return native_scores.tolist()
        if name == "wup" and _all_binary(cands):
            if owner_role == "n" and owner_binary:
                return wup_pool_binary(owner, cands)
            if owner_role == "c" and not owner_binary:
                return wup_pool_vs_item(cands, owner)
        fn = _METRICS[name]
    if owner_role == "n":
        return [fn(owner, c) for c in cands]
    return [fn(c, owner) for c in cands]


# ---------------------------------------------------------------------------
# Vectorised all-pairs forms (centralized baselines & analyses)
# ---------------------------------------------------------------------------


def pairwise_cosine(likes: np.ndarray) -> np.ndarray:
    """All-pairs binary cosine similarity.

    Parameters
    ----------
    likes:
        Boolean array of shape ``(n_users, n_items)``; ``likes[u, i]`` is
        true when user *u* likes item *i*.

    Returns
    -------
    numpy.ndarray
        Dense ``(n_users, n_users)`` matrix with
        ``S[a, b] = |L_a ∩ L_b| / sqrt(|L_a| |L_b|)`` and zero rows/columns
        for users with empty profiles.  The diagonal is *not* zeroed.
    """
    mat = np.asarray(likes, dtype=np.float64)
    common = mat @ mat.T
    counts = mat.sum(axis=1)
    denom = np.sqrt(np.outer(counts, counts))
    out = np.zeros_like(common)
    np.divide(common, denom, out=out, where=denom > 0)
    return out


def pairwise_wup(likes: np.ndarray, rated: np.ndarray) -> np.ndarray:
    """All-pairs binary WUP similarity.

    Parameters
    ----------
    likes:
        Boolean ``(n_users, n_items)`` like matrix.
    rated:
        Boolean ``(n_users, n_items)`` rated matrix (likes *and* dislikes).
        Must be a superset of *likes* element-wise.

    Returns
    -------
    numpy.ndarray
        ``S[n, c] = |L_n ∩ L_c| / (sqrt(|L_n ∩ R_c|) · sqrt(|L_c|))`` — the
        matrix form of :func:`wup_similarity` for binary profiles.  Rows are
        the "chooser" *n*, columns the candidate *c*.
    """
    lmat = np.asarray(likes, dtype=np.float64)
    rmat = np.asarray(rated, dtype=np.float64)
    if lmat.shape != rmat.shape:
        raise ConfigurationError(
            f"likes shape {lmat.shape} != rated shape {rmat.shape}"
        )
    common_likes = lmat @ lmat.T  # |L_n ∩ L_c|
    liked_rated = lmat @ rmat.T  # |L_n ∩ R_c|  (row n, column c)
    liked_counts = lmat.sum(axis=1)  # |L_c| per candidate column
    denom = np.sqrt(liked_rated) * np.sqrt(liked_counts)[None, :]
    out = np.zeros_like(common_likes)
    np.divide(common_likes, denom, out=out, where=denom > 0)
    return out


def similarity_matrix(
    likes: np.ndarray,
    rated: np.ndarray,
    metric: str = "wup",
) -> np.ndarray:
    """All-pairs similarity by metric name (vectorised where possible).

    ``"wup"`` and ``"cosine"`` use the dense matrix forms above; the set
    metrics fall back to a vectorised formulation over the like matrix.
    """
    name = metric.lower()
    if name == "wup":
        return pairwise_wup(likes, rated)
    if name == "cosine":
        return pairwise_cosine(likes)
    lmat = np.asarray(likes, dtype=np.float64)
    inter = lmat @ lmat.T
    counts = lmat.sum(axis=1)
    if name == "jaccard":
        union = counts[:, None] + counts[None, :] - inter
        out = np.zeros_like(inter)
        np.divide(inter, union, out=out, where=union > 0)
        return out
    if name == "overlap":
        mins = np.minimum(counts[:, None], counts[None, :])
        out = np.zeros_like(inter)
        np.divide(inter, mins, out=out, where=mins > 0)
        return out
    raise ConfigurationError(
        f"unknown similarity metric {metric!r}; available: {available_metrics()}"
    )
