"""The blockwise top-k ranking kernel shared by every read path.

One function, :func:`run_query`, consumes a :class:`~repro.serving.query.Query`
plus a batch scorer callback and produces ranked recommendations.  Both the
live-model shims (:meth:`BaseRecommender.recommend` /
:meth:`~repro.core.base.BaseRecommender.recommend_batch`) and the exported
:class:`~repro.serving.artifact.ServingArtifact` delegate here, which is what
makes artifact-backed serving bitwise-identical to the live model: identical
user chunking, identical seen-item masking, identical partial sorts.

Masking is fully vectorised.  Full-catalogue queries scatter ``-inf`` into
the score block through the training CSR (one `repeat`/`cumsum` gather per
chunk — no per-user Python loop); candidate queries test membership with a
single ``searchsorted`` against the sorted ``user * n_items + item`` keys.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.serving.query import Query, QueryResult

#: Cap on the number of score-matrix elements a full-catalogue ranking chunk
#: asks the scorer for.  The vectorised scorers materialise intermediates
#: ~D times this size, so 500k elements keeps peak scratch memory in the
#: low hundreds of MB even for dim-64 models.  (`repro.core.base` re-exports
#: this as ``_RECOMMEND_BATCH_ELEMENT_BUDGET`` for backwards compatibility.)
RECOMMEND_ELEMENT_BUDGET = 500_000

#: ``scorer(users, item_matrix) -> scores`` — scores a ``(U,)`` user batch
#: against a ``(U, C)`` candidate matrix, returning ``(U, C)`` floats.
Scorer = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Seen-items CSR: ``(indptr, indices)`` over the full user range.
SeenCSR = Tuple[np.ndarray, np.ndarray]


def broadcast_candidates(users: np.ndarray, item_matrix: np.ndarray) -> np.ndarray:
    """Normalise ``item_matrix`` to shape ``(len(users), C)``."""
    item_matrix = np.asarray(item_matrix, dtype=np.int64)
    if item_matrix.ndim == 1:
        item_matrix = np.broadcast_to(item_matrix, (users.size, item_matrix.size))
    if item_matrix.ndim != 2 or item_matrix.shape[0] != users.size:
        raise ValueError(
            f"item_matrix must have shape ({users.size}, C) or (C,), "
            f"got {item_matrix.shape}"
        )
    return item_matrix


def is_full_catalogue(item_matrix: np.ndarray, n_items: int) -> bool:
    """Whether ``item_matrix`` ranks every user against all ``n_items``.

    True for the stride-0 ``arange(n_items)`` broadcast that the
    full-catalogue path hands its scorer (or any equal stride-0 matrix).
    Such a matrix is its own ``np.unique`` inverse, so a scorer can score
    the stored ``(n_items, ·)`` table as it is, with no unique pass, no
    table gather and no gather back.
    """
    return (item_matrix.ndim == 2 and item_matrix.shape[0] >= 1
            and item_matrix.strides[0] == 0
            and item_matrix.shape[1] == n_items
            and np.array_equal(item_matrix[0],
                               np.arange(n_items, dtype=np.int64)))


def mask_seen_rows(scores: np.ndarray, users: np.ndarray,
                   indptr: np.ndarray, indices: np.ndarray) -> None:
    """Set ``scores[i, j] = -inf`` for every item ``j`` seen by ``users[i]``.

    ``scores`` has one full-catalogue row per user.  The per-user CSR
    segments are gathered with a single ``repeat``/``cumsum`` flat-index
    construction — the vectorised replacement for the historical
    ``for row, user in enumerate(users)`` masking loop.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    starts = indptr[users]
    counts = indptr[users + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return
    # flat[t] walks user i's CSR segment: starts[i], starts[i]+1, ...
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    flat = np.arange(total, dtype=np.int64) + offsets
    rows = np.repeat(np.arange(users.size, dtype=np.int64), counts)
    scores[rows, np.asarray(indices, dtype=np.int64)[flat]] = -np.inf


def encode_seen_keys(n_items: int, indptr: np.ndarray,
                     indices: np.ndarray) -> np.ndarray:
    """Sorted ``user * n_items + item`` keys of a seen-items CSR.

    The membership index behind :func:`seen_candidate_mask`.  ``O(nnz)`` to
    build, so callers that answer many candidate queries (the live-model
    path via ``InteractionMatrix.encoded_positive_keys()``, the artifacts at
    construction) compute it once and pass it through ``run_query``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    counts = np.diff(indptr)
    owners = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return owners * n_items + indices  # sorted: CSR rows hold sorted indices


def seen_candidate_mask(users: np.ndarray, candidates: np.ndarray,
                        n_items: int, seen_keys: np.ndarray) -> np.ndarray:
    """Boolean ``(U, C)`` mask: which candidates has each user seen?

    Membership is one ``searchsorted`` of the encoded ``user * n_items +
    item`` query keys against ``seen_keys`` (:func:`encode_seen_keys`).
    """
    if seen_keys.size == 0:
        return np.zeros(candidates.shape, dtype=bool)
    query_keys = users[:, None] * np.int64(n_items) + candidates
    position = np.searchsorted(seen_keys, query_keys)
    position = np.minimum(position, seen_keys.size - 1)
    return seen_keys[position] == query_keys


def _rank_rows(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``k`` column indices per row (best first) and their scores."""
    part = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
    part_scores = np.take_along_axis(scores, part, axis=1)
    order = np.argsort(-part_scores, axis=1, kind="stable")
    return (np.take_along_axis(part, order, axis=1).astype(np.int64),
            np.take_along_axis(part_scores, order, axis=1))


def _mask_unrankable(items: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Replace items ranked at ``-inf`` with the ``-1`` sentinel, in place.

    A ``-inf`` slot means masking (``exclude_seen``/``exclude_items``) left
    the user with fewer than ``k`` rankable items; the historical behaviour
    leaked the *masked* items into those slots as if they were
    recommendations.  Masked slots always sort behind every finite score,
    so the sentinels trail the real recommendations.
    """
    items[np.isneginf(scores)] = -1
    return items


def _empty_result(n_users: int) -> QueryResult:
    return QueryResult(items=np.empty((n_users, 0), dtype=np.int64),
                       scores=np.empty((n_users, 0), dtype=np.float64))


def run_query(query: Query, scorer: Scorer, n_items: int,
              seen: Optional[SeenCSR] = None,
              seen_keys: Optional[np.ndarray] = None,
              element_budget: Optional[int] = None) -> QueryResult:
    """Execute a :class:`Query` against a batch scorer.

    Parameters
    ----------
    query:
        The request.  ``query.exclude_seen=True`` requires ``seen``.
    scorer:
        Batch scoring callback ``(users, item_matrix) -> (U, C) scores``.
    n_items:
        Catalogue size (defines the full-catalogue ranking range and the
        key encoding of the candidate membership test).
    seen:
        ``(indptr, indices)`` CSR of train-set seen items, or ``None``.
    seen_keys:
        Optional pre-built :func:`encode_seen_keys` index (must match
        ``seen`` and ``n_items``); candidate queries rebuild it from the
        CSR when absent.
    element_budget:
        Cap on ``chunk_users * n_items`` score elements per scorer call on
        the full-catalogue path (default :data:`RECOMMEND_ELEMENT_BUDGET`).

    Returns
    -------
    QueryResult
        Ranked ``(U, k)`` items/scores — or the raw ``(U, C)`` candidate
        scores for a score-mode query (``k=None``).
    """
    if query.mode != "exact":
        # Approx retrieval is an artifact-level concern: ServingArtifact
        # probes its IVF index and re-enters this kernel with an exact
        # candidate re-rank query.  A live model has no index to probe.
        raise ValueError(
            f"run_query only executes exact queries (got mode="
            f"{query.mode!r}); approximate retrieval requires a "
            "ServingArtifact with a built IVF index")
    if query.exclude_seen and seen is None:
        raise RuntimeError(
            "exclude_seen=True requires the seen-items CSR (fit the model on "
            "interactions, or export the artifact from a fitted model); "
            "rank with exclude_seen=False instead")

    if query.candidates is None:
        return _run_full_catalogue(query, scorer, n_items, seen, element_budget)
    return _run_candidates(query, scorer, n_items, seen, seen_keys)


def _run_full_catalogue(query: Query, scorer: Scorer, n_items: int,
                        seen: Optional[SeenCSR],
                        element_budget: Optional[int]) -> QueryResult:
    users = query.users
    k = min(query.k, n_items)
    if k <= 0:
        return _empty_result(users.size)
    if element_budget is None:
        element_budget = RECOMMEND_ELEMENT_BUDGET
    if query.exclude_seen:
        # Hoist the int64 view/copy of the CSR (scipy stores int32) out of
        # the chunk loop: one O(nnz) conversion per query, not per chunk.
        seen = (np.asarray(seen[0], dtype=np.int64),
                np.asarray(seen[1], dtype=np.int64))

    all_items = np.arange(n_items, dtype=np.int64)
    top_items = np.empty((users.size, k), dtype=np.int64)
    top_scores = np.empty((users.size, k), dtype=np.float64)
    # Bound the (chunk, n_items[, D]) scratch arrays the vectorised scorers
    # materialise; catalogue-sized batches stream through.
    chunk = max(1, element_budget // max(1, n_items))
    for start in range(0, users.size, chunk):
        stop = min(start + chunk, users.size)
        chunk_users = users[start:stop]
        scores = np.asarray(
            scorer(chunk_users, broadcast_candidates(chunk_users, all_items)),
            dtype=np.float64,
        ).copy()
        if query.exclude_seen:
            mask_seen_rows(scores, chunk_users, seen[0], seen[1])
        if query.exclude_items is not None:
            # Tolerate out-of-catalogue blocklist ids (retired items), like
            # the membership test on the candidate path.
            blocked = query.exclude_items
            scores[:, blocked[(blocked >= 0) & (blocked < n_items)]] = -np.inf
        top_items[start:stop], top_scores[start:stop] = _rank_rows(scores, k)
    return QueryResult(items=_mask_unrankable(top_items, top_scores),
                       scores=top_scores)


def _run_candidates(query: Query, scorer: Scorer, n_items: int,
                    seen: Optional[SeenCSR],
                    seen_keys: Optional[np.ndarray]) -> QueryResult:
    users = query.users
    candidates = broadcast_candidates(users, query.candidates)
    if query.k is not None and query.k <= 0:
        return _empty_result(users.size)

    # Ragged candidate lists (e.g. per-user IVF probe unions) arrive as a
    # rectangle right-padded with -1.  Pad slots are scored on item 0 (any
    # valid id — the score is discarded) and forced to -inf after masking.
    pad_mask = candidates < 0
    any_pads = bool(pad_mask.any())
    scoreable = np.where(pad_mask, np.int64(0), candidates) if any_pads \
        else candidates
    scores = np.asarray(scorer(users, scoreable), dtype=np.float64)
    if scores.shape != candidates.shape:
        raise ValueError(
            f"scorer returned shape {scores.shape}, expected {candidates.shape}")

    if query.exclude_seen or query.exclude_items is not None or any_pads:
        scores = scores.copy()
        if query.exclude_seen:
            if seen_keys is None:
                seen_keys = encode_seen_keys(n_items, seen[0], seen[1])
            scores[seen_candidate_mask(users, candidates, n_items,
                                       seen_keys)] = -np.inf
        if query.exclude_items is not None:
            scores[np.isin(candidates, query.exclude_items)] = -np.inf
        if any_pads:
            # Last, unconditionally: a pad key user*n_items - 1 aliases the
            # previous user's final item in the seen-membership test, but a
            # pad slot must stay -inf regardless of what masking computed.
            scores[pad_mask] = -np.inf

    if query.k is None:
        # Score mode: candidate order preserved.  `candidates` may be a
        # stride-0 broadcast view of a shared list; returning the view
        # avoids materialising a (U, C) copy that the score_items_batch
        # shim (which only reads .scores) would immediately discard.
        return QueryResult(items=candidates, scores=scores)

    k = min(query.k, candidates.shape[1])
    columns, top_scores = _rank_rows(scores, k)
    items = np.take_along_axis(candidates, columns, axis=1)
    return QueryResult(items=_mask_unrankable(items, top_scores),
                       scores=top_scores)
