"""Cross-facet similarity measurement (paper Section III-B and IV-A).

The three-step measurement:

1. project universal user/item embeddings into K facet-specific spaces with
   the shared projection matrices Φ and Ψ (Eq. 1-2);
2. compute the per-facet similarity — negative squared Euclidean distance in
   MAR (Eq. 3) or cosine similarity in MARS (Eq. 13);
3. aggregate across facets with the user-specific softmax weights Θ_u
   (Eq. 4 / Eq. 14).

Both a differentiable (autograd) path used during training and a plain NumPy
path used for fast inference/ranking are provided; the NumPy path is tested
against the autograd path for consistency.

The NumPy path comes in two flavours: the single-user helpers used by
:meth:`score_items`, and the batched helpers backing ``score_items_batch`` —
:func:`normalize_facets_numpy` (pre-normalise a ``(K, M, D)`` item cache
once) and :func:`cross_facet_scores_matrix_numpy` (BLAS-backed all-pairs
weighted scores).  The batched path agrees with the single-user path up to
floating-point rounding, which leaves rankings and metrics unchanged.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.serving.kernel import is_full_catalogue


# --------------------------------------------------------------------------- #
# differentiable (training) path
# --------------------------------------------------------------------------- #
def project_facets(embeddings: Tensor, projections: Tensor) -> List[Tensor]:
    """Project a batch of universal embeddings into each facet space.

    Parameters
    ----------
    embeddings:
        Batch of universal embeddings, shape ``(B, D)``.
    projections:
        Stack of facet projection matrices, shape ``(K, D, D)``.

    Returns
    -------
    list of Tensor
        ``K`` tensors of shape ``(B, D)`` — the facet-specific embeddings.
    """
    n_facets = projections.shape[0]
    return [embeddings @ projections[k] for k in range(n_facets)]


def facet_similarities(user_facets: List[Tensor], item_facets: List[Tensor],
                       spherical: bool) -> Tensor:
    """Per-facet similarity scores, shape ``(B, K)``.

    Euclidean mode returns ``-‖u_k − v_k‖²`` (Eq. 3); spherical mode returns
    ``cos(u_k, v_k)`` (Eq. 13).
    """
    scores = []
    for user_k, item_k in zip(user_facets, item_facets):
        if spherical:
            scores.append(F.cosine_similarity(user_k, item_k, axis=-1))
        else:
            scores.append(F.squared_euclidean(user_k, item_k, axis=-1) * -1.0)
    return Tensor.stack(scores, axis=1)


def cross_facet_similarity(facet_scores: Tensor, facet_weights: Tensor) -> Tensor:
    """Aggregate per-facet scores with user-specific weights (Eq. 4 / Eq. 14).

    Parameters
    ----------
    facet_scores:
        Shape ``(B, K)``.
    facet_weights:
        Softmax-normalised weights Θ_u for the batch, shape ``(B, K)``.
    """
    return (facet_scores * facet_weights).sum(axis=1)


# --------------------------------------------------------------------------- #
# inference (NumPy) path
# --------------------------------------------------------------------------- #
def project_facets_numpy(embeddings: np.ndarray, projections: np.ndarray) -> np.ndarray:
    """Vectorised facet projection: ``(B, D) × (K, D, D) → (K, B, D)``."""
    return np.einsum("bd,kde->kbe", embeddings, projections)


def facet_similarities_numpy(user_facets: np.ndarray, item_facets: np.ndarray,
                             spherical: bool) -> np.ndarray:
    """Per-facet similarities for pre-projected embeddings.

    Parameters
    ----------
    user_facets, item_facets:
        Shape ``(K, B, D)`` (broadcastable against each other on the batch
        axis, e.g. a single user against many candidate items).
    spherical:
        Cosine similarity when true, negative squared Euclidean otherwise.

    Returns
    -------
    numpy.ndarray of shape ``(B, K)``
    """
    if spherical:
        user_norm = np.linalg.norm(user_facets, axis=-1, keepdims=True)
        item_norm = np.linalg.norm(item_facets, axis=-1, keepdims=True)
        user_unit = user_facets / np.maximum(user_norm, 1e-12)
        item_unit = item_facets / np.maximum(item_norm, 1e-12)
        scores = np.sum(user_unit * item_unit, axis=-1)
    else:
        diff = user_facets - item_facets
        scores = -np.sum(diff * diff, axis=-1)
    return scores.T  # (K, B) -> (B, K)


def softmax_numpy(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Plain NumPy softmax used for the inference path."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def cross_facet_similarity_numpy(facet_scores: np.ndarray,
                                 facet_weights: np.ndarray) -> np.ndarray:
    """NumPy counterpart of :func:`cross_facet_similarity`."""
    return np.sum(facet_scores * facet_weights, axis=-1)


# --------------------------------------------------------------------------- #
# batched inference (NumPy) path
# --------------------------------------------------------------------------- #
#: Cap on the number of scratch floats the batched scorer materialises at a
#: time (the all-pairs ``(K, chunk, M)`` block or the gathered
#: ``(K, chunk, C, D)`` item facets); keeps peak memory of
#: :func:`facet_candidate_scores` around a few hundred MB.
BATCH_SCORING_ELEMENT_BUDGET = 16_000_000

#: Use the BLAS all-pairs fast path while the unique-candidate pool M is at
#: most this many times the per-user candidate width C.  Beyond that (huge
#: catalogues, narrow candidate lists) scoring every user against every
#: unique item wastes ~M/C times the needed flops, so the gathered
#: per-candidate path wins despite its larger memory-traffic constant.
ALL_PAIRS_CANDIDATE_RATIO = 8


def normalize_facets_numpy(facets: np.ndarray) -> np.ndarray:
    """Unit-normalise facet embeddings along the last axis.

    Applies the same clamped normalisation as the spherical branch of
    :func:`facet_similarities_numpy`, so pre-normalising a ``(K, M, D)``
    item cache once and reusing it per batch yields bit-identical cosines.
    """
    norms = np.linalg.norm(facets, axis=-1, keepdims=True)
    return facets / np.maximum(norms, 1e-12)


def cross_facet_scores_matrix_numpy(user_facets: np.ndarray, item_facets: np.ndarray,
                                    facet_weights: np.ndarray,
                                    spherical: bool) -> np.ndarray:
    """Weighted cross-facet scores of every user against every item.

    The all-pairs form used by the batched inference hot path: one
    BLAS-backed ``(K, U, D) × (K, D, M)`` matmul per facet followed by the
    Θ-weighted sum over facets.  Euclidean similarities use the expansion
    ``-‖u − v‖² = 2·u·v − ‖u‖² − ‖v‖²``, which agrees with the elementwise
    difference form up to floating-point rounding (~1 ulp).

    Parameters
    ----------
    user_facets:
        Shape ``(K, U, D)``.  Must be pre-normalised with
        :func:`normalize_facets_numpy` in spherical mode.
    item_facets:
        Shape ``(K, M, D)``; same normalisation contract.
    facet_weights:
        Softmax-normalised weights Θ_u, shape ``(U, K)``.
    spherical:
        Cosine similarity when true, negative squared Euclidean otherwise.

    Returns
    -------
    numpy.ndarray of shape ``(U, M)``
    """
    dots = np.matmul(user_facets, np.swapaxes(item_facets, 1, 2))  # (K, U, M)
    if spherical:
        sims = dots
    else:
        user_sq = np.sum(user_facets * user_facets, axis=-1)[:, :, None]
        item_sq = np.sum(item_facets * item_facets, axis=-1)[:, None, :]
        sims = 2.0 * dots - user_sq - item_sq
    return np.einsum("kum,uk->um", sims, facet_weights)


def facet_candidate_scores(user_facets: np.ndarray, item_facets: np.ndarray,
                           inverse: np.ndarray, facet_weights: np.ndarray,
                           spherical: bool) -> np.ndarray:
    """Θ-weighted cross-facet scores of a user batch on a candidate matrix.

    The memory-bounded candidate-scoring engine shared by the live
    :meth:`MultiFacetRecommender.score_items_batch` path and the exported
    serving artifacts (:mod:`repro.serving.scorers`) — sharing it is what
    keeps artifact-backed serving bitwise-identical to the live model.

    Parameters
    ----------
    user_facets:
        Facet embeddings of the user batch, shape ``(K, U, D)``
        (pre-normalised with :func:`normalize_facets_numpy` in spherical
        mode).
    item_facets:
        Facet embeddings of the *unique* candidate pool, shape ``(K, M, D)``
        (same normalisation contract).
    inverse:
        ``(U, C)`` map from candidate-matrix positions into the unique pool
        (the ``return_inverse`` of ``np.unique`` over the candidate matrix).
        The full-catalogue broadcast ``arange(M)`` (see
        :func:`~repro.serving.kernel.is_full_catalogue`) is the identity
        map: the all-pairs block is the answer and no gather runs.
    facet_weights:
        Softmax-normalised weights Θ_u of the batch, shape ``(U, K)``.
    spherical:
        Cosine similarity when true, negative squared Euclidean otherwise.

    Returns
    -------
    numpy.ndarray of shape ``(U, C)``
    """
    n_facets, n_unique, dim = item_facets.shape
    n_users = user_facets.shape[1]
    width = inverse.shape[1]
    scores = np.empty(inverse.shape, dtype=np.float64)
    if n_unique <= ALL_PAIRS_CANDIDATE_RATIO * width:
        # Dense candidate union (evaluation over a small catalogue,
        # recommend over all items): one BLAS matmul per facet against
        # the unique-item cache, then a single (u, C) gather — skipped
        # when the pool is the candidate row itself.  Chunk over users
        # so the (K, chunk, M) block stays memory-bounded.
        identity = is_full_catalogue(inverse, n_unique)
        chunk = max(1, BATCH_SCORING_ELEMENT_BUDGET // max(1, n_facets * n_unique))
        for start in range(0, n_users, chunk):
            stop = min(start + chunk, n_users)
            weighted = cross_facet_scores_matrix_numpy(
                user_facets[:, start:stop], item_facets,
                facet_weights[start:stop], spherical,
            )                                                    # (u, M)
            scores[start:stop] = weighted if identity else np.take_along_axis(
                weighted, inverse[start:stop], axis=1
            )
    else:
        # Sparse candidate union (narrow candidate lists over a huge
        # catalogue): gather only each user's candidates so the flop
        # count stays K·u·C·D instead of K·u·M·D.
        chunk = max(1, BATCH_SCORING_ELEMENT_BUDGET // max(
            1, n_facets * width * dim
        ))
        for start in range(0, n_users, chunk):
            stop = min(start + chunk, n_users)
            chunk_items = item_facets[:, inverse[start:stop], :]  # (K, u, C, D)
            chunk_users = user_facets[:, start:stop, None, :]     # (K, u, 1, D)
            if spherical:
                facet_scores = np.sum(chunk_users * chunk_items, axis=-1)
            else:
                diff = chunk_users - chunk_items
                facet_scores = -np.sum(diff * diff, axis=-1)      # (K, u, C)
            scores[start:stop] = np.einsum(
                "kuc,uk->uc", facet_scores, facet_weights[start:stop]
            )
    return scores
