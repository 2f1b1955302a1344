"""Family scoring kernels for exported serving artifacts.

Each model *family* — the shape of read-only tensors a model needs at
inference time — gets one vectorised scoring function operating on plain
NumPy arrays.  The live models' batch scorers delegate to the same
functions with tensors gathered from their networks, so an exported
:class:`~repro.serving.artifact.ServingArtifact` reproduces the live
model's scores bitwise: same code, same arrays, same call shapes.

Families
--------
``multifacet``
    MAR/MARS: pre-projected (and, in spherical mode, pre-normalised) facet
    tables plus softmaxed per-user facet weights Θ.
``euclidean``
    CML/MetricF/SML: rank by ``-‖u − v‖²`` between plain embedding tables.
``dot_bias``
    BPR: inner product plus an additive per-item bias.
``translation``
    TransCF: ``-‖u + ctx_u ⊙ ctx_v − v‖²`` with frozen neighbourhood
    context tables.
``memory``
    LRML: attention over a shared memory produces the relation vector.
``mlp``
    NeuMF: GMF ⊙ product fused with a two-layer ReLU MLP head.
``popularity``
    A single item-score vector shared by every user.
``precomputed``
    The generic fallback of :meth:`BaseRecommender.export_serving`: a dense
    ``(n_users, n_items)`` score matrix materialised at export time.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.serving.kernel import is_full_catalogue

#: ``family -> fn(tensors, users, item_matrix) -> (U, C) scores``.
SCORER_FAMILIES: Dict[str, Callable] = {}


def register_family(name: str):
    """Class-of-tensors registrar: ``@register_family("euclidean")``."""
    def decorator(fn):
        SCORER_FAMILIES[name] = fn
        return fn
    return decorator


def get_family_scorer(family: str) -> Callable:
    try:
        return SCORER_FAMILIES[family]
    except KeyError:
        raise KeyError(
            f"unknown serving family {family!r}; known families: "
            f"{sorted(SCORER_FAMILIES)}") from None


# --------------------------------------------------------------------------- #
# plain scoring functions (shared with the live models)
# --------------------------------------------------------------------------- #
def _shared_candidate_row(item_matrix: np.ndarray):
    """The single candidate list when every user shares one, else ``None``.

    The full-catalogue ranking path broadcasts one ``(C,)`` list across the
    user batch (row stride 0); detecting it lets scorers avoid materialising
    the ``(U, C, D)`` gathered-embedding block.  The check is purely
    structural (stride 0, any batch size) so a user is scored through the
    same formula whichever chunk width they land in.
    """
    if (item_matrix.ndim == 2 and item_matrix.shape[0] >= 1
            and item_matrix.strides[0] == 0):
        return item_matrix[0]
    return None


def _whole_table(table: np.ndarray, item_matrix: np.ndarray,
                 item_axis: int) -> bool:
    """Whether a full-catalogue batch can multiply against ``table`` as is.

    An unaligned table (a memory map of a bundle written before raw members
    were 64-byte aligned) would drop NumPy's ``matmul`` off BLAS, so it is
    gathered into an aligned copy as for any candidate list.
    """
    return (table.flags.aligned
            and is_full_catalogue(item_matrix, table.shape[item_axis]))


def euclidean_scores(user_table: np.ndarray, item_table: np.ndarray,
                     users: np.ndarray, item_matrix: np.ndarray) -> np.ndarray:
    """``-‖u − v‖²`` between gathered embedding rows (CML, MetricF, SML).

    When the user batch shares one candidate list (the full-catalogue
    ranking path) the distances come from the Gram expansion
    ``-‖u − v‖² = 2·u·v − ‖u‖² − ‖v‖²`` — one BLAS matmul instead of a
    ``(U, C, D)`` gather — which agrees with the elementwise difference
    form up to floating-point rounding (~1 ulp), leaving rankings unchanged
    except on exact score ties.  A full-catalogue batch multiplies against
    the stored item table itself rather than a gathered copy of it.
    """
    user_vecs = user_table[users]                   # (U, D)
    shared = _shared_candidate_row(item_matrix)
    if shared is not None:
        item_vecs = (item_table if _whole_table(item_table, item_matrix, 0)
                     else item_table[shared])      # (C, D)
        dots = user_vecs @ item_vecs.T              # (U, C)
        user_sq = np.einsum("ud,ud->u", user_vecs, user_vecs)
        item_sq = np.einsum("cd,cd->c", item_vecs, item_vecs)
        return 2.0 * dots - user_sq[:, None] - item_sq[None, :]
    item_vecs = item_table[item_matrix]             # (U, C, D)
    return -np.sum((item_vecs - user_vecs[:, None, :]) ** 2, axis=-1)


def dot_bias_scores(user_table: np.ndarray, item_table: np.ndarray,
                    item_bias: np.ndarray, users: np.ndarray,
                    item_matrix: np.ndarray) -> np.ndarray:
    """Inner product plus item bias (BPR)."""
    user_vecs = user_table[users]                               # (U, D)
    item_vecs = item_table[item_matrix]                         # (U, C, D)
    dots = np.matmul(item_vecs, user_vecs[:, :, None])[..., 0]  # (U, C)
    return dots + item_bias[item_matrix]


def translation_scores(user_table: np.ndarray, item_table: np.ndarray,
                       user_context: np.ndarray, item_context: np.ndarray,
                       users: np.ndarray, item_matrix: np.ndarray) -> np.ndarray:
    """Translated distance ``-‖u + ctx_u ⊙ ctx_v − v‖²`` (TransCF)."""
    user_vecs = user_table[users][:, None, :]                        # (U, 1, D)
    item_vecs = item_table[item_matrix]                              # (U, C, D)
    relation = user_context[users][:, None, :] * item_context[item_matrix]
    translated = user_vecs + relation
    return -np.sum((translated - item_vecs) ** 2, axis=-1)


def memory_scores(user_table: np.ndarray, item_table: np.ndarray,
                  memory_keys: np.ndarray, memory_slots: np.ndarray,
                  users: np.ndarray, item_matrix: np.ndarray) -> np.ndarray:
    """Attention-memory relational distance (LRML)."""
    user_vecs = user_table[users][:, None, :]   # (U, 1, D)
    item_vecs = item_table[item_matrix]         # (U, C, D)

    joint = user_vecs * item_vecs
    logits = joint @ memory_keys                # (U, C, M)
    logits = logits - logits.max(axis=-1, keepdims=True)
    attention = np.exp(logits)
    attention = attention / attention.sum(axis=-1, keepdims=True)
    relation = attention @ memory_slots         # (U, C, D)
    translated = user_vecs + relation
    return -np.sum((translated - item_vecs) ** 2, axis=-1)


def mlp_scores(gmf_user: np.ndarray, gmf_item: np.ndarray,
               mlp_user: np.ndarray, mlp_item: np.ndarray,
               hidden_weight: np.ndarray, hidden_bias: np.ndarray,
               bottleneck_weight: np.ndarray, bottleneck_bias: np.ndarray,
               output_weight: np.ndarray, output_bias: np.ndarray,
               users: np.ndarray, item_matrix: np.ndarray) -> np.ndarray:
    """GMF + MLP fusion logits (NeuMF), replicated op-for-op in NumPy.

    Mirrors ``_NeuMFNetwork.predict_logits`` exactly (matmul/add/``x·(x>0)``
    in the same order on the same flattened ``(U·C, ·)`` batch), so the
    NumPy forward agrees bitwise with the autograd forward.
    """
    n_users, n_candidates = item_matrix.shape
    flat_users = np.repeat(users, n_candidates)
    flat_items = item_matrix.reshape(-1)

    gmf = gmf_user[flat_users] * gmf_item[flat_items]
    hidden = np.concatenate([mlp_user[flat_users], mlp_item[flat_items]], axis=1)
    hidden = hidden @ hidden_weight + hidden_bias
    hidden = hidden * (hidden > 0)  # ReLU exactly as autograd computes it
    hidden = hidden @ bottleneck_weight + bottleneck_bias
    fused = np.concatenate([gmf, hidden], axis=1)
    logits = (fused @ output_weight + output_bias).reshape(-1)
    return logits.reshape(n_users, n_candidates)


def popularity_scores(item_scores: np.ndarray, users: np.ndarray,
                      item_matrix: np.ndarray) -> np.ndarray:
    """Non-personalised gather from a single item-score vector."""
    return np.asarray(item_scores, dtype=np.float64)[item_matrix]


def precomputed_scores(score_matrix: np.ndarray, users: np.ndarray,
                       item_matrix: np.ndarray) -> np.ndarray:
    """Gather from a dense precomputed ``(n_users, n_items)`` score matrix."""
    return score_matrix[users[:, None], item_matrix]


# --------------------------------------------------------------------------- #
# family adapters (tensors dict -> scores)
# --------------------------------------------------------------------------- #
@register_family("multifacet")
def _multifacet(tensors, users, item_matrix):
    # Lazy import keeps this module importable from a partially initialised
    # `repro.core` (core.base imports the serving kernel at module load).
    from repro.core.similarity import facet_candidate_scores

    item_facets = tensors["item_facets"]
    if _whole_table(item_facets, item_matrix, 1):
        inverse = item_matrix  # the stored table is the unique pool, in order
    else:
        unique_items, inverse = np.unique(item_matrix, return_inverse=True)
        inverse = inverse.reshape(item_matrix.shape)
        item_facets = item_facets[:, unique_items]
    return facet_candidate_scores(
        tensors["user_facets"][:, users],
        item_facets,
        inverse,
        tensors["facet_weights"][users],
        bool(tensors["spherical"]),
    )


@register_family("euclidean")
def _euclidean(tensors, users, item_matrix):
    return euclidean_scores(tensors["user_embeddings"],
                            tensors["item_embeddings"], users, item_matrix)


@register_family("dot_bias")
def _dot_bias(tensors, users, item_matrix):
    return dot_bias_scores(tensors["user_embeddings"],
                           tensors["item_embeddings"],
                           tensors["item_bias"], users, item_matrix)


@register_family("translation")
def _translation(tensors, users, item_matrix):
    return translation_scores(tensors["user_embeddings"],
                              tensors["item_embeddings"],
                              tensors["user_context"],
                              tensors["item_context"], users, item_matrix)


@register_family("memory")
def _memory(tensors, users, item_matrix):
    return memory_scores(tensors["user_embeddings"],
                         tensors["item_embeddings"],
                         tensors["memory_keys"],
                         tensors["memory_slots"], users, item_matrix)


@register_family("mlp")
def _mlp(tensors, users, item_matrix):
    return mlp_scores(tensors["gmf_user"], tensors["gmf_item"],
                      tensors["mlp_user"], tensors["mlp_item"],
                      tensors["hidden_weight"], tensors["hidden_bias"],
                      tensors["bottleneck_weight"], tensors["bottleneck_bias"],
                      tensors["output_weight"], tensors["output_bias"],
                      users, item_matrix)


@register_family("popularity")
def _popularity(tensors, users, item_matrix):
    return popularity_scores(tensors["item_scores"], users, item_matrix)


@register_family("precomputed")
def _precomputed(tensors, users, item_matrix):
    return precomputed_scores(tensors["scores"], users, item_matrix)
