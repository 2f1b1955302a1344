"""Multi-facet optimization objectives (paper Section III-C and IV-A).

* :func:`push_loss` — the relative large-margin objective with adaptive
  margins (Eq. 8 / Eq. 15);
* :func:`pull_loss` — the absolute pulling regulariser on positive pairs
  (Eq. 9 / Eq. 16);
* :func:`facet_separating_loss` — encourages the facet-specific embeddings of
  the same entity to spread out across spaces (Eq. 6 / Eq. 12).

All functions return scalar tensors and are shared by MAR (Euclidean mode)
and MARS (spherical mode).

Each objective also has a plain NumPy ``*_numpy`` variant that returns the
loss value *and* its analytic gradient in one pass.  These closed forms back
the fused training engine (:mod:`repro.core.fused`); they are tested for
~1e-10 agreement against the autograd path, and use the same epsilon
conventions as :mod:`repro.autograd.functional` so the two paths differ only
by floating-point rounding.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F

_EPS = 1e-12


def push_loss(positive_similarity: Tensor, negative_similarity: Tensor,
              margins: Union[np.ndarray, float],
              reduction: str = "sum") -> Tensor:
    """Relative "pushing" objective ``[γ_u − g(u,v_p) + g(u,v_q)]₊`` (Eq. 8).

    Parameters
    ----------
    positive_similarity, negative_similarity:
        Cross-facet similarities of the positive and negative pairs in the
        batch.  Positives have shape ``(B,)``; negatives either ``(B,)``
        (classic single-negative triplets) or ``(B, N)`` for multi-negative
        blocks.
    margins:
        Scalar margin or per-example adaptive margins γ_u, shape ``(B,)``.
    reduction:
        How a ``(B, N)`` negative block collapses to one loss per example:
        ``"sum"`` adds every negative's hinge, ``"hardest"`` keeps only the
        most violating negative.  Ignored for ``(B,)`` negatives.
    """
    negative_similarity = F.as_tensor(negative_similarity)
    if negative_similarity.ndim == 1:
        return F.hinge_loss(positive_similarity, negative_similarity, margins)
    positive_similarity = F.as_tensor(positive_similarity)
    batch = positive_similarity.shape[0]
    margins_column = np.broadcast_to(
        np.asarray(margins, dtype=np.float64), (batch,)).reshape(batch, 1)
    violations = (Tensor(margins_column)
                  - positive_similarity.reshape(batch, 1)
                  + negative_similarity)
    return F.hinge_push(violations, reduction=reduction)


def pull_loss(positive_similarity: Tensor) -> Tensor:
    """Absolute "pulling" objective ``−g(u, v_p)`` averaged over the batch (Eq. 9)."""
    return (positive_similarity * -1.0).mean()


def facet_separating_loss(facet_embeddings: Union[Tensor, List[Tensor]],
                          alpha: float = 0.1, spherical: bool = False) -> Tensor:
    """Spread the facet-specific embeddings of each entity across spaces.

    Euclidean mode implements Eq. 6: for every pair of facets (i, j) the loss
    ``(1/α) log(1 + exp(−α ‖x_i − x_j‖²))`` decreases as the two facet
    embeddings of the same entity move apart.

    Spherical mode adapts the same idea to directions: the penalty
    ``(1/α) log(1 + exp(α cos(x_i, x_j)))`` decreases as the two facet
    embeddings point away from each other.  (Eq. 12 of the paper keeps the
    minus sign of the Euclidean formula, which would *reward* aligned facets;
    we flip the sign so the loss matches the paper's stated intent of
    encouraging diversity among facet spaces — see DESIGN.md.)

    All ``K·(K−1)/2`` facet pairs are evaluated on a single stacked
    ``(K, B, D)`` tensor — two gathers and one batched pairwise op — rather
    than ``K²`` separate graph branches, so the graph size is constant in K.

    Parameters
    ----------
    facet_embeddings:
        Stacked tensor of shape ``(K, B, D)``, or a list of K tensors of
        shape ``(B, D)`` — the same batch of entities projected into each
        facet space.
    alpha:
        Scale hyperparameter (paper default 0.1).
    spherical:
        Select the cosine-based variant.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if isinstance(facet_embeddings, Tensor):
        stacked = facet_embeddings
    else:
        if len(facet_embeddings) < 2:
            return Tensor(0.0)
        stacked = Tensor.stack(facet_embeddings, axis=0)
    n_facets = stacked.shape[0]
    if n_facets < 2:
        return Tensor(0.0)

    pair_i, pair_j = np.triu_indices(n_facets, k=1)
    left = stacked[pair_i]    # (P, B, D)
    right = stacked[pair_j]   # (P, B, D)
    if spherical:
        closeness = F.cosine_similarity(left, right, axis=-1)       # (P, B)
        pairwise = F.softplus(closeness * alpha) * (1.0 / alpha)
    else:
        distance = F.squared_euclidean(left, right, axis=-1)        # (P, B)
        pairwise = F.softplus(distance * -alpha) * (1.0 / alpha)
    # Mean over the batch, summed over facet pairs (matches the historical
    # per-pair ``mean()`` accumulation exactly).
    return pairwise.mean(axis=1).sum()


def combined_objective(positive_similarity: Tensor, negative_similarity: Tensor,
                       margins: Union[np.ndarray, float],
                       user_facets: List[Tensor], item_facets: List[Tensor],
                       lambda_pull: float, lambda_facet: float,
                       alpha: float = 0.1, spherical: bool = False,
                       reduction: str = "sum") -> Tensor:
    """Full training objective of Eq. 11 (MAR) / Eq. 17 (MARS) for a batch.

    ``negative_similarity`` may be a ``(B, N)`` multi-negative block, in
    which case ``reduction`` selects the push aggregation (see
    :func:`push_loss`); the pull and facet-separating terms always operate
    on the ``B`` positives.
    """
    loss = push_loss(positive_similarity, negative_similarity, margins,
                     reduction=reduction)
    if lambda_pull:
        loss = loss + pull_loss(positive_similarity) * lambda_pull
    if lambda_facet:
        separation = facet_separating_loss(user_facets, alpha=alpha, spherical=spherical)
        separation = separation + facet_separating_loss(
            item_facets, alpha=alpha, spherical=spherical
        )
        loss = loss + separation * lambda_facet
    return loss


# --------------------------------------------------------------------------- #
# closed-form (NumPy) variants used by the fused training engine
# --------------------------------------------------------------------------- #
def _softplus_numpy(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` with the same stabilisation as :func:`F.softplus`."""
    return np.maximum(x, 0.0) + np.log(1.0 + np.exp(-np.abs(x)))


def _sigmoid_numpy(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid — the exact derivative of :func:`_softplus_numpy`."""
    return 1.0 / (1.0 + np.exp(-x))


def push_loss_numpy(positive_similarity: np.ndarray, negative_similarity: np.ndarray,
                    margins: Union[np.ndarray, float],
                    reduction: str = "sum"
                    ) -> Tuple[float, np.ndarray, np.ndarray]:
    """:func:`push_loss` with its gradients wrt the two similarity arrays.

    ``negative_similarity`` is ``(B,)`` or a ``(B, N)`` multi-negative block;
    ``positive_similarity`` is always ``(B,)``.  Returns
    ``(loss, d loss/d positive, d loss/d negative)`` with the negative
    gradient matching the input's shape.  The hinge uses the same
    strict-inequality subgradient (zero at the kink) as the autograd
    :meth:`~repro.autograd.tensor.Tensor.clip_min` op; the ``"hardest"``
    reduction routes the whole gradient to the *first* maximal violation of
    each row at ties, matching :meth:`~repro.autograd.tensor.Tensor.max`.
    """
    if reduction not in ("sum", "hardest"):
        raise ValueError(f"reduction must be 'sum' or 'hardest', got {reduction!r}")
    batch = positive_similarity.shape[0]
    if negative_similarity.ndim == 1:
        violations = margins - positive_similarity + negative_similarity
        active = violations > 0
        loss = float(np.sum(violations * active) / batch)
        grad_negative = active / batch
        return loss, -grad_negative, grad_negative
    violations = ((margins - positive_similarity)[:, None]
                  + negative_similarity)                              # (B, N)
    if reduction == "hardest":
        hardest = np.argmax(violations, axis=1)
        selected = np.take_along_axis(violations, hardest[:, None], axis=1)[:, 0]
        active = selected > 0
        loss = float(np.sum(selected * active) / batch)
        grad_negative = np.zeros_like(violations)
        np.put_along_axis(grad_negative, hardest[:, None],
                          (active / batch)[:, None], axis=1)
    else:
        active = violations > 0
        loss = float(np.sum(violations * active) / batch)
        grad_negative = active / batch
    return loss, -grad_negative.sum(axis=1), grad_negative


def bpr_loss_numpy(positive_scores: np.ndarray, negative_scores: np.ndarray,
                   reduction: str = "sum"
                   ) -> Tuple[float, np.ndarray, np.ndarray]:
    """:func:`repro.autograd.functional.bpr_loss` with its analytic gradients.

    ``negative_scores`` is ``(B,)`` or a ``(B, N)`` multi-negative block;
    with ``reduction="sum"`` every negative's ``−log σ(pos − neg)`` term is
    summed per example (mean over the batch), with ``"hardest"`` only the
    highest-scoring negative of each example contributes.  Returns
    ``(loss, d loss/d positive, d loss/d negative)``.
    """
    if reduction not in ("sum", "hardest"):
        raise ValueError(f"reduction must be 'sum' or 'hardest', got {reduction!r}")
    batch = positive_scores.shape[0]
    if negative_scores.ndim == 1:
        diff = positive_scores - negative_scores
        loss = float(np.sum(_softplus_numpy(-diff)) / batch)
        grad_diff = -_sigmoid_numpy(-diff) / batch
        return loss, grad_diff, -grad_diff
    if reduction == "hardest":
        hardest = np.argmax(negative_scores, axis=1)
        selected = np.take_along_axis(negative_scores, hardest[:, None], axis=1)[:, 0]
        diff = positive_scores - selected
        loss = float(np.sum(_softplus_numpy(-diff)) / batch)
        grad_diff = -_sigmoid_numpy(-diff) / batch
        grad_negative = np.zeros_like(negative_scores)
        np.put_along_axis(grad_negative, hardest[:, None],
                          -grad_diff[:, None], axis=1)
        return loss, grad_diff, grad_negative
    diff = positive_scores[:, None] - negative_scores                 # (B, N)
    loss = float(np.sum(_softplus_numpy(-diff)) / batch)
    grad_diff = -_sigmoid_numpy(-diff) / batch
    return loss, grad_diff.sum(axis=1), -grad_diff


def pull_loss_numpy(positive_similarity: np.ndarray) -> Tuple[float, np.ndarray]:
    """:func:`pull_loss` with its gradient wrt the positive similarities."""
    batch = positive_similarity.shape[0]
    loss = float(-np.sum(positive_similarity) / batch)
    return loss, np.full(batch, -1.0 / batch)


def facet_separating_loss_numpy(stacked: np.ndarray, alpha: float = 0.1,
                                spherical: bool = False
                                ) -> Tuple[float, np.ndarray]:
    """:func:`facet_separating_loss` with its gradient, on a ``(K, B, D)`` stack.

    The facet-major adapter of :func:`facet_separating_loss_rows` (same
    value and gradient, facets on the leading axis).
    """
    value, grad = facet_separating_loss_rows(
        np.ascontiguousarray(stacked.transpose(1, 0, 2)), alpha=alpha,
        spherical=spherical)
    return value, grad.transpose(1, 0, 2)


def facet_separating_loss_rows(stacked: np.ndarray, alpha: float = 0.1,
                               spherical: bool = False,
                               out: Optional[np.ndarray] = None
                               ) -> Tuple[float, np.ndarray]:
    """:func:`facet_separating_loss` with its gradient, on an ``(R, K, D)`` stack.

    Row-major: row ``r`` holds the K facet vectors of one entity.  Works on
    the per-row Gram ``G_{kj} = x_k · x_j``, one batched ``(R, K, D) @ (R,
    D, K)`` matmul, and returns the gradient as one batched ``(R, K, K) @
    (R, K, D)`` matmul, written into ``out`` when given.

    Derivation (per facet pair ``(k, j)``, per row, mean over the R rows):

    * Euclidean — with ``d = ‖x_k − x_j‖² = G_kk + G_jj − 2 G_kj`` the
      pairwise term is ``softplus(−α d)/α``, so ``∂/∂d = −σ(−α d)`` and
      ``∂d/∂x_k = 2 (x_k − x_j)``; summing over partners j with the
      symmetric, zero-diagonal coefficients ``C_kj = −σ(−α d_kj)/R`` gives
      ``∂L/∂x_k = 2 (Σ_j C_kj) x_k − 2 Σ_j C_kj x_j``;
    * spherical — with ``c = cos(x_k, x_j) = G_kj/(n_k n_j)`` (ε-stabilised
      norms, matching :func:`F.cosine_similarity`) the term is
      ``softplus(α c)/α``, so ``∂/∂c = σ(α c)`` and
      ``∂c/∂x_k = x_j/(n_k n_j) − c·x_k/n_k²``, accumulated the same way.

    Either way ``∂L/∂x_k = Σ_j A_kj x_j`` for one ``(K, K)`` matrix A per
    row: the partner terms off the diagonal, the self term on it.
    """
    n_rows, n_facets = stacked.shape[0], stacked.shape[1]
    grad = np.empty_like(stacked) if out is None else out
    if n_facets < 2:
        grad[...] = 0.0
        return 0.0, grad
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    gram = np.matmul(stacked, stacked.transpose(0, 2, 1))          # (R, K, K)
    diagonal = np.arange(n_facets)
    squared = gram[:, diagonal, diagonal]                           # (R, K)
    pair_i, pair_j = np.triu_indices(n_facets, k=1)
    if spherical:
        squared += _EPS
        inv_norms = 1.0 / np.sqrt(squared[:, :, None] * squared[:, None, :])
        closeness = gram * inv_norms                                # (R, K, K)
        loss = float(np.sum(_softplus_numpy(
            alpha * closeness[:, pair_i, pair_j])) / (alpha * n_rows))
        coef = _sigmoid_numpy(alpha * closeness) / n_rows
        coef[:, diagonal, diagonal] = 0.0
        self_term = -np.sum(coef * closeness, axis=2) / squared
        coef *= inv_norms
    else:
        distances = squared[:, :, None] + squared[:, None, :] - 2.0 * gram
        loss = float(np.sum(_softplus_numpy(
            -alpha * distances[:, pair_i, pair_j])) / (alpha * n_rows))
        coef = -_sigmoid_numpy(-alpha * distances) / n_rows
        coef[:, diagonal, diagonal] = 0.0
        self_term = 2.0 * np.sum(coef, axis=2)
        coef *= -2.0
    coef[:, diagonal, diagonal] = self_term
    np.matmul(coef, stacked, out=grad)
    return loss, grad
