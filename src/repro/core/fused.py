"""Fused closed-form training kernels for the triplet-trained models.

One :func:`fused_forward_backward` call evaluates the combined objective of
Eq. 11 (MAR) / Eq. 17 (MARS) — push + pull + facet-separating terms — *and*
its analytic gradients for every parameter touched by a triplet batch, in a
handful of ``einsum``/BLAS calls with no computation-graph construction.  It
is the default training path (``MARConfig.engine = "fused"``); the autograd
engine of :mod:`repro.autograd` is retained as the slow reference
implementation, and the two agree to ~1e-10 (see
``tests/test_fused_engine.py``).

Training engines
----------------
Every triplet-trained model in the repository exposes an ``engine`` knob
with the same contract:

* ``"autograd"`` is the *reference* implementation — the loss is built as a
  reverse-mode computation graph (:mod:`repro.autograd`) and walked
  backward.  It is the ground truth the tests certify against (ultimately
  via finite differences) but pays Python-level graph overhead per op.
* ``"fused"`` evaluates hand-derived analytic gradients of the same
  objective with a few large NumPy/BLAS calls, scatter-sums duplicate rows
  onto unique rows (:func:`scatter_rows`) and applies sparse row-wise
  optimizer updates (``Optimizer.step_rows`` / ``step_dense``).  Norm
  constraints are re-applied only to the rows a step touched.

The two engines must agree to ~1e-10 per step so that seeded training runs
produce identical loss curves up to float tolerance — that equivalence is
what lets the fused path be the default everywhere while the autograd path
stays the parity oracle.

To add a fused engine for a new model: (1) write its ``_batch_loss``
autograd reference first; (2) express the forward as gathers plus the
shared kernels below (:func:`hinge_distance_push` for hinge-of-distance
pushes, :func:`repro.core.losses.push_loss_numpy` /
:func:`repro.core.losses.bpr_loss_numpy` for score-level losses); (3)
scatter per-example gradients onto unique rows with :func:`scatter_rows`
and apply them through ``optimizer.step_rows``; (4) extend the parity
matrix in ``tests/test_fused_baselines.py`` with the new model.

Multi-negative batches: every kernel accepts negatives of shape ``(B,)``
(classic triplets) or ``(B, N)`` blocks drawn by
``TripletBatcher(n_negatives=N)``, reduced per example either by summing
all negatives' hinges (``reduction="sum"``) or by keeping only the most
violating one (``reduction="hardest"``, first-maximum subgradient at
ties).

Training runtime
----------------
The epoch loop around these kernels is owned by one shared runtime,
:class:`repro.training.loop.TrainingLoop`: models implement the
``TrainableModel`` protocol (``make_batcher`` / ``make_optimizer`` /
``train_step`` plus the ``_on_epoch_start`` hook) and delegate their whole
``_fit`` body to it.  The runtime's *executor* contract:

* ``executor="serial"`` — the classic single-threaded loop, loop-for-loop
  bit-identical to the pre-runtime per-model loops (same batcher streams,
  same step order over the current kernels);
* ``executor="sharded"`` — Hogwild-style parallel epochs: users are
  partitioned into ``n_shards`` disjoint degree-balanced shards, each
  shard trains its own ``TripletBatcher`` (restricted via ``user_subset``,
  seeded by an independent ``np.random.SeedSequence.spawn`` stream) on a
  thread pool, with **no locks** around parameter updates.

The Hogwild safety argument leans directly on this module's design: a
fused step applies row-restricted updates (``optimizer.step_rows`` after
:func:`scatter_rows`), user-side rows are owned by exactly one shard, and
item-row collisions between shards are rare, sparse and tolerated the way
Hogwild tolerates shared-coordinate races — while the BLAS-heavy kernels
release the GIL so the threads genuinely overlap.  The exception to
"rare" is the small *dense* shared parameters of the multifacet models —
the ``(K, D, D)`` projection stacks, updated by every shard on every step
via in-place ``optimizer.step_dense`` — which race elementwise at
constant contention; the updates are tiny relative to the tensors, lost
elements are bounded-staleness noise of the usual Hogwild kind, and the
4-shard statistical parity tests cover exactly this regime, but it is the
main reason ``n_shards>1`` is statistical rather than bitwise.  The
autograd engine does not satisfy any of this (dense shared ``.grad``
buffers, whole-table optimizer steps), so ``n_shards > 1`` requires
``engine="fused"``.

Determinism: ``n_shards=1`` sharded is bit-identical to serial (same root
stream, no subset restriction); ``n_shards>1`` reproduces serial loss
curves only statistically (a few percent on epoch means) and is not
run-to-run reproducible, because thread interleaving orders the item-row
updates.  Sharding pays off when per-epoch compute dominates — catalogue
scale tables, several CPU cores, big batches; at toy scale (or on a single
core) thread overhead eats the gain and serial remains the right default.

Two checkers certify this contract on every ordinary test run (see
``repro.analysis.static`` and the "Enforced invariants" section of
``ROADMAP.md``): the static ``HOGWILD-SAFETY`` rule proves the update
*shape* — fused-step/optimizer code never rebinds a parameter table and
never falls back to a whole-table dense pass — while the runtime
:class:`~repro.training.loop.HogwildWriteAuditor` (``audit=True`` /
``REPRO_AUDIT=1``) proves the row *traffic* — shards write pairwise
disjoint user rows.  ``DTYPE-DISCIPLINE`` additionally pins every
allocation in this module to an explicit dtype, the precondition for the
planned float32 kernel backend.

Forward recap for a batch of B triplets ``(u, v_p, v_q)`` with K facets of
dimension D.  Facets are held row-major, ``(rows, K, D)``: row r carries
the K facet vectors of one gathered entity, so every projection is one 2-D
GEMM and every per-facet reduction runs over contiguous memory.

* facet projections (Eq. 1-2): ``U_k = u Φ_k``, ``V_k = v Ψ_k``, computed as
  one ``(rows, D) × (D, K·D)`` GEMM per entity role against the stacked
  matrix ``[Φ_1 … Φ_K]`` (positives and negatives share Ψ, so the item side
  is one ``((1+N)·B, D)`` block, slot-major: positives first, then one
  block per negative column);
* per-facet similarity: ``s_k = −‖U_k − V_k‖²`` (Eq. 3, MAR) or
  ``s_k = cos(U_k, V_k)`` (Eq. 13, MARS; ε-stabilised norms matching
  :func:`repro.autograd.functional.cosine_similarity`);
* cross-facet aggregation (Eq. 4 / Eq. 14): ``g = Σ_k softmax(Θ_u)_k s_k``;
* loss: ``mean[γ_u − g_p + g_q]₊ + λ_pull·mean(−g_p) + λ_facet·(sep(U) +
  sep(V_p))`` with the facet-separating term of Eq. 6 / Eq. 12.

Backward, derived by hand and evaluated in reverse:

* hinge mask ``m_b = 1[γ_b − g_p + g_q > 0]`` gives
  ``∂L/∂g_p = (−m_b − λ_pull)/B`` and ``∂L/∂g_q = m_b/B``;
* through the Θ-weighted sum: ``∂L/∂s_{kb} = w_{bk}·∂L/∂g_b`` and
  ``∂L/∂w_{bk} = s^p_{kb}·∂L/∂g_p + s^q_{kb}·∂L/∂g_q``, then the softmax
  Jacobian ``∂L/∂Θ = w ⊙ (∂L/∂w − ⟨∂L/∂w, w⟩)``;
* through the similarity: Euclidean ``∂s/∂U_k = −2(U_k − V_k)``; spherical
  ``∂c/∂U_k = V_k/(n_U n_V) − c·U_k/n_U²`` — broadcast multiplies of
  per-facet coefficients against the facet rows;
* facet-separating gradients come from
  :func:`repro.core.losses.facet_separating_loss_rows`, run directly on the
  first 2B rows of the facet stack (users, then positives) with no copy;
* through the projections: with ``G`` the ``(rows, K·D)`` facet gradient,
  ``∂L/∂u = G [Φ_1 … Φ_K]ᵀ`` and ``∂L/∂[Φ_1 … Φ_K] = uᵀ G`` — two GEMMs
  per entity role, the sum over K folded into the GEMM's inner dimension.

Row gradients for duplicate users/items inside a batch are scatter-summed
onto unique rows, so optimizers can apply sparse row updates without ever
materialising full ``(n_users, D)`` gradient buffers.

Step buffers: the step's large intermediates — both gathers, the facet
stack and its gradient, the ``(1+N, B, K, D)`` pair work array (reused
for the separation gradient) and the embedding-row gradients — are
:func:`repro.utils.workspace.work_array` arrays.  Inside a
:func:`~repro.utils.workspace.workspace_scope` (each ``TrainingLoop.run``
on the serial executor, each shard sub-epoch on the sharded one) they are
reused step after step on that thread, so a step neither allocates nor
page-faults them; outside a scope they are allocated per call.  Results
never alias them: everything a :class:`FusedStepResult` carries is freshly
allocated, and a step's outputs are bitwise the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.losses import (
    facet_separating_loss_rows,
    pull_loss_numpy,
    push_loss_numpy,
)
from repro.core.similarity import softmax_numpy
from repro.utils.workspace import work_array

_EPS = 1e-12


@dataclass
class FusedStepResult:
    """Loss and per-parameter gradients of one fused forward+backward pass.

    Embedding and facet-logit gradients are reported per *unique* row
    (duplicates inside the batch already scatter-summed); the projection
    gradients are dense ``(K, D, D)`` stacks, which are tiny.  Every array
    is freshly allocated — none aliases a step buffer.
    """

    loss: float
    #: Unique user ids of the batch, ascending — rows of ``user_grad``
    #: (for the user-embedding table) and ``logit_grad`` (for Θ).
    user_rows: np.ndarray
    user_grad: np.ndarray
    logit_grad: np.ndarray
    #: Unique item ids among positives ∪ negatives — rows of ``item_grad``.
    item_rows: np.ndarray
    item_grad: np.ndarray
    user_projection_grad: np.ndarray
    item_projection_grad: np.ndarray


#: Above this many candidate rows (``indices.max() + 1``) the dense
#: span-space segment sum would zero-fill a buffer much larger than the
#: batch, so :func:`scatter_rows` switches to the compacted unique-row
#: strategy.  At the 240 × 300 delicious preset every scatter stays on the
#: dense path (~1.7x faster than the former ``argsort`` + ``reduceat``
#: sums that dominated its fused steps); catalogue-scale tables take the
#: compact path.
_DENSE_SCATTER_MAX_ROWS = 2048


def _segment_sum(keys: np.ndarray, grad: np.ndarray, n_segments: int) -> np.ndarray:
    """Sum per-example gradient blocks per segment key, in input order.

    One flattened ``np.bincount`` call per gradient block: element ``(b, j)``
    of ``grad`` accumulates into slot ``(keys[b], j)``.  ``bincount`` adds
    weights sequentially in input order, which makes the two strategies of
    :func:`scatter_rows` produce bitwise-identical sums.
    """
    flat = grad.reshape(keys.size, -1)
    cols = flat.shape[1]
    if cols == 1:
        dense = np.bincount(keys, weights=flat[:, 0], minlength=n_segments)
        return dense.reshape((n_segments,) + grad.shape[1:])
    slot_keys = keys[:, None] * cols + np.arange(cols, dtype=np.int64)
    dense = np.bincount(slot_keys.ravel(), weights=flat.ravel(),
                        minlength=n_segments * cols)
    return dense.reshape((n_segments,) + grad.shape[1:])


def scatter_rows(indices: np.ndarray, *grads: np.ndarray):
    """Sum per-example gradient blocks onto unique rows (embedding-lookup VJP).

    Returns ``(rows, summed_0, summed_1, ...)`` with ``rows`` ascending.
    Two strategies, chosen by the candidate-row span ``indices.max() + 1``:

    * **dense span space** (small tables, e.g. the delicious preset): one
      flattened ``np.bincount`` per gradient block over the whole span,
      then a gather of the occupied rows — no sort at all;
    * **compact unique space** (catalogue-scale tables): ``np.unique``
      compresses the batch onto its unique rows first, so the ``bincount``
      buffer is ``O(batch)`` instead of ``O(table)``.

    Both accumulate duplicate rows in batch order (``bincount`` semantics),
    so they agree *bitwise* — a training run whose batches straddle the
    span threshold never changes association order mid-run.
    """
    span = int(indices.max()) + 1
    if span <= _DENSE_SCATTER_MAX_ROWS:
        rows = np.flatnonzero(np.bincount(indices, minlength=span))
        return (rows, *(_segment_sum(indices, grad, span)[rows] for grad in grads))
    rows, inverse = np.unique(indices, return_inverse=True)
    return (rows, *(_segment_sum(inverse, grad, rows.size) for grad in grads))


def negatives_matrix(negatives: np.ndarray) -> np.ndarray:
    """Normalise a negative-index array to a ``(B, N)`` block.

    ``TripletBatcher`` emits ``(B,)`` for ``n_negatives=1`` and ``(B, N)``
    blocks otherwise; the fused kernels always work on the 2-D view.
    """
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.ndim == 1:
        return negatives[:, None]
    if negatives.ndim != 2:
        raise ValueError(f"negatives must be (B,) or (B, N), got shape "
                         f"{negatives.shape}")
    return negatives


def hinge_distance_push(pos_diff: np.ndarray, neg_diff: np.ndarray,
                        margins: Union[np.ndarray, float],
                        reduction: str = "sum"):
    """Hinge push on squared-Euclidean distances, differentiated to the diffs.

    The shared shape of CML / TransCF / SML / MetricF's ranking terms:
    ``red_n [margin + ‖pos_diff‖² − ‖neg_diff_n‖²]₊`` averaged over the
    batch, where ``pos_diff`` (shape ``(B, D)``) and ``neg_diff`` (shape
    ``(B, N, D)``) are whatever difference vectors the model's geometry
    produces (plain ``u − v`` for CML, translated ``u + r − v`` for
    TransCF, …).  Equivalent to :func:`repro.core.losses.push_loss_numpy`
    on the similarity scores ``−‖·‖²``.

    Returns ``(loss, grad_pos_diff, grad_neg_diff, grad_margin)`` — the
    gradients wrt the two diff blocks (same shapes) and wrt a per-example
    margin (shape ``(B,)``; zero-filled when the margin is a constant, used
    by SML's learnable margins).
    """
    pos_dist = np.einsum("bd,bd->b", pos_diff, pos_diff)
    neg_dist = np.einsum("bnd,bnd->bn", neg_diff, neg_diff)
    loss, grad_pos_score, grad_neg_score = push_loss_numpy(
        -pos_dist, -neg_dist, margins, reduction=reduction)
    # scores are −distances, and ∂‖x‖²/∂x = 2x.
    grad_pos_diff = (-2.0 * grad_pos_score)[:, None] * pos_diff
    grad_neg_diff = (-2.0 * grad_neg_score)[..., None] * neg_diff
    # ∂violation/∂margin = 1 wherever the hinge is active, i.e. −∂L/∂s_pos.
    return loss, grad_pos_diff, grad_neg_diff, -grad_pos_score


def _stacked_projection(projections: np.ndarray) -> np.ndarray:
    """``(K, D, D)`` stack Φ → the ``(D, K·D)`` GEMM operand ``[Φ_1 … Φ_K]``."""
    n_facets, dim, out_dim = projections.shape
    return projections.transpose(1, 0, 2).reshape(dim, n_facets * out_dim)


def _unstacked_projection_grad(grad: np.ndarray, n_facets: int) -> np.ndarray:
    """``(D, K·D)`` gradient of ``[Φ_1 … Φ_K]`` → the ``(K, D, D)`` stack."""
    dim = grad.shape[0]
    return np.ascontiguousarray(
        grad.reshape(dim, n_facets, -1).transpose(1, 0, 2))


def fused_forward_backward(
    user_table: np.ndarray, item_table: np.ndarray,
    user_projections: np.ndarray, item_projections: np.ndarray,
    facet_logits: np.ndarray,
    users: np.ndarray, positives: np.ndarray, negatives: np.ndarray,
    margins: Union[np.ndarray, float],
    lambda_pull: float, lambda_facet: float, alpha: float, spherical: bool,
    reduction: str = "sum",
) -> FusedStepResult:
    """Loss and analytic gradients of Eq. 11 / Eq. 17 for one triplet batch.

    Parameters
    ----------
    user_table, item_table:
        Full embedding tables ``(n_users, D)`` / ``(n_items, D)``; only the
        batch rows are read.
    user_projections, item_projections:
        Facet projection stacks Φ and Ψ, shape ``(K, D, D)``.
    facet_logits:
        Facet-weight logits Θ, shape ``(n_users, K)``.
    users, positives:
        Triplet index arrays, shape ``(B,)``.
    negatives:
        Negative item ids, shape ``(B,)`` or a ``(B, N)`` multi-negative
        block.
    margins:
        Per-example margins γ_u (shape ``(B,)``) or a scalar margin.
    lambda_pull, lambda_facet, alpha, spherical:
        Objective hyperparameters (see :class:`~repro.core.config.MARConfig`).
    reduction:
        Push aggregation over a ``(B, N)`` negative block — ``"sum"`` or
        ``"hardest"`` (see :func:`repro.core.losses.push_loss_numpy`).
    """
    users = np.asarray(users, dtype=np.int64)
    positives = np.asarray(positives, dtype=np.int64)
    neg_matrix = negatives_matrix(negatives)                         # (B, N)
    batch = users.shape[0]
    n_negatives = neg_matrix.shape[1]
    slots = 1 + n_negatives
    n_facets, dim = user_projections.shape[0], user_projections.shape[2]
    width = n_facets * dim
    n_rows = (1 + slots) * batch

    # Gathers straight into the step buffers.  mode="wrap" because the
    # default "raise" stages through a temporary copy; ids are batcher
    # output, and an out-of-range row still fails in the optimizer's
    # row update.
    user_emb = np.take(user_table, users, axis=0, mode="wrap",
                       out=work_array("fused.user_emb", (batch, dim)))
    items_stacked = np.concatenate([positives, neg_matrix.T.reshape(-1)])
    item_emb = np.take(item_table, items_stacked, axis=0, mode="wrap",
                       out=work_array("fused.item_emb", (slots * batch, dim)))

    # One facet stack for both roles: rows [0, B) are the users' facets,
    # rows [B, 2B) the positives', then one B-row block per negative column.
    user_stack = _stacked_projection(user_projections)               # (D, K·D)
    item_stack = _stacked_projection(item_projections)
    facets = work_array("fused.facets", (n_rows, n_facets, dim))
    flat_facets = facets.reshape(n_rows, width)
    np.matmul(user_emb, user_stack, out=flat_facets[:batch])
    np.matmul(item_emb, item_stack, out=flat_facets[batch:])
    user_facets = facets[:batch]                                     # (B, K, D)
    item_view = facets[batch:].reshape(slots, batch, n_facets, dim)  # (1+N, B, K, D)

    weights = softmax_numpy(facet_logits[users], axis=-1)            # (B, K)

    # Per-facet similarities, every item slot riding through each op as one
    # (1+N, B, K) stack (t = 0 is the positive slot, t ≥ 1 the negatives).
    if spherical:
        squared = np.einsum("rkd,rkd->rk", facets, facets)           # (rows, K)
        squared += _EPS
        user_sq = squared[:batch]                                    # (B, K)
        item_sq = squared[batch:].reshape(slots, batch, n_facets)    # (1+N, B, K)
        inv_norms = 1.0 / np.sqrt(user_sq * item_sq)
        sims = np.einsum("bkd,tbkd->tbk", user_facets, item_view) * inv_norms
    else:
        diff = np.subtract(user_facets, item_view, out=work_array(
            "fused.pair_work", (slots, batch, n_facets, dim)))       # (1+N, B, K, D)
        sims = -np.einsum("tbkd,tbkd->tbk", diff, diff)

    scores = np.einsum("tbk,bk->tb", sims, weights)                   # (1+N, B)
    pos_scores = scores[0]

    # ---------------------------------------------------------------- loss
    if n_negatives == 1:
        loss, grad_pos_scores, grad_neg = push_loss_numpy(
            pos_scores, scores[1], margins)
        grad_neg_slots = grad_neg[None]                               # (1, B)
    else:
        loss, grad_pos_scores, grad_neg = push_loss_numpy(
            pos_scores, scores[1:].T, margins, reduction=reduction)
        grad_neg_slots = grad_neg.T                                   # (N, B)
    if lambda_pull:
        pull_value, pull_grad = pull_loss_numpy(pos_scores)
        loss += lambda_pull * pull_value
        grad_pos_scores = grad_pos_scores + lambda_pull * pull_grad

    # ------------------------------------------------- backward: similarity
    # ∂L/∂s_{tbk} = w_{bk} · ∂L/∂g_{tb} for every similarity slot at once.
    grad_scores = np.concatenate(
        [grad_pos_scores[None], grad_neg_slots])                      # (1+N, B)
    grad_sims = grad_scores[..., None] * weights                      # (1+N, B, K)

    grads = work_array("fused.facet_grad", (n_rows, n_facets, dim))
    grad_user_facets = grads[:batch]
    grad_item_view = grads[batch:].reshape(slots, batch, n_facets, dim)
    if spherical:
        # ∂c/∂u = v/(‖u‖‖v‖) − c·u/‖u‖², ∂c/∂v = u/(‖u‖‖v‖) − c·v/‖v‖²:
        # per-facet coefficients broadcast against the facet rows.
        coef_cross = (grad_sims * inv_norms)[..., None]               # (1+N, B, K, 1)
        coef_self = grad_sims * sims
        np.multiply((-coef_self.sum(axis=0) / user_sq)[..., None],
                    user_facets, out=grad_user_facets)
        pair_work = np.multiply(coef_cross, item_view, out=work_array(
            "fused.pair_work", (slots, batch, n_facets, dim)))
        for slot in pair_work:
            grad_user_facets += slot
        np.multiply((coef_self / item_sq)[..., None], item_view, out=pair_work)
        np.multiply(coef_cross, user_facets, out=grad_item_view)
        grad_item_view -= pair_work
    else:
        # ∂(−‖u−v‖²)/∂u = −2(u−v), ∂/∂v = +2(u−v).
        np.multiply((2.0 * grad_sims)[..., None], diff, out=grad_item_view)
        np.sum(grad_item_view, axis=0, out=grad_user_facets)
        np.negative(grad_user_facets, out=grad_user_facets)

    # ------------------------------------------------ backward: Θ (softmax)
    grad_weights = np.einsum("tbk,tb->bk", sims, grad_scores)         # (B, K)
    grad_logits = weights * (
        grad_weights - np.sum(grad_weights * weights, axis=-1, keepdims=True)
    )

    # -------------------------------------- backward: facet separation term
    if lambda_facet and n_facets >= 2:
        # sep(U) + sep(V_p) in a single pass over the stack's first 2B rows,
        # whose mean divides by 2B instead of B, hence the factor of two.
        # The pair work array is dead by now and holds at least 2B rows.
        sep_grad = work_array("fused.pair_work", (2 * batch, n_facets, dim))
        sep_value, _ = facet_separating_loss_rows(
            facets[:2 * batch], alpha=alpha, spherical=spherical, out=sep_grad)
        loss += (2.0 * lambda_facet) * sep_value
        sep_grad *= 2.0 * lambda_facet
        grads[:2 * batch] += sep_grad

    # ------------------------------------------------ backward: projections
    # U = u [Φ_1 … Φ_K]  ⇒  ∂L/∂u = G [Φ_1 … Φ_K]ᵀ, ∂L/∂[Φ_1 … Φ_K] = uᵀ G.
    flat_grads = grads.reshape(n_rows, width)
    grad_user_emb = np.matmul(flat_grads[:batch], user_stack.T,
                              out=work_array("fused.user_emb_grad", (batch, dim)))
    grad_item_emb = np.matmul(flat_grads[batch:], item_stack.T,
                              out=work_array("fused.item_emb_grad",
                                             (slots * batch, dim)))
    user_projection_grad = _unstacked_projection_grad(
        np.matmul(user_emb.T, flat_grads[:batch]), n_facets)
    item_projection_grad = _unstacked_projection_grad(
        np.matmul(item_emb.T, flat_grads[batch:]), n_facets)

    # ------------------------------------------- scatter onto unique rows
    # scatter_rows returns fresh arrays, so the result never aliases a
    # step buffer.
    user_rows, user_grad, logit_grad = scatter_rows(
        users, grad_user_emb, grad_logits)
    item_rows, item_grad = scatter_rows(items_stacked, grad_item_emb)

    return FusedStepResult(
        loss=float(loss),
        user_rows=user_rows,
        user_grad=user_grad,
        logit_grad=logit_grad,
        item_rows=item_rows,
        item_grad=item_grad,
        user_projection_grad=user_projection_grad,
        item_projection_grad=item_projection_grad,
    )
