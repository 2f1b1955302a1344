"""The recommender interface shared by MAR, MARS and every baseline.

All models consume an :class:`~repro.data.dataset.ImplicitFeedbackDataset`
(or a raw :class:`~repro.data.interactions.InteractionMatrix`) through
:meth:`fit`, and expose scoring/ranking through :meth:`score_items` and
:meth:`recommend`.  The evaluation protocol only relies on this interface,
which is what makes the Table II comparison a like-for-like one.

Batch inference
---------------
:meth:`score_items_batch` scores a whole batch of users against per-user
candidate lists in one call and :meth:`recommend_batch` ranks top-N for many
users at once.  The base class provides a per-user fallback so every model
supports the batch API; models with a vectorised scorer (MAR/MARS and the
embedding baselines) override :meth:`_score_candidates` to avoid the
Python-level loop, which is what makes sampled leave-one-out evaluation run
at full NumPy speed.

Serving
-------
The read path is built on the unified Query API of :mod:`repro.serving`:
:meth:`recommend`, :meth:`recommend_batch` and :meth:`score_items_batch` are
thin shims that build a :class:`~repro.serving.query.Query` and delegate to
the shared blockwise top-k kernel (:func:`~repro.serving.kernel.run_query`),
and :meth:`query` exposes the full Query surface (per-user candidate lists,
item blocklists) directly.  :meth:`export_serving` freezes a fitted model
into a :class:`~repro.serving.artifact.ServingArtifact` — the read-only
tensors of its scoring family plus the train-set seen-items CSR — which
answers the same queries bitwise-identically without any training state
(batchers, interaction matrix, autograd network) and feeds the hot-swap
:class:`~repro.serving.service.RecommenderService`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.data.dataset import ImplicitFeedbackDataset
from repro.data.interactions import InteractionMatrix
from repro.serving.kernel import RECOMMEND_ELEMENT_BUDGET, run_query
from repro.serving.query import Query, QueryResult
from repro.utils.io import load_arrays, save_arrays

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.serving.artifact import ServingArtifact

#: Cap on the number of score-matrix elements a single recommend_batch chunk
#: asks the scorer for (see :data:`repro.serving.kernel.RECOMMEND_ELEMENT_BUDGET`).
#: Kept as a module attribute so tests can shrink it to force chunking.
_RECOMMEND_BATCH_ELEMENT_BUDGET = RECOMMEND_ELEMENT_BUDGET


class BaseRecommender:
    """Abstract base class for top-N recommenders trained on implicit feedback."""

    #: Human-readable model name used in experiment reports.
    name: str = "base"

    def __init__(self) -> None:
        self._train_interactions: Optional[InteractionMatrix] = None

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(self, data: Union[ImplicitFeedbackDataset, InteractionMatrix]) -> "BaseRecommender":
        """Train the model and return ``self``."""
        interactions = self._unwrap(data)
        self._train_interactions = interactions
        self._fit(interactions)
        return self

    def _fit(self, interactions: InteractionMatrix) -> None:  # pragma: no cover
        raise NotImplementedError

    @staticmethod
    def _unwrap(data: Union[ImplicitFeedbackDataset, InteractionMatrix]) -> InteractionMatrix:
        if isinstance(data, ImplicitFeedbackDataset):
            return data.train
        if isinstance(data, InteractionMatrix):
            return data
        raise TypeError(
            "fit expects an ImplicitFeedbackDataset or InteractionMatrix, "
            f"got {type(data).__name__}"
        )

    def _require_fitted(self) -> InteractionMatrix:
        if self._train_interactions is None:
            raise RuntimeError(f"{type(self).__name__} must be fitted before use")
        return self._train_interactions

    @property
    def is_fitted(self) -> bool:
        return self._train_interactions is not None

    def _catalogue_size(self) -> int:
        """Number of items the model can score.

        Defaults to the training matrix; models whose parameters encode the
        catalogue (e.g. loaded MAR/MARS checkpoints) override this so the
        full-catalogue ranking paths work without the training interactions.
        """
        return self._require_fitted().n_items

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def score_items(self, user: int, items: Sequence[int]) -> np.ndarray:
        """Scores of ``items`` for ``user`` (higher means more recommended)."""
        raise NotImplementedError

    def score_all_items(self, user: int) -> np.ndarray:
        """Scores of every item for ``user``."""
        return self.score_items(user, np.arange(self._catalogue_size()))

    def _score_candidates(self, users: np.ndarray,
                          item_matrix: np.ndarray) -> np.ndarray:
        """Score a ``(U,)`` user batch against a ``(U, C)`` candidate matrix.

        The scoring primitive behind every read path (:meth:`query` and the
        :meth:`recommend` / :meth:`recommend_batch` /
        :meth:`score_items_batch` shims).  Inputs are already validated and
        broadcast.  The generic implementation loops over
        :meth:`score_items`; vectorised models override it.
        """
        scores = np.empty(item_matrix.shape, dtype=np.float64)
        for row, user in enumerate(users):
            scores[row] = np.asarray(
                self.score_items(int(user), item_matrix[row]), dtype=np.float64
            )
        return scores

    def _seen_csr(self):
        """``(indptr, indices)`` of the training CSR for seen-item masking."""
        csr = self._require_fitted().csr()
        return (csr.indptr, csr.indices)

    def query(self, query: Query) -> QueryResult:
        """Execute a :class:`~repro.serving.query.Query` against this model.

        The unified read-path entry point: full-catalogue or per-user
        candidate ranking, vectorised seen-item masking, optional item
        blocklist — all through the shared blockwise top-k kernel, which an
        exported :class:`~repro.serving.artifact.ServingArtifact` answers
        bitwise-identically.
        """
        n_items = self._catalogue_size()
        seen = seen_keys = None
        if query.exclude_seen:
            interactions = self._require_fitted()
            seen = self._seen_csr()
            if (query.candidates is not None
                    and interactions.n_items == n_items):
                # Candidate membership tests reuse the sorted pair-key index
                # already cached on the interaction matrix (the samplers'
                # index) instead of rebuilding O(nnz) keys per query.
                seen_keys = interactions.encoded_positive_keys()
        return run_query(query, self._score_candidates, n_items,
                         seen=seen, seen_keys=seen_keys,
                         element_budget=_RECOMMEND_BATCH_ELEMENT_BUDGET)

    def score_items_batch(self, users: Sequence[int],
                          item_matrix: np.ndarray) -> np.ndarray:
        """Scores for a batch of users against per-user candidate lists.

        Thin shim: builds a score-mode :class:`~repro.serving.query.Query`
        over the candidate lists and delegates to the shared kernel (which
        calls straight back into :meth:`_score_candidates`).

        Parameters
        ----------
        users:
            User ids, shape ``(U,)``.
        item_matrix:
            Candidate item ids, shape ``(U, C)`` (row ``i`` holds the
            candidates of ``users[i]``) or ``(C,)`` for a candidate list
            shared by every user.

        Returns
        -------
        numpy.ndarray of shape ``(U, C)``
            ``out[i, j]`` is the score of ``item_matrix[i, j]`` for
            ``users[i]``.
        """
        query = Query(users=users, candidates=item_matrix, k=None,
                      exclude_seen=False)
        return run_query(query, self._score_candidates, n_items=0).scores

    def recommend(self, user: int, k: int = 10,
                  exclude_seen: bool = True) -> np.ndarray:
        """Top-``k`` item ids for ``user``, best first.

        Thin shim over the kernel with a single-user query.  Scoring goes
        through the per-user :meth:`score_all_items` path (not the batched
        scorer), preserving this method's historical outputs bitwise.

        Parameters
        ----------
        user:
            User id.
        k:
            Number of recommendations; ``k <= 0`` returns an empty array.
        exclude_seen:
            Whether to filter out items the user interacted with in training.
            Requires the training interactions; a model restored with
            :meth:`load` on a fresh instance can rank with
            ``exclude_seen=False``.
        """
        def scorer(users: np.ndarray, item_matrix: np.ndarray) -> np.ndarray:
            return np.asarray(self.score_all_items(int(users[0])),
                              dtype=np.float64)[None, :]

        query = Query(users=[user], k=k, exclude_seen=exclude_seen)
        seen = self._seen_csr() if exclude_seen else None
        return run_query(query, scorer, self._catalogue_size(), seen=seen,
                         element_budget=_RECOMMEND_BATCH_ELEMENT_BUDGET).items[0]

    def recommend_batch(self, users: Sequence[int], k: int = 10,
                        exclude_seen: bool = True) -> np.ndarray:
        """Top-``k`` item ids for a batch of users, shape ``(U, k)``.

        Vectorised counterpart of :meth:`recommend` and a thin shim over
        the shared kernel: users are scored against the full catalogue
        through :meth:`_score_candidates` in memory-bounded chunks, seen
        items are masked with one vectorised CSR scatter per chunk, and
        each chunk is ranked with one partial sort per row.  ``k <= 0``
        returns an empty ``(U, 0)`` array.  Like :meth:`recommend`,
        ``exclude_seen=True`` needs the training interactions; freshly
        loaded models can rank with ``exclude_seen=False``.
        """
        return self.query(Query(users=users, k=k,
                                exclude_seen=exclude_seen)).items

    # ------------------------------------------------------------------ #
    # serving export
    # ------------------------------------------------------------------ #
    def _serving_payload(self):
        """``(family, tensors, n_users, n_items)`` backing :meth:`export_serving`.

        The generic fallback materialises the model's full score matrix at
        export time (family ``"precomputed"``) — exact but ``O(U × I)``
        memory, so it only suits small catalogues (ItemKNN, NMF, custom
        models).  Models with a compact read-only parameterisation override
        this with their scoring family's tensors.
        """
        interactions = self._require_fitted()
        users = np.arange(interactions.n_users, dtype=np.int64)
        n_items = self._catalogue_size()
        scores = np.asarray(
            self.score_items_batch(users, np.arange(n_items, dtype=np.int64)),
            dtype=np.float64,
        )
        return "precomputed", {"scores": scores}, interactions.n_users, n_items

    def export_serving(self, model_name: Optional[str] = None) -> "ServingArtifact":
        """Freeze this fitted model into a :class:`ServingArtifact`.

        The artifact bundles the read-only tensors of the model's scoring
        family plus the train-set seen-items CSR (when the training
        interactions are available — a checkpoint-restored model exports
        without it and must be queried with ``exclude_seen=False``), and
        answers :meth:`recommend_batch`-style queries bitwise-identically
        to this live model in any process, with no training state.
        """
        from repro.serving.artifact import ServingArtifact

        family, tensors, n_users, n_items = self._serving_payload()
        seen = (self._seen_csr() if self._train_interactions is not None
                else None)
        return ServingArtifact(family=family, tensors=tensors,
                               n_users=n_users, n_items=n_items, seen=seen,
                               model_name=model_name or self.name)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def get_parameters(self) -> Dict[str, np.ndarray]:
        """Return the learned parameters (models override when they have any)."""
        return {}

    def set_parameters(self, parameters: Dict[str, np.ndarray]) -> None:
        """Load learned parameters produced by :meth:`get_parameters`."""
        if parameters:
            raise NotImplementedError(
                f"{type(self).__name__} does not support parameter loading"
            )

    def save(self, path: Union[str, Path]) -> Path:
        """Persist learned parameters to an ``.npz`` file."""
        return save_arrays(path, self.get_parameters())

    def load(self, path: Union[str, Path]) -> "BaseRecommender":
        """Restore learned parameters from :meth:`save` output."""
        self.set_parameters(load_arrays(path))
        return self
