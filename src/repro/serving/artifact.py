"""Frozen, persistable serving bundles.

A :class:`ServingArtifact` is the read-only half of a fitted recommender:
the family-specific tensors needed to score (see
:mod:`repro.serving.scorers`), plus the train-set seen-items CSR so
``exclude_seen`` works without the live model, its batchers or its autograd
network.  Artifacts are immutable (arrays are frozen, attributes locked),
``save()``/``load()`` round-trip through a single pickle-free ``.npz`` file,
and answer the same :class:`~repro.serving.query.Query` API as live models —
bitwise-identically, because both delegate to the same kernel and the same
family scoring functions.

The pickle-free claim is *enforced*, not aspirational: the
``PICKLE-FREE-IO`` rule of :mod:`repro.analysis.static` lints ``serving/``
and ``utils/io.py`` on every test run — no ``import pickle``, no
``np.load`` without ``allow_pickle=False`` — so artifact files stay safe
to load from untrusted storage.  ``DTYPE-DISCIPLINE`` likewise pins the
hot scorer/kernel allocations to explicit dtypes (see the "Enforced
invariants" section of ``ROADMAP.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.reliability.errors import ArtifactIntegrityError
from repro.serving.kernel import broadcast_candidates, encode_seen_keys, run_query
from repro.serving.query import Query, QueryResult
from repro.serving.retrieval import (
    APPROX_FAMILIES,
    DEFAULT_KMEANS_ITERATIONS,
    IVFIndex,
    build_ivf_index,
    coarse_cell_scores,
)
from repro.serving.scorers import get_family_scorer
from repro.utils.io import (
    is_memory_mapped,
    load_arrays,
    pack_scalar,
    save_arrays,
    unpack_scalar,
)
from repro.utils.rng import RandomState

_TENSOR_PREFIX = "tensor."
_META_PREFIX = "meta."
_IVF_PREFIX = "ivf."

#: On-disk artifact format version.  Bump when the bundle layout changes;
#: :meth:`ServingArtifact.load` rejects versions it does not understand
#: with :class:`ArtifactIntegrityError` instead of misreading the file.
#: Version 2 added the optional IVF retrieval index (``ivf.*`` entries +
#: ``meta.has_ivf``); version-1 bundles still load (no index).
ARTIFACT_FORMAT_VERSION = 2

#: Format versions :meth:`ServingArtifact.load` understands.
_SUPPORTED_FORMAT_VERSIONS = (1, 2)

#: On-disk format version of *delta* bundles — sparse row-wise updates
#: against a published base artifact (see :class:`ArtifactDelta`,
#: :func:`save_delta` / :func:`load_delta`).  Deltas are a different kind
#: of file from full artifacts: :meth:`ServingArtifact.load` refuses them
#: with a pointer at the delta path instead of misreading them.
DELTA_FORMAT_VERSION = 3

_DELTA_PREFIX = "delta."


class ServingArtifact:
    """An immutable, self-contained scoring bundle for one fitted model.

    Parameters
    ----------
    family:
        Scoring-family key (must be registered in
        :data:`repro.serving.scorers.SCORER_FAMILIES`).
    tensors:
        The family's read-only arrays.  Copied and frozen at construction.
    n_users, n_items:
        The id ranges the artifact can score.
    seen:
        Optional ``(indptr, indices)`` CSR of train-set seen items (enables
        ``exclude_seen``).  Column indices must be sorted within each row —
        the canonical CSR layout — so the membership test can binary-search.
    model_name:
        Human-readable provenance label (e.g. ``"MARS"``).
    index:
        Optional :class:`~repro.serving.retrieval.IVFIndex` enabling
        ``Query(mode="approx")``.  Usually attached via
        :meth:`build_index` rather than passed directly.
    """

    __slots__ = ("family", "tensors", "n_users", "n_items", "model_name",
                 "_seen", "_seen_keys", "_scorer", "_index", "_frozen")

    def __init__(self, family: str, tensors: Mapping[str, np.ndarray],
                 n_users: int, n_items: int,
                 seen: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                 model_name: str = "",
                 index: Optional[IVFIndex] = None) -> None:
        scorer = get_family_scorer(family)
        object.__setattr__(self, "family", str(family))
        object.__setattr__(self, "tensors", MappingProxyType(
            {name: _freeze(array) for name, array in tensors.items()}))
        object.__setattr__(self, "n_users", int(n_users))
        object.__setattr__(self, "n_items", int(n_items))
        object.__setattr__(self, "model_name", str(model_name))
        seen_keys = None
        if seen is not None:
            indptr = _freeze(np.asarray(seen[0], dtype=np.int64))
            indices = _freeze(np.asarray(seen[1], dtype=np.int64))
            if indptr.size != self.n_users + 1:
                raise ValueError(
                    f"seen indptr has {indptr.size} entries, expected "
                    f"n_users + 1 = {self.n_users + 1}")
            seen = (indptr, indices)
            # Build the candidate-membership key index once; every
            # exclude_seen candidate query binary-searches it.
            seen_keys = _freeze(encode_seen_keys(self.n_items, indptr, indices))
        object.__setattr__(self, "_seen", seen)
        object.__setattr__(self, "_seen_keys", seen_keys)
        object.__setattr__(self, "_scorer", scorer)
        if index is not None and index.n_items != self.n_items:
            raise ValueError(
                f"IVF index covers {index.n_items} items but the artifact "
                f"catalogue has {self.n_items}")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_frozen", True)

    # ------------------------------------------------------------------ #
    # immutability
    # ------------------------------------------------------------------ #
    def __setattr__(self, name, value):
        raise AttributeError(
            f"ServingArtifact is frozen; cannot set {name!r} — build a new "
            "artifact and publish it to the registry instead")

    def __delattr__(self, name):
        raise AttributeError("ServingArtifact is frozen")

    # ------------------------------------------------------------------ #
    # scoring / ranking
    # ------------------------------------------------------------------ #
    @property
    def has_seen(self) -> bool:
        """Whether the train-set CSR is bundled (``exclude_seen`` support)."""
        return self._seen is not None

    @property
    def has_index(self) -> bool:
        """Whether an IVF index is bundled (``mode="approx"`` support)."""
        return self._index is not None

    @property
    def index(self) -> Optional[IVFIndex]:
        """The bundled :class:`~repro.serving.retrieval.IVFIndex`, if any."""
        return self._index

    def _score_candidates(self, users: np.ndarray,
                          item_matrix: np.ndarray) -> np.ndarray:
        return self._scorer(self.tensors, users, item_matrix)

    def _validate_users(self, users: np.ndarray) -> None:
        """Reject ids outside ``[0, n_users)`` with a clean error.

        Without this, a negative id silently wraps to another user's
        embedding row *and* masks the wrong CSR row in ``exclude_seen``,
        while an over-range id surfaces as a raw IndexError from deep
        inside a family scorer.
        """
        if users.size == 0:
            return
        if int(users.min()) < 0 or int(users.max()) >= self.n_users:
            bad = users[(users < 0) | (users >= self.n_users)][:5]
            raise ValueError(
                f"user ids out of range for this artifact "
                f"(n_users={self.n_users}): {bad.tolist()}")

    def score_items_batch(self, users: Sequence[int],
                          item_matrix: np.ndarray) -> np.ndarray:
        """Scores for a user batch against per-user candidate lists.

        Same contract as
        :meth:`~repro.core.base.BaseRecommender.score_items_batch`, which is
        what lets :class:`~repro.eval.protocol.LeaveOneOutEvaluator` consume
        an artifact in place of the live model.
        """
        users = np.asarray(users, dtype=np.int64)
        self._validate_users(users)
        return self._score_candidates(users,
                                      broadcast_candidates(users, item_matrix))

    def score_items(self, user: int, items: Sequence[int]) -> np.ndarray:
        """Scores of ``items`` for a single ``user``."""
        items = np.asarray(items, dtype=np.int64)
        return self.score_items_batch([user], items[None, :])[0]

    def query(self, query: Query) -> QueryResult:
        """Execute a :class:`Query` against this artifact.

        User ids outside ``[0, n_users)`` raise :class:`ValueError` before
        any scoring happens (see :meth:`_validate_users`).
        ``mode="approx"`` probes the bundled IVF index for candidates and
        re-ranks them exactly (requires :attr:`has_index`).
        """
        self._validate_users(query.users)
        if query.mode == "approx":
            return self._approx_query(query)
        return run_query(query, self._score_candidates, self.n_items,
                         seen=self._seen, seen_keys=self._seen_keys)

    def probe_candidates(self, users: Sequence[int],
                         n_probe: Optional[int] = None,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """IVF candidate lists for a user batch, before re-ranking.

        Returns ``(candidates, counts)``: the ``(U, C)`` ``-1``-padded
        candidate matrix the approx path re-ranks, and the ``(U,)`` true
        per-user candidate counts — the observable behind the sub-linearity
        gate (``counts < n_items`` whenever fewer than all cells are
        probed).
        """
        if self._index is None:
            raise RuntimeError(
                "this artifact has no IVF index; attach one with "
                "build_index() before probing or querying mode='approx'")
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        self._validate_users(users)
        cell_scores = coarse_cell_scores(self.family, self.tensors, users,
                                         self._index)
        return self._index.probe(cell_scores, n_probe=n_probe)

    def _approx_query(self, query: Query) -> QueryResult:
        """Probe the IVF index, then exact-re-rank the candidate union."""
        candidates, _ = self.probe_candidates(query.users,
                                              n_probe=query.n_probe)
        rerank = Query(users=query.users, k=query.k,
                       exclude_seen=query.exclude_seen,
                       candidates=candidates,
                       exclude_items=query.exclude_items)
        result = run_query(rerank, self._score_candidates, self.n_items,
                           seen=self._seen, seen_keys=self._seen_keys)
        # Keep the result shape mode-independent: when the probed union is
        # narrower than k, right-pad with the no-recommendable-item
        # sentinel (-1 / -inf) up to the exact path's min(k, n_items).
        width = min(query.k, self.n_items)
        if result.items.shape[1] < width:
            items = np.full((result.n_users, width), -1, dtype=np.int64)
            scores = np.full((result.n_users, width), -np.inf,
                             dtype=np.float64)
            items[:, :result.items.shape[1]] = result.items
            scores[:, :result.scores.shape[1]] = result.scores
            result = QueryResult(items=items, scores=scores,
                                 degraded=result.degraded)
        return result

    def build_index(self, n_cells: int, random_state: RandomState = None,
                    n_iterations: int = DEFAULT_KMEANS_ITERATIONS,
                    ) -> "ServingArtifact":
        """Return a new artifact with a freshly built IVF index attached.

        The artifact itself is immutable, so index construction — seeded
        k-means over this family's item vectors (see
        :func:`repro.serving.retrieval.build_ivf_index`) — produces a new
        bundle sharing the same frozen semantics; :meth:`save` then packs
        the index arrays next to the tensors.
        """
        index = build_ivf_index(self.family, self.tensors, n_cells,
                                random_state=random_state,
                                n_iterations=n_iterations)
        return ServingArtifact(family=self.family, tensors=self.tensors,
                               n_users=self.n_users, n_items=self.n_items,
                               seen=self._seen, model_name=self.model_name,
                               index=index)

    def recommend_batch(self, users: Sequence[int], k: int = 10,
                        exclude_seen: bool = True) -> np.ndarray:
        """Top-``k`` item ids for a batch of users, shape ``(U, k)``.

        Bitwise-identical to the exporting model's ``recommend_batch`` for
        the same user batch (shared kernel, shared family scorer).
        """
        return self.query(Query(users=users, k=k,
                                exclude_seen=exclude_seen)).items

    def recommend(self, user: int, k: int = 10,
                  exclude_seen: bool = True) -> np.ndarray:
        """Top-``k`` item ids for one user, best first."""
        return self.recommend_batch([user], k=k, exclude_seen=exclude_seen)[0]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path], *,
             compressed: bool = True) -> Path:
        """Persist the artifact to one pickle-free ``.npz``.

        The write is atomic (temp file + fsync + rename) and embeds a
        format-version field plus a SHA-256 digest per entry, so
        :meth:`load` can reject truncated or bit-flipped files with a
        clean :class:`ArtifactIntegrityError`.

        ``compressed=False`` stores the tensors raw (``ZIP_STORED``),
        which is what lets serving workers :meth:`load` the file with
        ``mmap_mode="r"`` and share one OS page-cache copy of the
        read-only tensors across N processes.
        """
        arrays: Dict[str, np.ndarray] = {
            _META_PREFIX + "format_version": pack_scalar(ARTIFACT_FORMAT_VERSION),
            _META_PREFIX + "family": pack_scalar(self.family),
            _META_PREFIX + "model_name": pack_scalar(self.model_name),
            _META_PREFIX + "n_users": pack_scalar(self.n_users),
            _META_PREFIX + "n_items": pack_scalar(self.n_items),
            _META_PREFIX + "has_seen": pack_scalar(self.has_seen),
            _META_PREFIX + "has_ivf": pack_scalar(self.has_index),
        }
        for name, tensor in self.tensors.items():
            arrays[_TENSOR_PREFIX + name] = tensor
        if self._seen is not None:
            arrays["seen_indptr"], arrays["seen_indices"] = self._seen
        if self._index is not None:
            arrays[_IVF_PREFIX + "centroids"] = self._index.centroids
            arrays[_IVF_PREFIX + "cell_indptr"] = self._index.cell_indptr
            arrays[_IVF_PREFIX + "cell_items"] = self._index.cell_items
        return save_arrays(path, arrays, digests=True, compressed=compressed)

    @classmethod
    def load(cls, path: Union[str, Path], *,
             mmap_mode: Optional[str] = None) -> "ServingArtifact":
        """Restore an artifact written by :meth:`save`.

        Integrity is verified before anything is scored: embedded digests
        are checked against the loaded tensors, and files that are
        truncated, bit-flipped, digest-mismatching or of an unknown
        format version raise :class:`ArtifactIntegrityError`.  Files that
        are valid bundles but not serving artifacts at all (e.g. plain
        parameter files) raise ``KeyError``.

        ``mmap_mode="r"`` memory-maps the tensors of a bundle saved with
        ``compressed=False`` instead of copying them into the heap — the
        open path of the multi-process serving workers (compressed bundles
        silently fall back to an eager load; see
        :func:`repro.utils.io.load_arrays`).  Digest verification runs
        either way.
        """
        arrays = load_arrays(path, digests="auto", mmap_mode=mmap_mode)
        try:
            family = unpack_scalar(arrays[_META_PREFIX + "family"])
            n_users = unpack_scalar(arrays[_META_PREFIX + "n_users"])
            n_items = unpack_scalar(arrays[_META_PREFIX + "n_items"])
            has_seen = unpack_scalar(arrays[_META_PREFIX + "has_seen"])
        except KeyError as error:
            raise KeyError(
                f"{path} is not a serving artifact (missing {error})") from None
        version_entry = arrays.get(_META_PREFIX + "format_version")
        version = (unpack_scalar(version_entry)
                   if version_entry is not None else None)
        kind_entry = arrays.get(_META_PREFIX + "kind")
        if kind_entry is not None and unpack_scalar(kind_entry) == "delta":
            raise ArtifactIntegrityError(
                f"{path} is a delta bundle (format v{version}), not a full "
                "artifact; read it with load_delta() and apply it via "
                "ServingArtifact.delta_update() or "
                "ModelRegistry.publish_delta()")
        if version not in _SUPPORTED_FORMAT_VERSIONS:
            raise ArtifactIntegrityError(
                f"{path} has serving-artifact format version {version!r}; "
                f"this build reads versions {_SUPPORTED_FORMAT_VERSIONS}")
        model_name = unpack_scalar(arrays.get(_META_PREFIX + "model_name",
                                              np.asarray("")))
        tensors = {name[len(_TENSOR_PREFIX):]: array
                   for name, array in arrays.items()
                   if name.startswith(_TENSOR_PREFIX)}
        seen = ((arrays["seen_indptr"], arrays["seen_indices"])
                if has_seen else None)
        # Version-1 bundles predate the IVF layer: no has_ivf flag, no index.
        has_ivf_entry = arrays.get(_META_PREFIX + "has_ivf")
        has_ivf = (unpack_scalar(has_ivf_entry)
                   if has_ivf_entry is not None else False)
        index = None
        if has_ivf:
            try:
                index = IVFIndex(arrays[_IVF_PREFIX + "centroids"],
                                 arrays[_IVF_PREFIX + "cell_indptr"],
                                 arrays[_IVF_PREFIX + "cell_items"])
            except (KeyError, ValueError) as error:
                # A structurally broken index (missing entries, non-CSR
                # indptr, items dropped from the partition) is corruption
                # the per-entry digests cannot express — same failure
                # class, same exception.
                raise ArtifactIntegrityError(
                    f"{path} declares an IVF index but it is missing or "
                    f"inconsistent: {error}") from error
        return cls(family=family, tensors=tensors, n_users=n_users,
                   n_items=n_items, seen=seen, model_name=model_name,
                   index=index)

    # ------------------------------------------------------------------ #
    # delta refresh
    # ------------------------------------------------------------------ #
    def content_digest(self) -> str:
        """SHA-256 over everything that defines this artifact's answers.

        Covers the family, the id ranges, every tensor (name, dtype, shape
        and bytes), the seen CSR and the IVF index arrays.  Two artifacts
        with equal digests answer every query bitwise-identically; a delta
        records its base's digest so :meth:`delta_update` can refuse to
        patch the wrong base.  Memory-mapped and heap-resident copies of
        the same bundle hash the same (the hash reads bytes, not storage).
        """
        digest = hashlib.sha256()
        digest.update(self.family.encode("utf-8"))
        digest.update(f"|{self.n_users}|{self.n_items}|".encode("ascii"))
        for name in sorted(self.tensors):
            tensor = self.tensors[name]
            digest.update(name.encode("utf-8"))
            digest.update(f"|{tensor.dtype.str}|{tensor.shape}|".encode("ascii"))
            digest.update(np.ascontiguousarray(tensor).tobytes())
        if self._seen is not None:
            digest.update(b"|seen|")
            digest.update(np.ascontiguousarray(self._seen[0]).tobytes())
            digest.update(np.ascontiguousarray(self._seen[1]).tobytes())
        if self._index is not None:
            digest.update(b"|ivf|")
            digest.update(np.ascontiguousarray(self._index.centroids).tobytes())
            digest.update(np.ascontiguousarray(self._index.cell_indptr).tobytes())
            digest.update(np.ascontiguousarray(self._index.cell_items).tobytes())
        return digest.hexdigest()

    def delta_update(self, delta: "ArtifactDelta", *,
                     drift_threshold: float = 0.25,
                     index_random_state: RandomState = 0,
                     n_iterations: int = DEFAULT_KMEANS_ITERATIONS,
                     ) -> "ServingArtifact":
        """Apply a row-wise :class:`ArtifactDelta`, returning a new artifact.

        Copy-on-write: tensors the delta does not touch are *shared* with
        this artifact (both are frozen, so sharing is safe); touched
        tensors are rebuilt once with the updated rows scattered in, and
        rows past the old height grow the tensor (streaming growth).
        Updates whose ``rows`` is ``None`` replace the tensor wholesale
        (new tensors, 0-d scalars, non-leading-axis reshapes).  The
        delta must target exactly this artifact — its recorded base digest
        is checked against :meth:`content_digest` and a mismatch raises
        :class:`ArtifactIntegrityError` before anything is patched.

        A bundled IVF index is *patched*, not rebuilt: only items whose
        vectors changed (or are new) are reassigned to their nearest
        existing centroid — the same assignment rule k-means itself uses —
        so a small refresh costs O(changed x cells) instead of a full
        clustering pass.  When more than ``drift_threshold`` of the
        catalogue moved, patching would let centroids drift arbitrarily far
        from the data, so the index is rebuilt from scratch with the same
        cell count (seeded by ``index_random_state``).
        """
        if delta.family != self.family:
            raise ArtifactIntegrityError(
                f"delta targets family {delta.family!r}; this artifact is "
                f"{self.family!r}")
        base_digest = self.content_digest()
        if delta.base_digest != base_digest:
            raise ArtifactIntegrityError(
                f"delta was diffed against base {delta.base_digest[:12]}..., "
                f"but this artifact's content digest is "
                f"{base_digest[:12]}...; refusing to patch the wrong base")
        if delta.n_users < self.n_users or delta.n_items < self.n_items:
            raise ArtifactIntegrityError(
                f"delta shrinks the id ranges ({delta.n_users} users / "
                f"{delta.n_items} items vs {self.n_users} / {self.n_items}); "
                "artifacts only grow")
        tensors: Dict[str, np.ndarray] = dict(self.tensors)
        for name, (rows, values) in delta.updates.items():
            if rows is None:
                # Wholesale replacement: a brand-new tensor, a 0-d scalar,
                # or a reshape row-diffing cannot express (e.g. growth along
                # a non-leading axis of the (K, U, D) facet tables).
                tensors[name] = values
                continue
            base = tensors.get(name)
            if base is None:
                raise ArtifactIntegrityError(
                    f"delta updates unknown tensor {name!r}; this artifact "
                    f"has {sorted(tensors)}")
            if base.ndim == 0:
                raise ArtifactIntegrityError(
                    f"delta ships row updates for 0-d tensor {name!r}; "
                    "scalars can only be replaced wholesale")
            if values.shape[1:] != base.shape[1:] or values.dtype != base.dtype:
                raise ArtifactIntegrityError(
                    f"delta rows for {name!r} have dtype/shape "
                    f"{values.dtype}/{values.shape[1:]}, tensor has "
                    f"{base.dtype}/{base.shape[1:]}")
            old_height = base.shape[0]
            new_height = max(old_height,
                             int(rows.max()) + 1 if rows.size else 0)
            grown = np.arange(old_height, new_height, dtype=np.int64)
            if grown.size and not np.isin(grown, rows).all():
                raise ArtifactIntegrityError(
                    f"delta grows {name!r} to {new_height} rows but does "
                    "not provide every row past the old height")
            patched = np.empty((new_height,) + base.shape[1:],
                               dtype=base.dtype)
            patched[:old_height] = base
            patched[rows] = values
            tensors[name] = patched
        seen = delta.seen
        if seen is None and self._seen is not None:
            indptr, indices = self._seen
            if delta.n_users > self.n_users:
                # Grown users have no train-set history yet: extend the
                # CSR with empty rows instead of dropping exclude_seen.
                indptr = np.concatenate([
                    indptr,
                    np.full(delta.n_users - self.n_users, indptr[-1],
                            dtype=np.int64)])
            seen = (indptr, indices)
        index = None
        if self._index is not None:
            index = self._patch_index(tensors, delta.n_items,
                                      drift_threshold=drift_threshold,
                                      index_random_state=index_random_state,
                                      n_iterations=n_iterations)
        return ServingArtifact(family=self.family, tensors=tensors,
                               n_users=delta.n_users, n_items=delta.n_items,
                               seen=seen,
                               model_name=delta.model_name or self.model_name,
                               index=index)

    def _patch_index(self, new_tensors: Dict[str, np.ndarray], n_items: int,
                     *, drift_threshold: float,
                     index_random_state: RandomState,
                     n_iterations: int) -> IVFIndex:
        """Reassign only moved/new items; full k-means rebuild past drift."""
        spec = APPROX_FAMILIES[self.family]
        old_vectors = spec.item_vectors(dict(self.tensors))
        new_vectors = spec.item_vectors(new_tensors)
        centroids = self._index.centroids
        if new_vectors.shape[1] != centroids.shape[1]:
            # The item-vector dimensionality changed: old centroids are
            # meaningless, only a rebuild makes sense.
            return build_ivf_index(self.family, new_tensors,
                                   self._index.n_cells,
                                   random_state=index_random_state,
                                   n_iterations=n_iterations)
        old_n = old_vectors.shape[0]
        common = min(old_n, new_vectors.shape[0])
        changed = np.flatnonzero(np.any(
            old_vectors[:common] != new_vectors[:common], axis=1))
        touched = np.concatenate([
            changed, np.arange(old_n, n_items, dtype=np.int64)])
        if touched.size == 0 and n_items == old_n:
            return self._index  # nothing moved: share the frozen index
        if touched.size / max(n_items, 1) > drift_threshold:
            return build_ivf_index(self.family, new_tensors,
                                   self._index.n_cells,
                                   random_state=index_random_state,
                                   n_iterations=n_iterations)
        assignments = np.empty(n_items, dtype=np.int64)
        assignments[:old_n] = self._index.assignments()
        # Nearest-centroid via the Gram expansion — identical tie-breaking
        # (argmax -> lowest cell id) to the k-means assignment step, so a
        # patched cell list is exactly what assignment against these
        # centroids would have produced.
        cent_sq = np.einsum("cd,cd->c", centroids, centroids)
        affinity = 2.0 * (new_vectors[touched] @ centroids.T) \
            - cent_sq[None, :]
        assignments[touched] = np.argmax(affinity, axis=1)
        cell_items = np.argsort(assignments, kind="stable").astype(np.int64)
        sizes = np.bincount(assignments, minlength=centroids.shape[0])
        cell_indptr = np.zeros(centroids.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=cell_indptr[1:])
        return IVFIndex(centroids, cell_indptr, cell_items)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def nbytes(self) -> int:
        """Total tensor payload in bytes (excluding the seen CSR)."""
        return int(sum(tensor.nbytes for tensor in self.tensors.values()))

    @property
    def memory_mapped(self) -> bool:
        """Whether every scoring tensor reads from a shared file mapping.

        0-d members (flags such as ``spherical``) are loaded into memory
        and can never be mapped, so only tensors with ``ndim >= 1`` count.
        """
        arrays = [tensor for tensor in self.tensors.values() if tensor.ndim]
        return bool(arrays) and all(is_memory_mapped(tensor)
                                    for tensor in arrays)

    def __repr__(self) -> str:
        seen = "with seen CSR" if self.has_seen else "no seen CSR"
        ivf = (f"ivf[{self._index.n_cells} cells]" if self.has_index
               else "no ivf index")
        return (f"ServingArtifact(family={self.family!r}, "
                f"model={self.model_name!r}, users={self.n_users}, "
                f"items={self.n_items}, {seen}, {ivf}, "
                f"{self.nbytes() / 1e6:.1f} MB)")


@dataclass(frozen=True)
class ArtifactDelta:
    """Sparse row-wise difference between two serving artifacts.

    ``updates`` maps each touched tensor name to ``(rows, values)``:
    ``rows`` the sorted int64 row indices that changed (or are new) and
    ``values`` the replacement rows, ``(len(rows),) + tensor.shape[1:]``.
    ``rows`` may instead be ``None``, meaning ``values`` *replaces* the
    whole tensor — used for brand-new tensors, 0-d scalars, and reshapes
    row-diffing cannot express (growth along a non-leading axis, e.g. the
    multifacet family's ``(K, n_users, D)`` facet tables).
    ``base_digest`` pins the artifact the delta was diffed against —
    :meth:`ServingArtifact.delta_update` refuses any other base.  ``seen``
    (when present) *replaces* the base's seen CSR wholesale: the CSR is a
    compact train-set summary whose rows re-pack on every append, so
    row-diffing it would save nothing.
    """

    base_digest: str
    family: str
    model_name: str
    n_users: int
    n_items: int
    updates: Mapping[str, Tuple[Optional[np.ndarray], np.ndarray]]
    seen: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def n_updated_rows(self) -> int:
        """Total updated/new rows across all touched tensors.

        A wholesale replacement counts its leading-axis height (1 for a
        0-d scalar), matching what a row-wise update of the same payload
        would report.
        """
        total = 0
        for rows, values in self.updates.values():
            if rows is None:
                total += int(values.shape[0]) if values.ndim else 1
            else:
                total += int(rows.size)
        return total

    def nbytes(self) -> int:
        """Payload bytes the delta ships (rows + values + seen CSR)."""
        total = sum((rows.nbytes if rows is not None else 0) + values.nbytes
                    for rows, values in self.updates.values())
        if self.seen is not None:
            total += self.seen[0].nbytes + self.seen[1].nbytes
        return int(total)


def make_delta(base: ServingArtifact, fresh: ServingArtifact) -> ArtifactDelta:
    """Diff ``fresh`` against ``base`` into a row-wise :class:`ArtifactDelta`.

    Both artifacts must be the same family and ``fresh`` must cover at
    least ``base``'s id ranges (streaming state only grows).  Per tensor,
    the rows that differ on the common height plus every row past it are
    recorded; tensors that did not move contribute nothing.  Tensors
    row-diffing cannot express — brand new, 0-d scalars, reshaped along a
    non-leading axis (the multifacet ``(K, n_users, D)`` facet tables grow
    this way) — ship wholesale with ``rows=None``.  ``fresh``'s
    seen CSR (when bundled) rides along wholesale.  ``fresh`` does *not*
    need an IVF index — applying the delta patches the base's index from
    the updated item vectors instead (see
    :meth:`ServingArtifact.delta_update`).
    """
    if fresh.family != base.family:
        raise ValueError(
            f"cannot diff family {fresh.family!r} against {base.family!r}")
    if fresh.n_users < base.n_users or fresh.n_items < base.n_items:
        raise ValueError(
            f"fresh artifact shrinks the id ranges ({fresh.n_users} users / "
            f"{fresh.n_items} items vs {base.n_users} / {base.n_items}); "
            "deltas only grow")
    missing = set(base.tensors) - set(fresh.tensors)
    if missing:
        raise ValueError(
            f"fresh artifact is missing tensors {sorted(missing)} present "
            "in the base")
    updates: Dict[str, Tuple[Optional[np.ndarray], np.ndarray]] = {}
    for name, new in fresh.tensors.items():
        old = base.tensors.get(name)
        if old is None or old.ndim == 0 or new.ndim == 0 \
                or old.shape[1:] != new.shape[1:] or old.dtype != new.dtype:
            # Brand-new tensor, 0-d scalar, or a reshape row-diffing cannot
            # express (growth along a non-leading axis, e.g. the multifacet
            # (K, n_users, D) facet tables): ship the whole tensor.
            if old is not None and np.array_equal(old, new) \
                    and old.dtype == new.dtype:
                continue
            # np.ascontiguousarray would promote 0-d to (1,); asarray with
            # order="C" makes contiguous while preserving the shape.
            updates[name] = (None, np.asarray(new, order="C"))
            continue
        common = min(old.shape[0], new.shape[0])
        if new.ndim == 1:
            moved = old[:common] != new[:common]
        else:
            tail_axes = tuple(range(1, new.ndim))
            moved = np.any(old[:common] != new[:common], axis=tail_axes)
        rows = np.concatenate([
            np.flatnonzero(moved).astype(np.int64),
            np.arange(common, new.shape[0], dtype=np.int64)])
        if rows.size == 0:
            continue
        updates[name] = (rows, np.ascontiguousarray(new[rows]))
    seen = None
    if fresh.has_seen:
        seen = (np.asarray(fresh._seen[0], dtype=np.int64),
                np.asarray(fresh._seen[1], dtype=np.int64))
    return ArtifactDelta(base_digest=base.content_digest(),
                         family=base.family,
                         model_name=fresh.model_name or base.model_name,
                         n_users=fresh.n_users, n_items=fresh.n_items,
                         updates=updates, seen=seen)


def save_delta(delta: ArtifactDelta, path: Union[str, Path], *,
               compressed: bool = True) -> Path:
    """Persist a delta bundle (format v3) — atomic and digest-verified.

    Same write discipline as :meth:`ServingArtifact.save`: one pickle-free
    ``.npz``, temp-file + fsync + rename, SHA-256 per entry, so
    :func:`load_delta` rejects truncated or bit-flipped delta files before
    anything is patched.
    """
    arrays: Dict[str, np.ndarray] = {
        _META_PREFIX + "format_version": pack_scalar(DELTA_FORMAT_VERSION),
        _META_PREFIX + "kind": pack_scalar("delta"),
        _META_PREFIX + "family": pack_scalar(delta.family),
        _META_PREFIX + "model_name": pack_scalar(delta.model_name),
        _META_PREFIX + "base_digest": pack_scalar(delta.base_digest),
        _META_PREFIX + "n_users": pack_scalar(delta.n_users),
        _META_PREFIX + "n_items": pack_scalar(delta.n_items),
        _META_PREFIX + "has_seen": pack_scalar(delta.seen is not None),
    }
    for name, (rows, values) in delta.updates.items():
        if rows is None:
            arrays[_DELTA_PREFIX + name + ".full"] = values
        else:
            arrays[_DELTA_PREFIX + name + ".rows"] = rows
            arrays[_DELTA_PREFIX + name + ".values"] = values
    if delta.seen is not None:
        arrays["seen_indptr"], arrays["seen_indices"] = delta.seen
    return save_arrays(path, arrays, digests=True, compressed=compressed)


def load_delta(path: Union[str, Path]) -> ArtifactDelta:
    """Restore a delta bundle written by :func:`save_delta`.

    Entry digests are verified by :func:`~repro.utils.io.load_arrays`;
    files that are not v3 delta bundles raise
    :class:`ArtifactIntegrityError` (a *full* artifact file points back at
    :meth:`ServingArtifact.load`).
    """
    arrays = load_arrays(path, digests="auto")
    version_entry = arrays.get(_META_PREFIX + "format_version")
    version = (unpack_scalar(version_entry)
               if version_entry is not None else None)
    kind_entry = arrays.get(_META_PREFIX + "kind")
    kind = unpack_scalar(kind_entry) if kind_entry is not None else None
    if kind != "delta":
        raise ArtifactIntegrityError(
            f"{path} is not a delta bundle"
            + ("; it looks like a full serving artifact — read it with "
               "ServingArtifact.load()" if version in
               _SUPPORTED_FORMAT_VERSIONS else ""))
    if version != DELTA_FORMAT_VERSION:
        raise ArtifactIntegrityError(
            f"{path} has delta format version {version!r}; this build "
            f"reads version {DELTA_FORMAT_VERSION}")
    updates: Dict[str, Tuple[Optional[np.ndarray], np.ndarray]] = {}
    for name, array in arrays.items():
        if name.startswith(_DELTA_PREFIX) and name.endswith(".rows"):
            tensor = name[len(_DELTA_PREFIX):-len(".rows")]
            try:
                values = arrays[_DELTA_PREFIX + tensor + ".values"]
            except KeyError:
                raise ArtifactIntegrityError(
                    f"{path}: delta rows for {tensor!r} have no matching "
                    "values entry") from None
            rows = np.asarray(array, dtype=np.int64)
            if rows.ndim != 1 or values.shape[:1] != rows.shape:
                raise ArtifactIntegrityError(
                    f"{path}: delta entry {tensor!r} is malformed "
                    f"(rows {rows.shape}, values {values.shape})")
            updates[tensor] = (rows, values)
        elif name.startswith(_DELTA_PREFIX) and name.endswith(".full"):
            tensor = name[len(_DELTA_PREFIX):-len(".full")]
            updates[tensor] = (None, array)
    seen = None
    if unpack_scalar(arrays[_META_PREFIX + "has_seen"]):
        seen = (np.asarray(arrays["seen_indptr"], dtype=np.int64),
                np.asarray(arrays["seen_indices"], dtype=np.int64))
    return ArtifactDelta(
        base_digest=unpack_scalar(arrays[_META_PREFIX + "base_digest"]),
        family=unpack_scalar(arrays[_META_PREFIX + "family"]),
        model_name=unpack_scalar(arrays[_META_PREFIX + "model_name"]),
        n_users=unpack_scalar(arrays[_META_PREFIX + "n_users"]),
        n_items=unpack_scalar(arrays[_META_PREFIX + "n_items"]),
        updates=updates, seen=seen)


def _freeze(array: np.ndarray) -> np.ndarray:
    """Copy an array and make the copy read-only.

    Read-only *memory-mapped* arrays pass through untouched: copying one
    would pull a private heap copy of exactly the tensors the mmap serving
    path exists to share between worker processes, and a mode-``"r"`` map
    is already immutable through every view.
    """
    if not array.flags.writeable and is_memory_mapped(array):
        return array
    frozen = np.array(array, copy=True)
    frozen.flags.writeable = False
    return frozen
