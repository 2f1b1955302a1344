"""Full-catalogue scoring: the in-place table path against the gather path.

A full-catalogue query hands its scorer the stride-0 broadcast of
``arange(n_items)`` (:func:`repro.serving.kernel.is_full_catalogue`).  The
``multifacet`` and ``euclidean`` scorers then score the stored item table
as it is: no ``np.unique`` over the tiled candidate matrix, no copy of the
table and no ``take_along_axis`` gather back.  These tests pin that the
short cut is bitwise the historical gather path — in memory and through
``mmap_mode="r"`` — at batch sizes that stay inside one kernel chunk and
one that crosses it, and that OpenBLAS pool size (one thread per serving
worker versus two) does not move a bit of the served scores.
"""

import multiprocessing

import numpy as np
import pytest

from repro import MAR, MARS, Query, ServingArtifact
from repro.baselines.cml import CML
from repro.core.similarity import facet_candidate_scores
from repro.data import MultiFacetSyntheticGenerator, SyntheticConfig
from repro.serving import worker
from repro.serving.kernel import (
    RECOMMEND_ELEMENT_BUDGET,
    broadcast_candidates,
    is_full_catalogue,
    run_query,
)
from repro.serving.scorers import get_family_scorer
from repro.utils.io import is_memory_mapped


# --------------------------------------------------------------------------- #
# the gather path the short cut replaces
# --------------------------------------------------------------------------- #
def _gather_multifacet(tensors, users, item_matrix):
    unique_items, inverse = np.unique(item_matrix, return_inverse=True)
    return facet_candidate_scores(
        tensors["user_facets"][:, users],
        tensors["item_facets"][:, unique_items],
        inverse.reshape(item_matrix.shape),
        tensors["facet_weights"][users],
        bool(tensors["spherical"]),
    )


def _gather_euclidean(tensors, users, item_matrix):
    user_vecs = tensors["user_embeddings"][users]
    item_vecs = tensors["item_embeddings"][item_matrix[0]]
    dots = user_vecs @ item_vecs.T
    user_sq = np.einsum("ud,ud->u", user_vecs, user_vecs)
    item_sq = np.einsum("cd,cd->c", item_vecs, item_vecs)
    return 2.0 * dots - user_sq[:, None] - item_sq[None, :]


_GATHER = {"multifacet": _gather_multifacet, "euclidean": _gather_euclidean}
_ITEM_TABLE = {"multifacet": "item_facets", "euclidean": "item_embeddings"}

_MODELS = {
    "MARS": lambda: MARS(n_facets=3, embedding_dim=8, n_epochs=1,
                         batch_size=128, random_state=0),
    "MAR": lambda: MAR(n_facets=3, embedding_dim=8, n_epochs=1,
                       batch_size=128, random_state=0),
    "CML": lambda: CML(embedding_dim=8, n_epochs=1, random_state=0),
}


@pytest.fixture(scope="module")
def dataset():
    config = SyntheticConfig(n_users=80, n_items=120,
                             interactions_per_user=8.0)
    return MultiFacetSyntheticGenerator(config, random_state=0) \
        .generate_dataset()


@pytest.fixture(scope="module", params=sorted(_MODELS))
def artifacts(request, dataset, tmp_path_factory):
    """``(in-memory, memory-mapped)`` artifacts of one fitted model."""
    model = _MODELS[request.param]().fit(dataset)
    artifact = model.export_serving(request.param)
    path = artifact.save(tmp_path_factory.mktemp("catalogue") / "m.npz",
                         compressed=False)
    mapped = ServingArtifact.load(path, mmap_mode="r")
    # Raw members are written 64-byte aligned, so the mapped item table is
    # scored in place like the heap one.
    item_table = mapped.tensors[_ITEM_TABLE[mapped.family]]
    assert is_memory_mapped(item_table) and item_table.flags.aligned
    return artifact, mapped


def _batch(artifact, size):
    rng = np.random.default_rng(size)
    return rng.integers(0, artifact.n_users, size=size)


def _chunk_users(artifact):
    return RECOMMEND_ELEMENT_BUDGET // artifact.n_items


@pytest.mark.parametrize("load", ["memory", "mmap"])
@pytest.mark.parametrize("size", [1, 2, 8, "chunk+3"])
def test_full_catalogue_scores_bitwise_equal_gather_path(artifacts, load,
                                                         size):
    artifact = artifacts[load == "mmap"]
    assert artifact.family in _GATHER
    if size == "chunk+3":  # crosses the kernel's per-chunk user count
        size = _chunk_users(artifact) + 3
    users = _batch(artifact, size)
    catalogue = broadcast_candidates(
        users, np.arange(artifact.n_items, dtype=np.int64))
    assert is_full_catalogue(catalogue, artifact.n_items)

    scorer = get_family_scorer(artifact.family)
    gather = _GATHER[artifact.family]
    direct = scorer(artifact.tensors, users, catalogue)
    expected = gather(artifact.tensors, users, catalogue)
    assert direct.tobytes() == expected.tobytes()

    # Ranked through the kernel (chunking, seen-masking, top-k) too.
    query = Query(users=users, k=10, exclude_seen=True)
    got = artifact.query(query)
    want = run_query(
        query, lambda u, m: gather(artifact.tensors, u, m),
        artifact.n_items, seen=artifact._seen)
    assert got.items.tobytes() == want.items.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()


def test_mapped_and_in_memory_full_catalogue_agree(artifacts):
    artifact, mapped = artifacts
    query = Query(users=_batch(artifact, 8), k=10, exclude_seen=True)
    got, want = mapped.query(query), artifact.query(query)
    assert got.items.tobytes() == want.items.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()


@pytest.mark.parametrize("size", [1, 8])
def test_unaligned_mapped_table_keeps_the_gather_path(artifacts, tmp_path,
                                                      size):
    """A map of a bundle written without member alignment (``np.savez``)
    is not scored in place: one-user ``matmul`` leaves BLAS on unaligned
    data and its bits would differ."""
    artifact, _ = artifacts
    name = _ITEM_TABLE[artifact.family]
    table = np.asarray(artifact.tensors[name])
    path = tmp_path / "unaligned.bin"
    path.write_bytes(b"\0" + table.tobytes())
    unaligned = np.memmap(path, dtype=table.dtype, mode="r", offset=1,
                          shape=table.shape)
    assert not unaligned.flags.aligned
    tensors = dict(artifact.tensors, **{name: unaligned})
    users = _batch(artifact, size)
    catalogue = broadcast_candidates(
        users, np.arange(artifact.n_items, dtype=np.int64))
    got = get_family_scorer(artifact.family)(tensors, users, catalogue)
    want = _GATHER[artifact.family](artifact.tensors, users, catalogue)
    assert got.tobytes() == want.tobytes()


def test_is_full_catalogue_recognises_only_the_broadcast_identity():
    users = np.arange(3)
    items = np.arange(5, dtype=np.int64)
    assert is_full_catalogue(broadcast_candidates(users, items), 5)
    # Materialised (not stride 0), shorter, or permuted rows take the
    # unique/gather path.
    assert not is_full_catalogue(np.tile(items, (3, 1)), 5)
    assert not is_full_catalogue(broadcast_candidates(users, items[:4]), 5)
    assert not is_full_catalogue(
        broadcast_candidates(users, items[::-1].copy()), 5)
    assert not is_full_catalogue(broadcast_candidates(users, items), 6)


# --------------------------------------------------------------------------- #
# BLAS pool size does not change served scores
# --------------------------------------------------------------------------- #
#: The end-to-end serving shapes: MARS K=4, D=32 on 3000 and 10000 items,
#: one-user and eight-user full-catalogue queries.
_SERVE_SHAPES = [(3000, 1), (3000, 8), (10000, 1), (10000, 8)]
_N_FACETS, _DIM, _N_USERS = 4, 32, 64


def _serve_shaped_artifact(n_items):
    rng = np.random.default_rng(n_items)

    def unit(shape):
        table = rng.normal(size=shape)
        return table / np.linalg.norm(table, axis=-1, keepdims=True)

    logits = rng.normal(size=(_N_USERS, _N_FACETS))
    weights = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return ServingArtifact("multifacet", {
        "user_facets": unit((_N_FACETS, _N_USERS, _DIM)),
        "item_facets": unit((_N_FACETS, n_items, _DIM)),
        "facet_weights": weights,
        "spherical": np.array(True),
    }, _N_USERS, n_items)


def _scores_at_pool_sizes(conn):
    """Child: served scores under a 1-thread and a 2-thread pool."""
    try:
        answers = {}
        for n_threads in (1, 2):
            worker.set_blas_threads(n_threads)
            answers[n_threads] = [
                _serve_shaped_artifact(n_items).query(Query(
                    users=np.arange(n_users), k=10,
                    exclude_seen=False)).scores.tobytes()
                for n_items, n_users in _SERVE_SHAPES]
        conn.send((worker.blas_threads(), answers))
    finally:
        conn.close()


def test_served_scores_bitwise_equal_across_blas_pool_sizes(monkeypatch):
    if worker.blas_threads() is None:
        pytest.skip("NumPy's bundled OpenBLAS is not available")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    pool_before = worker.blas_threads()
    ctx = multiprocessing.get_context("fork")
    parent, child = ctx.Pipe(duplex=False)
    # The pool is resized only in the forked child, never in this process.
    process = ctx.Process(target=_scores_at_pool_sizes, args=(child,))
    process.start()
    child.close()
    try:
        assert parent.poll(120), "child produced no scores"
        final_pool, answers = parent.recv()
    finally:
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
            process.join()
    assert worker.blas_threads() == pool_before
    if final_pool != 2:
        pytest.skip(f"OpenBLAS could not run 2 threads here ({final_pool})")
    for shape, one, two in zip(_SERVE_SHAPES, answers[1], answers[2]):
        assert one == two, f"scores moved with the pool size at {shape}"
