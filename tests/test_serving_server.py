"""End-to-end tests for the multi-process serving tier.

Covers the three layers added by the server work:

* the pickle-free frame codec (:mod:`repro.serving.wire`) — query/result/
  error round trips, malformed-frame rejection, dtype safelisting and the
  oversized-frame guard;
* memory-mapped artifact loading — ``save_arrays(compressed=False)``
  bundles map via ``load_arrays(mmap_mode="r")`` (one page-cache copy for
  N processes), compressed bundles fall back to an eager load, and digest
  verification still reads through the map;
* :class:`RecommenderServer` + :class:`ServingClient` — ≥2 worker
  processes answering concurrent queries **bitwise identical** to the
  in-process read path on the same artifact, surviving a worker kill,
  completing a hot swap under load without a failed request, enforcing
  deadlines and shedding load, and reporting registry-style errors.

Worker-side perturbation uses the ``serving.worker`` fault site through
the ``REPRO_FAULTS`` environment variable, which the forked workers
inherit.
"""

import asyncio
import multiprocessing
import os
import threading
import time
import types
import zipfile

import numpy as np
import pytest

from repro.core import MARS
from repro.data import MultiFacetSyntheticGenerator, SyntheticConfig
from repro.reliability.errors import (
    ArtifactIntegrityError,
    DeadlineExceededError,
    ServiceOverloadedError,
)
from repro.serving import wire, worker
from repro.serving.artifact import ServingArtifact
from repro.serving.client import ServingClient, run_closed_loop
from repro.serving.query import Query, QueryResult
from repro.serving.server import RecommenderServer
from repro.serving.service import RecommenderService
from repro.utils.io import is_memory_mapped, load_arrays, save_arrays

N_USERS, N_ITEMS, DIM = 40, 60, 6


def _euclidean_artifact(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    tensors = {
        "user_embeddings": scale * rng.normal(size=(N_USERS, DIM)),
        "item_embeddings": scale * rng.normal(size=(N_ITEMS, DIM)),
    }
    indptr = np.arange(0, 3 * N_USERS + 1, 3, dtype=np.int64)
    indices = np.concatenate([
        np.sort(rng.choice(N_ITEMS, size=3, replace=False))
        for _ in range(N_USERS)
    ]).astype(np.int64)
    return ServingArtifact("euclidean", tensors, N_USERS, N_ITEMS,
                           seen=(indptr, indices), model_name=f"e{seed}")


@pytest.fixture(scope="module")
def artifact():
    return _euclidean_artifact(seed=0)


@pytest.fixture(scope="module")
def artifact_path(artifact, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "model.artifact.npz"
    return artifact.save(path, compressed=False)


@pytest.fixture(scope="module")
def mars_artifact_path(tmp_path_factory):
    """A fitted MARS model's raw bundle: mapped facet tables beside the
    0-d ``spherical`` flag, which always loads eagerly."""
    config = SyntheticConfig(n_users=N_USERS, n_items=N_ITEMS,
                             interactions_per_user=6.0)
    dataset = MultiFacetSyntheticGenerator(config, random_state=0) \
        .generate_dataset()
    model = MARS(n_facets=2, embedding_dim=DIM, n_epochs=1, batch_size=64,
                 random_state=0).fit(dataset)
    path = tmp_path_factory.mktemp("mars") / "mars.artifact.npz"
    return model.export_serving("mars").save(path, compressed=False)


def _forked_worker_status(artifact_path):
    """Fork one worker over ``artifact_path``; its ``ready`` and ``pong`` metas."""
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=worker.worker_main,
        args=(child_conn, {"default": (str(artifact_path), 1)}, 0, 1))
    process.start()
    child_conn.close()
    try:
        assert parent_conn.poll(60.0)
        kind, ready, _ = wire.decode_frame(parent_conn.recv_bytes())
        assert kind == "ready"
        parent_conn.send_bytes(wire.encode_frame("ping", {}))
        kind, pong, _ = wire.decode_frame(parent_conn.recv_bytes())
        assert kind == "pong"
        parent_conn.send_bytes(wire.encode_frame("shutdown", {}))
        assert wire.decode_frame(parent_conn.recv_bytes())[0] == "ok"
    finally:
        process.join(timeout=10.0)
        if process.is_alive():
            process.kill()
            process.join()
    return ready, pong


# --------------------------------------------------------------------------- #
# wire codec
# --------------------------------------------------------------------------- #
class TestWireCodec:
    def test_query_round_trip(self):
        query = Query(users=[3, 1, 4], k=7, exclude_seen=False,
                      candidates=[[1, 2, 3], [4, 5, 6], [7, 8, 9]],
                      exclude_items=[2, 9], deadline_ms=125.0)
        kind, meta, tensors = wire.decode_frame(
            wire.encode_query(query, model="mars"))
        assert kind == "query"
        decoded, model = wire.decode_query(meta, tensors)
        assert model == "mars"
        assert decoded.k == 7 and decoded.exclude_seen is False
        assert decoded.deadline_ms == 125.0
        np.testing.assert_array_equal(decoded.users, query.users)
        np.testing.assert_array_equal(decoded.candidates, query.candidates)
        np.testing.assert_array_equal(decoded.exclude_items,
                                      query.exclude_items)

    def test_result_round_trip_is_bitwise(self):
        rng = np.random.default_rng(3)
        result = QueryResult(items=rng.integers(0, 50, size=(4, 5)),
                             scores=rng.normal(size=(4, 5)), degraded=True)
        kind, meta, tensors = wire.decode_frame(wire.encode_result(result))
        assert kind == "result"
        decoded = wire.decode_result(meta, tensors)
        assert decoded.degraded is True
        assert decoded.items.tobytes() == result.items.tobytes()
        assert decoded.scores.tobytes() == result.scores.tobytes()

    def test_query_validation_runs_on_decode(self):
        blob = wire.encode_frame(
            "query", {"k": 5, "exclude_seen": False},
            {"users": np.array([-4], dtype=np.int64)})
        _, meta, tensors = wire.decode_frame(blob)
        with pytest.raises(ValueError, match="non-negative"):
            wire.decode_query(meta, tensors)

    def test_known_errors_cross_the_wire_by_type(self):
        for error in (DeadlineExceededError("late"),
                      ServiceOverloadedError("full"),
                      KeyError("no model named 'x'"),
                      ValueError("bad users")):
            kind, meta, _ = wire.decode_frame(wire.encode_error(error))
            assert kind == "error"
            with pytest.raises(type(error)):
                wire.raise_remote_error(meta)

    def test_unknown_error_degrades_to_remote_serving_error(self):
        class WeirdError(Exception):
            pass

        _, meta, _ = wire.decode_frame(wire.encode_error(WeirdError("boom")))
        with pytest.raises(wire.RemoteServingError, match="WeirdError: boom"):
            wire.raise_remote_error(meta)

    def test_bad_magic_rejected(self):
        blob = bytearray(wire.encode_frame("ping", {}))
        blob[:4] = b"XXXX"
        with pytest.raises(wire.ProtocolError, match="magic"):
            wire.decode_frame(bytes(blob))

    def test_truncated_and_trailing_bytes_rejected(self):
        blob = wire.encode_frame("ping", {},
                                 {"x": np.arange(4, dtype=np.int64)})
        with pytest.raises(wire.ProtocolError):
            wire.decode_frame(blob[:-3])
        with pytest.raises(wire.ProtocolError):
            wire.decode_frame(blob + b"\x00\x00")

    def test_object_dtype_rejected_on_encode(self):
        with pytest.raises(TypeError, match="dtype"):
            wire.encode_frame("query", {},
                              {"users": np.array(["a", "b"], dtype=object)})

    def test_unsafe_dtype_rejected_on_decode(self):
        blob = wire.encode_frame("result", {
            "forged": True}, {"x": np.arange(2, dtype=np.int64)})
        tampered = blob.replace(b'"dtype": "<i8"', b'"dtype": "<U2"')
        with pytest.raises(wire.ProtocolError):
            wire.decode_frame(tampered)

    def test_oversized_frame_rejected(self):
        with pytest.raises(ValueError, match="MAX_FRAME_BYTES"):
            wire.encode_frame("result", {}, {
                "x": np.zeros(wire.MAX_FRAME_BYTES // 8 + 16,
                              dtype=np.float64)})


# --------------------------------------------------------------------------- #
# memory-mapped artifact loading
# --------------------------------------------------------------------------- #
class TestMmapLoading:
    def test_uncompressed_bundle_memory_maps(self, tmp_path):
        arrays = {"a": np.arange(12, dtype=np.float64).reshape(3, 4),
                  "b": np.arange(5, dtype=np.int64),
                  "odd_name": np.arange(7, dtype=np.float32),
                  "flag": np.asarray(True),
                  "longer.member_name": np.ones((5, 3))}
        path = save_arrays(tmp_path / "m.npz", arrays, digests=True,
                           compressed=False)
        loaded = load_arrays(path, mmap_mode="r")
        with np.load(path, allow_pickle=False) as plain:  # any zip reader
            for name, reference in arrays.items():
                np.testing.assert_array_equal(plain[name], reference)
        for name, reference in arrays.items():
            if reference.ndim:
                assert is_memory_mapped(loaded[name]), name
                # Raw members' data is 64-byte aligned in the file.
                assert loaded[name].offset % 64 == 0, name
            np.testing.assert_array_equal(loaded[name], reference)

    def test_compressed_bundle_falls_back_to_eager(self, tmp_path):
        arrays = {"a": np.arange(12, dtype=np.float64)}
        path = save_arrays(tmp_path / "c.npz", arrays, digests=True,
                           compressed=True)
        loaded = load_arrays(path, mmap_mode="r")
        assert not is_memory_mapped(loaded["a"])
        np.testing.assert_array_equal(loaded["a"], arrays["a"])

    def test_scalar_members_load_eagerly_alongside_maps(self, tmp_path):
        arrays = {"tensor": np.ones((2, 2)), "scalar": np.asarray(7)}
        path = save_arrays(tmp_path / "s.npz", arrays, compressed=False)
        loaded = load_arrays(path, mmap_mode="r")
        assert is_memory_mapped(loaded["tensor"])
        assert not is_memory_mapped(loaded["scalar"])
        assert int(loaded["scalar"]) == 7

    def test_digest_verification_reads_through_the_map(self, tmp_path):
        arrays = {"a": np.arange(64, dtype=np.float64)}
        path = save_arrays(tmp_path / "d.npz", arrays, digests=True,
                           compressed=False)
        # Flip one byte inside the stored tensor's data region.  The zip
        # CRC is not consulted on the mmap path, so only the embedded
        # SHA-256 digests stand between the corruption and the scorer.
        with zipfile.ZipFile(path) as archive:
            info = next(i for i in archive.infolist()
                        if i.filename == "a.npy")
        raw = bytearray(path.read_bytes())
        base = info.header_offset
        name_len = int.from_bytes(raw[base + 26:base + 28], "little")
        extra_len = int.from_bytes(raw[base + 28:base + 30], "little")
        npy = base + 30 + name_len + extra_len  # start of the .npy member
        npy_header_len = int.from_bytes(raw[npy + 8:npy + 10], "little")
        data = npy + 10 + npy_header_len  # first tensor byte
        raw[data + 100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError, match="integrity"):
            load_arrays(path, mmap_mode="r")

    def test_mapped_artifact_answers_identically(self, artifact,
                                                 artifact_path):
        mapped = ServingArtifact.load(artifact_path, mmap_mode="r")
        assert mapped.memory_mapped
        eager = ServingArtifact.load(artifact_path)
        assert not eager.memory_mapped
        query = Query(users=np.arange(10), k=8)
        for reference in (artifact, eager):
            expected = reference.query(query)
            got = mapped.query(query)
            np.testing.assert_array_equal(got.items, expected.items)
            np.testing.assert_array_equal(got.scores, expected.scores)

    def test_mapped_mars_artifact_reports_mapped(self, mars_artifact_path):
        mapped = ServingArtifact.load(mars_artifact_path, mmap_mode="r")
        assert mapped.tensors["spherical"].ndim == 0
        assert not is_memory_mapped(mapped.tensors["spherical"])
        assert mapped.memory_mapped
        assert not ServingArtifact.load(mars_artifact_path).memory_mapped

    def test_worker_over_mars_bundle_reports_mapped(self, mars_artifact_path):
        ready, pong = _forked_worker_status(mars_artifact_path)
        assert ready["mapped"] is True
        assert pong["mapped"] is True

    def test_mapped_tensors_are_read_only(self, artifact_path):
        mapped = ServingArtifact.load(artifact_path, mmap_mode="r")
        tensor = mapped.tensors["user_embeddings"]
        assert is_memory_mapped(tensor)
        with pytest.raises((ValueError, RuntimeError)):
            tensor[0, 0] = 1.0


# --------------------------------------------------------------------------- #
# the server end-to-end
# --------------------------------------------------------------------------- #
class TestServerEndToEnd:
    def test_concurrent_queries_bitwise_identical_to_in_process(
            self, artifact, artifact_path):
        service = RecommenderService(ServingArtifact.load(artifact_path))
        queries = [Query(users=np.arange(i, i + 5), k=4 + (i % 3))
                   for i in range(8)]
        expected = [service.query(query) for query in queries]

        with RecommenderServer(artifact_path, n_workers=2) as server:
            failures = []

            def client_thread(offset):
                try:
                    with ServingClient(server.address) as client:
                        for index, query in enumerate(queries):
                            got = client.query(query)
                            want = expected[index]
                            assert got.items.tobytes() == want.items.tobytes()
                            assert (got.scores.tobytes()
                                    == want.scores.tobytes())
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)

            threads = [threading.Thread(target=client_thread, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
            assert server.stats["answered"] == 4 * len(queries)

    def test_survives_worker_kill(self, artifact, artifact_path):
        reference = artifact.query(Query(users=[7], k=5))
        with RecommenderServer(artifact_path, n_workers=2) as server:
            with ServingClient(server.address) as client:
                client.query(Query(users=[7], k=5))
                victim = next(iter(server._workers.values()))
                victim.process.kill()
                victim.process.join()
                # Every request after the kill must still be answered.
                for turn in range(12):
                    got = client.query(Query(users=[7], k=5))
                    assert got.items.tobytes() == reference.items.tobytes()
                assert server.stats["worker_deaths"] >= 1
                # The pool heals: a replacement worker is forked.
                for _ in range(200):
                    if client.ping()["workers"] >= 2:
                        break
                    time.sleep(0.05)
                assert client.ping()["workers"] >= 2

    def test_hot_swap_under_load_without_failed_requests(
            self, artifact, artifact_path, tmp_path):
        new_artifact = _euclidean_artifact(seed=9, scale=2.0)
        new_path = new_artifact.save(tmp_path / "v2.artifact.npz",
                                     compressed=False)
        old_expected = {
            user: artifact.query(Query(users=[user], k=5)).items.tobytes()
            for user in range(N_USERS)}
        new_expected = {
            user: new_artifact.query(Query(users=[user], k=5)).items.tobytes()
            for user in range(N_USERS)}

        with RecommenderServer(artifact_path, n_workers=2) as server:
            stop = threading.Event()
            failures = []
            answered = [0]

            def load_thread(offset):
                try:
                    with ServingClient(server.address) as client:
                        turn = 0
                        while not stop.is_set():
                            user = (offset * 11 + turn) % N_USERS
                            turn += 1
                            got = client.query(Query(users=[user], k=5))
                            answer = got.items.tobytes()
                            # During the rolling swap an answer may come
                            # from either version, but never from neither.
                            assert answer in (old_expected[user],
                                              new_expected[user])
                            answered[0] += 1
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)

            threads = [threading.Thread(target=load_thread, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            version = server.publish("default", new_path)
            stop.set()
            for thread in threads:
                thread.join()

            assert not failures
            assert version == 2
            assert answered[0] > 0
            with ServingClient(server.address) as client:
                assert client.ping()["models"] == {"default": 2}
                got = client.query(Query(users=[3], k=5))
                assert got.items.tobytes() == new_expected[3]

    def test_registry_style_errors_cross_the_wire(self, artifact_path):
        with RecommenderServer(artifact_path, n_workers=1) as server:
            with ServingClient(server.address) as client:
                with pytest.raises(KeyError,
                                   match="no model named 'nope'"):
                    client.query(Query(users=[0], k=3), model="nope")
                with pytest.raises(ValueError, match="out of range"):
                    client.query(Query(users=[N_USERS + 5], k=3))
                with pytest.raises(ValueError, match="non-negative"):
                    client.query([-2], k=3)
                # The connection stays usable after every error.
                assert client.query(Query(users=[0], k=3)).k == 3

    def test_deadline_enforced_against_a_slow_worker(self, artifact_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "serving.worker=delay:0.3")
        with RecommenderServer(artifact_path, n_workers=1) as server:
            with ServingClient(server.address) as client:
                with pytest.raises(DeadlineExceededError):
                    client.query(Query(users=[1], k=3, deadline_ms=40.0))
                # The drained worker is re-admitted and keeps serving.
                assert client.query(Query(users=[1], k=3)).n_users == 1
                assert server.stats["deadline_exceeded"] == 1

    def test_admission_queue_sheds_when_full(self, artifact_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "serving.worker=delay:0.5")
        with RecommenderServer(artifact_path, n_workers=1,
                               max_pending=1) as server:
            first_done = threading.Event()

            def slow_request():
                with ServingClient(server.address) as client:
                    client.query(Query(users=[0], k=3))
                first_done.set()

            thread = threading.Thread(target=slow_request)
            thread.start()
            for _ in range(400):  # wait until the slow request is admitted
                if server._in_flight >= 1:
                    break
                time.sleep(0.005)
            assert server._in_flight >= 1
            with ServingClient(server.address) as client:
                with pytest.raises(ServiceOverloadedError):
                    client.query(Query(users=[1], k=3))
            thread.join()
            assert first_done.is_set()
            assert server.stats["shed"] >= 1

    def test_closed_loop_reports_throughput_and_latency(self, artifact_path):
        with RecommenderServer(artifact_path, n_workers=2) as server:
            report = run_closed_loop(
                server.address,
                lambda client_index, turn: Query(
                    users=[(client_index * 13 + turn) % N_USERS], k=5),
                clients=2, duration_s=0.4)
        assert report["errors"] == 0
        assert report["requests"] > 0
        assert report["qps"] > 0
        assert report["p50_ms"] <= report["p99_ms"]

    def test_validation(self, artifact_path):
        with pytest.raises(ValueError, match="n_workers"):
            RecommenderServer(artifact_path, n_workers=0)
        with pytest.raises(ValueError, match="at least one model"):
            RecommenderServer({})


# --------------------------------------------------------------------------- #
# worker BLAS pool
# --------------------------------------------------------------------------- #
class TestWorkerBlasPool:
    def test_forked_worker_reports_its_pool_size(self, artifact_path):
        inherited = worker.blas_threads()
        if "OPENBLAS_NUM_THREADS" in os.environ or inherited is None:
            expected = inherited  # the override (or no library) wins
        else:
            expected = 1
        ready, pong = _forked_worker_status(artifact_path)
        assert ready["blas_threads"] == expected
        assert pong["blas_threads"] == expected
        # Only the forked worker resized its pool.
        assert worker.blas_threads() == inherited

    @pytest.mark.parametrize("library", [None, types.SimpleNamespace()],
                             ids=["no-library", "no-symbol"])
    def test_unresolvable_pool_is_a_silent_no_op(self, monkeypatch, library):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setattr(worker, "_openblas", lambda: library)
        assert worker.set_blas_threads(1) is False
        assert worker.blas_threads() is None

    def test_environment_override_wins(self, monkeypatch):
        inherited = worker.blas_threads()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert worker.set_blas_threads(1) is False
        assert worker.blas_threads() == inherited


# --------------------------------------------------------------------------- #
# shutdown
# --------------------------------------------------------------------------- #
class TestShutdown:
    """``stop()`` ends every connection handler quietly and promptly."""

    @staticmethod
    def _stop_quietly(server, capfd, caplog):
        server.stop()
        # The event loop ran to completion (no handler held it open).
        assert not server._thread.is_alive()
        err = capfd.readouterr().err
        assert "Traceback" not in err and "CancelledError" not in err
        assert not [record for record in caplog.records
                    if record.exc_info or "CancelledError" in record.message]

    def test_idle_connection(self, artifact_path, capfd, caplog):
        server = RecommenderServer(artifact_path, n_workers=1).start()
        client = ServingClient(server.address)
        try:
            client.ping()  # the handler now waits for the next frame
            self._stop_quietly(server, capfd, caplog)
        finally:
            client.close()

    def test_cancel_landing_while_the_handler_closes(
            self, artifact_path, capfd, caplog, monkeypatch):
        closing = threading.Event()

        async def slow_wait_closed(writer):
            closing.set()
            await asyncio.sleep(30.0)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            slow_wait_closed)
        server = RecommenderServer(artifact_path, n_workers=1).start()
        with ServingClient(server.address) as client:
            client.ping()
        # The client hung up; its handler is parked in wait_closed().
        assert closing.wait(10.0)
        self._stop_quietly(server, capfd, caplog)

    def test_request_in_flight(self, artifact_path, capfd, caplog,
                               monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "serving.worker=delay:0.5")
        server = RecommenderServer(artifact_path, n_workers=1).start()
        outcome = []

        def ask():
            with ServingClient(server.address) as client:
                try:
                    outcome.append(client.query(Query(users=[0], k=3)))
                except Exception as error:  # noqa: BLE001
                    outcome.append(error)

        thread = threading.Thread(target=ask)
        thread.start()
        for _ in range(400):  # wait until the request is with the worker
            if server._in_flight >= 1:
                break
            time.sleep(0.005)
        assert server._in_flight >= 1
        self._stop_quietly(server, capfd, caplog)
        thread.join()
        # The cut-off request fails with the closed connection, not with a
        # CancelledError reply.
        assert len(outcome) == 1 and isinstance(outcome[0], ConnectionError)
