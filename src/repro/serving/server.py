"""Multi-process serving tier: asyncio front-end over a worker-process pool.

:class:`RecommenderServer` scales the read path past one GIL.  A single
asyncio event loop (running in a background thread, so the surrounding
program stays synchronous) accepts TCP connections, and a pool of forked
``multiprocessing`` workers does the actual scoring.  Every worker opens
the published artifact ``.npz`` files with ``mmap_mode="r"``; because the
artifacts are written uncompressed (``ZIP_STORED``), the workers'
read-only tensors resolve to ``np.memmap`` views of the same file — N
workers, one OS page-cache copy, no per-process heap duplication.

Wire protocol
-------------
Both hops — client ↔ server over TCP, and server ↔ worker over a
``multiprocessing`` pipe — speak the frame format of
:mod:`repro.serving.wire`::

    MAGIC b"RSV1" | u32 header_len | u32 payload_len | JSON header | payload

The JSON header carries the frame ``kind``, scalar metadata and a tensor
manifest (``[{name, dtype, shape}]``); the payload is the concatenated
raw little-endian array bytes, decoded zero-copy with ``np.frombuffer``.
No pickle crosses either hop.  Client-visible kinds:

- ``query``   → ``result`` | ``error`` — a :class:`Query` (users tensor,
  ``k``, ``exclude_seen``, optional candidates/blocklist tensors,
  optional ``deadline_ms``, optional ``model`` name) answered with a
  :class:`QueryResult` (items/scores tensors, ``degraded`` flag) or an
  ``error`` frame carrying an exception type name + message that
  :func:`repro.serving.wire.raise_remote_error` re-raises client-side.
- ``ping``    → ``pong`` — health/introspection: model versions, live
  worker count, server stats.

A connection handles any number of sequential request frames; concurrent
load uses concurrent connections (see
:func:`repro.serving.client.run_closed_loop`).

**Cross-connection coalescing** — plain single-user top-k queries (one
user, no candidates/blocklist, no caller deadline) that are pending at
the same moment for the same ``(model, k, exclude_seen, mode, n_probe)``
are merged into *one* batched frame and answered by one worker round
trip, then the result rows are split back per connection.  This recovers
the in-process micro-batcher's vectorisation win at the socket tier; the
``ping`` counter ``coalesced_queries`` counts queries served through a
merged frame.

Worker lifecycle
----------------
1. **Spawn** — the parent forks ``n_workers`` processes *before* starting
   the event-loop thread, hands each a ``{name: (artifact_path,
   version)}`` table and its BLAS pool size — its share of the CPUs the
   server may run on, ``max(1, cpus // n_workers)`` — and waits for a
   ``ready`` frame confirming the artifacts loaded (and whether they
   memory-mapped).  Sized this way, the workers' OpenBLAS pools do not
   spin on each other's CPUs; ``OPENBLAS_NUM_THREADS`` overrides it (see
   :mod:`repro.serving.worker`).  Respawned workers get the same size.
2. **Serve** — idle workers sit in an in-loop queue.  Each admitted query
   frame is relayed verbatim to one worker (exclusive ownership from
   acquisition to release, so pipes never interleave) and the worker's
   ``result``/``error`` frame is relayed back.
3. **Deadlines & shedding** — ``deadline_ms`` is enforced at the parent:
   waiting for a worker and the worker round trip both count, and an
   elapsed budget raises
   :class:`~repro.reliability.errors.DeadlineExceededError` while a
   background drain collects the worker's late reply before re-admitting
   it.  Admission beyond ``max_pending`` in-flight requests is shed
   immediately with
   :class:`~repro.reliability.errors.ServiceOverloadedError` — the
   bounded-queue contract of the in-process service, kept at the socket.
4. **Death** — a broken pipe or dead process mid-request is detected, the
   request is **re-dispatched once** to another worker (fail-fast with
   the original error if the retry also dies), and a replacement worker
   is forked in the background from the current model table.
5. **Hot swap** — :meth:`publish` bumps the model version and performs a
   rolling reload: each worker is drained (acquired from the idle queue,
   so it is not mid-request), sent a ``reload`` frame pointing at the new
   artifact path, and re-admitted once it answers ``ready``.  Traffic
   keeps flowing through the not-yet-swapped workers; no request fails.
6. **Shutdown** — :meth:`stop` closes the listener, cancels the open
   connection handlers (an idle connection ends quietly, with no
   traceback), stops the loop, asks each worker to exit with a
   ``shutdown`` frame and terminates any that linger.

The fault-injection site ``serving.worker`` fires in the worker before
each query (``REPRO_FAULTS`` is inherited through the fork), so delays
and failures can be injected per-worker for resilience tests.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.reliability.errors import (
    DeadlineExceededError,
    ServiceOverloadedError,
)
from repro.serving import wire
from repro.serving.query import Query, QueryResult
from repro.serving.worker import worker_main

PathLike = Union[str, Path]

#: Seconds a freshly forked worker gets to load its artifacts and report
#: ``ready`` before the spawn is declared failed.
_SPAWN_TIMEOUT_S = 60.0
#: Seconds a drained worker gets to complete a ``reload`` round trip.
_RELOAD_TIMEOUT_S = 60.0


class _RoundTripTimeout(Exception):
    """Internal: the worker did not answer within the request's budget."""


class _Worker:
    """Parent-side handle of one worker process (exclusive-use resource)."""

    __slots__ = ("id", "process", "conn")

    def __init__(self, worker_id: int, process, conn) -> None:
        self.id = worker_id
        self.process = process
        self.conn = conn

    def alive(self) -> bool:
        return self.process.is_alive()


class _PendingSingle:
    """One coalescable single-user query awaiting a shared worker trip."""

    __slots__ = ("user", "blob", "future")

    def __init__(self, user: int, blob: bytes,
                 future: "asyncio.Future") -> None:
        self.user = user
        self.blob = blob      # original frame, relayed verbatim if alone
        self.future = future  # resolves to this request's reply bytes


class RecommenderServer:
    """Socket front-end + worker pool over published serving artifacts.

    Parameters
    ----------
    models:
        ``{name: artifact_path}`` of the initial model table, or a single
        path (registered under ``"default"``).  Artifacts should be saved
        with ``compressed=False`` so the workers can memory-map them.
    n_workers:
        Worker processes to fork (>= 1; the end-to-end contract wants 2+).
    host, port:
        Listen address; ``port=0`` picks a free port (see :attr:`address`).
    max_pending:
        In-flight request cap; admissions beyond it are shed with
        :class:`ServiceOverloadedError`.
    default_deadline_ms:
        Deadline applied to queries that do not carry their own.
    """

    def __init__(self, models: Union[PathLike, Mapping[str, PathLike]],
                 n_workers: int = 2, host: str = "127.0.0.1", port: int = 0,
                 max_pending: int = 64,
                 default_deadline_ms: Optional[float] = None) -> None:
        if isinstance(models, (str, Path)):
            models = {"default": models}
        if not models:
            raise ValueError("at least one model artifact is required")
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._table: Dict[str, Tuple[str, int]] = {
            str(name): (str(path), 1) for name, path in models.items()}
        self.n_workers = int(n_workers)
        self.host = host
        self.port = int(port)
        self.max_pending = int(max_pending)
        self.default_deadline_ms = default_deadline_ms
        self.address: Optional[Tuple[str, int]] = None

        self._ctx = multiprocessing.get_context("fork")
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._idle: Optional[asyncio.Queue] = None
        self._in_flight = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._shutdown_future: Optional[asyncio.Future] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._closing = False
        self._publish_lock = threading.Lock()
        # Cross-connection coalescing state (event-loop-thread only): the
        # pending bucket per compatible-query key, and the keys whose
        # bucket currently has an active leader draining it.
        self._coalesce: Dict[tuple, list] = {}
        self._coalesce_leaders: set = set()
        self._stats: Dict[str, int] = {
            "requests": 0, "answered": 0, "errors": 0, "shed": 0,
            "deadline_exceeded": 0, "worker_deaths": 0, "redispatched": 0,
            "respawns": 0, "reloads": 0, "coalesced_queries": 0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "RecommenderServer":
        """Fork the worker pool, then start the event-loop thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        # Workers are forked before any background thread exists — the
        # only thread-safe moment to fork — and handshaken synchronously.
        workers = []
        try:
            for _ in range(self.n_workers):
                workers.append(self._spawn_worker_sync())
        except BaseException:
            for worker in workers:
                self._kill_worker(worker)
            raise
        for worker in workers:
            self._workers[worker.id] = worker
        self._executor = ThreadPoolExecutor(
            max_workers=2 * self.n_workers + 4,
            thread_name_prefix="serving-io")
        self._thread = threading.Thread(
            target=self._run_loop, name="serving-loop", daemon=True)
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._start_error is not None:
            self.stop()
            raise RuntimeError(
                f"server failed to start: {self._start_error}")
        return self

    def stop(self) -> None:
        """Stop accepting, stop the loop, shut the workers down."""
        self._closing = True
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._request_shutdown)
            self._thread.join(timeout=10.0)
        for worker in list(self._workers.values()):
            self._shutdown_worker(worker)
        self._workers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False)

    def __enter__(self) -> "RecommenderServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # worker pool (sync halves)
    # ------------------------------------------------------------------ #
    def _spawn_worker_sync(self) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, dict(self._table), worker_id,
                  max(1, len(os.sched_getaffinity(0)) // self.n_workers)),
            name=f"serving-worker-{worker_id}", daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(worker_id, process, parent_conn)
        try:
            if not parent_conn.poll(_SPAWN_TIMEOUT_S):
                raise RuntimeError(
                    f"worker {worker_id} did not report ready within "
                    f"{_SPAWN_TIMEOUT_S:.0f}s")
            kind, meta, _ = wire.decode_frame(parent_conn.recv_bytes())
            if kind == "error":
                wire.raise_remote_error(meta)
            if kind != "ready":
                raise RuntimeError(
                    f"worker {worker_id} answered {kind!r} instead of ready")
        except BaseException:
            self._kill_worker(worker)
            raise
        return worker

    def _kill_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def _shutdown_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.send_bytes(wire.encode_frame("shutdown", {}))
            if worker.conn.poll(2.0):
                worker.conn.recv_bytes()
        except (EOFError, OSError):
            pass
        self._kill_worker(worker)

    def _round_trip_sync(self, worker: _Worker, blob: bytes,
                         timeout: Optional[float]) -> bytes:
        """Send one frame and wait for the reply (executor thread)."""
        worker.conn.send_bytes(blob)
        if not worker.conn.poll(timeout):
            raise _RoundTripTimeout()
        return worker.conn.recv_bytes()

    def _drain_sync(self, worker: _Worker) -> bool:
        """Collect a late reply after a deadline timeout.

        Returns ``True`` once the stale reply arrived (worker reusable),
        ``False`` if the worker died instead.
        """
        try:
            while True:
                if worker.conn.poll(0.1):
                    worker.conn.recv_bytes()
                    return True
                if not worker.alive():
                    return False
        except (EOFError, OSError):
            return False

    # ------------------------------------------------------------------ #
    # event loop
    # ------------------------------------------------------------------ #
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    def _request_shutdown(self) -> None:
        if self._shutdown_future is not None \
                and not self._shutdown_future.done():
            self._shutdown_future.set_result(None)

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._shutdown_future = loop.create_future()
        self._idle = asyncio.Queue()
        for worker in self._workers.values():
            self._idle.put_nowait(worker)
        try:
            server = await asyncio.start_server(
                self._serve_connection, host=self.host, port=self.port)
        except BaseException as error:
            self._start_error = error
            self._started.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            async with server:
                await self._shutdown_future
        finally:
            self.address = None
            # Cancel lingering connection handlers / drains / respawns so
            # nothing is destroyed mid-coroutine when the loop closes.
            tasks = [task for task in asyncio.all_tasks()
                     if task is not asyncio.current_task()]
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                blob = await wire.read_frame_async(reader)
                reply = await self._handle_frame(blob)
                writer.write(reply)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        except wire.ProtocolError as error:
            try:
                writer.write(wire.encode_error(error))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # A shutdown cancel can land here too; ending the handler
                # cancelled would make asyncio log a traceback for it.
                pass

    async def _handle_frame(self, blob: bytes) -> bytes:
        try:
            kind, meta, tensors = wire.decode_frame(blob)
        except wire.ProtocolError as error:
            return wire.encode_error(error)
        if kind == "ping":
            return wire.encode_frame("pong", self._status())
        if kind != "query":
            return wire.encode_error(
                wire.ProtocolError(f"unexpected frame kind {kind!r}"))

        self._stats["requests"] += 1
        if self._in_flight >= self.max_pending:
            self._stats["shed"] += 1
            return wire.encode_error(ServiceOverloadedError(
                f"admission queue full ({self.max_pending} requests in "
                "flight); retry with backoff"))
        self._in_flight += 1
        try:
            key = self._coalesce_key(meta, tensors)
            if key is not None:
                reply = await self._dispatch_coalesced(key, blob, tensors)
            else:
                reply = await self._dispatch(blob, meta)
        except DeadlineExceededError as error:
            self._stats["deadline_exceeded"] += 1
            reply = wire.encode_error(error)
        except asyncio.CancelledError:
            raise  # shutdown: end the connection, do not answer and re-read
        except BaseException as error:
            self._stats["errors"] += 1
            reply = wire.encode_error(error)
        finally:
            self._in_flight -= 1
        return reply

    async def _dispatch(self, blob: bytes, meta: dict) -> bytes:
        """Resolve, enforce the deadline, relay to a worker (retry once)."""
        self._resolve_name(meta.get("model"))
        deadline_ms = meta.get("deadline_ms", self.default_deadline_ms)
        deadline = (None if deadline_ms is None
                    else time.monotonic() + float(deadline_ms) / 1000.0)
        return await self._relay_to_worker(blob, deadline, deadline_ms)

    async def _relay_to_worker(self, blob: bytes, deadline: Optional[float],
                               deadline_ms: Optional[float]) -> bytes:
        """Acquire a worker, round-trip one frame, retry once on death."""
        death_error: Optional[BaseException] = None
        for attempt in range(2):
            worker = await self._acquire_worker(deadline)
            loop = asyncio.get_running_loop()
            try:
                remaining = self._remaining(deadline)
            except DeadlineExceededError:
                self._release(worker)
                raise
            try:
                reply = await loop.run_in_executor(
                    self._executor, self._round_trip_sync, worker, blob,
                    remaining)
            except _RoundTripTimeout:
                # The worker is still computing: collect its late reply in
                # the background, then put it back in rotation.
                self._drain_then_readmit(worker)
                raise DeadlineExceededError(
                    f"deadline of {deadline_ms}ms elapsed during scoring")
            except (EOFError, OSError) as error:
                self._note_death(worker)
                death_error = error
                if attempt == 0:
                    self._stats["redispatched"] += 1
                    continue  # re-dispatch once to another worker
                break
            else:
                self._release(worker)
                self._stats["answered"] += 1
                return reply
        raise RuntimeError(
            f"worker died while serving the request (re-dispatch also "
            f"failed): {type(death_error).__name__}: {death_error}")

    # ------------------------------------------------------------------ #
    # cross-connection coalescing
    # ------------------------------------------------------------------ #
    def _coalesce_key(self, meta: dict, tensors: dict) -> Optional[tuple]:
        """Coalescing group of a query frame, or ``None`` if not eligible.

        Eligible frames are plain single-user top-k lookups: one user, no
        candidate/blocklist tensors, no caller deadline (the uniform
        ``default_deadline_ms`` still applies), ranked ``k``.  Everything
        in the key must make two frames interchangeable rows of one
        batched kernel pass.
        """
        users = tensors.get("users")
        if users is None or users.size != 1:
            return None
        if "candidates" in tensors or "exclude_items" in tensors:
            return None
        if meta.get("deadline_ms") is not None:
            return None
        k = meta.get("k", 10)
        if k is None:
            return None
        model = meta.get("model")
        n_probe = meta.get("n_probe")
        return (None if model is None else str(model), int(k),
                bool(meta.get("exclude_seen", True)),
                str(meta.get("mode", "exact")),
                None if n_probe is None else int(n_probe))

    async def _dispatch_coalesced(self, key: tuple, blob: bytes,
                                  tensors: dict) -> bytes:
        """Queue a coalescable query and await its reply.

        All bucket/leader state is touched only between awaits on the
        event-loop thread, so check-then-act sequences here are atomic.
        The first arriver for a key starts a detached drain task (so no
        single connection is held hostage leading the bucket); the drain
        serves whole buckets — one worker round trip each — until no
        compatible queries are pending.
        """
        loop = asyncio.get_running_loop()
        pend = _PendingSingle(int(tensors["users"][0]), blob,
                              loop.create_future())
        self._coalesce.setdefault(key, []).append(pend)
        if key not in self._coalesce_leaders:
            self._coalesce_leaders.add(key)
            loop.create_task(self._drain_bucket(key))
        return await pend.future

    async def _drain_bucket(self, key: tuple) -> None:
        try:
            while True:
                batch = self._coalesce.get(key)
                if not batch:
                    break
                self._coalesce[key] = []
                await self._serve_batch(key, batch)
        finally:
            # No awaits between the emptiness check above and this block,
            # so a new arrival either saw the leader flag (and is in a
            # batch that was served) or re-elects a drain after it clears.
            self._coalesce_leaders.discard(key)
            for orphan in self._coalesce.pop(key, []):
                if not orphan.future.done():
                    orphan.future.cancel()

    async def _serve_batch(self, key: tuple, batch: list) -> None:
        """One worker round trip for a bucket; never raises — failures land
        on the members' futures (each handler reports its own error)."""
        model, k, exclude_seen, mode, n_probe = key
        try:
            if len(batch) == 1:
                replies = [await self._relay_single(batch[0].blob, model)]
            else:
                users = np.array([pend.user for pend in batch],
                                 dtype=np.int64)
                merged = wire.encode_query(
                    Query(users=users, k=k, exclude_seen=exclude_seen,
                          mode=mode, n_probe=n_probe), model)
                reply = await self._relay_single(merged, model)
                kind, meta, reply_tensors = wire.decode_frame(reply)
                if kind == "result":
                    result = wire.decode_result(meta, reply_tensors)
                    replies = [
                        wire.encode_result(QueryResult(
                            items=result.items[row:row + 1],
                            scores=result.scores[row:row + 1],
                            degraded=result.degraded))
                        for row in range(len(batch))]
                    self._stats["coalesced_queries"] += len(batch)
                else:  # error frame: every member sees the same failure
                    replies = [reply] * len(batch)
        except asyncio.CancelledError:
            for pend in batch:
                if not pend.future.done():
                    pend.future.cancel()
            raise
        except BaseException as error:
            for pend in batch:
                if not pend.future.done():
                    pend.future.set_exception(error)
            return
        for pend, reply in zip(batch, replies):
            if not pend.future.done():
                pend.future.set_result(reply)

    async def _relay_single(self, blob: bytes, model: Optional[str]) -> bytes:
        self._resolve_name(model)
        deadline_ms = self.default_deadline_ms
        deadline = (None if deadline_ms is None
                    else time.monotonic() + float(deadline_ms) / 1000.0)
        return await self._relay_to_worker(blob, deadline, deadline_ms)

    def _remaining(self, deadline: Optional[float]) -> Optional[float]:
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceededError("deadline elapsed before dispatch")
        return remaining

    async def _acquire_worker(self, deadline: Optional[float]) -> _Worker:
        while True:
            timeout = self._remaining(deadline)
            try:
                worker = await asyncio.wait_for(self._idle.get(), timeout)
            except asyncio.TimeoutError:
                raise DeadlineExceededError(
                    "deadline elapsed waiting for a free worker") from None
            if worker.alive():
                return worker
            self._note_death(worker)  # died while idle; try the next one

    def _release(self, worker: _Worker) -> None:
        if not self._closing:
            self._idle.put_nowait(worker)

    def _drain_then_readmit(self, worker: _Worker) -> None:
        async def drain() -> None:
            loop = asyncio.get_running_loop()
            ok = await loop.run_in_executor(
                self._executor, self._drain_sync, worker)
            if ok:
                self._release(worker)
            else:
                self._note_death(worker)

        asyncio.get_running_loop().create_task(drain())

    def _note_death(self, worker: _Worker) -> None:
        if worker.id not in self._workers:
            return
        del self._workers[worker.id]
        self._stats["worker_deaths"] += 1
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=0.1)
        if not self._closing:
            asyncio.get_running_loop().create_task(self._respawn())

    async def _respawn(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            worker = await loop.run_in_executor(
                self._executor, self._spawn_worker_sync)
        except BaseException:
            return  # pool shrinks; the remaining workers keep serving
        if self._closing:
            self._kill_worker(worker)
            return
        self._workers[worker.id] = worker
        self._stats["respawns"] += 1
        self._idle.put_nowait(worker)

    # ------------------------------------------------------------------ #
    # model table / hot swap
    # ------------------------------------------------------------------ #
    def _resolve_name(self, name: Optional[str]) -> str:
        """Validate the target model with the registry's error contract."""
        table = self._table
        if name is None:
            if len(table) != 1:
                raise KeyError(
                    f"registry holds {len(table)} models "
                    f"({sorted(table)}); specify one by name")
            return next(iter(table))
        name = str(name)
        if name not in table:
            raise KeyError(
                f"no model named {name!r} is published; available: "
                f"{sorted(table)}")
        return name

    def version(self, name: str) -> int:
        """Current published version of ``name`` (registry error contract)."""
        try:
            return self._table[name][1]
        except KeyError:
            raise KeyError(
                f"no model named {name!r} is published; available: "
                f"{sorted(self._table)}") from None

    def publish(self, name: str, path: PathLike,
                timeout_s: float = 120.0) -> int:
        """Hot-swap ``name`` to the artifact at ``path`` (rolling reload).

        Drains one worker at a time — acquired from the idle queue, so it
        is never mid-request — reloads it against the new artifact, and
        re-admits it.  Traffic keeps flowing through the other workers;
        returns the new version number.
        """
        if self._loop is None or not self._started.is_set():
            raise RuntimeError("server is not running")
        with self._publish_lock:
            name = str(name)
            version = self._table.get(name, (None, 0))[1] + 1
            future = asyncio.run_coroutine_threadsafe(
                self._publish_async(name, str(Path(path)), version),
                self._loop)
            future.result(timeout=timeout_s)
            return version

    async def _publish_async(self, name: str, path: str,
                             version: int) -> None:
        self._table[name] = (path, version)
        reload_blob = wire.encode_frame(
            "reload", {"model": name, "path": path, "version": version})
        pending = set(self._workers)
        loop = asyncio.get_running_loop()
        while pending:
            pending &= set(self._workers)  # drop workers that died
            if not pending:
                break
            worker = await self._idle.get()
            if worker.id not in pending:
                # Already swapped (or a fresh respawn that loaded the new
                # table); hand it straight back and let the queue rotate.
                self._idle.put_nowait(worker)
                await asyncio.sleep(0.005)
                continue
            try:
                reply = await loop.run_in_executor(
                    self._executor, self._round_trip_sync, worker,
                    reload_blob, _RELOAD_TIMEOUT_S)
                kind, meta, _ = wire.decode_frame(reply)
                if kind == "error":
                    wire.raise_remote_error(meta)
            except _RoundTripTimeout:
                pending.discard(worker.id)
                self._note_death(worker)
                self._kill_worker(worker)
                continue
            except (EOFError, OSError):
                pending.discard(worker.id)
                self._note_death(worker)
                continue
            pending.discard(worker.id)
            self._stats["reloads"] += 1
            self._release(worker)

    # ------------------------------------------------------------------ #
    # stats / health
    # ------------------------------------------------------------------ #
    def _status(self) -> dict:
        return {
            "models": {name: version
                       for name, (_, version) in self._table.items()},
            "workers": sum(worker.alive()
                           for worker in self._workers.values()),
            "in_flight": self._in_flight,
            "stats": dict(self._stats),
        }

    @property
    def stats(self) -> Dict[str, int]:
        """Counters: requests, answered, errors, shed, deadline_exceeded,
        worker_deaths, redispatched, respawns, reloads."""
        return dict(self._stats)
