"""The worker-process side of the multi-process serving tier.

:func:`worker_main` is the entry point the server forks into: a blocking
loop over one ``multiprocessing`` pipe that opens the published artifact
files with ``mmap_mode="r"`` — so every worker on the host shares one OS
page-cache copy of the read-only tensors — and answers ``query`` frames
with ``result``/``error`` frames.  The frame codec is
:mod:`repro.serving.wire`; the pipe's ``send_bytes``/``recv_bytes`` supply
the length delimiting, so no pickle is involved on either hop.

Lifecycle (see :mod:`repro.serving.server` for the parent's half):

1. On start the worker sizes its BLAS pool (below), loads every artifact
   in its model table and sends one ``ready`` frame (``{worker_id,
   models: {name: version}, mapped, blas_threads}``).
2. ``query`` frames score against the named artifact (or the sole model
   when unnamed) and answer with ``result``; any exception — unknown
   model, invalid users, injected scorer fault — answers with ``error``
   instead of killing the worker.
3. ``reload`` frames re-open one model from a new artifact path/version
   and answer ``ready`` — the hot-swap step the parent runs while the
   worker is drained.
4. ``ping`` answers ``pong`` with the worker's model table; ``shutdown``
   answers ``ok`` and exits the loop.  EOF on the pipe exits too.

The fault-injection site ``serving.worker`` fires before each query is
scored, so ``REPRO_FAULTS`` (inherited through the fork) can inject
per-worker delays and failures for resilience tests.

BLAS pool
---------
Right after the fork, before loading anything, the worker resizes NumPy's
OpenBLAS thread pool to the ``blas_threads`` the parent passed (its CPU
share: ``max(1, cpus // n_workers)``), so N workers do not each spin a
full-size pool on the CPUs the others need.  ``OPENBLAS_NUM_THREADS`` in
the environment wins; without NumPy's bundled ``libscipy_openblas64_``
the step is a no-op.  The status frames report the pool size read back
(``blas_threads``, ``None`` when unknown).  OpenBLAS splits a GEMM across
threads by output blocks, so scores are bitwise the same at any pool size.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.reliability.faults import fire as _fire
from repro.serving import wire
from repro.serving.artifact import ServingArtifact

#: ``{model_name: (artifact_path, version)}`` — the table a worker serves.
ModelTable = Dict[str, Tuple[str, int]]

#: ``(symbol, argtypes, restype)`` of the pool-size setter and getter.
_BLAS_SET = ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)
_BLAS_GET = ("scipy_openblas_get_num_threads64_", [], ctypes.c_int)


@functools.lru_cache(maxsize=None)
def _openblas():
    """NumPy's bundled OpenBLAS (already loaded by NumPy), or ``None``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            pass
    return None


def _blas_function(signature):
    name, argtypes, restype = signature
    function = getattr(_openblas(), name, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, restype
    return function


def set_blas_threads(n_threads: int) -> bool:
    """Resize this process's OpenBLAS pool; ``True`` if it was applied.

    A no-op when ``OPENBLAS_NUM_THREADS`` is set (the operator's choice
    wins) or the library/symbol cannot be resolved.
    """
    setter = _blas_function(_BLAS_SET)
    if setter is None or "OPENBLAS_NUM_THREADS" in os.environ:
        return False
    setter(max(1, int(n_threads)))
    return True


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS pool size, or ``None`` when unknown."""
    getter = _blas_function(_BLAS_GET)
    return None if getter is None else int(getter())


def _load_models(table: ModelTable) -> Dict[str, Tuple[ServingArtifact, int]]:
    return {
        name: (ServingArtifact.load(path, mmap_mode="r"), int(version))
        for name, (path, version) in table.items()
    }


def _resolve(models: Dict[str, Tuple[ServingArtifact, int]],
             name: Optional[str]) -> Tuple[ServingArtifact, str]:
    """Mirror ``ModelRegistry.get``'s resolution (and its error messages)."""
    if name is None:
        if len(models) != 1:
            raise KeyError(
                f"registry holds {len(models)} models "
                f"({sorted(models)}); specify one by name")
        name = next(iter(models))
    try:
        artifact, _ = models[name]
    except KeyError:
        raise KeyError(
            f"no model named {name!r} is published; available: "
            f"{sorted(models)}") from None
    return artifact, name


def _status_meta(worker_id: int,
                 models: Dict[str, Tuple[ServingArtifact, int]]) -> dict:
    return {
        "worker_id": worker_id,
        "models": {name: version for name, (_, version) in models.items()},
        "mapped": all(artifact.memory_mapped
                      for artifact, _ in models.values()),
        "blas_threads": blas_threads(),
    }


def worker_main(conn, table: ModelTable, worker_id: int,
                n_blas_threads: Optional[int] = None) -> None:
    """Serve frames from ``conn`` until ``shutdown`` or EOF.

    Parameters
    ----------
    conn:
        The worker end of a ``multiprocessing.Pipe`` (frames travel as
        ``send_bytes``/``recv_bytes`` blobs).
    table:
        ``{name: (artifact_path, version)}`` to load at start.
    worker_id:
        Stable id for logging/status frames.
    n_blas_threads:
        OpenBLAS pool size for this process (see :func:`set_blas_threads`);
        ``None`` keeps the inherited pool.
    """
    if n_blas_threads is not None:
        set_blas_threads(n_blas_threads)
    try:
        models = _load_models(table)
        conn.send_bytes(wire.encode_frame(
            "ready", _status_meta(worker_id, models)))
    except BaseException as error:  # surface load failures to the parent
        try:
            conn.send_bytes(wire.encode_error(error))
        except OSError:
            pass
        return

    while True:
        try:
            blob = conn.recv_bytes()
        except (EOFError, OSError):  # parent went away
            return
        try:
            kind, meta, tensors = wire.decode_frame(blob)
        except wire.ProtocolError as error:
            conn.send_bytes(wire.encode_error(error))
            continue

        if kind == "query":
            try:
                _fire("serving.worker")
                query, name = wire.decode_query(meta, tensors)
                artifact, _ = _resolve(models, name)
                result = artifact.query(query)
                reply = wire.encode_result(result)
            except BaseException as error:
                reply = wire.encode_error(error)
            conn.send_bytes(reply)
        elif kind == "reload":
            try:
                name = str(meta["model"])
                artifact = ServingArtifact.load(
                    str(meta["path"]), mmap_mode="r")
                models[name] = (artifact, int(meta["version"]))
                reply = wire.encode_frame(
                    "ready", _status_meta(worker_id, models))
            except BaseException as error:
                reply = wire.encode_error(error)
            conn.send_bytes(reply)
        elif kind == "ping":
            conn.send_bytes(wire.encode_frame(
                "pong", _status_meta(worker_id, models)))
        elif kind == "shutdown":
            try:
                conn.send_bytes(wire.encode_frame("ok", {}))
            except OSError:
                pass
            return
        else:
            conn.send_bytes(wire.encode_error(
                wire.ProtocolError(f"unknown frame kind {kind!r}")))
