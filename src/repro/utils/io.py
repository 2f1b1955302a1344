"""Serialisation helpers for model parameters and experiment results.

Every write in this module is **atomic**: payloads are staged to a
temporary file in the destination directory, flushed and fsynced, then
published with ``os.replace`` — readers see either the old complete file
or the new complete file, never a torn write.  Array bundles can embed
per-tensor SHA-256 digests (``digests=True`` on :func:`save_arrays`) that
:func:`load_arrays` verifies on the way back in; any torn, truncated,
bit-flipped or digest-mismatching bundle surfaces as a single clean
:class:`~repro.reliability.errors.ArtifactIntegrityError` instead of a raw
``zipfile``/``zlib``/NumPy error from deep inside a consumer.

Bundles written with ``compressed=False`` store their members raw
(``ZIP_STORED``, array data 64-byte aligned), which makes them
**memory-mappable**:
``load_arrays(path, mmap_mode="r")`` resolves each member's absolute data
offset inside the zip container and hands back ``np.memmap`` views, so N
serving worker processes opening the same artifact file share one
page-cache copy of the read-only tensors instead of N private heap
copies.  Compressed members (and 0-d/empty arrays, which cannot be
mapped) silently fall back to an eager in-heap load;
:func:`is_memory_mapped` reports which mode an array actually got.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Union

import numpy as np

from repro.reliability.errors import ArtifactIntegrityError
from repro.reliability.faults import corrupt_bytes as _corrupt_bytes
from repro.reliability.faults import fire as _fire
from repro.reliability.faults import get_injector as _get_injector

PathLike = Union[str, Path]

#: Keys with this prefix inside an ``.npz`` bundle carry the SHA-256 digest
#: of the same-named tensor (stored via :func:`pack_scalar`).
DIGEST_PREFIX = "digest."


@contextmanager
def atomic_write(path: PathLike, mode: str = "wb",
                 encoding: Optional[str] = None) -> Iterator:
    """Write ``path`` atomically: temp file in-directory, fsync, ``os.replace``.

    The yielded handle writes to a temporary sibling of ``path``; on clean
    exit the data is flushed, fsynced and renamed over the destination in
    one step, so a crash at any point leaves either the previous file or
    the new one — never a truncated hybrid.  On error the temp file is
    removed and the destination is untouched.

    Fault-injection sites: ``io.atomic_write`` corrupts the staged bytes
    before publication (exercising digest verification on a file that
    *was* atomically renamed), and ``io.atomic_replace`` fires immediately
    before ``os.replace`` (a raise there simulates a crash mid-publish).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        if _get_injector() is not None:
            staged = tmp.read_bytes()
            corrupted = _corrupt_bytes("io.atomic_write", staged)
            if corrupted != staged:
                tmp.write_bytes(corrupted)
        _fire("io.atomic_replace")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    try:  # make the rename itself durable where the platform allows
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def array_digest(array: np.ndarray) -> str:
    """SHA-256 hex digest of an array's dtype, shape and raw bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode("utf-8"))
    digest.update(repr(tuple(array.shape)).encode("utf-8"))
    digest.update(array.tobytes())
    return digest.hexdigest()


def save_arrays(path: PathLike, arrays: Mapping[str, np.ndarray], *,
                digests: bool = False, compressed: bool = True) -> Path:
    """Save a mapping of named arrays to an ``.npz`` file.

    With ``digests=True`` a ``digest.<name>`` SHA-256 entry is embedded per
    tensor, letting :func:`load_arrays` (with ``digests="require"``) detect
    bit-flips that survive the zip container's own CRC.

    ``compressed=False`` stores members raw (``ZIP_STORED``), trading disk
    size for a bundle whose tensors :func:`load_arrays` can memory-map —
    the layout the multi-process serving tier wants, so worker processes
    share one page-cache copy of the artifact.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    payload = {key: np.asarray(value) for key, value in arrays.items()}
    for key in list(payload):
        if key.startswith(DIGEST_PREFIX):
            raise ValueError(
                f"array name {key!r} collides with the reserved digest "
                f"prefix {DIGEST_PREFIX!r}")
    if digests:
        for key in list(payload):
            payload[DIGEST_PREFIX + key] = pack_scalar(
                array_digest(payload[key]))
    with atomic_write(path, "wb") as handle:
        if compressed:
            np.savez_compressed(handle, **payload)
        else:
            _savez_aligned(handle, payload)
    return path


#: Raw members' array data starts on this byte boundary (the ``.npy``
#: format's own header alignment).  ``np.savez`` leaves it wherever the
#: zip headers end, and an array mapped there is not even 8-byte aligned:
#: NumPy then runs ``matmul`` in its own loops instead of BLAS, slower
#: and not bitwise the heap result.
_MEMBER_ALIGN = 64
#: Zip extra-field id of the alignment padding (as used by ``zipalign``).
_ALIGN_EXTRA_ID = 0xD935
#: ``zipfile`` appends a 20-byte zip64 extra field to every local header
#: it writes with ``force_zip64=True``.
_ZIP64_EXTRA_LEN = 20


def _savez_aligned(handle, payload: Mapping[str, np.ndarray]) -> None:
    """``np.savez`` with every member's array data 64-byte aligned.

    Each local header gets a padding extra field sized so that header,
    padding and ``.npy`` header (a multiple of 64 bytes) end on a
    :data:`_MEMBER_ALIGN` boundary.  Any zip reader ignores the padding.
    """
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for key, value in payload.items():
            info = zipfile.ZipInfo(key + ".npy")
            header_end = (handle.tell() + 30 + len(info.filename.encode())
                          + _ZIP64_EXTRA_LEN)
            pad = -header_end % _MEMBER_ALIGN
            if pad < 4:  # an extra field is at least its 4-byte header
                pad += _MEMBER_ALIGN
            info.extra = (_ALIGN_EXTRA_ID.to_bytes(2, "little")
                          + (pad - 4).to_bytes(2, "little") + bytes(pad - 4))
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, value,
                                          allow_pickle=False)


def is_memory_mapped(array: np.ndarray) -> bool:
    """Whether ``array`` reads its data from a file mapping (zero-heap-copy).

    Walks the view chain, so int64 views of a mapped CSR and frozen
    pass-throughs of :func:`load_arrays(..., mmap_mode="r")` entries report
    ``True`` just like the raw ``np.memmap`` they alias.
    """
    base = array
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = getattr(base, "base", None)
    return False


def _mmap_npz_members(path: Path, mmap_mode: str) -> Dict[str, np.ndarray]:
    """Memory-map every mappable member of an ``.npz`` bundle.

    A member is mappable when it is stored raw (``ZIP_STORED``), carries a
    format-1.0/2.0 ``.npy`` header, has a non-object dtype and a non-empty
    ``ndim >= 1`` shape.  Non-mappable members are simply absent from the
    returned mapping; the caller loads them eagerly.
    """
    entries: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        infos = list(archive.infolist())
    with open(path, "rb") as handle:
        for info in infos:
            if info.compress_type != zipfile.ZIP_STORED:
                continue
            # Absolute data offset = local header offset + fixed 30-byte
            # local header + name + extra (the *local* lengths, which may
            # differ from the central directory's).
            handle.seek(info.header_offset)
            local = handle.read(30)
            if len(local) != 30 or local[:4] != b"PK\x03\x04":
                raise ArtifactIntegrityError(
                    f"corrupt or unreadable array bundle {path}: bad local "
                    f"zip header for member {info.filename!r}")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            try:
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = \
                        np.lib.format.read_array_header_2_0(handle)
                else:
                    continue
            except ValueError:
                continue
            if dtype.hasobject or 0 in shape or shape == ():
                continue
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            entries[name] = np.memmap(
                path, dtype=dtype, mode=mmap_mode, offset=handle.tell(),
                shape=shape, order="F" if fortran else "C")
    return entries


def load_arrays(path: PathLike, *, digests: str = "auto",
                mmap_mode: Optional[str] = None) -> Dict[str, np.ndarray]:
    """Load a mapping of named arrays previously written by :func:`save_arrays`.

    ``digests`` controls integrity verification:

    - ``"auto"`` (default): verify whatever ``digest.*`` entries are
      present — legacy bundles without digests still load.
    - ``"require"``: additionally demand that *every* tensor is covered by
      a digest; undigested bundles are rejected.
    - ``"skip"``: no verification (digest entries are still stripped).

    ``mmap_mode="r"`` (or ``"c"``, copy-on-write) memory-maps every member
    a bundle written with ``compressed=False`` can serve as an
    ``np.memmap`` — the read path of the multi-process serving tier, where
    N workers opening the same file share one OS page-cache copy.
    Compressed or 0-d/empty members fall back to an eager load; digest
    verification still runs (a sequential read through the shared map).

    Truncated or bit-flipped files, digest mismatches and missing required
    digests all raise :class:`ArtifactIntegrityError`; the underlying
    ``zipfile``/``zlib``/NumPy errors never escape.
    """
    if digests not in ("auto", "require", "skip"):
        raise ValueError(
            f'digests must be "auto", "require" or "skip", got {digests!r}')
    if mmap_mode not in (None, "r", "c"):
        raise ValueError(
            f'mmap_mode must be None, "r" or "c", got {mmap_mode!r}')
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such array file: {path}")
    try:
        mapped = ({} if mmap_mode is None
                  else _mmap_npz_members(path, mmap_mode))
        with np.load(path, allow_pickle=False) as data:
            loaded = dict(mapped)
            for key in data.files:
                if key not in loaded:
                    loaded[key] = data[key].copy()
    except (zipfile.BadZipFile, zlib.error, ValueError, EOFError,
            KeyError, OSError) as exc:
        raise ArtifactIntegrityError(
            f"corrupt or unreadable array bundle {path}: "
            f"{type(exc).__name__}: {exc}") from exc
    arrays = {key: value for key, value in loaded.items()
              if not key.startswith(DIGEST_PREFIX)}
    if digests == "skip":
        return arrays
    for key, value in arrays.items():
        digest_entry = loaded.get(DIGEST_PREFIX + key)
        if digest_entry is None:
            if digests == "require":
                raise ArtifactIntegrityError(
                    f"array bundle {path} has no integrity digest for "
                    f"{key!r} (digests='require')")
            continue
        try:
            expected = unpack_scalar(digest_entry)
        except (TypeError, ValueError) as exc:
            raise ArtifactIntegrityError(
                f"array bundle {path} has an unreadable digest entry for "
                f"{key!r}") from exc
        actual = array_digest(value)
        if actual != expected:
            raise ArtifactIntegrityError(
                f"array bundle {path} failed integrity verification: "
                f"tensor {key!r} digest {actual[:12]}… does not match the "
                f"recorded {str(expected)[:12]}…")
    return arrays


def pack_scalar(value) -> np.ndarray:
    """Encode a python scalar (str/bool/int/float) as a 0-d pickle-free array.

    Lets scalar metadata ride inside the ``.npz`` bundles written by
    :func:`save_arrays` (which load with ``allow_pickle=False``); decode
    with :func:`unpack_scalar`.
    """
    if isinstance(value, str):
        return np.asarray(value)
    if isinstance(value, (bool, np.bool_)):
        return np.asarray(bool(value))
    if isinstance(value, (int, np.integer)):
        return np.asarray(int(value), dtype=np.int64)
    if isinstance(value, (float, np.floating)):
        return np.asarray(float(value), dtype=np.float64)
    raise TypeError(f"cannot pack scalar of type {type(value).__name__}")


def unpack_scalar(array: np.ndarray):
    """Decode a scalar previously encoded with :func:`pack_scalar`."""
    array = np.asarray(array)
    if array.shape != ():
        raise ValueError(f"expected a 0-d scalar array, got shape {array.shape}")
    value = array.item()
    if isinstance(value, bytes):  # round-trip through a byte-string dtype
        return value.decode("utf-8")
    return value


def save_json(path: PathLike, payload: Mapping) -> Path:
    """Atomically write a JSON document, creating parent directories."""
    path = Path(path)
    with atomic_write(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonify(payload), handle, indent=2, sort_keys=True)
    return path


def load_json(path: PathLike) -> dict:
    """Read a JSON document written by :func:`save_json`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such json file: {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _jsonify(value):
    """Recursively convert NumPy scalars/arrays into plain Python types."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
