"""Per-thread reusable work arrays for hot training kernels.

A fused training step builds several megabytes of float64 intermediates
(gathered embedding rows, facet stacks, their gradients).  Allocating them
afresh every step costs more than the arithmetic: the allocator returns
the memory to the OS when the step ends and the next step faults it back
in page by page.  A :class:`Workspace` keeps those arrays alive between
steps instead, keyed by name and grown on demand.

Lifetime is explicit and per thread.  :func:`workspace_scope` binds a
fresh workspace to the calling thread for the duration of a block (the
training runtime wraps each ``TrainingLoop.run`` and each shard sub-epoch
in one); :func:`work_array` hands out its arrays inside such a block and
plain ``np.empty`` allocations outside it.  Nothing is shared between
threads, so concurrent shard threads never race on a work array, and
nothing outlives the outermost scope.

A kernel using work arrays must copy anything it returns: the next call
on the same thread overwrites them.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

_bound = threading.local()


class Workspace:
    """Named float64 work arrays, grown on demand and reused across calls."""

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def array(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """An uninitialised C-contiguous ``shape`` view of work array ``name``.

        The backing array only grows, so a smaller request (the short last
        batch of an epoch) reuses it without reallocating.
        """
        size = math.prod(shape)
        flat = self._arrays.get(name)
        if flat is None or flat.size < size:
            flat = self._arrays[name] = np.empty(size, dtype=np.float64)
        return flat[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes held by the workspace's backing arrays."""
        return sum(flat.nbytes for flat in self._arrays.values())


@contextmanager
def workspace_scope() -> Iterator[Workspace]:
    """Bind a :class:`Workspace` to the calling thread for the block.

    Nested scopes on the same thread share the outermost workspace, which
    is dropped when that scope exits.
    """
    workspace = getattr(_bound, "workspace", None)
    if workspace is not None:
        yield workspace
        return
    workspace = _bound.workspace = Workspace()
    try:
        yield workspace
    finally:
        _bound.workspace = None


def current_workspace() -> Optional[Workspace]:
    """The workspace bound to the calling thread, or ``None`` outside a scope."""
    return getattr(_bound, "workspace", None)


def work_array(name: str, shape: Tuple[int, ...]) -> np.ndarray:
    """A float64 work array: reused inside a scope, freshly allocated outside."""
    workspace = getattr(_bound, "workspace", None)
    if workspace is None:
        return np.empty(shape, dtype=np.float64)
    return workspace.array(name, shape)
