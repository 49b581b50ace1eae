"""Reusable numpy buffer pool for the Monte Carlo hot path.

Large temporaries are the dominant cost on hosts where page faults are
expensive (VM sandboxes, memory-bandwidth-bound machines): allocating a
fresh multi-megabyte array per ufunc call faults in every page on first
touch.  A Workspace hands out named buffers that keep their pages alive
across chunks, so steady-state chunk processing performs no large
allocations at all.  A chunk task's workspace holds four buffers, each one
row tile high (see `norms._tile_rows`) whatever the chunk size: the drawn
noise tile ``eps`` and the norm scratch ``norms.scaled``, ``norms.chain`` and
``norms.log``, at most 512 KiB each up to d = 65536 and one row of d doubles
above.

Workspaces are not thread-safe and are never shared across threads: chunk
tasks take the calling thread's workspace from `thread_workspace()`.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Workspace", "thread_workspace"]


class Workspace:
    """Named buffer pool; a buffer is reallocated only when its trailing
    shape changes or it has too few rows."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def buf(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous float64 buffer of ``shape``: the leading rows of the
        stored buffer of that name when it has the same trailing shape and at
        least ``shape[0]`` rows, so short chunks and tiles reuse its pages."""
        arr = self._arrays.get(name)
        if arr is None or arr.shape[1:] != shape[1:] or arr.shape[0] < shape[0]:
            arr = np.empty(shape, dtype=np.float64)
            self._arrays[name] = arr
        return arr[: shape[0]]


_THREAD_LOCAL = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's workspace for chunk tasks.

    A thread runs its chunks one after another, so one workspace per thread
    is safe and gives steady-state reuse.  It lives as long as its thread:
    the main thread keeps its buffers across serial runs, and the threads of
    a `run_chunked` pool free theirs when the pool shuts down.
    """
    ws = getattr(_THREAD_LOCAL, "workspace", None)
    if ws is None:
        ws = _THREAD_LOCAL.workspace = Workspace()
    return ws
