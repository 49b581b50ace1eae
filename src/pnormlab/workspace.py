"""Reusable numpy buffer pool for the Monte Carlo hot path.

Large temporaries are the dominant cost on hosts where page faults are
expensive (VM sandboxes, memory-bandwidth-bound machines): allocating a
fresh multi-megabyte array per ufunc call faults in every page on first
touch.  A Workspace hands out named buffers that keep their pages alive
across chunks, so steady-state chunk processing performs no large
allocations at all.

Workspaces are not thread-safe and are never shared across threads: chunk
tasks take the calling thread's workspace from `thread_workspace()`.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Workspace", "thread_workspace"]


class Workspace:
    """Named buffer pool; a buffer is reallocated only when its shape grows
    or changes."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def buf(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape:
            arr = np.empty(shape, dtype=np.float64)
            self._arrays[name] = arr
        return arr


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
