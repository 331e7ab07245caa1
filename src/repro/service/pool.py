"""Persistent pre-warmed pool the plan-compilation service fans out over.

Two execution modes:

- ``workers >= 1`` — a process pool started by
  :func:`repro.sweep.runner.start_pool`, like every other fan-out in the
  package: process spawn, module imports, recursion headroom and the store
  are paid at ``prewarm()`` time, before the first request reaches the
  pool, so the served request path carries compile work only.  Every
  worker reads and writes the service's one shared
  :class:`~repro.core.store.ArtifactStore`;
- ``workers == 0`` — an in-process single-thread executor, the test/debug
  seam: compiles run inside the daemon process, so tests can monkeypatch
  the solver and count invocations directly.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.core.store import ArtifactStore, active_store, swap_store
from repro.sweep.runner import PathLike, raise_recursion_limit, start_pool

#: Marker for "inline mode never swapped the store" (None is a valid store).
_UNSET = object()


def compile_request_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one compile request in this process (pool worker or inline).

    Returns a small reply dict.  With a store, the compiled model is saved
    there (``path`` names the entry) and the daemon loads it from the
    store; the heavyweight :class:`~repro.core.flashmem.CompiledModel` is
    pickled straight through the pool (``value``) only when there is none.
    """
    from repro.service.request import CompileRequest, execute_compile

    start = time.perf_counter()
    request = CompileRequest.from_payload(payload).normalized()
    key = request.store_key()
    store = active_store()
    reply: Dict[str, Any] = {"pid": os.getpid(), "path": None, "value": None}
    if store is None:
        reply.update(source="compiled", value=execute_compile(request))
    elif store.contains(key):
        # Rare but real: the artifact landed (another worker's compile, or a
        # pre-existing cache) between the daemon's lookup and this job.
        reply.update(source="worker-store", path=str(store.path_for(key)))
    else:
        path = store.save(key, execute_compile(request))
        reply.update(source="compiled", path=str(path))
    reply["wall_s"] = time.perf_counter() - start
    return reply


class CompilePool:
    """Pre-warmed executor for compile requests; a context manager so the
    pool (and, in inline mode, the borrowed global store slot) is released
    on exception paths too."""

    def __init__(self, *, workers: int = 1,
                 cache_dir: Optional[PathLike] = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = inline mode)")
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._pool = None
        self._prev_store: Any = _UNSET

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "CompilePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def prewarm(self, *, barrier_s: float = 0.05) -> None:
        """Spawn and initialize every worker now; idempotent."""
        if self._pool is not None:
            return
        raise_recursion_limit()  # daemon side unpickles pool results
        if self.workers == 0:
            # Inline mode scopes the process-global store to the pool's
            # lifetime (restored by close()): compiles must see exactly the
            # service's store, not whatever the host process had installed.
            store = ArtifactStore(self.cache_dir) if self.cache_dir is not None else None
            self._prev_store = swap_store(store)
            self._pool = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="compile-inline")
            return
        self._pool = start_pool(self.workers, self.cache_dir, barrier_s=barrier_s)

    def submit(self, payload: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        """Dispatch one request payload; prewarms lazily if needed."""
        if self._pool is None:
            self.prewarm()
        return self._pool.submit(compile_request_job, payload)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._prev_store is not _UNSET:
            swap_store(self._prev_store)
            self._prev_store = _UNSET
