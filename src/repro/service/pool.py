"""Persistent pre-warmed pool the plan-compilation service fans out over.

Reuses the PR-6 sweep pre-warm machinery
(:func:`repro.sweep.runner.prewarm_executor`): process spawn, module
imports, recursion headroom, and store initialization are all paid at
``prewarm()`` time, before the first request hits the pool, so the served
request path carries compile work only.

Two execution modes:

- ``workers >= 1`` — a :class:`ProcessPoolExecutor` whose workers each
  initialize a worker-local :class:`~repro.service.store.ReadThroughStore`
  (private first, shared fallback, private-only writes);
- ``workers == 0`` — an in-process single-thread executor, the test/debug
  seam: compiles run inside the daemon process, so tests can monkeypatch
  the solver and count invocations directly.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.core.store import ArtifactStore, active_store, swap_store
from repro.sweep.runner import PathLike, prewarm_executor

#: Compiled-model graphs are node chains thousands of frames deep; the pool
#: pickles them outside any ``_deep_recursion`` scope (result marshalling
#: happens in executor machinery), so both sides raise the limit up front.
RECURSION_LIMIT = 20_000

#: Marker for "inline mode never swapped the store" (None is a valid store).
_UNSET = object()

#: Subdirectory of the shared cache root holding per-worker private stores.
WORKER_LOCAL_DIR = "worker-local"


def raise_recursion_limit(limit: int = RECURSION_LIMIT) -> None:
    """Idempotently grow the interpreter recursion limit to ``limit``."""
    if sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)


def worker_init(shared_dir: Optional[str]) -> None:
    """Pool-worker pre-warm: imports, recursion headroom, read-through store.

    Installs a :class:`~repro.service.store.ReadThroughStore` over
    ``<shared_dir>/worker-local/<pid>`` when ``shared_dir`` is given.  The
    compile pool and the fleet replay pool both run it once per worker
    under ``prewarm_executor``'s barrier, so none of this cost lands on the
    served or timed work.
    """
    raise_recursion_limit()
    from repro.experiments import common  # noqa: F401 — import cost is the point
    from repro.gpusim import pricing  # noqa: F401

    if shared_dir is not None:
        from repro.service.store import ReadThroughStore

        private = os.path.join(shared_dir, WORKER_LOCAL_DIR, str(os.getpid()))
        swap_store(ReadThroughStore(private, shared_dir))


def compile_request_job(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one compile request in this process (pool worker or inline).

    Returns a small reply dict; the heavyweight
    :class:`~repro.core.flashmem.CompiledModel` travels via the worker-local
    store when one is configured (``path`` names the private entry whose
    bytes the daemon publishes), and is pickled straight through the pool
    only in the store-less configuration (``value``).
    """
    from repro.service.request import CompileRequest, execute_compile

    start = time.perf_counter()
    request = CompileRequest.from_payload(payload).normalized()
    key = request.store_key()
    store = active_store()
    reply: Dict[str, Any] = {"pid": os.getpid(), "path": None, "value": None}
    if store is not None:
        cached = store.load(key)
        if cached is not None:
            # Rare but real: the artifact landed (another worker's publish,
            # or a pre-existing cache) between dispatch and execution.
            reply.update(source="worker-store", path=str(store.path_for(key)),
                         wall_s=time.perf_counter() - start)
            return reply
    compiled = execute_compile(request)
    if store is not None:
        reply["path"] = str(store.save(key, compiled))
    else:
        reply["value"] = compiled
    reply.update(source="compiled", wall_s=time.perf_counter() - start)
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
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=worker_init,
            initargs=(self.cache_dir,),
        )
        prewarm_executor(self._pool, self.workers, barrier_s)

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
