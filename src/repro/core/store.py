"""Artifact store: persist and reuse offline compilation products on disk.

The paper emphasises that LC-OPG runs *offline* and its plans are reusable
deployment artifacts ("generating a reusable overlap plan that incurs no
runtime overhead").  :class:`ArtifactStore` is the content-addressed store
behind the experiment pipeline.  It persists arbitrary pickled artifacts
(compiled models, run results, trained capacity models, rendered driver
outputs) keyed by a structured key dict; the path is derived from a digest
of the key plus the :func:`code_fingerprint` of the ``repro`` source, so an
edit to any module or any key change addresses a fresh entry.  Writes are
atomic (unique tmp file + ``os.replace``) so racing writers can never tear
an entry, and unreadable entries are quarantined to a ``.corrupt`` sibling
instead of being silently re-missed forever.

A process has one active store (:func:`swap_store` installs it,
:func:`active_store` reads it), and every persisted artifact goes through
:func:`read_through`.  Pool workers install a store over the same root as
the process that started them (:func:`repro.sweep.runner.start_pool`), so
there is one store, which every process reads and writes; the atomic
writes make concurrent writers safe.  This module imports nothing else
from ``repro``, so every layer can use the slot without importing the
layers that set it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import pathlib
import pickle
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

#: The package whose source addresses every artifact.
_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent


def source_fingerprint(root) -> str:
    """sha256 over the sorted relative paths and bytes of ``root/**/*.py``."""
    root = pathlib.Path(root)
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """:func:`source_fingerprint` of this ``repro`` package, once per process.

    Every store address and envelope carries it, so a cached artifact never
    outlives the code that produced it: any source edit, including one that
    changes a pickled type's shape, addresses fresh entries.  Computed on
    first store use rather than at import (hashing the package takes a few
    milliseconds).
    """
    return source_fingerprint(_PACKAGE_ROOT)


def _canonical_default(value):
    """JSON fallback for key/fingerprint payloads: sets become sorted lists."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"unfingerprintable value of type {type(value).__name__}: {value!r}")


def canonical_key(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Round-trip a key through canonical JSON (sorted, sets normalised)."""
    return json.loads(json.dumps(payload, sort_keys=True, default=_canonical_default))


def stable_fingerprint(payload: Mapping[str, Any]) -> str:
    """Stable short hash of a JSON-able payload."""
    blob = json.dumps(payload, sort_keys=True, default=_canonical_default).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def flashmem_config_fingerprint(config) -> str:
    """Stable short hash of a full :class:`FlashMemConfig` (OPG included)."""
    return stable_fingerprint(asdict(config))


def _sanitize(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in text)


@contextlib.contextmanager
def _deep_recursion(limit: int = 20_000):
    """Temporarily raise the recursion limit for (un)pickling.

    Compiled-model graphs are node chains thousands of links deep (a
    GPTN-2.7B ``CompiledModel`` needs ~2.1k frames), and the stock limit of
    1000 is largely consumed already when saving from inside a driver under
    pytest.  20k frames is ~10x the deepest evaluated model and far below
    C-stack danger territory.
    """
    old = sys.getrecursionlimit()
    if old < limit:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _atomic_write_bytes(path: pathlib.Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via a writer-unique tmp file + rename.

    ``os.replace`` is atomic on POSIX, so concurrent writers of the same
    entry race benignly: both succeed, the last rename wins, and a reader
    never observes a torn file.  The pid-tagged tmp name keeps two
    processes from clobbering each other's half-written temporaries.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def _quarantine_artifact(path: pathlib.Path, reason: str) -> pathlib.Path:
    """Move an unreadable artifact to a ``.corrupt`` sibling and warn."""
    dest = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, dest)
    except OSError:  # racing reader already quarantined it
        pass
    warnings.warn(
        f"ArtifactStore: quarantined corrupt artifact {path.name} -> {dest.name} ({reason}); "
        "it will be re-solved and re-saved once",
        RuntimeWarning,
        stacklevel=3,
    )
    return dest


@dataclass
class StoreStats:
    """Hit/miss accounting for one store instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt}

    def delta_since(self, before: Mapping[str, int]) -> Dict[str, int]:
        now = self.snapshot()
        return {k: now[k] - before.get(k, 0) for k in now}


class ArtifactStore:
    """Content-addressed store of pickled experiment artifacts.

    Keys are flat dicts that must include ``"kind"`` (the artifact family —
    e.g. ``"flashmem-run"``); remaining fields identify the cell, typically
    (model, device, config fingerprint).  ``schema`` (default: the
    :func:`code_fingerprint`) participates in the digest, so a source edit
    invalidates every old entry at once.

    ``load`` verifies that the stored envelope echoes the requested key and
    schema; any unreadable or mismatched entry is quarantined to a
    ``.corrupt`` sibling (visible, re-solved once) rather than treated as a
    permanent silent miss.  Storing ``None`` is indistinguishable from a
    miss — encode absent results with a sentinel value instead.
    """

    def __init__(self, root, *, schema: Optional[str] = None) -> None:
        self.root = pathlib.Path(root)
        self.schema = code_fingerprint() if schema is None else schema
        self.stats = StoreStats()
        self.root.mkdir(parents=True, exist_ok=True)

    # ----------------------------------------------------------- addressing
    def path_for(self, key: Mapping[str, Any]) -> pathlib.Path:
        kind = key["kind"]
        digest = stable_fingerprint({"schema": self.schema, **canonical_key(key)})
        label = "__".join(
            _sanitize(str(v)) for k, v in sorted(key.items())
            if k != "kind" and isinstance(v, str)
        )
        name = f"{label[:80]}__{digest}.pkl" if label else f"{digest}.pkl"
        return self.root / _sanitize(str(kind)) / name

    def contains(self, key: Mapping[str, Any]) -> bool:
        return self.path_for(key).exists()

    # ------------------------------------------------------------- load/save
    def load(self, key: Mapping[str, Any]) -> Optional[Any]:
        """Return the stored artifact, or None on miss/quarantine."""
        with _deep_recursion():
            return self._load_one(key)

    def load_many(self, keys: Sequence[Mapping[str, Any]]) -> List[Optional[Any]]:
        """Batched :meth:`load`: one value (or None) per key, in order.

        The batch shares a single recursion-limit bump instead of paying the
        ``sys.setrecursionlimit`` round trip per entry; misses cost only a
        ``path.exists`` check (no envelope is opened), which is what makes
        this the right primitive for a dedup pass over many candidate keys —
        see :mod:`repro.service.daemon`.  Use :meth:`contains` when only
        existence matters and the value is not needed at all.
        """
        with _deep_recursion():
            return [self._load_one(key) for key in keys]

    def _load_one(self, key: Mapping[str, Any]) -> Optional[Any]:
        """One load, assuming the caller already holds ``_deep_recursion``."""
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            return None
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (
                not isinstance(envelope, dict)
                or envelope.get("schema") != self.schema
                or envelope.get("key") != canonical_key(key)
            ):
                raise ValueError("artifact key/schema does not match its address")
        except Exception as exc:  # pickle/EOF/attribute errors, bad envelope
            self.stats.misses += 1
            self.stats.corrupt += 1
            _quarantine_artifact(path, f"{type(exc).__name__}: {exc}")
            return None
        self.stats.hits += 1
        return envelope["value"]

    def save(self, key: Mapping[str, Any], value: Any) -> pathlib.Path:
        """Atomically persist ``value`` under ``key``; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"schema": self.schema, "key": canonical_key(key), "value": value}
        with _deep_recursion():
            blob = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write_bytes(path, blob)
        self.stats.stores += 1
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))


#: The process's persistent store, or None (in-process caching only).
_ACTIVE: Optional[ArtifactStore] = None


def active_store() -> Optional[ArtifactStore]:
    """The store :func:`read_through` persists to, or None when disabled."""
    return _ACTIVE


def swap_store(store: Optional[ArtifactStore]) -> Optional[ArtifactStore]:
    """Install ``store`` (None disables persistence); returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, store
    return previous


def read_through(key: Mapping[str, Any], compute: Callable[[], Any]) -> Any:
    """The value stored under ``key``, else ``compute()`` saved under ``key``.

    With no active store ``compute`` runs on every call.  A stored None
    reads as a miss, so ``compute`` must not return None (store a sentinel).
    """
    store = _ACTIVE
    if store is not None:
        value = store.load(key)
        if value is not None:
            return value
    value = compute()
    if store is not None:
        store.save(key, value)
    return value
