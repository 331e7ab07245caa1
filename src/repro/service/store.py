"""Worker-local read-through store: private first, shared fallback.

The parallel scale-out problem with one shared :class:`ArtifactStore` is
write traffic: N workers compiling concurrently all want to persist
compiled models, capacity models, and episodes, and although the store's
atomic writes make races *safe*, they still serialize on the same files
and directories.  The service splits the roles instead:

- every pool worker gets a :class:`ReadThroughStore` — a private
  worker-local :class:`ArtifactStore` consulted first, with the shared
  store as read-only fallback (shared hits are filled into the private
  store as raw envelope bytes so the next read is local);
- workers only ever **write** to their private store;
- the daemon process is the single shared-store writer: it publishes a
  worker's result into the shared store by copying the already-pickled
  envelope bytes (:meth:`ArtifactStore.publish_bytes`) — no re-pickle, no
  write contention.
"""

from __future__ import annotations

import pickle
from typing import Any, List, Mapping, Optional, Sequence

from repro.core.store import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactStore,
    StoreStats,
    _deep_recursion,
    canonical_key,
)


def unpickle_envelope(blob: bytes, key: Mapping[str, Any], schema: int) -> Any:
    """Decode an :class:`ArtifactStore` envelope, validating key + schema.

    The daemon uses this to materialize a worker's published bytes without
    a second disk round trip; validation mirrors ``ArtifactStore.load`` so
    a mismatched envelope fails loudly instead of serving a wrong artifact.
    """
    with _deep_recursion():
        envelope = pickle.loads(blob)
    if (
        not isinstance(envelope, dict)
        or envelope.get("schema") != schema
        or envelope.get("key") != canonical_key(key)
    ):
        raise ValueError("artifact envelope does not match the requested key/schema")
    return envelope["value"]


class ReadThroughStore:
    """Two-level artifact store for service pool workers.

    Implements the subset of the :class:`ArtifactStore` interface that
    :func:`~repro.core.store.read_through`, the sweep runner and the compile
    pool consume (``load`` / ``load_many`` / ``save`` / ``contains`` /
    ``path_for`` / ``stats``), so a worker can install it with
    :func:`repro.core.store.swap_store` and every persisted artifact in the
    process transparently becomes two-level.
    """

    def __init__(self, private_root, shared_root, *,
                 schema: int = ARTIFACT_SCHEMA_VERSION) -> None:
        self.private = ArtifactStore(private_root, schema=schema)
        self.shared = ArtifactStore(shared_root, schema=schema)
        self.schema = schema
        #: Facade-level traffic: a hit from either level counts once.
        self.stats = StoreStats()

    # ----------------------------------------------------------- addressing
    def path_for(self, key: Mapping[str, Any]):
        return self.private.path_for(key)

    def contains(self, key: Mapping[str, Any]) -> bool:
        return self.private.contains(key) or self.shared.contains(key)

    # ------------------------------------------------------------- load/save
    def load(self, key: Mapping[str, Any]) -> Optional[Any]:
        value = self.private.load(key)
        if value is not None:
            self.stats.hits += 1
            return value
        value = self.shared.load(key)
        if value is not None:
            self.stats.hits += 1
            self._fill_private(key)
            return value
        self.stats.misses += 1
        return None

    def load_many(self, keys: Sequence[Mapping[str, Any]]) -> List[Optional[Any]]:
        return [self.load(key) for key in keys]

    def save(self, key: Mapping[str, Any], value: Any):
        """Persist into the *private* store only (contention-free)."""
        path = self.private.save(key, value)
        self.stats.stores += 1
        return path

    def _fill_private(self, key: Mapping[str, Any]) -> None:
        """Copy a shared hit's envelope bytes into the private store.

        Byte copy, not re-pickle: envelopes embed only schema + key + value,
        never the store root, so they are portable between roots.  The fill
        is an optimization — if the shared entry vanished (e.g. a racing
        quarantine) the next read simply falls through to shared again.
        """
        try:
            blob = self.shared.path_for(key).read_bytes()
        except OSError:
            return
        self.private.publish_bytes(key, blob)
