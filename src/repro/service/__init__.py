"""Plan-compilation service: the cloud-side component of FlashMem.

The paper's plans are offline, reusable deployment artifacts; a vendor
shipping FlashMem to millions of phones runs the compile pipeline
(adaptive fusion + LC-OPG) as a fleet service, not per device.  This
package is that service:

- :mod:`repro.service.request` — :class:`CompileRequest`, the
  (model, device, config) unit of work, normalized and
  content-addressed against the shared :class:`~repro.core.store.ArtifactStore`;
- :mod:`repro.service.pool` — :class:`CompilePool`, the persistent
  pre-warmed process pool compilation fans out over; its workers save
  compiled models into the shared store;
- :mod:`repro.service.daemon` — :class:`PlanCompilationService`, the async
  queue → dedup → batched store lookup → pool → load dataflow;
- :mod:`repro.service.server` — the unix-socket JSON-lines front end behind
  ``repro serve`` and the matching :class:`ServiceClient`.
"""

from repro.service.daemon import (
    PlanCompilationService,
    ServiceClosed,
    ServiceError,
    ServiceReply,
    ServiceStats,
    compile_many,
)
from repro.service.pool import CompilePool
from repro.service.request import CompileRequest, execute_compile

__all__ = [
    "CompilePool",
    "CompileRequest",
    "PlanCompilationService",
    "ServiceClosed",
    "ServiceError",
    "ServiceReply",
    "ServiceStats",
    "compile_many",
    "execute_compile",
]
