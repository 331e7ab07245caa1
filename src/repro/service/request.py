"""Compile requests: the unit of work the plan-compilation service accepts.

A request names a model, a device, and the config axes a fleet controller
would vary (memory/latency priority λ, the Figure-8 preload override, the
decode-phase prompt length and the capacity backend).  The LC-OPG solver
budget is not one of them: it is the standard experiment configuration's
node budget, so a request's plan does not depend on the serving machine's
speed.  Requests normalize to canonical device names and address the same
content-addressed ``"compiled"`` artifacts the experiment pipeline stores,
so a service running default settings reuses — and feeds — the experiment
cache.  A payload with a key the protocol does not define is rejected, not
silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from repro.core.config import FlashMemConfig
from repro.core.store import stable_fingerprint
from repro.gpusim.device import get_device


def check_preload_ratio(ratio: float) -> float:
    """``ratio``, if it is a preload fraction in [0, 1] (NaN is not)."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"target_preload_ratio must be in [0, 1], got {ratio}")
    return ratio


@dataclass(frozen=True, order=True)
class CompileRequest:
    """One (model, device, config) compilation request.

    Frozen and orderable so requests can key dedup maps and sort
    deterministically in reports.  ``normalized()`` must be applied before
    keying: it resolves device aliases ("oneplus12" → "OnePlus 12") so two
    spellings of the same request coalesce.
    """

    model: str
    device: str = "OnePlus 12"
    #: Memory/latency priority λ override; None keeps the configured default.
    lam: Optional[float] = None
    #: Prompt length for decode-phase graphs; 0 = prefill graph.
    context_len: int = 0
    #: Preload-fraction override (the Figure 8 trade-off knob).
    target_preload_ratio: Optional[float] = None
    #: Capacity-model backend: "analytic" (cost-model inverse) or "gbt"
    #: (the paper's profiled regressor, store-cached per device).
    capacity_backend: str = "analytic"

    def __post_init__(self) -> None:
        if self.context_len < 0:
            raise ValueError("context_len must be >= 0")
        # The solver would clamp an out-of-range ratio, but the store key
        # keeps it: one plan would live under two addresses.
        if self.target_preload_ratio is not None:
            check_preload_ratio(self.target_preload_ratio)
        if self.capacity_backend not in ("analytic", "gbt"):
            raise ValueError(f"unknown capacity backend {self.capacity_backend!r}")

    # --------------------------------------------------------- normalization
    def normalized(self) -> "CompileRequest":
        """Resolve the device alias to its canonical preset name."""
        canonical = get_device(self.device).name
        if canonical == self.device:
            return self
        return replace(self, device=canonical)

    def label(self) -> str:
        suffix = f"@ctx{self.context_len}" if self.context_len else ""
        return f"{self.model}@{self.device}{suffix}"

    # ------------------------------------------------------------ addressing
    def flashmem_config(self) -> FlashMemConfig:
        """The pipeline configuration this request compiles under.

        Built from the standard experiment configuration with the request's
        config axes applied, so a default request's config fingerprint — and
        therefore its artifact address — is identical to the experiment
        pipeline's.
        """
        from repro.experiments.common import experiment_flashmem_config

        overrides: Dict[str, Any] = {}
        if self.lam is not None:
            overrides["lam"] = self.lam
        if self.capacity_backend != "analytic":
            overrides["capacity_backend"] = self.capacity_backend
        return experiment_flashmem_config(**overrides)

    def store_key(self) -> Dict[str, Any]:
        """Content address of this request's compiled artifact."""
        from repro.experiments.common import compile_key

        key = compile_key(
            self.model, self.device, self.context_len, config=self.flashmem_config()
        )
        if self.target_preload_ratio is not None:
            key["preload_ratio"] = float(self.target_preload_ratio)
        return key

    def dedup_token(self) -> str:
        """Stable identity for request coalescing (fingerprint of the key)."""
        return stable_fingerprint(self.store_key())

    # ----------------------------------------------------------------- wire
    def to_payload(self) -> Dict[str, Any]:
        """JSON-able dict for the socket protocol and pool dispatch."""
        payload: Dict[str, Any] = {"model": self.model, "device": self.device}
        if self.lam is not None:
            payload["lam"] = self.lam
        if self.context_len:
            payload["context_len"] = self.context_len
        if self.target_preload_ratio is not None:
            payload["target_preload_ratio"] = self.target_preload_ratio
        if self.capacity_backend != "analytic":
            payload["capacity_backend"] = self.capacity_backend
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CompileRequest":
        """Parse a wire payload; raises ValueError on a missing ``model`` or
        on any key that is not a request field, so a misspelt or retired
        option fails loudly instead of being ignored."""
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown compile request field(s): {', '.join(unknown)}")
        if "model" not in payload:
            raise ValueError("compile request payload lacks 'model'")
        return cls(**payload)


def execute_compile(request: CompileRequest):
    """Run one compilation for ``request`` in the current process.

    The single code path shared by the pool workers, the inline (workers=0)
    service mode, and the CLI's direct ``repro compile``: whatever route a
    request takes, the plan comes from this function, which is what makes
    served plans canonically byte-identical to direct compilation.
    Returns the :class:`~repro.core.flashmem.CompiledModel`.
    """
    from repro.core.flashmem import FlashMem
    from repro.experiments import common

    request = request.normalized()
    if request.context_len:
        graph = common.cached_decode_graph(request.model, request.context_len)
    else:
        graph = common.cached_graph(request.model)
    device = get_device(request.device)
    fm = FlashMem(request.flashmem_config())
    return fm.compile(
        graph,
        device,
        capacity=common.cached_capacity(device.name, request.capacity_backend),
        target_preload_ratio=request.target_preload_ratio,
    )
