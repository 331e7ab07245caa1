"""Runtime scenarios: *what* an executor simulates, as a value.

A pass count only describes one workload shape — repeated full forward
passes (the vision/prefill story).  The decode workload is different in
every axis that matters (per-token kernels, a growing KV cache,
context-dependent cost), so the "what to run" knob is a first-class frozen
value:

- ``Scenario.prefill(iterations)`` — N full forward passes (the default,
  with one pass).
- ``Scenario.decode(tokens=..., context_len=...)`` — autoregressive
  generation: ``tokens`` steady-state decode steps on top of a prompt of
  ``context_len`` cached tokens.  Requires a graph built by a decode
  builder (KV caches registered, :data:`~repro.graph.ops.OpKind.KV_APPEND`
  / ``FLASH_ATTENTION`` nodes).

Scenarios are hashable and carry :meth:`Scenario.cache_key` so the
experiment layer can fold them into artifact-store keys without ad-hoc
tuples.  The registry (:func:`available_scenarios`, :func:`make_scenario`)
backs the CLI's ``--scenario`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Scenario:
    """One executor workload description.

    Attributes:
        kind: "prefill" (repeated full passes) or "decode" (autoregressive
            generation against a KV cache).
        iterations: forward passes (prefill only).
        context_len: prompt tokens already cached when decoding starts.
        tokens: tokens to generate (decode only).
    """

    kind: str
    iterations: int = 1
    context_len: int = 0
    tokens: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r} (expected one of {SCENARIO_KINDS})"
            )
        if self.kind == "prefill":
            if self.iterations < 1:
                raise ValueError("prefill scenario requires iterations >= 1")
            if self.tokens or self.context_len:
                raise ValueError("tokens/context_len are decode-scenario fields")
        else:
            if self.tokens < 1:
                raise ValueError("decode scenario requires tokens >= 1")
            if self.context_len < 0:
                raise ValueError("context_len must be >= 0")
            if self.iterations != 1:
                raise ValueError("iterations is a prefill-scenario field")

    # ------------------------------------------------------------ factories
    @classmethod
    def prefill(cls, iterations: int = 1) -> "Scenario":
        return cls(kind="prefill", iterations=iterations)

    @classmethod
    def decode(cls, *, tokens: int, context_len: int = 0) -> "Scenario":
        return cls(kind="decode", tokens=tokens, context_len=context_len)

    # -------------------------------------------------------------- queries
    @property
    def is_decode(self) -> bool:
        return self.kind == "decode"

    def cache_key(self) -> Dict[str, int]:
        """Stable mapping for artifact-store keys (ints only, JSON-safe)."""
        if self.kind == "prefill":
            return {"kind": "prefill", "iterations": int(self.iterations)}
        return {
            "kind": "decode",
            "tokens": int(self.tokens),
            "context_len": int(self.context_len),
        }

    def describe(self) -> str:
        if self.kind == "prefill":
            return f"prefill x{self.iterations}"
        return f"decode {self.tokens} tokens @ context {self.context_len}"


#: Registered scenario kinds, in CLI display order.
SCENARIO_KINDS = ("prefill", "decode")

_DESCRIPTIONS = {
    "prefill": "repeated full forward passes (default; --iterations N)",
    "decode": "autoregressive generation over a KV cache (--tokens N --context L)",
}


def available_scenarios() -> Dict[str, str]:
    """Kind -> one-line description, for ``repro list`` and ``--help``."""
    return dict(_DESCRIPTIONS)


def make_scenario(
    kind: str,
    *,
    iterations: Optional[int] = None,
    tokens: Optional[int] = None,
    context_len: Optional[int] = None,
) -> Scenario:
    """Build a scenario from CLI-style pieces, validating the combination."""
    if kind == "prefill":
        if tokens is not None or context_len is not None:
            raise ValueError("--tokens/--context only apply to --scenario decode")
        return Scenario.prefill(1 if iterations is None else iterations)
    if kind == "decode":
        if iterations is not None:
            raise ValueError("--iterations only applies to --scenario prefill")
        if tokens is None:
            raise ValueError("--scenario decode requires --tokens")
        if context_len is None or context_len <= 0:
            raise ValueError("--scenario decode requires --context, a positive prompt length")
        return Scenario.decode(tokens=tokens, context_len=context_len)
    raise ValueError(f"unknown scenario {kind!r} (expected one of {SCENARIO_KINDS})")
