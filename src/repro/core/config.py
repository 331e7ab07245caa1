"""FlashMem end-to-end configuration.

Wraps the OPG hyperparameters with the pipeline switches the paper's
breakdown study toggles (Figure 7): the OPG solver, adaptive fusion, and
kernel rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.opg.problem import OpgConfig


@dataclass
class FlashMemConfig:
    """Pipeline configuration.

    Attributes:
        opg: overlap-plan hyperparameters (M_peak, λ, μ, α, chunk size,
            solver limits).
        use_cp: solve windows with the CP model (False = pure greedy — the
            hybrid fallback mode forced on).
        use_adaptive_fusion: run the fusion + unfuse co-optimisation loop.
        use_kernel_rewriting: embed transforms in rewritten compute kernels;
            off, chunks move via dedicated data-loading kernels.
        capacity_backend: "analytic" (exact inverse of the cost model) or
            "gbt" (the paper's profiling + regression path; histogram
            training + store-cached models make it a first-class compile
            configuration).
        capacity_seed: seed for profiling/regression determinism.
    """

    opg: OpgConfig = field(default_factory=OpgConfig)
    use_cp: bool = True
    use_adaptive_fusion: bool = True
    use_kernel_rewriting: bool = True
    capacity_backend: str = "analytic"
    capacity_seed: int = 0

    def __post_init__(self) -> None:
        if self.capacity_backend not in ("analytic", "gbt"):
            raise ValueError(f"unknown capacity backend {self.capacity_backend!r}")

    @classmethod
    def memory_priority(cls) -> "FlashMemConfig":
        """The paper's default: M_peak 500 MB, λ ~ 0.9 (§3.2)."""
        return cls(opg=OpgConfig(m_peak_bytes=500 * 1024 * 1024, lam=0.9))

    @classmethod
    def latency_priority(cls, *, preload_ratio: float = 0.8) -> "FlashMemConfig":
        """Preload-heavy configuration (λ -> 1): lower execution latency at
        the cost of a larger resident set (Figure 8's right end)."""
        lam = min(1.0, 0.9 + preload_ratio * 0.1)
        return cls(opg=OpgConfig(m_peak_bytes=1024 * 1024 * 1024, lam=lam))
