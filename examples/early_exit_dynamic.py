#!/usr/bin/env python
"""Dynamic networks: planning an early-exit model (paper §3.2 future work).

An early-exit classifier stops after 4, 8, or 12 transformer blocks
depending on input difficulty.  The dynamic planner solves an overlap plan
per execution path and unifies the preloaded set across paths, so the
resident memory never depends on which branch an input takes.

Run:  python examples/early_exit_dynamic.py
"""

from repro import oneplus_12
from repro.capacity import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.graph.dynamic import early_exit_variants, plan_dynamic, run_dynamic
from repro.opg import LcOpgSolver
from repro.runtime import FlashMemExecutor


def exit_builder(depth: int):
    b = GraphBuilder(f"early-exit-{depth}")
    seq, dim = 128, 512
    b.embedding(seq, 30_000, dim)
    for _ in range(depth):
        b.transformer_block(seq, dim, 8)
    b.layernorm((seq, dim))
    b.linear(1, dim, 1000)  # exit head
    return b.finish()


def main() -> None:
    device = oneplus_12()
    model = early_exit_variants(
        exit_builder, exits=[4, 8, 12], probabilities=[0.55, 0.30, 0.15], name="early-exit-vit"
    )
    capacity = analytic_capacity_model(device)
    solver = LcOpgSolver()

    dyn_plan = plan_dynamic(model, solver, capacity, device_name=device.name)
    print(f"Unified preload set: {len(dyn_plan.unified_preload)} weights\n")
    result = run_dynamic(model, dyn_plan, FlashMemExecutor(device))

    print(f"{'path':10s} {'prob':>5s} {'latency':>9s} {'avg mem':>8s} {'preload':>8s}")
    for v in model.variants:
        _, run = result.outcomes[v.name]
        plan = dyn_plan.plan_for(v.name)
        print(
            f"{v.name:10s} {v.probability:5.2f} {run.latency_ms:7.0f}ms "
            f"{run.avg_memory_mb:6.0f}MB {plan.preload_ratio * 100:6.1f}%"
        )
    print(
        f"\nExpected latency {result.expected_latency_ms:.0f} ms "
        f"(worst case {result.worst_latency_ms:.0f} ms); "
        f"expected avg memory {result.expected_avg_memory_bytes / 1e6:.0f} MB "
        f"(worst peak {result.worst_peak_memory_bytes / 1e6:.0f} MB)"
    )


if __name__ == "__main__":
    main()
