"""Property-based (hypothesis) coverage for window-reuse invariants.

The deterministic tests in ``test_window_reuse`` pin specific cases; these
randomize over the same invariants the canonical fingerprint must hold:

- **identity is positional** — renumbering every chunk owner (renaming the
  weights, which is what fusion splits do to downstream node ids) never
  changes the key;
- **coordinates are relative** — shifting a window by a constant layer
  offset, with the budget arrays phase-shifted by the same offset, never
  changes the key (and the recorded base moves by exactly that offset);
- **budgets are keyed where they matter** — consuming capacity at a layer
  inside the candidate union always changes the key; consuming outside it
  never does;
- **patching replays are exact** — a warm solver re-solving after an
  upstream structure change (grown graph / different window partition /
  an adaptive-fusion split sequence) produces schedules byte-identical to
  a cold solve (a window cache that never hits, ``tests/oracles``).

Example counts are kept small (solves are real) and ``deadline=None``
because single-core CI boxes make per-example wall-clock meaningless.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.capacity.model import analytic_capacity_model
from repro.fusion.adaptive import AdaptiveFusionPlanner
from repro.graph.builder import GraphBuilder
from repro.graph.lowering import eliminate_layout_ops
from repro.graph.models.zoo import load_model
from repro.gpusim.device import get_device, oneplus_12
from repro.opg.heuristics import Budgets
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig, WeightInfo
from tests.oracles import cold_solver

FAST = OpgConfig(max_nodes_per_window=300, chunk_bytes=8 * 1024)

#: Layer-space size for synthetic windows; budgets arrays are padded past
#: this so phase-shifted lookups stay in range.
LAYERS = 40
MAX_SHIFT = 8


def _w(name, chunks, consumer, candidates):
    return WeightInfo(
        name=name,
        nbytes=chunks * 100,
        consumer_layer=consumer,
        total_chunks=chunks,
        candidates=list(candidates),
    )


@st.composite
def window_specs(draw, max_weights=4):
    """Raw (chunks, consumer, lo, hi) tuples — name/offset applied later."""
    n = draw(st.integers(1, max_weights))
    specs = []
    for _ in range(n):
        chunks = draw(st.integers(1, 5))
        consumer = draw(st.integers(6, LAYERS - 2))
        lo = draw(st.integers(1, consumer - 1))
        hi = draw(st.integers(lo + 1, consumer))
        specs.append((chunks, consumer, lo, hi))
    return specs


def _build(specs, *, offset=0, name_salt=""):
    return [
        _w(f"w{i}{name_salt}", chunks, consumer + offset,
           range(lo + offset, hi + offset))
        for i, (chunks, consumer, lo, hi) in enumerate(specs)
    ]


def _candidate_union(specs):
    layers = set()
    for _, _, lo, hi in specs:
        layers.update(range(lo, hi))
    return sorted(layers)


budget_levels = st.lists(
    st.integers(0, 12), min_size=LAYERS + MAX_SHIFT, max_size=LAYERS + MAX_SHIFT
)


class TestFingerprintProperties:
    @settings(max_examples=30, deadline=None)
    @given(specs=window_specs(), salt=st.integers(0, 10**6))
    def test_rename_invariance(self, specs, salt):
        """Chunk-owner renumbering (weight renaming) never changes the key."""
        solver = LcOpgSolver(FAST)
        budgets = Budgets([3] * LAYERS, [10] * LAYERS)
        key1, _ = solver._window_fingerprint(_build(specs), budgets, set())
        key2, _ = solver._window_fingerprint(
            _build(specs, name_salt=f"_r{salt}"), budgets, set()
        )
        assert key1 == key2

    @settings(max_examples=30, deadline=None)
    @given(
        specs=window_specs(),
        caps=budget_levels,
        peaks=budget_levels,
        delta=st.integers(0, MAX_SHIFT),
    )
    def test_budget_phase_shift_invariance(self, specs, caps, peaks, delta):
        """A constant layer shift, with the budget slice shifted in phase,
        hits the same key; the recorded base moves by exactly the shift."""
        solver = LcOpgSolver(FAST)
        budgets1 = Budgets(caps, peaks)
        budgets2 = Budgets([0] * delta + caps, [0] * delta + peaks)
        key1, base1 = solver._window_fingerprint(_build(specs), budgets1, set())
        key2, base2 = solver._window_fingerprint(
            _build(specs, offset=delta), budgets2, set()
        )
        assert key1 == key2
        assert base2[0] - base1[0] == delta

    @settings(max_examples=30, deadline=None)
    @given(specs=window_specs(), data=st.data())
    def test_budget_drift_keyed_at_candidate_layers(self, specs, data):
        """Capacity drift inside the candidate union always misses; drift
        at any layer outside it always hits."""
        solver = LcOpgSolver(FAST)
        clean = Budgets([3] * LAYERS, [10] * LAYERS)
        key, _ = solver._window_fingerprint(_build(specs), clean, set())
        union = _candidate_union(specs)

        inside = data.draw(st.sampled_from(union), label="drift layer (inside)")
        drifted = Budgets([3] * LAYERS, [10] * LAYERS)
        drifted.consume(inside, 1)
        assert solver._window_fingerprint(_build(specs), drifted, set())[0] != key

        outside = [l for l in range(LAYERS) if l not in union]
        where = data.draw(st.sampled_from(outside), label="drift layer (outside)")
        unrelated = Budgets([3] * LAYERS, [10] * LAYERS)
        unrelated.consume(where, 1)
        assert solver._window_fingerprint(_build(specs), unrelated, set())[0] == key


def _model(blocks):
    b = GraphBuilder(f"prop-{blocks}")
    b.embedding(16, 500, 128)
    for _ in range(blocks):
        b.transformer_block(16, 128, 4)
    return b.finish()


class TestPatchingProperties:
    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        blocks=st.integers(2, 4),
        extra=st.integers(1, 2),
        window_weights=st.sampled_from([6, 8, 12]),
    )
    def test_patch_after_structure_growth_matches_fresh(
        self, blocks, extra, window_weights
    ):
        """Warm solver re-solving a grown graph (upstream insertion — the
        window-level effect of a fusion split) must equal a cold solve."""
        cfg = dataclasses.replace(FAST, window_weights=window_weights)
        capacity = analytic_capacity_model(oneplus_12())
        warm = LcOpgSolver(cfg)
        warm.solve(_model(blocks), capacity)
        patched = warm.solve(_model(blocks + extra), capacity)
        cold = cold_solver(cfg).solve(_model(blocks + extra), capacity)
        assert patched.schedules == cold.schedules
        assert patched.stats.solver_status == cold.stats.solver_status

    @settings(
        max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        model=st.sampled_from(["ResNet50", "ViT", "GPTN-S"]),
        device=st.sampled_from(["OnePlus 12", "Pixel 8"]),
        max_iterations=st.integers(2, 4),
    )
    def test_random_fusion_split_plan_identical(self, model, device, max_iterations):
        """Through the real adaptive-fusion loop (random split sequences via
        randomized iteration budgets), reuse-on plans == from-scratch plans."""
        graph = eliminate_layout_ops(load_model(model))
        cap = analytic_capacity_model(get_device(device))

        def plan(solver):
            planner = AdaptiveFusionPlanner(solver, cap, max_iterations=max_iterations)
            return planner.plan(graph, device_name=device)

        fused_on, plan_on, report_on = plan(LcOpgSolver(FAST))
        fused_off, plan_off, report_off = plan(cold_solver(FAST))
        assert plan_on.schedules == plan_off.schedules
        assert [n.name for n in fused_on.nodes()] == [n.name for n in fused_off.nodes()]
        assert report_on.iterations == report_off.iterations
