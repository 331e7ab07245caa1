"""Tests for the LC-OPG solver, plan structure, and validation."""

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.opg.lcopg import LcOpgSolver
from repro.opg.plan import OverlapPlan, WeightSchedule
from repro.opg.problem import OpgConfig, build_problem
from repro.opg.validate import validate_plan


@pytest.fixture(scope="module")
def capacity():
    return analytic_capacity_model(oneplus_12())


def _transformer(blocks=2, dim=128, seq=16):
    b = GraphBuilder("t")
    b.embedding(seq, 500, dim)
    for _ in range(blocks):
        b.transformer_block(seq, dim, 4)
    return b.finish()


FAST = OpgConfig(max_nodes_per_window=300, chunk_bytes=8 * 1024)


class TestLcOpg:
    @pytest.fixture(scope="class")
    def plan(self, capacity):
        return LcOpgSolver(FAST).solve(_transformer(), capacity, device_name="OnePlus 12")

    def test_plan_validates(self, capacity, plan):
        problem = build_problem(_transformer(), capacity, FAST)
        assert validate_plan(plan, problem) == []

    def test_every_weight_scheduled(self, capacity, plan):
        g = _transformer()
        assert set(plan.schedules) == {w.name for w, _ in g.weights()}

    def test_embedding_preloaded(self, plan):
        embeds = [s for name, s in plan.schedules.items() if name.startswith("embed")]
        assert embeds and all(s.preloaded for s in embeds)

    def test_most_weights_streamed(self, plan):
        assert plan.preload_ratio < 0.5

    def test_transforms_before_consumer(self, plan):
        for s in plan.schedules.values():
            for layer in s.transforms:
                assert layer < s.consumer_layer

    def test_load_no_later_than_first_transform(self, plan):
        for s in plan.schedules.values():
            if s.transforms:
                assert s.load_layer <= min(s.transforms)

    def test_stats_populated(self, plan):
        assert plan.stats.windows > 0
        assert plan.stats.solver_status in ("OPTIMAL", "FEASIBLE")
        assert plan.stats.solve_s >= 0

    def test_heuristic_mode_also_valid(self, capacity):
        g = _transformer()
        plan = LcOpgSolver(FAST, use_cp=False).solve(g, capacity)
        problem = build_problem(g, capacity, FAST)
        assert validate_plan(plan, problem) == []

    def test_target_preload_ratio_monotone_memory(self, capacity):
        g = _transformer(blocks=3)
        solver = LcOpgSolver(FAST)
        low = solver.solve(g, capacity, target_preload_ratio=0.0)
        high = solver.solve(g, capacity, target_preload_ratio=0.9)
        assert high.preload_ratio > low.preload_ratio

    def test_lambda_drives_preload(self, capacity):
        g = _transformer()
        lam_hi = OpgConfig(max_nodes_per_window=300, chunk_bytes=8 * 1024, lam=1.0)
        plan_hi = LcOpgSolver(lam_hi).solve(g, capacity)
        plan_lo = LcOpgSolver(FAST).solve(g, capacity)  # lam=0.9
        assert plan_hi.preload_ratio > plan_lo.preload_ratio

    def test_preload_hint_respected(self, capacity):
        g = _transformer()
        target = [w.name for w, _ in g.weights()][-1]
        cfg = OpgConfig(
            max_nodes_per_window=300,
            chunk_bytes=8 * 1024,
            preload_hint_weights=frozenset({target}),
        )
        plan = LcOpgSolver(cfg).solve(g, capacity)
        assert plan.schedules[target].preloaded

    def test_tight_m_peak_still_valid(self, capacity):
        g = _transformer()
        cfg = OpgConfig(
            max_nodes_per_window=300, chunk_bytes=8 * 1024, m_peak_bytes=256 * 1024
        )
        plan = LcOpgSolver(cfg).solve(g, capacity)
        problem = build_problem(g, capacity, cfg)
        assert validate_plan(plan, problem) == []

    def test_solver_deterministic(self, capacity):
        g = _transformer()
        cfg = OpgConfig(max_nodes_per_window=50, chunk_bytes=8 * 1024)
        a = LcOpgSolver(cfg).solve(g, capacity)
        b = LcOpgSolver(cfg).solve(g, capacity)
        assert {n: s.transforms for n, s in a.schedules.items()} == {
            n: s.transforms for n, s in b.schedules.items()
        }


class TestPlanStructure:
    def _schedule(self):
        return WeightSchedule(
            weight="w",
            nbytes=2500,
            consumer_layer=10,
            preloaded=False,
            load_layer=6,
            transforms={6: 1, 8: 2},
            chunk_bytes=1024,
            total_chunks=3,
        )

    def test_loading_distance(self):
        assert self._schedule().loading_distance == 4

    def test_segments_offsets_contiguous(self):
        segs = self._schedule().segments()
        assert [s.layer for s in segs] == [6, 8]
        assert segs[0].start_offset == 0
        assert segs[0].end_offset == segs[1].start_offset
        assert segs[-1].end_offset == 2500  # clamped to nbytes

    def test_streamed_chunks(self):
        assert self._schedule().streamed_chunks == 3

    def test_plan_queries(self):
        plan = OverlapPlan(
            model="m", device="d", chunk_bytes=1024, m_peak_bytes=1 << 20,
            schedules={"w": self._schedule()},
        )
        assert plan.streamed_weights == ["w"]
        assert plan.transforms_at(8) == [("w", 2)]
        assert plan.loads_at(6) == ["w"]
        assert plan.preload_ratio == 0.0

    def test_json_roundtrip(self):
        plan = OverlapPlan(
            model="m", device="d", chunk_bytes=1024, m_peak_bytes=1 << 20,
            schedules={"w": self._schedule()},
        )
        restored = OverlapPlan.from_json(plan.to_json())
        assert restored.model == plan.model
        assert restored.schedules["w"].transforms == {6: 1, 8: 2}
        assert restored.schedules["w"].nbytes == 2500

    def test_canonical_json_excludes_wall_clock_provenance(self):
        import json

        from repro.opg.plan import PlanStats

        def plan(**stats):
            return OverlapPlan(
                model="m", device="d", chunk_bytes=1024, m_peak_bytes=1 << 20,
                schedules={"w": self._schedule()}, stats=PlanStats(**stats),
            )

        a = plan(solve_s=0.123)
        b = plan(solve_s=9.876, windows=3)
        # Same decisions, different provenance → identical canonical bytes.
        assert a.canonical_json() == b.canonical_json()
        assert a.to_json() != b.to_json()
        payload = json.loads(a.canonical_json())
        assert "stats" not in payload
        assert payload["schedules"]["w"]["nbytes"] == 2500
        # A decision change does surface.
        c = plan()
        c.schedules["w"].transforms[6] = 3
        assert c.canonical_json() != a.canonical_json()


class TestValidator:
    def test_catches_c0_violation(self, capacity):
        g = _transformer()
        plan = LcOpgSolver(FAST).solve(g, capacity)
        problem = build_problem(g, capacity, FAST)
        victim = next(s for s in plan.schedules.values() if s.transforms)
        layer = min(victim.transforms)
        victim.transforms[layer] += 5  # over-assign chunks
        errors = validate_plan(plan, problem)
        assert any("C0" in e for e in errors)

    def test_catches_missing_schedule(self, capacity):
        g = _transformer()
        plan = LcOpgSolver(FAST).solve(g, capacity)
        problem = build_problem(g, capacity, FAST)
        plan.schedules.pop(next(iter(plan.schedules)))
        assert any("no schedule" in e for e in validate_plan(plan, problem))

    def test_catches_late_transform(self, capacity):
        g = _transformer()
        plan = LcOpgSolver(FAST).solve(g, capacity)
        problem = build_problem(g, capacity, FAST)
        victim = next(s for s in plan.schedules.values() if s.transforms)
        chunks = victim.transforms.pop(min(victim.transforms))
        victim.transforms[victim.consumer_layer + 1] = chunks
        errors = validate_plan(plan, problem)
        assert any("not before consumer" in e for e in errors)
