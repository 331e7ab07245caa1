"""Benchsmoke: capped quick pass over the benchmark suite.

``pytest -m benchsmoke`` exercises every ``benchmarks/test_*.py`` without
paying the full measurement cost:

- every benchmark module is imported (module-level wiring — workload
  tables, cache paths, seed-emulation helpers — executes and must be
  sound);
- the A/B measurement pipelines (solver microbench, sweep prewarm,
  decode replay, capacity, fleet, service) additionally *run* under tiny
  time/node caps or workloads, checking result structure rather than
  perf bars.

Deselected by default (see ``tests/conftest.py``), so the tier-1 suite
stays fast.
"""

import importlib.util
import pathlib
import sys

import pytest

pytestmark = pytest.mark.benchsmoke

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p for p in BENCH_DIR.glob("test_*.py"))


def _load_bench_module(path: pathlib.Path):
    """Import one benchmarks/test_*.py with the benchmarks dir importable
    (they do ``from conftest import ...``)."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        name = f"benchsmoke_{path.stem}"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(BENCH_DIR))


@pytest.mark.parametrize("path", BENCH_MODULES, ids=lambda p: p.stem)
def test_bench_module_loads(path):
    module = _load_bench_module(path)
    # Every bench module exposes at least one pytest entry point.
    assert any(name.startswith("test_") for name in dir(module))


def test_solver_microbench_quick():
    """Bitset-vs-naive comparison structure under a tiny node cap."""
    bench = _load_bench_module(BENCH_DIR / "test_solver_throughput.py")

    result = bench.run_throughput_benchmark(max_nodes=500)
    for side in ("trail", "naive"):
        assert len(result[side]["windows"]) == len(bench.WORKLOAD)
    assert result["speedup_nodes_per_sec"] > 0
    assert len(result["per_window_speedup"]) == len(bench.WORKLOAD)


def test_sweep_prewarm_quick():
    """Pool pre-warm + reuse + close mechanics (no cell workload)."""
    from repro.sweep.runner import SweepRunner

    runner = SweepRunner(jobs=2, cache_dir=None)
    runner.prewarm(barrier_s=0.01)
    try:
        assert runner._pool is not None
        report = runner.run([])
        assert report.outcomes == [] and not report.failures
    finally:
        runner.close()
    assert runner._pool is None


def test_decode_ab_quick(monkeypatch):
    """Decode replay A/B structure in-process under a small token count
    (the full bench runs 1000 tokens in subprocesses)."""
    from repro.core.flashmem import FlashMem
    from repro.experiments import common
    from repro.gpusim.device import get_device
    from repro.graph.models import load_decode_model
    from repro.runtime.scenario import Scenario
    from repro.runtime.segment import SegmentCore
    from tests.oracles import run_segment_every_pass

    fm = FlashMem(common.experiment_flashmem_config())
    compiled = fm.compile(
        load_decode_model("GPTN-S", context_len=512), get_device("OnePlus 12")
    )
    scenario = Scenario.decode(tokens=32, context_len=512)
    fast = fm.run(compiled, scenario=scenario)
    monkeypatch.setattr(SegmentCore, "run_segment", run_segment_every_pass)
    full = fm.run(compiled, scenario=scenario)
    assert fast.latency_ms == full.latency_ms
    assert fast.peak_memory_bytes == full.peak_memory_bytes
    assert fast.details["replayed_tokens"] > 0
    assert full.details["replayed_tokens"] == 0


def test_sim_ab_quick(monkeypatch, tmp_path):
    """Simulation A/B in-process on one small scenario (ViT, 4 FlashMem
    iterations): the bench's seed emulation, installed through
    ``monkeypatch`` so it is undone, must simulate bitwise the fast path's
    latency (the full bench times both sides in subprocesses; see
    benchmarks/test_sim_throughput.py)."""
    from repro.core.store import ArtifactStore, swap_store
    from repro.experiments import common

    bench = _load_bench_module(BENCH_DIR / "test_sim_throughput.py")
    previous = swap_store(ArtifactStore(tmp_path))
    common.clear_caches()
    try:
        one_pass, summarize = bench._scenario_multi_iter("ViT", 4)
        fast = summarize(one_pass())
        bench._install_seed_emulation(monkeypatch.setattr)
        seed = summarize(one_pass())
    finally:
        swap_store(previous)
        common.clear_caches()
    assert fast["latency_ms"].hex() == seed["latency_ms"].hex()
    assert fast["replayed_iterations"] == 2 and seed["replayed_iterations"] == 0


def test_capacity_ab_quick(tmp_path):
    """Capacity pipeline A/B structure in-process at small scale: batched
    lockstep queries ≡ the sequential oracle, and a warm store-cached
    reload retrains nothing (the full bench measures the fit/query/compile
    bars in subprocesses; see benchmarks/test_capacity_throughput.py)."""
    from repro.capacity import cache as capacity_cache
    from repro.core.store import ArtifactStore, swap_store
    from repro.fusion.fuser import fuse_graph
    from repro.graph.models import load_model
    from tests.oracles import capacity_bytes_oracle

    previous = swap_store(ArtifactStore(tmp_path))
    capacity_cache.clear_capacity_cache()
    try:
        kwargs = dict(models=("GPTN-S",), max_ops_per_model=8)
        trains0 = capacity_cache.STATS["trains"]
        model = capacity_cache.trained_capacity_model("OnePlus 12", **kwargs)
        ops = [n.spec for n in fuse_graph(load_model("GPTN-S")).nodes()]
        batch = model.capacity_bytes_batch(ops)
        assert batch == [capacity_bytes_oracle(model, op) for op in ops]
        assert model.stats["batch_predicts"] < 4 * len(ops)
        capacity_cache.clear_capacity_cache()
        warm = capacity_cache.trained_capacity_model("OnePlus 12", **kwargs)
        assert capacity_cache.STATS["trains"] == trains0 + 1
        assert warm.capacity_bytes_batch(ops) == batch
    finally:
        swap_store(previous)
        capacity_cache.clear_capacity_cache()


def test_fleet_ab_quick():
    """Fleet replay A/B structure on a capped trace: memoized ≡ naive,
    far fewer simulations (the full bench runs 1000 invocations in
    subprocesses; see benchmarks/test_fleet_throughput.py)."""
    from repro.fleet.episode import EpisodeProvider
    from repro.fleet.replay import replay_trace
    from repro.fleet.trace import generate_trace
    from repro.runtime.scenario import Scenario

    mix = (
        ("ViT", Scenario.prefill(1), 1, 3.0),
        ("ResNet50", Scenario.prefill(1), 0, 1.0),
    )
    trace = generate_trace(
        seed=9, duration_s=60, rate_per_min=40, mix=mix, name="smoke"
    )
    memo = replay_trace(trace, "OnePlus 12", "FlashMem")
    naive = replay_trace(
        trace, "OnePlus 12", "FlashMem", provider=EpisodeProvider(memoize=False)
    )
    assert memo.canonical_json() == naive.canonical_json()
    assert memo.episodes_simulated < naive.episodes_simulated
    assert memo.invocations == len(trace.invocations)


def test_service_dedup_quick(tmp_path):
    """Inline-mode service pass: K duplicates coalesce to one compile and
    a rerun is a pure store hit (the full bench measures the wall-clock
    dedup bar and scale-out; see benchmarks/test_service_scaleout.py)."""
    from repro.core.store import swap_store
    from repro.experiments import common
    from repro.service import CompileRequest, compile_many

    common.clear_caches()
    try:
        requests = [CompileRequest(model="ViT")] * 4
        replies = compile_many(requests, workers=0, cache_dir=tmp_path)
        assert sum(r.coalesced for r in replies) == 3
        assert len({r.plan.canonical_json() for r in replies}) == 1
        (warm,) = compile_many(requests[:1], workers=0, cache_dir=tmp_path)
        assert warm.source == "store"
    finally:
        common.clear_caches()
        swap_store(None)


def test_service_pool_prewarm_quick(tmp_path):
    """Process-pool prewarm + dispatch + close mechanics for the service
    pool (mirrors test_sweep_prewarm_quick)."""
    from repro.service import CompilePool, CompileRequest

    with CompilePool(workers=1, cache_dir=tmp_path) as pool:
        pool.prewarm(barrier_s=0.01)
        payload = CompileRequest(model="ViT").to_payload()
        reply = pool.submit(payload).result(timeout=300)
        assert reply["source"] == "compiled"
        assert reply["path"] is not None and reply["pid"] is not None
    assert pool._pool is None
