"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list``                      — models, devices, and scenarios available.
- ``run MODEL [DEVICE]``        — compile + run one model under FlashMem,
                                  with optional baseline comparison.
                                  ``--scenario decode --tokens N --context L``
                                  simulates autoregressive generation with
                                  KV-cache streaming (default scenario:
                                  single-pass prefill).
- ``plan MODEL [--out F]``      — solve the overlap plan and print/export it.
- ``compile MODEL [DEVICE]``    — run the offline compile pipeline for one
                                  request; ``--via-service SOCKET`` sends it
                                  to a running ``repro serve`` daemon
                                  instead of compiling in-process.
- ``serve``                     — run the plan-compilation service: an async
                                  daemon that coalesces duplicate requests,
                                  batches artifact-store lookups, and fans
                                  compilation out over a pre-warmed process
                                  pool (the cloud-side component a fleet of
                                  phones would query).
- ``make-trace OUT``            — generate a seeded fleet traffic trace
                                  (arrivals, model mix, priorities, throttle
                                  windows) and write it as JSON.
- ``serve-trace TRACE``         — replay a fleet trace over the device ×
                                  runtime grid with memoized episode
                                  execution; ``--jobs N`` shards cells over
                                  a pre-warmed process pool and the report
                                  leads with simulated device-hours per
                                  wall-clock second.
- ``experiment NAME``           — regenerate one paper table/figure, or
                                  ``all`` for the full suite; supports
                                  ``--jobs N`` (parallel sweep) and a
                                  persistent artifact cache
                                  (``--cache-dir`` / ``--no-cache``).
- ``profile compile MODEL DEVICE`` — run one compile under cProfile and
                                  print the top cumulative-time hotspots
                                  (offline-compile performance triage).
- ``profile run MODEL DEVICE``  — compile once, then cProfile the simulated
                                  execution (``FlashMem.run``) and print the
                                  hotspots plus the run's pricing/replay
                                  counters (simulation hot-path triage).
- ``profile capacity MODEL DEVICE`` — time the capacity pipeline's phases
                                  (profiling, GBT fit, lockstep bisection),
                                  print the Figure 4 accuracy report and the
                                  per-op-class capacity distributions.

Device arguments accept normalized aliases ("oneplus12", "pixel8", any
case/spacing) in addition to the exact marketing names.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.config import FlashMemConfig
from repro.core.flashmem import FlashMem
from repro.gpusim.device import DEVICE_PRESETS, get_device
from repro.graph.models import (
    ALL_CARDS,
    DECODE_MODELS,
    EVALUATED_MODELS,
    load_decode_model,
    load_model,
)
from repro.runtime.scenario import SCENARIO_KINDS, available_scenarios, make_scenario

EXPERIMENTS = [
    "table1", "fig2", "table4", "table5", "table6", "fig4",
    "table7", "table8", "fig6", "fig7", "fig8", "fig9", "table9", "fig10",
    "background_texture", "appendix_fp32", "ablations", "preemption", "decode",
    "fleet",
]


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    """``--cache-dir`` and ``--no-cache``; :func:`_cache_dir` reads them."""
    parser.add_argument("--cache-dir", default=None,
                        help="persistent artifact store directory "
                             "(default: $REPRO_CACHE_DIR or .artifact-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run without a persistent artifact store "
                             "(every artifact is recomputed)")


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """The artifact store directory the options name, or None (--no-cache)."""
    from repro.sweep.suite import DEFAULT_CACHE_DIR

    if args.no_cache:
        return None
    return args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR


def _device_name(name: str) -> str:
    """A device option (``type=``): the preset's canonical name."""
    try:
        return get_device(name).name
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _preload_ratio(text: str) -> float:
    """``--preload-ratio`` (``type=``): ``CompileRequest``'s [0, 1] rule."""
    from repro.service.request import check_preload_ratio

    try:
        return check_preload_ratio(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlashMem reproduction: mobile GPU memory streaming for DNN inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list models, devices, and experiments")

    run_p = sub.add_parser("run", help="compile + run a model under FlashMem")
    run_p.set_defaults(parser=run_p)
    run_p.add_argument("model", choices=sorted(set(ALL_CARDS) | set(DECODE_MODELS)))
    run_p.add_argument("device_pos", nargs="?", default=None, metavar="DEVICE",
                       type=_device_name, help="device preset name or alias (overrides --device)")
    run_p.add_argument("--device", default="OnePlus 12", type=_device_name,
                       help="device preset name or alias (e.g. 'oneplus12')")
    run_p.add_argument("--scenario", default="prefill", choices=list(SCENARIO_KINDS),
                       help="workload: prefill passes or autoregressive decode")
    run_p.add_argument("--iterations", type=int, default=None,
                       help="prefill passes to simulate (prefill scenario only)")
    run_p.add_argument("--tokens", type=int, default=None,
                       help="tokens to generate (decode scenario only)")
    run_p.add_argument("--context", type=int, default=None,
                       help="prompt length in tokens (decode scenario only)")
    run_p.add_argument("--preload-ratio", type=_preload_ratio, default=None,
                       help="force a preload fraction (Figure 8 knob)")
    run_p.add_argument("--baseline", default=None,
                       choices=["MNN", "NCNN", "TVM", "LiteRT", "ETorch", "SMem"],
                       help="also run a preloading baseline for comparison")
    run_p.add_argument("--solver-stats", action="store_true",
                       help="print the per-window CP solver statistics table")
    run_p.add_argument("--capacity-backend", default="analytic",
                       choices=["analytic", "gbt"],
                       help="load-capacity model: exact cost-model inverse "
                            "or the paper's profiled GBT regressor")

    compile_p = sub.add_parser(
        "compile", help="run the offline compile pipeline for one request"
    )
    compile_p.set_defaults(parser=compile_p)
    compile_p.add_argument("model", choices=sorted(set(ALL_CARDS) | set(DECODE_MODELS)))
    compile_p.add_argument("device_pos", nargs="?", default=None, metavar="DEVICE",
                           type=_device_name,
                           help="device preset name or alias (overrides --device)")
    compile_p.add_argument("--device", default="OnePlus 12", type=_device_name,
                           help="device preset name or alias (e.g. 'oneplus12')")
    compile_p.add_argument("--context", type=int, default=0,
                           help="prompt length: >0 compiles the decode-phase graph")
    compile_p.add_argument("--preload-ratio", type=_preload_ratio, default=None,
                           help="force a preload fraction (Figure 8 knob)")
    compile_p.add_argument("--via-service", default=None, metavar="SOCKET",
                           help="send the request to a running 'repro serve' "
                                "daemon on this unix socket instead of "
                                "compiling in-process")
    compile_p.add_argument("--capacity-backend", default="analytic",
                           choices=["analytic", "gbt"],
                           help="load-capacity model: exact cost-model inverse "
                                "or the paper's profiled GBT regressor")
    compile_p.add_argument("--out", default=None, help="write the plan JSON here")

    serve_p = sub.add_parser(
        "serve", help="run the plan-compilation service daemon"
    )
    serve_p.add_argument("--socket", default=None,
                         help="unix socket to listen on "
                              "(default: .repro-service.sock)")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="compile pool size (0 = in-process inline mode)")
    serve_p.add_argument("--max-batch", type=int, default=64,
                         help="max requests drained per dedup/lookup batch")
    _add_cache_options(serve_p)

    make_trace_p = sub.add_parser(
        "make-trace", help="generate a seeded fleet traffic trace (JSON)"
    )
    make_trace_p.add_argument("out", help="path to write the trace JSON to")
    make_trace_p.add_argument("--seed", type=int, default=0)
    make_trace_p.add_argument("--duration-s", type=float, default=600.0,
                              help="trace length in seconds (default 600)")
    make_trace_p.add_argument("--rate-per-min", type=float, default=30.0,
                              help="mean arrivals per minute (default 30)")
    make_trace_p.add_argument("--invocations", type=int, default=None,
                              help="pin the exact invocation count "
                                   "(overrides the duration-derived count)")

    serve_trace_p = sub.add_parser(
        "serve-trace",
        help="replay a fleet trace over the device x runtime grid",
    )
    serve_trace_p.add_argument("trace", help="trace JSON (see 'repro make-trace')")
    serve_trace_p.add_argument("--jobs", type=int, default=1,
                               help="worker processes for the cell grid "
                                    "(default 1 = inline)")
    serve_trace_p.add_argument("--devices", nargs="+", default=None, type=_device_name,
                               help="device presets to replay on "
                                    "(default: OnePlus 12, Pixel 8)")
    serve_trace_p.add_argument("--runtimes", nargs="+", default=None,
                               help="runtimes to replay under "
                                    "(default: FlashMem, MNN)")
    serve_trace_p.add_argument("--slo-multiplier", type=float, default=None,
                               help="SLO budget as a multiple of the nominal "
                                    "episode latency (default 3.0)")
    serve_trace_p.add_argument("--naive", action="store_true",
                               help="disable episode memoization (simulate "
                                    "every invocation; the benchmark baseline)")
    _add_cache_options(serve_trace_p)

    plan_p = sub.add_parser("plan", help="solve and inspect an overlap plan")
    plan_p.add_argument("model", choices=sorted(ALL_CARDS))
    plan_p.add_argument("--device", default="OnePlus 12", type=_device_name,
                       help="device preset name or alias (e.g. 'oneplus12')")
    plan_p.add_argument("--out", default=None, help="write the plan JSON here")
    plan_p.add_argument("--solver-stats", action="store_true",
                       help="print the per-window CP solver statistics table")

    prof_p = sub.add_parser("profile", help="profile an offline pipeline stage")
    prof_sub = prof_p.add_subparsers(dest="profile_what", required=True)
    prof_compile = prof_sub.add_parser(
        "compile", help="cProfile one FlashMem.compile and print hotspots"
    )
    prof_compile.add_argument("model", choices=sorted(ALL_CARDS))
    prof_compile.add_argument("device", type=_device_name, help="device preset name or alias")
    prof_compile.add_argument("--top", type=int, default=25,
                              help="number of hotspot rows to print (default 25)")
    prof_run = prof_sub.add_parser(
        "run", help="cProfile one FlashMem.run (simulation hot path) and print hotspots"
    )
    prof_run.set_defaults(parser=prof_run)
    prof_run.add_argument("model", choices=sorted(set(ALL_CARDS) | set(DECODE_MODELS)))
    prof_run.add_argument("device", type=_device_name, help="device preset name or alias")
    prof_run.add_argument("--scenario", default="prefill", choices=list(SCENARIO_KINDS),
                          help="workload: prefill passes or autoregressive decode")
    prof_run.add_argument("--iterations", type=int, default=None,
                          help="inference iterations to simulate "
                               "(prefill scenario only; default 10)")
    prof_run.add_argument("--tokens", type=int, default=None,
                          help="tokens to generate (decode scenario only; default 256)")
    prof_run.add_argument("--context", type=int, default=None,
                          help="prompt length in tokens (decode scenario only)")
    prof_run.add_argument("--top", type=int, default=25,
                          help="number of hotspot rows to print (default 25)")
    prof_capacity = prof_sub.add_parser(
        "capacity",
        help="time the capacity pipeline (profile/fit/bisect) and print "
             "per-class capacity distributions plus the Figure 4 report",
    )
    prof_capacity.add_argument("model", choices=sorted(ALL_CARDS))
    prof_capacity.add_argument("device", type=_device_name, help="device preset name or alias")
    prof_capacity.add_argument("--seed", type=int, default=0,
                               help="profiling/regression seed (default 0)")
    prof_capacity.add_argument("--max-ops", type=int, default=24,
                               help="stratified per-model profiling op budget "
                                    "(default 24)")

    exp_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp_p.add_argument("name", choices=EXPERIMENTS + ["all"],
                       help='driver name, or "all" for the full suite')
    exp_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (default 1 = serial)")
    _add_cache_options(exp_p)
    exp_p.add_argument("--results-dir", default=None,
                       help='write rendered outputs here (default: results/ for "all")')
    return parser


def _cmd_list() -> int:
    print("Evaluated models (paper Table 6):")
    for abbr in EVALUATED_MODELS:
        card = ALL_CARDS[abbr]
        print(f"  {abbr:11s} {card.full_name:24s} {card.task}")
    print("\nSolver-scaling models (paper Table 4): "
          + ", ".join(sorted(set(ALL_CARDS) - set(EVALUATED_MODELS))))
    print("\nDevices:")
    for device in DEVICE_PRESETS.values():
        print(f"  {device.name:12s} {device.gpu:15s} {device.ram_bytes / 2**30:.0f} GB RAM")
    print("\nScenarios:")
    for kind, description in available_scenarios().items():
        print(f"  {kind:11s} {description}")
    print("\nDecode-phase models (--scenario decode): " + ", ".join(DECODE_MODELS))
    print("\nExperiments: " + ", ".join(EXPERIMENTS))
    return 0


def _print_solver_stats(plan) -> None:
    """Per-window CP solver observability table (``--solver-stats``)."""
    stats = plan.stats
    print(f"Solver stats: {stats.nodes_explored} nodes over {stats.cp_windows} CP windows "
          f"({stats.nodes_per_sec:.0f} nodes/s); "
          f"{stats.floor_closed_windows} closed by the SRPT floor; "
          f"{stats.windows_reused} of {stats.windows} windows replayed from cache")
    print(f"  tightenings {stats.propagations}; constraint evals: "
          f"linear {stats.prop_linear}, implication {stats.prop_implication}")
    print(f"  time: propagate {stats.time_propagate_s:.3f}s, "
          f"branch {stats.time_branch_s:.3f}s, bound {stats.time_bound_s:.3f}s")
    print(f"  compile phases: cp {stats.cp_solve_s:.3f}s, "
          f"prover {stats.exact_prover_s:.3f}s, greedy {stats.greedy_s:.3f}s, "
          f"build {stats.build_model_s:.3f}s ({stats.edf_calls} EDF oracle calls)")
    if not stats.window_stats:
        return
    header = f"  {'win':>4s} {'status':9s} {'nodes':>8s} {'nodes/s':>9s} {'props':>9s} {'wall s':>8s}"
    print(header)
    for w in stats.window_stats:
        print(f"  {w['window']:>4d} {w['status']:9s} {w['nodes']:>8d} "
              f"{w['nodes_per_sec']:>9.0f} {w['propagations']:>9d} "
              f"{w['wall_time_s']:>8.3f}")


def _print_fusion_iterations(report) -> None:
    """Per-adaptive-fusion-iteration compile breakdown (window reuse + phases)."""
    print(f"Adaptive fusion: {report.total_windows_reused} of {report.total_windows} "
          f"windows reused across {len(report.solver_iterations)} solves "
          f"({report.window_reuse_rate * 100:.0f}%)")
    print(f"  {'iter':>4s} {'status':9s} {'windows':>7s} {'reused':>6s} {'floor':>5s} "
          f"{'cp s':>7s} {'prover s':>8s} {'greedy s':>8s} {'edf':>6s}")
    for it in report.solver_iterations:
        print(f"  {it['iteration']:>4d} {it['status']:9s} {it['windows']:>7d} "
              f"{it['windows_reused']:>6d} {it['floor_closed_windows']:>5d} "
              f"{it['cp_solve_s']:>7.3f} {it['exact_prover_s']:>8.3f} "
              f"{it['greedy_s']:>8.3f} {it['edf_calls']:>6d}")


def _cmd_profile_run(args: argparse.Namespace) -> int:
    """``repro profile run MODEL DEVICE``: cProfile the simulation hot path."""
    import cProfile
    import pstats

    from repro.gpusim import pricing

    device = get_device(args.device)
    scenario = _resolve_cli_scenario(args, tokens=256, iterations=10)
    graph = _load_cli_graph(args.model, scenario)
    fm = FlashMem(FlashMemConfig())
    print(f"Compiling {graph.summary()} for {device.name} (not profiled) ...")
    compiled = fm.compile(graph, device)
    before = pricing.STATS.snapshot()
    print(f"Profiling run: {scenario.describe()} ...")
    profiler = cProfile.Profile()
    profiler.enable()
    result = fm.run(compiled, scenario=scenario)
    profiler.disable()
    delta = pricing.STATS.delta_since(before)
    print(f"run finished: {result.latency_ms:.0f} ms simulated in "
          f"{result.details.get('sim_s', 0.0) * 1e3:.1f} ms wall; "
          f"pricing tables {int(delta['table_hits'])} hit / "
          f"{int(delta['table_misses'])} miss, "
          f"{int(delta['replayed_iterations'])} iteration(s) extrapolated")
    print(f"top {args.top} functions by cumulative time:")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.top)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile compile MODEL DEVICE``: cProfile one compile."""
    import cProfile
    import pstats

    device = get_device(args.device)
    graph = load_model(args.model)
    fm = FlashMem(FlashMemConfig())
    print(f"Profiling compile of {graph.summary()} for {device.name} ...")
    profiler = cProfile.Profile()
    profiler.enable()
    compiled = fm.compile(graph, device)
    profiler.disable()
    # A prefill compile runs the adaptive-fusion loop, whose report holds
    # every LC-OPG solve; the final plan's stats cover only one of them.
    report = compiled.fusion_report
    split = {key: sum(it[key] for it in report.solver_iterations) for key in (
        "process_nodes_s", "build_model_s", "cp_solve_s", "exact_prover_s", "greedy_s",
        "edf_calls", "windows_reused", "windows")}
    print(f"compile finished in {compiled.compile_s:.2f}s "
          f"(status {compiled.plan.stats.solver_status})")
    print(f"  phase split over {len(report.solver_iterations)} solves: "
          f"process {split['process_nodes_s']:.3f}s, "
          f"build {split['build_model_s']:.3f}s, cp {split['cp_solve_s']:.3f}s, "
          f"prover {split['exact_prover_s']:.3f}s, greedy {split['greedy_s']:.3f}s "
          f"({split['edf_calls']} EDF oracle calls; "
          f"{split['windows_reused']}/{split['windows']} windows replayed)")
    print(f"top {args.top} functions by cumulative time:")
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.top)
    _print_fusion_iterations(report)
    return 0


def _cmd_profile_capacity(args: argparse.Namespace) -> int:
    """``repro profile capacity MODEL DEVICE``: capacity-pipeline triage."""
    import time as _time
    from collections import defaultdict

    from repro.capacity.model import LoadCapacityModel
    from repro.capacity.profiler import LoadCapacityProfiler

    device = get_device(args.device)
    graph = load_model(args.model)
    profiler = LoadCapacityProfiler(device, seed=args.seed)
    t0 = _time.perf_counter()
    dataset = profiler.profile_graph(graph, max_ops=args.max_ops)
    profile_s = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    model = LoadCapacityModel.from_dataset(device, dataset, seed=args.seed)
    fit_s = _time.perf_counter() - t0
    ops = [n.spec for n in graph.nodes()]
    t0 = _time.perf_counter()
    caps = model.capacity_bytes_batch(ops)
    bisect_s = _time.perf_counter() - t0

    assert model.report is not None and model.regressor is not None
    cfg = model.regressor.config
    print(f"capacity pipeline for {graph.summary()} on {device.name} (gbt backend):")
    print(f"  phases: profile {profile_s:.3f}s ({len(dataset)} samples), "
          f"fit {fit_s:.3f}s ({cfg.n_estimators} histogram trees), "
          f"capacities {bisect_s:.3f}s ({len(ops)} ops -> "
          f"{model.stats['bisections']} lockstep bisections, "
          f"{model.stats['batch_predicts']} batched predicts)")
    rep = model.report
    print(f"  figure-4 report: {rep.n_samples} samples, "
          f"train RMSE {rep.train_rmse_log10:.4f}, "
          f"holdout RMSE {rep.holdout_rmse_log10:.4f} log10-ms "
          f"(~{rep.holdout_mean_rel_error * 100:.1f}% rel. latency error)")
    by_class = defaultdict(list)
    for op, cap in zip(ops, caps):
        by_class[op.op_class.value].append(cap / 1e6)
    print("  per-class load-capacity distribution (MB):")
    print(f"    {'class':14s} {'ops':>5s} {'min':>9s} {'median':>9s} {'max':>9s}")
    for cls in sorted(by_class):
        vals = sorted(by_class[cls])
        print(f"    {cls:14s} {len(vals):>5d} {vals[0]:>9.2f} "
              f"{vals[len(vals) // 2]:>9.2f} {vals[-1]:>9.2f}")
    return 0


def _resolve_cli_scenario(args: argparse.Namespace, *, tokens: int,
                          iterations: Optional[int] = None):
    """Build the Scenario a ``run``/``profile run`` invocation asked for
    (``tokens``/``iterations`` are the defaults for omitted options).  A bad
    combination of options is a usage error: exit code 2."""
    try:
        if args.scenario == "decode":
            return make_scenario(
                "decode", iterations=args.iterations,
                tokens=args.tokens if args.tokens is not None else tokens,
                context_len=args.context,
            )
        return make_scenario(
            "prefill",
            iterations=args.iterations if args.iterations is not None else iterations,
            tokens=args.tokens, context_len=args.context,
        )
    except ValueError as exc:
        args.parser.error(str(exc))


def _load_cli_graph(model: str, scenario):
    """Prefill scenarios run the zoo graph; decode needs a decode-phase graph
    sized for the prompt (KV caches registered, flash-attention kernels)."""
    if scenario.is_decode:
        if model not in DECODE_MODELS:
            raise SystemExit(
                f"error: {model} has no decode-phase builder; "
                f"decode models: {', '.join(DECODE_MODELS)}"
            )
        return load_decode_model(model, context_len=scenario.context_len)
    return load_model(model)


def _cmd_run(args: argparse.Namespace) -> int:
    device = get_device(args.device_pos or args.device)
    scenario = _resolve_cli_scenario(args, tokens=64)
    graph = _load_cli_graph(args.model, scenario)
    fm = FlashMem(FlashMemConfig(capacity_backend=args.capacity_backend))
    print(f"Compiling {graph.summary()} for {device.name} ({scenario.describe()}) ...")
    compiled = fm.compile(graph, device, target_preload_ratio=args.preload_ratio)
    print(f"  plan: {compiled.plan.stats.solver_status}, "
          f"preload {compiled.preload_ratio * 100:.1f}% "
          f"(compiled in {compiled.compile_s:.2f}s)")
    if args.solver_stats:
        _print_solver_stats(compiled.plan)
        if compiled.fusion_report is not None and compiled.fusion_report.solver_iterations:
            _print_fusion_iterations(compiled.fusion_report)
    result = fm.run(compiled, scenario=scenario)
    print(f"FlashMem: {result.latency_ms:.0f} ms, "
          f"avg {result.avg_memory_mb:.0f} MB, peak {result.peak_memory_mb:.0f} MB, "
          f"{result.energy_j:.1f} J")
    if scenario.is_decode:
        decode_ms = result.details.get("decode_ms", result.latency_ms)
        print(f"  decode: {result.details.get('ms_per_token', 0.0):.2f} ms/token "
              f"({scenario.tokens / (decode_ms / 1e3):.1f} tok/s), "
              f"KV resident {result.details.get('kv_resident_bytes', 0) / 1e6:.0f} MB"
              + (", spilled "
                 f"{result.details.get('kv_spilled_bytes', 0) / 1e6:.0f} MB"
                 if result.details.get("kv_spilled_bytes") else ""))
    if args.baseline:
        from repro.runtime.frameworks import get_profile
        from repro.runtime.preload import ModelNotSupportedError, PreloadExecutor

        try:
            base = PreloadExecutor(get_profile(args.baseline), device).run(
                graph, scenario=scenario, check_support=not scenario.is_decode
            )
        except ModelNotSupportedError:
            print(f"{args.baseline}: model not supported")
            return 0
        print(f"{args.baseline}: {base.latency_ms:.0f} ms, avg {base.avg_memory_mb:.0f} MB")
        print(f"Speedup {base.latency_ms / result.latency_ms:.1f}x, "
              f"memory reduction {base.avg_memory_bytes / result.avg_memory_bytes:.1f}x")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    """``repro compile MODEL [DEVICE]``: one request, direct or via service."""
    import json

    from repro.service.request import CompileRequest, execute_compile

    try:
        request = CompileRequest(
            model=args.model,
            device=args.device_pos or args.device,
            context_len=args.context,
            target_preload_ratio=args.preload_ratio,
            capacity_backend=args.capacity_backend,
        ).normalized()
    except (KeyError, ValueError) as exc:
        # A malformed request is a usage error (exit code 2), as for ``run``.
        args.parser.error(exc.args[0])
    if args.via_service:
        from repro.service.daemon import ServiceError
        from repro.service.server import ServiceClient

        try:
            with ServiceClient(args.via_service) as client:
                response = client.compile(request)
        except (OSError, ServiceError) as exc:
            raise SystemExit(f"error: service at {args.via_service}: {exc}")
        print(f"{request.label()}: {response['solver_status']}, "
              f"preload {response['preload_ratio'] * 100:.1f}% "
              f"(served from {response['source']}"
              + (", coalesced" if response["coalesced"] else "")
              + (f", {response['wall_s']:.2f}s worker wall" if response["wall_s"] else "")
              + ")")
        plan_json = json.dumps(response["plan"], indent=2)
    else:
        compiled = execute_compile(request)
        plan = compiled.plan
        print(f"{request.label()}: {plan.stats.solver_status}, "
              f"preload {plan.preload_ratio * 100:.1f}% "
              f"(compiled in-process in {compiled.compile_s:.2f}s)")
        plan_json = plan.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(plan_json)
        print(f"  plan written to {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the plan-compilation daemon until interrupted."""
    import asyncio

    from repro.service.server import DEFAULT_SOCKET, run_server

    socket_path = args.socket or DEFAULT_SOCKET
    cache_dir = _cache_dir(args)

    def ready() -> None:
        print(f"plan-compilation service listening on {socket_path} "
              f"({args.workers} worker(s), cache "
              f"{cache_dir if cache_dir else 'disabled'}); Ctrl-C to stop",
              flush=True)

    try:
        asyncio.run(run_server(
            socket_path, workers=args.workers, cache_dir=cache_dir,
            max_batch=args.max_batch, ready=ready,
        ))
    except KeyboardInterrupt:
        print("service stopped")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.capacity.model import analytic_capacity_model
    from repro.opg.lcopg import LcOpgSolver

    device = get_device(args.device)
    graph = load_model(args.model)
    plan = LcOpgSolver().solve(
        graph, analytic_capacity_model(device), device_name=device.name
    )
    stats = plan.stats
    print(f"{plan.model} on {plan.device}: {stats.solver_status}")
    print(f"  windows {stats.windows} (cp {stats.cp_windows}, floor {stats.floor_closed_windows}, "
          f"heuristic {stats.heuristic_windows})")
    print(f"  solve {stats.solve_s:.2f}s, build {stats.build_model_s:.2f}s")
    print(f"  preload {plan.preload_ratio * 100:.1f}% "
          f"({len(plan.preloaded_weights)} of {len(plan.schedules)} weights)")
    if args.solver_stats:
        _print_solver_stats(plan)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(plan.to_json())
        print(f"  plan written to {args.out}")
    return 0


def _cmd_make_trace(args: argparse.Namespace) -> int:
    """``repro make-trace OUT``: generate and save a seeded fleet trace."""
    from repro.fleet.trace import generate_trace

    trace = generate_trace(
        seed=args.seed,
        duration_s=args.duration_s,
        rate_per_min=args.rate_per_min,
        invocations=args.invocations,
    )
    path = trace.save(args.out)
    print(trace.describe())
    print(f"trace written to {path}")
    return 0


def _cmd_serve_trace(args: argparse.Namespace) -> int:
    """``repro serve-trace TRACE``: replay a trace over the fleet grid."""
    from repro.fleet.population import DEFAULT_DEVICES, DEFAULT_RUNTIMES, run_fleet
    from repro.fleet.replay import DEFAULT_SLO_MULTIPLIER
    from repro.fleet.trace import Trace

    try:
        trace = Trace.load(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error: cannot load trace {args.trace}: {exc}")
    devices = tuple(args.devices or DEFAULT_DEVICES)
    report = run_fleet(
        trace,
        devices,
        tuple(args.runtimes or DEFAULT_RUNTIMES),
        jobs=args.jobs,
        cache_dir=_cache_dir(args),
        slo_multiplier=(args.slo_multiplier if args.slo_multiplier is not None
                        else DEFAULT_SLO_MULTIPLIER),
        memoize=not args.naive,
    )
    print(report.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.sweep.suite import run_suite

    names = EXPERIMENTS if args.name == "all" else [args.name]
    cache_dir = _cache_dir(args)
    results_dir = args.results_dir or ("results" if args.name == "all" else None)
    report = run_suite(
        names,
        jobs=args.jobs,
        cache_dir=cache_dir,
        results_dir=results_dir,
        progress=print if args.name == "all" else None,
    )
    if args.name != "all":
        text = report.text_for(args.name)
        if text is not None:
            print(text)
    if report.written:
        print(f"wrote {len(report.written)} rendered outputs to {results_dir}/")
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "make-trace":
        return _cmd_make_trace(args)
    if args.command == "serve-trace":
        return _cmd_serve_trace(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "profile":
        if args.profile_what == "run":
            return _cmd_profile_run(args)
        if args.profile_what == "capacity":
            return _cmd_profile_capacity(args)
        return _cmd_profile(args)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
